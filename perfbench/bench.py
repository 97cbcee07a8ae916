"""Workload runner: set-up, the timed closed loop, output checks, digests and
the traced per-layer run.  ``run.py`` is the entry point; it caps the BLAS
threads and puts the checkout's ``src`` first on the path before importing
this module.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

import checks
import gen
import tracer as tracing

# A timed run needs at least this many ops, so that ten samples lie beyond p90.
MIN_OPS = 100
SETUP_REPEATS = 3
PROBE_EVERY_S = 0.1
PROBE_REF_S = 0.0029

END_TO_END = (
    ("ops_per_s", "ops/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("decided_frac", "ratio"),
    ("rel_gap_mean", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

IMPORT_PROBE = ("import time; t = time.perf_counter(); import nclp.cli; "
                "print(time.perf_counter() - t)")


@dataclass
class Run:
    """Raw result of executing one op."""

    code: object
    stdout: str
    stderr: str
    seconds: float


@dataclass
class Outcome:
    """What the first pass learned about one op."""

    doc: object
    problems: list
    answer: tuple
    output_hash: str
    decided: bool = False
    gap: object = None


def execute(run_command, op) -> Run:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = run_command(op.argv())
        except Exception as exc:  # an escaped exception is a failed op, not a crash
            code = f"raised {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
    return Run(code, out.getvalue(), err.getvalue(), seconds)


def _hash(text):
    return hashlib.sha256(text.encode()).hexdigest()


def assess(op, run: Run) -> Outcome:
    try:
        doc = json.loads(run.stdout) if run.stdout.strip() else None
    except json.JSONDecodeError:
        doc = None
    problems = checks.check(op, run.code, doc)
    doc = doc if isinstance(doc, dict) else {}
    iv = doc.get("interval") or {}
    answer = (run.code, doc.get("verdict"), doc.get("route"), iv.get("certified_exact"))
    return Outcome(doc, problems, answer, _hash(run.stdout),
                   decided=checks.decided(op, doc), gap=checks.rel_gap(doc))


def answers_digest(outcomes):
    h = hashlib.sha256()
    for o in outcomes:
        h.update(json.dumps(o.answer, default=str).encode())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def setup(workload, seed, workdir, src, import_s):
    """Median import time (this process plus fresh interpreters) plus the
    median time to generate and write the inputs."""
    env = dict(os.environ, PYTHONPATH=src)
    imports = [import_s]
    for _ in range(SETUP_REPEATS - 1):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                             capture_output=True, text=True, check=True, timeout=120)
        imports.append(float(out.stdout.strip().splitlines()[-1]))
    builds, digests = [], set()
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        t0 = time.perf_counter()
        ops, digest = gen.build(workload, seed, workdir)
        builds.append(time.perf_counter() - t0)
        digests.add(digest)
    if len(digests) != 1:
        raise RuntimeError("input generation is not deterministic")
    return ops, digest, statistics.median(imports) + statistics.median(builds)


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


def hd_quantile(values, q):
    """Harrell-Davis estimate of the q-quantile: the Beta((n+1)q, (n+1)(1-q))
    weighted mean of all order statistics.  It estimates the same quantile
    as the single order statistic but does not jump between clusters of op
    costs when few samples lie near the quantile."""
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    grid = np.linspace(0.0, 1.0, 20001)
    with np.errstate(divide="ignore"):
        logpdf = (a - 1) * np.log(grid) + (b - 1) * np.log1p(-grid)
    pdf = np.exp(logpdf - logpdf.max())
    cdf = np.concatenate([[0.0], np.cumsum(pdf[1:] + pdf[:-1])])
    cdf /= cdf[-1]
    weights = np.diff(np.interp(np.arange(n + 1) / n, grid, cdf))
    return float(weights @ x)


def one_pass(run_command, ops):
    t0 = time.perf_counter()
    runs = [execute(run_command, op) for op in ops]
    return runs, time.perf_counter() - t0


class Probe:
    """Machine-speed calibration.

    Shared virtual machines drift in speed by 10-25 % over tens of seconds,
    for every kind of code alike (measured on the baseline machine, see
    README.md).  A fixed probe of
    small-matrix numpy and Python work, run between ops about every
    PROBE_EVERY_S, samples that drift; timed metrics are reported scaled by
    PROBE_REF_S / (trimmed mean probe time), i.e. in the time the op would
    take at the probe's reference speed.  The probe never runs inside an op.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.mats = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                     for d in (1, 2, 3, 4) for _ in range(2)]
        self.doc = json.dumps({"m": [[[z.real, z.imag] for z in row] for row in self.mats[-1]]})
        self.times = []

    def run(self):
        t0 = time.perf_counter()
        for _ in range(6):
            for m in self.mats:
                s = np.linalg.svd(m, compute_uv=False)
                w, v = np.linalg.eigh(m @ m.conj().T)
                x = (v * np.sqrt(np.clip(w, 0, None))[None, :]) @ v.conj().T
                float(np.sum(s ** 1.5)) + abs(sum(complex(z) for z in x.ravel()))
            json.loads(self.doc)
        self.times.append(time.perf_counter() - t0)

    @property
    def mean(self):
        """Mean probe time without the slowest and fastest tenth, which are
        single interruptions rather than the machine's speed."""
        cut = len(self.times) // 10
        return statistics.fmean(sorted(self.times)[cut:len(self.times) - cut])

    @property
    def scale(self):
        return PROBE_REF_S / self.mean


def timed_loop(run_command, ops, seconds, probe):
    """Closed loop, one client, cycling through the op list: at least one
    whole pass and MIN_OPS ops, then on until ``seconds`` have passed."""
    probe.run()
    t0 = last_probe = time.perf_counter()
    runs = []
    while len(runs) < max(len(ops), MIN_OPS) or time.perf_counter() - t0 < seconds:
        runs.append(execute(run_command, ops[len(runs) % len(ops)]))
        if time.perf_counter() - last_probe >= PROBE_EVERY_S:
            probe.run()
            last_probe = time.perf_counter()
    return runs


def check_runs(ops, runs):
    """Assess the first pass; a repeat fails if its op failed or printed
    different bytes.  Returns the outcomes and the number of failed runs."""
    outcomes = [assess(op, run) for op, run in zip(ops, runs)]
    failed = sum(bool(o.problems) for o in outcomes)
    for j in range(len(ops), len(runs)):
        o = outcomes[j % len(ops)]
        if o.problems or _hash(runs[j].stdout) != o.output_hash:
            failed += 1
            if not o.problems:
                o.problems.append("output differs from the first pass")
    return outcomes, failed


def summary(outcomes, n_attempted, n_failed):
    gaps = [o.gap for o in outcomes if o.gap is not None]
    return {
        "decided_frac": sum(o.decided for o in outcomes) / len(outcomes),
        "rel_gap_mean": statistics.fmean(gaps) if gaps else 0.0,
        "failed_frac": n_failed / n_attempted,
    }


def route_counts(outcomes):
    """Answers by certify route or verdict; seqnorm prints neither, so its
    answers count as certified_exact or enclosure."""
    def label(o):
        exact = (o.doc.get("interval") or {}).get("certified_exact")
        return (o.doc.get("route") or o.doc.get("verdict")
                or ("certified_exact" if exact else "enclosure"))
    return dict(sorted(Counter(label(o) for o in outcomes).items()))


def run_workload(workload, seed, seconds, trace, root, src, import_s):
    """Set up, run and report one workload; returns the result object."""
    import nclp.cli

    workdir = os.path.join(root, ".perfbench", f"{workload}-{seed}-{os.getpid()}")
    try:
        ops, inputs_digest, setup_s = setup(workload, seed, workdir, src, import_s)
        if trace:
            return traced_run(workload, ops, inputs_digest, root, nclp.cli)
        probe = Probe()
        runs = timed_loop(nclp.cli.run_command, ops, seconds, probe)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    outcomes, failed = check_runs(ops, runs)
    attempted = len(runs)
    lat_ms = [1e3 * r.seconds for r in runs]
    q = summary(outcomes, attempted, failed)
    raw = {
        "ops_per_s": attempted / (1e-3 * sum(lat_ms)),
        "latency_p50_ms": hd_quantile(lat_ms, 0.5),
        "latency_p90_ms": hd_quantile(lat_ms, 0.9),
    }
    metrics = {
        "ops_per_s": raw["ops_per_s"] / probe.scale,
        "latency_p50_ms": raw["latency_p50_ms"] * probe.scale,
        "latency_p90_ms": raw["latency_p90_ms"] * probe.scale,
        "decided_frac": q["decided_frac"],
        "rel_gap_mean": q["rel_gap_mean"],
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    report_header(workload, ops, inputs_digest, outcomes, attempted)
    units = dict(END_TO_END)
    for name, value in metrics.items():
        print(f"  {name:<16} {value:12.6g} {units[name]}")
    print(f"  {'failed_frac':<16} {q['failed_frac']:12.6g} ratio   ({failed} of {attempted} ops)")
    print(f"  unscaled: {', '.join(f'{k} {v:.6g}' for k, v in raw.items())}; "
          f"sample median {statistics.median(lat_ms):.6g} ms, sample p90 "
          f"{statistics.quantiles(lat_ms, n=10)[8]:.6g} ms; "
          f"probe mean {1e3 * probe.mean:.4g} ms over "
          f"{len(probe.times)} probes, scale {probe.scale:.4f}")
    report_failures(ops, outcomes)
    return result(failed, attempted, {k: (v, units[k]) for k, v in metrics.items()})


def traced_run(workload, ops, inputs_digest, root, cli):
    """One untraced pass, then one traced pass over the same ops."""
    plain, t_plain = one_pass(cli.run_command, ops)
    tr = tracing.Tracer()
    tr.install()
    try:
        runs = []
        t0 = time.perf_counter()
        for i, op in enumerate(ops):
            tr.op = i
            tr.active = True
            try:
                runs.append(execute(cli.run_command, op))
            finally:
                tr.active = False
        t_traced = time.perf_counter() - t0
    finally:
        tr.restore()
    os.makedirs(os.path.join(root, ".perfbench"), exist_ok=True)
    tr.save(os.path.join(root, ".perfbench", f"trace-{workload}.npz"))

    outcomes, failed = check_runs(ops, plain + runs)
    layers = tr.layer_metrics(len(ops))
    layers["trace.overhead_frac"] = (t_traced / t_plain - 1.0, "ratio")
    report_header(workload, ops, inputs_digest, outcomes, 2 * len(ops))
    print(f"  traced pass {t_traced:.3f} s, untraced pass {t_plain:.3f} s, "
          f"{len(tr.start)} spans")
    if tr.missing:
        print("  not found (metrics read 0): " + ", ".join(tr.missing))
    for name, (value, unit) in layers.items():
        print(f"  {name:<42} {value:12.6g} {unit}")
    report_failures(ops, outcomes)
    return result(failed, 2 * len(ops), layers)


def report_header(workload, ops, inputs_digest, outcomes, attempted):
    print(f"workload {workload}: {len(ops)} distinct ops, {attempted} attempted")
    print(f"  inputs digest  {inputs_digest}")
    print(f"  answers digest {answers_digest(outcomes)}")
    print(f"  answers: {json.dumps(route_counts(outcomes))}")


def report_failures(ops, outcomes):
    for i, (op, o) in enumerate(zip(ops, outcomes)):
        if o.problems:
            print(f"  FAILED op{i:03d} {op.command} {op.kind}: {'; '.join(o.problems)}")


def result(failed, attempted, metrics):
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def machine_info():
    blas = "unknown"
    try:
        cfg = np.show_config(mode="dicts")
        deps = cfg.get("Build Dependencies", {})
        blas = f"{deps.get('blas', {}).get('name')} {deps.get('blas', {}).get('version')}"
    except (TypeError, AttributeError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }
