#!/usr/bin/env python3
"""Compare the CLI outputs of two source trees on the benchmark's operations.

    python scripts/compare_outputs.py --base ../nclp-parent \\
        --workload dinq seqnorm maps cli --seed 701 1000

Every operation of each ``perfbench`` workload (inputs from this checkout's
``perfbench/gen.py``, written to a temporary directory) runs through
``nclp.cli.run_command`` in-process, once with the ``src`` of ``--base`` and
once with the ``src`` of this checkout, each tree in its own subprocess.
The ``cli`` workload is a fixed list of generator commands, which no
benchmark operation replays: every ``nclp example`` kind with ``--dim 3``
and every ``nclp gen`` kind with ``--dims 2,1 --weights 1,0.5``, each at
``--seed``.
Per workload and seed it prints the number of outputs that are not
byte-identical (exit code, stdout, stderr), the operations
whose exit code, verdict, route or ``certified_exact`` differ, and the
largest relative difference between corresponding printed numbers.  The
last line is a JSON summary.  Exit status 1 when any exit code, decision or
output structure differs, or a number moves by more than 1e-12 relative.
Nothing under ``perfbench/`` is changed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DECISION_KEYS = ("verdict", "status", "route", "certified_exact")
REL_TOL = 1e-12
WORKLOADS = ("dinq", "seqnorm", "maps", "cli")
EXAMPLE_KINDS = ("transpose", "identity", "rotation", "depolarizing", "unitary", "yeadon")
GEN_KINDS = ("positive-seq", "seq", "disjoint-pair", "positive-disjoint-pair",
             "nondisjoint-pair", "element", "positive-element", "map", "separating-map",
             "cp-map", "positive-map", "isometry", "commutative-map")


def cli_argvs(seed: int) -> list:
    """The ``cli`` workload: every example and gen kind at ``seed``."""
    tail = ["--seed", str(seed)]
    return ([["example", kind, "--dim", "3", *tail] for kind in EXAMPLE_KINDS]
            + [["gen", "--kind", kind, "--dims", "2,1", "--weights", "1,0.5", *tail]
               for kind in GEN_KINDS])


def _operations(workload: str, seed: int, tmp: str) -> tuple:
    """(labels, argvs, inputs digest) of the workload's operations."""
    if workload == "cli":
        argvs = cli_argvs(seed)
        digest = hashlib.sha256(json.dumps(argvs).encode()).hexdigest()[:16]
        return [" ".join(argv) for argv in argvs], argvs, digest
    import gen

    ops, digest = gen.build(workload, seed, os.path.join(tmp, "ops"))
    return [" ".join(op.argv()[:1] + op.flags) for op in ops], [op.argv() for op in ops], digest


def run_worker(manifest: str, src: str) -> int:
    """Run every op of the manifest against ``src``; print the results."""
    sys.path.insert(0, src)
    import nclp.cli

    if not os.path.abspath(nclp.cli.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"nclp was imported from {nclp.cli.__file__}, not {src}", file=sys.stderr)
        return 2
    with open(manifest, encoding="utf-8") as fh:
        argvs = json.load(fh)
    results = []
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = nclp.cli.run_command(argv)
            except Exception as exc:  # an escaped exception is an output too
                code = f"raised {type(exc).__name__}: {exc}"
        results.append([code, out.getvalue(), err.getvalue()])
    json.dump(results, sys.stdout)
    return 0


def _spawn(manifest: str, tree: str) -> subprocess.Popen:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env.pop("NCLP_SEED", None)
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, os.path.abspath(__file__), "--worker", manifest,
           "--src", os.path.join(tree, "src")]
    return subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=env)


def _collect(proc: subprocess.Popen, tree: str) -> list:
    out, err = proc.communicate()
    if proc.returncode != 0:
        raise SystemExit(f"worker for {tree} failed ({proc.returncode}):\n{err}")
    return json.loads(out)


def _parse(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _decisions(doc, path="$") -> list:
    """(path, value) of every decision key, in document order."""
    found = []
    if isinstance(doc, dict):
        for key, value in doc.items():
            sub = f"{path}.{key}"
            if key in DECISION_KEYS and not isinstance(value, (dict, list)):
                found.append((sub, value))
            found.extend(_decisions(value, sub))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            found.extend(_decisions(value, f"{path}[{i}]"))
    return found


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _rel(a: float, b: float) -> float:
    if a == b:
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def _number_diffs(a, b, path="$"):
    """Yield (path, relative difference) for every pair of numbers at the
    same place; (path, None) where the two documents differ otherwise."""
    if _is_number(a) and _is_number(b):
        yield path, _rel(float(a), float(b))
    elif isinstance(a, dict) and isinstance(b, dict):
        if list(a) != list(b):
            yield path, None
            return
        for key in a:
            yield from _number_diffs(a[key], b[key], f"{path}.{key}")
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            yield path, None
            return
        for i, (x, y) in enumerate(zip(a, b)):
            yield from _number_diffs(x, y, f"{path}[{i}]")
    elif a != b or type(a) is not type(b):
        yield path, None


def compare(workload: str, seed: int, base: str) -> dict:
    with tempfile.TemporaryDirectory(prefix="compare_outputs_") as tmp:
        labels, argvs, digest = _operations(workload, seed, tmp)
        manifest = os.path.join(tmp, "ops.json")
        with open(manifest, "w", encoding="utf-8") as fh:
            json.dump(argvs, fh)
        procs = [_spawn(manifest, tree) for tree in (base, ROOT)]
        old, new = (_collect(p, t) for p, t in zip(procs, (base, ROOT)))

    summary = {"workload": workload, "seed": seed, "inputs": digest, "ops": len(argvs),
               "byte_different": 0, "exit": [], "decision": [], "structure": [],
               "stderr": [], "max_rel": 0.0, "max_rel_at": None}
    for i, ((c0, o0, e0), (c1, o1, e1)) in enumerate(zip(old, new)):
        if [c0, o0, e0] == [c1, o1, e1]:
            continue
        summary["byte_different"] += 1
        name = f"op{i:03d} ({labels[i]})"
        if c0 != c1:
            summary["exit"].append(f"{name}: {c0!r} -> {c1!r}")
        if e0 != e1:
            summary["stderr"].append(name)
        d0, d1 = _parse(o0), _parse(o1)
        if _decisions(d0) != _decisions(d1):
            summary["decision"].append(f"{name}: {_decisions(d0)} -> {_decisions(d1)}")
        for path, rel in _number_diffs(d0, d1):
            if rel is None:
                summary["structure"].append(f"{name} at {path}")
            elif rel > summary["max_rel"]:
                summary["max_rel"], summary["max_rel_at"] = rel, f"{name} at {path}"
    return summary


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", help="root of the checkout to compare against (required)")
    ap.add_argument("--workload", nargs="+", default=["dinq", "seqnorm", "maps"],
                    choices=WORKLOADS)
    ap.add_argument("--seed", nargs="+", type=int, default=[701])
    ap.add_argument("--worker", help=argparse.SUPPRESS)
    ap.add_argument("--src", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        return run_worker(args.worker, args.src)
    if not args.base:
        ap.error("--base is required")
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))

    results, bad = [], False
    for workload in args.workload:
        for seed in args.seed:
            s = compare(workload, seed, os.path.abspath(args.base))
            results.append(s)
            print(f"{workload} seed {seed}: {s['byte_different']}/{s['ops']} outputs differ; "
                  f"exit {len(s['exit'])}, decision {len(s['decision'])}, "
                  f"structure {len(s['structure'])}, stderr {len(s['stderr'])}; "
                  f"max rel diff {s['max_rel']:.2g}"
                  + (f" ({s['max_rel_at']})" if s["max_rel_at"] else ""), flush=True)
            for key in ("exit", "decision", "structure"):
                for line in s[key]:
                    print(f"  {key}: {line}")
            bad |= bool(s["exit"] or s["decision"] or s["structure"]) or s["max_rel"] > REL_TOL
    print(json.dumps(results))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
