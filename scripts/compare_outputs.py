#!/usr/bin/env python3
"""Compare the CLI outputs of two source trees on the benchmark's operations.

    python scripts/compare_outputs.py --base ../nclp-parent \\
        --workload dinq seqnorm maps cli --seed 701 1000

Every operation of each ``perfbench`` workload (inputs from this checkout's
``perfbench/gen.py``, written to a temporary directory) runs through
``nclp.cli.run_command`` in-process, once with the ``src`` of ``--base`` and
once with the ``src`` of this checkout, each tree in its own subprocess.
The ``cli`` workload is a fixed list of commands, most of which no
benchmark operation replays: every ``nclp example`` kind with ``--dim 3``
and every ``nclp gen`` kind with ``--dims 2,1 --weights 1,0.5`` (none for
the kinds that draw their own algebras), each at
``--seed``, then every command that reads an instance, each through
``--in`` on files that this checkout's generators write from those
commands, and a small ``nclp suite`` run.
Per workload and seed it prints the number of outputs that are not
byte-identical (exit code, stdout, stderr), the operations
whose exit code, verdict, route, ``certified_exact`` or counts of pair
statuses differ, and the
largest relative difference between corresponding printed numbers, with
every JSON path at which a number moved (array indices folded to ``[]``)
and the largest relative move at that path.  Two
sound enclosures of one norm always intersect, so it also lists the
operations whose printed ``interval`` in the two trees is disjoint beyond
1e-9 relative, and counts those whose new interval is not inside the base
one (a JSON null upper endpoint is +inf).  The last line is a JSON
summary.  Exit status 1 when any exit code, decision or output structure
differs, two intervals are disjoint, or a number moves by more than 1e-12
relative.  Nothing under ``perfbench/`` is changed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DECISION_KEYS = ("verdict", "status", "route", "certified_exact")
# decisions counted by value, such as classify-l2's evidence.pair_statuses
# ({"undetermined": 18} -> {"not_disjoint": 18}): a changed key or count is
# a changed decision, not a change of structure or a drifting number
DECISION_COUNTS = ("pair_statuses",)
REL_TOL = 1e-12
OVERLAP_TOL = 1e-9
WORKLOADS = ("dinq", "seqnorm", "maps", "cli")
EXAMPLE_KINDS = ("transpose", "identity", "rotation", "depolarizing", "unitary", "yeadon")
GEN_KINDS = ("positive-seq", "seq", "disjoint-pair", "positive-disjoint-pair",
             "nondisjoint-pair", "element", "positive-element", "map", "separating-map",
             "cp-map", "positive-map", "isometry", "commutative-map")
# gen kinds that draw their own algebras and refuse --dims and --weights
FIXED_ALGEBRA_KINDS = ("separating-map", "isometry", "commutative-map")
# (command and flags, example or gen kind of the instance it reads); at seeds
# 5, 701 and 1000 these reach exit codes 0 and 1 of every command that prints
# a verdict, though none of them is undetermined (exit 2)
READERS = (
    (["norm", "--p", "3"], "element"),
    (["seqnorm", "--p", "3"], "seq"),
    (["seqnorm"], "positive-seq"),
    (["disjoint"], "disjoint-pair"),
    (["disjoint"], "nondisjoint-pair"),
    (["dinq"], "positive-disjoint-pair"),
    (["dinq"], "nondisjoint-pair"),
    (["yeadon"], "separating-map"),
    (["yeadon"], "rotation"),
    (["separating"], "separating-map"),
    (["separating", "--budget", "8"], "map"),
    (["certify"], "cp-map"),
    (["certify", "--p", "3", "--budget", "5"], "transpose"),
    (["certify", "--budget", "5"], "positive-map"),
    (["classify-l2"], "isometry"),
    (["classify-l2", "--budget", "6"], "transpose"),
    (["classify-l2", "--budget", "6"], "rotation"),
)


def cli_argvs(seed: int, tmp: str | None = None) -> list:
    """The ``cli`` workload: every example and gen kind at ``seed`` and,
    given a directory ``tmp``, the ``READERS`` on instance files that this
    checkout's generators write into it, and a ``suite`` run."""
    tail = ["--seed", str(seed)]
    makers = {kind: ["example", kind, "--dim", "3", *tail] for kind in EXAMPLE_KINDS}
    algebra = ["--dims", "2,1", "--weights", "1,0.5"]
    makers.update((kind, ["gen", "--kind", kind, *([] if kind in FIXED_ALGEBRA_KINDS else algebra), *tail])
                  for kind in GEN_KINDS)
    argvs = list(makers.values())
    if tmp is None:
        return argvs
    if os.path.join(ROOT, "src") not in sys.path:
        sys.path.insert(0, os.path.join(ROOT, "src"))
    from nclp.cli import run_command

    for flags, kind in READERS:
        path = os.path.join(tmp, f"{kind}.json")
        if not os.path.exists(path) and run_command([*makers[kind], "--out", path]) != 0:
            raise SystemExit(f"could not write the {kind} instance")
        argvs.append([*flags, "--in", path])
    return argvs + [["suite", "--only", "polar", "--budget", "10", *tail]]


def _operations(workload: str, seed: int, tmp: str) -> tuple:
    """(labels, argvs, inputs digest) of the workload's operations."""
    if workload == "cli":
        inputs = os.path.join(tmp, "inputs")
        os.makedirs(inputs)
        argvs = cli_argvs(seed, inputs)
        digest = hashlib.sha256(json.dumps(argvs).replace(inputs, "").encode())
        for name in sorted(os.listdir(inputs)):
            with open(os.path.join(inputs, name), "rb") as fh:
                digest.update(fh.read())
        labels = [" ".join(argv).replace(inputs + os.sep, "") for argv in argvs]
        return labels, argvs, digest.hexdigest()[:16]
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
            if key in DECISION_COUNTS or (key in DECISION_KEYS and not isinstance(value, (dict, list))):
                found.append((sub, value))
            if key not in DECISION_COUNTS:
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
    same place; (path, None) where the two documents differ otherwise: at
    each key that only one dict has, and at a dict whose shared keys are
    reordered.  Decision counts are left to ``_decisions``."""
    if _is_number(a) and _is_number(b):
        yield path, _rel(float(a), float(b))
    elif isinstance(a, dict) and isinstance(b, dict):
        shared = [key for key in a if key in b]
        if shared != [key for key in b if key in a]:
            yield path, None
        for key in dict.fromkeys([*a, *b]):
            if key in DECISION_COUNTS:
                continue
            if key not in shared:
                yield f"{path}.{key}", None
            else:
                yield from _number_diffs(a[key], b[key], f"{path}.{key}")
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            yield path, None
            return
        for i, (x, y) in enumerate(zip(a, b)):
            yield from _number_diffs(x, y, f"{path}[{i}]")
    elif a != b or type(a) is not type(b):
        yield path, None


def _interval(doc):
    """(lower, upper) of a document's interval, or None without one."""
    iv = doc.get("interval") if isinstance(doc, dict) else None
    if not isinstance(iv, dict) or not _is_number(iv.get("lower")):
        return None
    upper = iv.get("upper")
    return float(iv["lower"]), math.inf if upper is None else float(upper)


def _below(a: float, b: float) -> bool:
    """a < b beyond OVERLAP_TOL relative."""
    return a < b - OVERLAP_TOL * max(abs(a), abs(b) if math.isfinite(b) else 0.0, 1e-300)


def compare(workload: str, seed: int, base: str) -> dict:
    with tempfile.TemporaryDirectory(prefix="compare_outputs_") as tmp:
        labels, argvs, digest = _operations(workload, seed, tmp)
        manifest = os.path.join(tmp, "ops.json")
        with open(manifest, "w", encoding="utf-8") as fh:
            json.dump(argvs, fh)
        procs = [_spawn(manifest, tree) for tree in (base, ROOT)]
        old, new = (_collect(p, t) for p, t in zip(procs, (base, ROOT)))

    return {"workload": workload, "seed": seed, "inputs": digest, "ops": len(argvs),
            **_tally(zip(old, new), labels)}


def _tally(pairs, labels) -> dict:
    """The differences between corresponding outputs [exit code, stdout,
    stderr] of the two trees, one pair per operation."""
    summary = {"byte_different": 0, "exit": [], "decision": [], "structure": [],
               "stderr": [], "disjoint": [], "not_inside": 0, "max_rel": 0.0,
               "max_rel_at": None, "moved": {}}
    for i, ((c0, o0, e0), (c1, o1, e1)) in enumerate(pairs):
        if [c0, o0, e0] == [c1, o1, e1]:
            continue
        summary["byte_different"] += 1
        name = f"op{i:03d} ({labels[i]})"
        if c0 != c1:
            summary["exit"].append(f"{name}: {c0!r} -> {c1!r}")
        if e0 != e1:
            summary["stderr"].append(name)
        d0, d1 = _parse(o0), _parse(o1)
        i0, i1 = _interval(d0), _interval(d1)
        if i0 is not None and i1 is not None:
            if _below(i0[1], i1[0]) or _below(i1[1], i0[0]):
                summary["disjoint"].append(f"{name}: {list(i0)} vs {list(i1)}")
            summary["not_inside"] += _below(i1[0], i0[0]) or _below(i0[1], i1[1])
        if _decisions(d0) != _decisions(d1):
            summary["decision"].append(f"{name}: {_decisions(d0)} -> {_decisions(d1)}")
        for path, rel in _number_diffs(d0, d1):
            if rel is None:
                if path.rsplit(".", 1)[-1] not in DECISION_KEYS:  # listed as decisions
                    summary["structure"].append(f"{name} at {path}")
            elif rel > 0.0:
                folded = re.sub(r"\[\d+\]", "[]", path)
                summary["moved"][folded] = max(rel, summary["moved"].get(folded, 0.0))
                if rel > summary["max_rel"]:
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
                  f"intervals disjoint {len(s['disjoint'])}, not inside {s['not_inside']}; "
                  f"max rel diff {s['max_rel']:.2g}"
                  + (f" ({s['max_rel_at']})" if s["max_rel_at"] else "")
                  + "".join(f"; moved {path} {rel:.2g}" for path, rel in
                            sorted(s["moved"].items(), key=lambda kv: -kv[1])), flush=True)
            for key in ("exit", "decision", "structure", "disjoint"):
                for line in s[key]:
                    print(f"  {key}: {line}")
            bad |= (bool(s["exit"] or s["decision"] or s["structure"] or s["disjoint"])
                    or s["max_rel"] > REL_TOL)
    print(json.dumps(results))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
