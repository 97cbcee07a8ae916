#!/usr/bin/env python3
"""Benchmark for nclp: three workloads of CLI-equivalent operations.

    python3 perfbench/run.py --workload dinq --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the root of a checkout.  Each operation calls
``nclp.cli.run_command`` in-process with stdout captured, which is what a
README pipeline such as ``nclp example rotation | nclp classify-l2`` does
minus interpreter start-up.  nclp is imported from the checkout's ``src``.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced pass with ``--trace 1``.
See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys
import time

WORKLOADS = ("dinq", "seqnorm", "maps")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def run_all(args):
    """Each workload in its own process; prints every metric by name."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        res = json.loads(lines[-1])
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        for name, m in res["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(merged))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    # one client, BLAS capped at the cores this process may use; set before
    # numpy is first imported
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    os.environ.pop("NCLP_SEED", None)
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)

    t0 = time.perf_counter()
    try:
        import nclp.cli
    except ImportError as exc:
        print(f"perfbench: cannot import nclp from {SRC}: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t0
    if not os.path.abspath(nclp.cli.__file__).startswith(SRC + os.sep):
        print(f"perfbench: nclp was imported from {nclp.cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    import bench

    print(f"machine: {json.dumps(bench.machine_info())}")
    res = bench.run_workload(args.workload, args.seed, args.seconds, args.trace,
                             ROOT, SRC, import_s)
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
