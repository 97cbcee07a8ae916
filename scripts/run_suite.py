#!/usr/bin/env python3
"""Run the full property suite and print the report.

Usage: python scripts/run_suite.py [--seed S] [--scale F] [--only SUBSTRING]

Exits 0 when every property passes, 1 when one fails, and 3 with an error
on stderr when no property id contains SUBSTRING.
"""

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from nclp.algebra import DomainError, ToleranceConfig
from nclp.suite import run_suite


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--scale", type=float, default=1.0)
    ap.add_argument("--only", type=str, default=None)
    args = ap.parse_args()

    cfg = ToleranceConfig(seed=args.seed)
    t0 = time.perf_counter()
    try:
        report = run_suite(cfg, only=args.only, budget_scale=args.scale)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    wall = time.perf_counter() - t0

    for r in report.records:
        flag = "ok " if r.failed == 0 else "FAIL"
        print(
            f"[{flag}] {r.property_id:40s} n={r.instances:5d} "
            f"fail={r.failed:3d} und={r.undetermined:3d} "
            f"res={r.max_residual:9.2e} {r.wall_ms:8.0f}ms"
        )
    print(f"\noverall: {'PASS' if report.overall_pass else 'FAIL'} in {wall:.1f}s "
          f"(seed {args.seed}, scale {args.scale})")
    return 0 if report.overall_pass else 1


if __name__ == "__main__":
    sys.exit(main())
