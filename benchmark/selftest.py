#!/usr/bin/env python3
"""Exact-count self-test: two traced runs with one seed must agree.

Usage, from the repository root:

    python3 benchmark/selftest.py [--seed N] [--seconds S] [workload ...]

Runs ``run.py --trace 1`` twice per workload (default: all three) and
compares the per-pass counts named in ``tracer.EXACT_COUNTS``.  Each pass
is the same list of operations, so these counts are exact integers; a
count that does not repeat is reported as a determinism bug, never
smoothed.  Exits 1 if any count differs.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import EXACT_COUNTS  # noqa: E402


def traced_counts(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1"],
        cwd=HERE.parent, stdout=subprocess.PIPE, text=True, check=True)
    metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
    return {name: metrics[name]["value"] for name in EXACT_COUNTS}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="*", default=["build", "decide", "suite"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=4)
    args = parser.parse_args()
    bad = 0
    for workload in args.workloads:
        first = traced_counts(workload, args.seed, args.seconds)
        second = traced_counts(workload, args.seed, args.seconds)
        for name in EXACT_COUNTS:
            a, b = first[name], second[name]
            verdict = "repeats" if a == b and a == int(a) else "DETERMINISM BUG"
            bad += verdict != "repeats"
            print(f"{workload:7s} {name:40s} {a:>14.0f} {b:>14.0f}  {verdict}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
