"""Check that the traced run's counts repeat exactly.

Run from the repository root:

    python3 bench/check_repeat.py [--seed N] [workload ...]

Runs ``bench/run.py --trace 1`` twice per workload with one seed and
compares every count and every ratio of counts.  A count that differs
between the two runs is a defect of the harness, not noise: the script
names it and exits with 1.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
WORKLOADS = ("decompose-l3", "certify-hi", "braid-tables", "hopf-rewrite")
TIMED = ("trace.overhead_ratio",)


def traced_counts(workload: str, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed), "--trace", "1"],
        capture_output=True, text=True, timeout=300, check=True,
    ).stdout
    metrics = json.loads(out.splitlines()[-1])["metrics"]
    return {k: m["value"] for k, m in metrics.items() if m["unit"] != "s" and k not in TIMED}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("workloads", nargs="*", default=list(WORKLOADS))
    args = parser.parse_args(argv)
    defects = 0
    for workload in args.workloads:
        first, second = traced_counts(workload, args.seed), traced_counts(workload, args.seed)
        differing = sorted(k for k in first if first[k] != second.get(k))
        defects += len(differing)
        status = "repeat exactly" if not differing else "DIFFER: " + ", ".join(
            f"{k} {first[k]} vs {second.get(k)}" for k in differing
        )
        print(f"{workload}: {len(first)} counts {status}")
    return 1 if defects else 0


if __name__ == "__main__":
    sys.exit(main())
