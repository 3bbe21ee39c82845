"""Benchmark self-test: two traced runs on one seed must count the same work.

    python3 bench/selftest.py [WORKLOAD ...]

Runs ``run.py --trace 1`` twice per workload on one seed, one round each,
and compares every count metric (calls, attempts per plan, guard trips,
tail terms, eigh calls and d^3 work, reference micro-steps and memo hit
ratio) for exact equality.  Exits 1 on any difference or failed run.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from compare import COUNT_SUFFIXES
from run import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
SEED = 7


def traced_counts(workload: str) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", "1"],
        cwd=os.path.dirname(HERE), check=True, stdout=subprocess.PIPE, text=True,
    ).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: traced run reported failures")
    return {name: m["value"] for name, m in result["metrics"].items()
            if name.endswith(COUNT_SUFFIXES)}


def main(workloads: list[str]) -> int:
    ok = True
    for workload in workloads or WORKLOADS:
        first, second = traced_counts(workload), traced_counts(workload)
        diff = {k: (first[k], second[k]) for k in first if first[k] != second[k]}
        ok = ok and not diff
        print(f"{workload}: {len(first)} count metrics, "
              + ("identical" if not diff else f"DIFFER {diff}"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
