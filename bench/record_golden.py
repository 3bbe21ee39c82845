"""Record golden.json: the outputs the benchmark checks its runs against.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 bench/record_golden.py [WORKLOAD ...]

plan-grid's outputs do not depend on the seed (the grid is pinned, the seed
only orders it), so they are recorded per grid point and checked on every
run.  The dense workloads are recorded for the first rounds of PINNED_SEED;
runs with other seeds, or past the recorded rounds, check the invariants
only.  Re-record only when a change of outputs is intended, and say so.
"""

from __future__ import annotations

import json
import os
import re
import sys

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
PATH = os.path.join(HERE, "golden.json")


def record(name: str) -> dict:
    workload = workloads.WORKLOADS[name]
    workdir = os.path.join(HERE, ".work")
    os.makedirs(workdir, exist_ok=True)
    entry = {"seed": workloads.PINNED_SEED, "points": {}, "rounds": []}
    for k in range(workload.golden_rounds):
        values = []
        for op in workload.round_ops(workloads.PINNED_SEED, k, workdir):
            result = op.run()
            problem = op.invariant(result)
            if problem is not None:
                raise SystemExit(f"{name} round {k} {op.key}: {problem}")
            summary = op.summary(result)
            if op.golden_key is not None:
                entry["points"][op.golden_key] = summary
            else:
                values.append(summary)
        if values:
            entry["rounds"].append(values)
        print(f"{name}: recorded round {k}", file=sys.stderr)
    return entry


def main(names: list[str]) -> int:
    golden = {}
    if os.path.exists(PATH):
        with open(PATH) as fh:
            golden = json.load(fh)
    for name in names or list(workloads.WORKLOADS):
        golden[name] = record(name)
    text = json.dumps(golden, indent=1, sort_keys=True)
    # one golden entry per line: collapse the innermost lists
    text = re.sub(r"\[\s+([^\[\]]*?)\s+\]",
                  lambda m: "[" + " ".join(m.group(1).split()) + "]", text)
    with open(PATH, "w") as fh:
        fh.write(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
