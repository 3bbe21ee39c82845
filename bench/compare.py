"""Summarize benchmark result files, or compare two sets of them.

    python3 bench/compare.py RESULTS_DIR             # medians and spreads
    python3 bench/compare.py BASE_DIR CHANGED_DIR    # change against bounds

A result file is what ``run.py --out`` writes.  Files are grouped by
workload and by traced/untraced run.  For every end-to-end metric the
summary gives the median over the files, the spread (distance between the
first and third quartile, as a share of the median) and the number of runs.
The comparison adds the change of the median in the metric's "worse"
direction, as a share of the base median, against the bound that
BENCHMARK.json fixes.  The verdict is "unresolved" when the base spread is
wider than the bound, unless every changed run beats every base run; else
"worse" past the bound, else "ok".  Per-layer metrics are printed
with their medians, the tracing overhead (traced minus untraced op_ms_p50)
as well, and counts are checked to repeat exactly within each directory
when the files share a seed.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))

#: Per-layer metrics that are exact counts (or ratios of them).
COUNT_SUFFIXES = (".calls", ".terms", ".d3", ".microsteps", ".guard_trips",
                  ".attempts_per_plan", ".cache_hit_ratio")


def load(directory: str) -> dict:
    """{(workload, trace): [file contents, ...]}"""
    groups = defaultdict(list)
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as fh:
            data = json.load(fh)
        groups[(data["details"]["workload"], data["details"]["trace"])].append(data)
    return groups


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def column(runs: list[dict], metric: str) -> list[float]:
    return [run["result"]["metrics"][metric]["value"] for run in runs]


def count_mismatches(runs: list[dict]) -> list[str]:
    by_seed = defaultdict(list)
    for run in runs:
        by_seed[run["details"]["seed"]].append(run["result"]["metrics"])
    bad = []
    for seed, metric_sets in by_seed.items():
        for name in metric_sets[0]:
            if name.endswith(COUNT_SUFFIXES):
                values = {m[name]["value"] for m in metric_sets}
                if len(values) > 1:
                    bad.append(f"seed {seed} {name}: {sorted(values)}")
    return bad


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    sets = [load(d) for d in argv]
    worse = 0
    for workload in (w["name"] for w in spec["workloads"]):
        print(f"== {workload}")
        for name, m in bounds.items():
            cells = []
            columns = [column(groups.get((workload, 0), []), name) for groups in sets]
            for values in columns:
                cells.append(f"median {statistics.median(values):.6g} spread "
                             f"{spread(values):.3f} (n={len(values)})" if values
                             else "no runs")
            line = f"  {name:12s} {m['unit']:5s} " + " | ".join(cells)
            if len(columns) == 2 and all(columns):
                base, new = columns
                sign = -1.0 if m["better"] == "higher" else 1.0
                change = sign * (statistics.median(new) / statistics.median(base) - 1.0)
                all_better = max(sign * v for v in new) < min(sign * v for v in base)
                if spread(base) > m["bound"] and not all_better:
                    verdict = "unresolved"
                elif change > m["bound"]:
                    verdict = "worse"
                else:
                    verdict = "ok"
                worse += verdict == "worse"
                line += f" | worse by {change:+.3f} (bound {m['bound']}) {verdict}"
            print(line)
        for label, groups in zip(("base", "changed"), sets):
            traced = groups.get((workload, 1), [])
            untraced = groups.get((workload, 0), [])
            if not traced:
                continue
            if untraced:
                overhead = (statistics.median(column(traced, "trace.op_ms_p50"))
                            - statistics.median(column(untraced, "op_ms_p50")))
                print(f"  [{label}] tracing overhead per op: {overhead:.4g} ms")
            for name in traced[0]["result"]["metrics"]:
                values = column(traced, name)
                print(f"  [{label}] {name:52s} {statistics.median(values):.6g}")
            for problem in count_mismatches(traced):
                print(f"  [{label}] COUNT MISMATCH {problem}")
                worse += 1
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
