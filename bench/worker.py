"""One benchmark process: set up a workload, run it for a while, check it.

Started by run.py in a fresh interpreter, which is the state a CLI user
starts from.  The set-up time is measured from the moment run.py spawned
this process (passed in as a CLOCK_MONOTONIC reading, which is shared by
all processes) to the point where the workload is ready.  Prints one JSON
object on stdout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def _load_golden(workload: str) -> dict:
    with open(os.path.join(HERE, "golden.json")) as fh:
        return json.load(fh)[workload]


def _golden_for(golden: dict, op, seed: int, k: int, i: int):
    if op.golden_key is not None:
        return golden["points"][op.golden_key]
    if seed == golden["seed"] and k < len(golden["rounds"]):
        return golden["rounds"][k][i]
    return None


def _layer_metrics(setup, body_spans, first_counts, rounds: int,
                   op_ms_p50: float) -> dict:
    """Per-layer metrics of a traced run.

    Counts (``calls``, the named counters) are taken over the first round,
    which every run completes, so that they repeat exactly; seconds are
    self time per round, averaged over all rounds of the run.
    """
    setup_spans, _ = setup
    first_spans, counts = first_counts
    out = {}

    def seconds(name):
        return body_spans.get(name, (0, 0.0, 0.0))[2] / rounds

    def calls(name):
        return first_spans.get(name, (0, 0.0, 0.0))[0]

    for name in ("planner.plan", "bounds.step_error", "schemes.compute_cbar",
                 "propagators.reference_propagator", "numpy.eigh",
                 "series_core.sum_tail"):
        out[f"{name}.calls"] = (calls(name), "count")
    for name in ("planner.plan", "planner.sweep", "cli.main", "bounds.step_error",
                 "bounds.magnus_remainder", "bounds.cfqm_remainder",
                 "bounds.quadrature_remainder", "bounds.trotter_step_error",
                 "schemes.compute_cbar", "propagators.trotterized_cfqm_step",
                 "propagators.cfqm_step", "propagators.split_step",
                 "spin_model.split_at", "numpy.eigh",
                 "propagators.reference_propagator", "spin_model.hamiltonians_at",
                 "propagators.spectral_distance"):
        out[f"{name}.s"] = (seconds(name), "s")
    plans = calls("planner.plan")
    out["planner.plan.attempts_per_plan"] = (
        counts["planner.plan.attempts"] / plans if plans else 0.0, "ratio")
    out["planner.plan.guard_trips"] = (counts["planner.plan.guard_trips"], "count")
    out["series_core.sum_tail.terms"] = (counts["series_core.sum_tail.terms"], "count")
    out["numpy.eigh.d3"] = (counts["numpy.eigh.d3"], "count")
    refs = calls("propagators.reference_propagator")
    out["propagators.reference_propagator.cache_hit_ratio"] = (
        counts["propagators.reference_propagator.cache_hits"] / refs if refs else 0.0,
        "ratio")
    out["propagators.reference_propagator.microsteps"] = (
        counts["propagators.reference_propagator.microsteps"], "count")
    # set-up makes the first call of each entry point, so the step bound's
    # lazy tables and self-checks are paid inside these set-up spans
    out["bounds.step_error.first_s"] = (
        setup_spans.get("bounds.step_error", (0, 0.0, 0.0))[1], "s")
    out["schemes.load_scheme.s"] = (
        setup_spans.get("schemes.load_scheme", (0, 0.0, 0.0))[1], "s")
    _, op_total, op_self = body_spans["bench.op"]
    out["trace.layer_self_share"] = (1.0 - op_self / op_total, "ratio")
    out["trace.op_ms_p50"] = (op_ms_p50, "ms")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import cfqm
    src = os.path.join(ROOT, "src")
    if not os.path.abspath(cfqm.__file__).startswith(src + os.sep):
        print(f"cfqm imported from {cfqm.__file__}, not from {src}", file=sys.stderr)
        return 2
    import workloads

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.install()
    workdir = os.path.join(HERE, ".work")
    os.makedirs(workdir, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload]
    workload.setup(workdir)
    setup_s = _now() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    setup_trace = tracer.take() if tracer else None
    golden = _load_golden(args.workload)
    attempted = failed = 0
    failures: list[str] = []
    per_round: list[tuple[float, float, float]] = []  # ops/s, p50 ms, p90 ms
    ops_timed = 0
    body_s = 0.0
    first_round = None
    k = 0
    start = _now()
    while True:
        round_ops, round_s = 0, 0.0
        op_ms: list[float] = []
        for i, op in enumerate(workload.round_ops(args.seed, k, workdir)):
            t = time.perf_counter()
            try:
                result = op.run() if tracer is None else tracer.call("bench.op", op.run)
            except Exception as exc:  # every unexpected error is a failed op
                elapsed = time.perf_counter() - t
                problem = f"raised {type(exc).__name__}: {exc}"
            else:
                elapsed = time.perf_counter() - t
                problem = op.invariant(result)
                want = _golden_for(golden, op, args.seed, k, i)
                if problem is None and want is not None:
                    problem = workloads.compare(op.summary(result), want, op.tolerances)
            round_s += elapsed
            round_ops += op.weight
            if op.sampled:
                op_ms.append(elapsed * 1e3)
            if problem is not None:
                failed += op.weight
                if len(failures) < 10:
                    failures.append(f"round {k} {op.key}: {problem}")
        attempted += round_ops
        body_s += round_s
        ops_timed += len(op_ms)
        op_ms.sort()
        per_round.append((round_ops / round_s, _percentile(op_ms, 0.5),
                          _percentile(op_ms, 0.9)))
        k += 1
        if tracer and first_round is None:
            first_round = tracer.take()
            body_spans = {name: list(agg) for name, agg in first_round[0].items()}
        elif tracer:
            for name, agg in tracer.take()[0].items():
                prev = body_spans.setdefault(name, [0, 0.0, 0.0])
                for j in range(3):
                    prev[j] += agg[j]
        # stop at the round boundary nearest to --seconds
        elapsed = _now() - start
        if elapsed + 0.5 * elapsed / k >= args.seconds:
            break

    # Every round holds the same mix of ops.  The figures are those of the
    # slowest round: on the shared machines this was made on, speed has a
    # steady floor with bursts of up to ~1.8x above it lasting 5-30 s, so
    # whole-run means and medians depend on how many bursts a run caught,
    # while the slowest round sits on the floor.
    rates, p50s, p90s = zip(*per_round)
    result = {
        "setup_s": setup_s,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "rounds": k,
        "round_metrics": per_round,
        "ops_timed": ops_timed,
        "body_s": body_s,
        "ops_per_s": min(rates),
        "op_ms_p50": max(p50s),
        "op_ms_p90": max(p90s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        result["layers"] = _layer_metrics(setup_trace, body_spans, first_round, k, max(p50s))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
