"""The kernels and the planner still reproduce the benchmark's goldens.

``bench/golden.json`` records the outputs of the pinned seed's rounds; the
benchmark checks them on every run, but a kernel that drifts beyond the
golden tolerances would otherwise only show there.  This replays round 0
of ``propagate-large`` (every dense step kind at n = 7-8, no reference),
round 0 of ``validate-suite`` (the reference, every step kind and
``spectral_distance`` at n = 2-8, with each bound) and every
``plan-grid`` golden point (196 plans' step and exponential
counts, exact, and the sha256 of one ``cfqm sweep`` CSV, whose %.17g
bound columns pin the bounds bit for bit) exactly as ``bench/worker.py``
checks them, reading ``bench/`` only.
"""

import importlib.util
import json
import sys
from pathlib import Path

BENCH = Path(__file__).parent.parent / "bench"


def _load_workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_propagate_large_pinned_round_matches_golden(monkeypatch, tmp_path):
    workloads = _load_workloads(monkeypatch)
    golden = json.loads((BENCH / "golden.json").read_text())["propagate-large"]
    assert golden["seed"] == workloads.PINNED_SEED
    ops = workloads.propagate_large_round(workloads.PINNED_SEED, 0, str(tmp_path))
    assert len(ops) == len(golden["rounds"][0]) == 14
    for op, want in zip(ops, golden["rounds"][0]):
        result = op.run()
        assert op.invariant(result) is None, op.key
        assert workloads.compare(op.summary(result), want, op.tolerances) is None, op.key


def test_validate_suite_pinned_round_matches_golden(monkeypatch, tmp_path):
    workloads = _load_workloads(monkeypatch)
    golden = json.loads((BENCH / "golden.json").read_text())["validate-suite"]
    assert golden["seed"] == workloads.PINNED_SEED
    ops = workloads.validate_suite_round(workloads.PINNED_SEED, 0, str(tmp_path))
    assert len(ops) == len(golden["rounds"][0]) == 119
    for op, want in zip(ops, golden["rounds"][0]):
        result = op.run()
        assert op.invariant(result) is None, op.key
        assert workloads.compare(op.summary(result), want, op.tolerances) is None, op.key


def test_plan_grid_golden_points_match(monkeypatch, tmp_path):
    workloads = _load_workloads(monkeypatch)
    golden = json.loads((BENCH / "golden.json").read_text())["plan-grid"]
    ops = workloads.plan_grid_round(workloads.PINNED_SEED, 0, str(tmp_path))
    assert sorted(op.golden_key for op in ops) == sorted(golden["points"])
    for op in ops:
        result = op.run()
        assert op.invariant(result) is None, op.key
        assert workloads.compare(op.summary(result), golden["points"][op.golden_key],
                                 op.tolerances) is None, op.key
