"""Step-count planning, sweeps and the dense checks (measured error,
validation and the empirical order)."""

import math
import re

import numpy as np
import pytest

from cfqm import planner, propagators, schemes, spin_model
from cfqm.errors import AsymptoticRegimeError, GridTooFineError, InfeasiblePlanError
from cfqm.planner import (
    ModelBounds,
    measured_error,
    plan,
    step_exponentials,
    sweep,
    validate,
    verify_order,
)


def _scheme(scheme_id):
    return schemes.load_scheme(scheme_id)


def test_model_bounds_validation():
    with pytest.raises(ValueError):
        ModelBounds(c=0.0, n=4)
    with pytest.raises(ValueError):
        ModelBounds(c=1.0, n=1)
    for bad in (2.5, float("nan"), float("inf")):
        with pytest.raises(ValueError, match=f"n must be an integer, got {bad}"):
            ModelBounds(c=1.0, n=bad)
    # integral floats (the CLI grid parses floats) pass as ints
    assert ModelBounds(c=1.0, n=16.0).n == 16
    assert type(ModelBounds(c=1.0, n=16.0).n) is int


@pytest.mark.parametrize("n", [2 ** 53 + 1, 10 ** 400, 1e300])
def test_model_bounds_rejects_chains_beyond_float_precision(n):
    # float(n) would overflow or round; the bounds convert n * K(s) to float
    with pytest.raises(ValueError, match=rf"^n must be at most 2\*\*53, got {re.escape(str(n))}$"):
        ModelBounds(c=1.0, n=n)
    assert ModelBounds(c=1.0, n=2 ** 53).n == 2 ** 53


def test_step_exponentials_accounting():
    assert step_exponentials(_scheme("CF2-1")) == 1 * 2 * 2
    assert step_exponentials(_scheme("CF4-2")) == 2 * 2 * 10
    assert step_exponentials(_scheme("GS6-4")) == 2 * 6


def test_plan_meets_budget_minimally():
    mb = ModelBounds(c=1.0, n=16)
    for scheme_id in ("CF2-1", "CF4-2", "GS6-4"):
        scheme = _scheme(scheme_id)
        p = plan(scheme, mb, total_time=8.0, epsilon=1e-4)
        assert p.global_bound <= p.epsilon
        assert p.exponentials == p.r * step_exponentials(scheme)
        assert p.h == 8.0 / p.r
        if p.r > 1:
            cbar = schemes.compute_cbar(scheme, mb.c)
            below = planner._breakdown_at(scheme, mb, cbar, 8.0 / (p.r - 1))
            assert (p.r - 1) * below.total > p.epsilon


def test_plan_monotone_in_budget_and_time():
    mb = ModelBounds(c=1.0, n=8)
    scheme = _scheme("CF4-3")
    r_loose = plan(scheme, mb, 4.0, 1e-3).r
    r_tight = plan(scheme, mb, 4.0, 1e-6).r
    assert r_tight >= r_loose
    r_longer = plan(scheme, mb, 16.0, 1e-3).r
    assert r_longer >= r_loose


def test_plan_short_window_single_step():
    p = plan(_scheme("CF4-2"), ModelBounds(c=1.0, n=4), 1e-3, 1e-3)
    assert p.r == 1


def test_plan_input_validation():
    mb = ModelBounds(c=1.0, n=4)
    with pytest.raises(ValueError):
        plan(_scheme("CF2-1"), mb, -1.0, 1e-3)
    with pytest.raises(ValueError):
        plan(_scheme("CF2-1"), mb, 1.0, 0.0)


def test_plan_infeasible_budget():
    with pytest.raises(InfeasiblePlanError) as err:
        plan(_scheme("CF2-1"), ModelBounds(c=1.0, n=4), 1.0, 1e-30)
    assert "diverge" not in str(err.value)


def test_plan_reports_divergence():
    # T / 2**32 is still beyond the series guard, so no r can even be scored
    with pytest.raises(InfeasiblePlanError) as err:
        plan(_scheme("CF2-1"), ModelBounds(c=1.0, n=4), float(2 ** 34), 1e-3)
    assert "diverge" in str(err.value)


_DOUBLING = [2 ** k for k in range(33)]


@pytest.mark.parametrize("scheme_id, total_time, n, epsilon, probes, outcome", [
    ("CF4-2", 1024.0, 128, 1e-3,
     _DOUBLING[:17] + [49152, 57344, 53248, 55296, 54272, 54784, 55040, 55168,
                       55104, 55136, 55120, 55128, 55124, 55126, 55125],
     55125),
    ("GS10-6", 4.0, 4, 1e-2,
     _DOUBLING[:10] + [384, 320, 288, 272, 264, 268, 266, 265], 266),
    ("CF2-1", 1.0, 4, 1e-30, _DOUBLING, "meets epsilon"),
    ("CF2-1", float(2 ** 34), 4, 1e-3, _DOUBLING, "diverge"),
])
def test_plan_probe_sequence_is_pinned(monkeypatch, scheme_id, total_time, n,
                                       epsilon, probes, outcome):
    # the bound evaluations plan spends: doubling, then bisection of the
    # bracket, every h exactly T / r
    seen = []
    breakdown_at = planner._breakdown_at

    def recording(scheme, model_bounds, cbar, h):
        seen.append(h)
        return breakdown_at(scheme, model_bounds, cbar, h)

    monkeypatch.setattr(planner, "_breakdown_at", recording)
    args = (_scheme(scheme_id), ModelBounds(c=1.0, n=n), total_time, epsilon)
    if isinstance(outcome, int):
        assert plan(*args).r == outcome
    else:
        with pytest.raises(InfeasiblePlanError, match=outcome):
            plan(*args)
    assert seen == [total_time / r for r in probes]


def test_suzuki_yardstick_vacuous_when_budget_exceeds_validity():
    # order-2 validity needs eps <= 0.9 * (5/3) * lam * T
    assert planner.suzuki_exponentials(1, 1.0, 0.1, 1.0) is None
    assert planner.suzuki_exponentials(1, 1.0, 0.1, 0.1) is not None


def test_suzuki_yardstick_is_floored_at_one_product_formula_step():
    # at a tiny T the pre-ceiling count is below one order-2s step, which
    # still applies 2 * (2 * 5**(s-1)) exponentials
    for s, one_step in ((1, 4), (2, 20), (3, 100)):
        assert planner.suzuki_exponentials(s, 1.0, 1e-30, 1e-31) == one_step


def test_sweep_writes_deterministic_csv(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    for out in (out1, out2):
        rows = sweep("time", [1.0, 2.0], ["CF2-1", "CF4-2"], out,
                     epsilon=1e-3, n=4)
        assert len(rows) == 4
        assert all(row["status"] == "ok" for row in rows)
    assert out1.read_bytes() == out2.read_bytes()
    header = out1.read_text().splitlines()[0]
    assert header == ",".join(planner.SWEEP_COLUMNS)


def test_sweep_keeps_infeasible_rows(tmp_path):
    rows = sweep("error", [1e-30], ["CF2-1"], tmp_path / "inf.csv",
                 total_time=1.0, n=4)
    assert rows[0]["status"] == "infeasible"
    assert rows[0]["r"] is None
    assert isinstance(rows[0]["suzuki_exponentials"], int)


def test_sweep_spins_diagonal(tmp_path):
    rows = sweep("spins", [4, 8], ["CF4-2"], tmp_path / "diag.csv",
                 epsilon=1e-3)
    assert [row["axis_value"] for row in rows] == [4, 8]
    # on the n = T diagonal both longer time and larger n raise the cost
    assert rows[1]["exponentials"] > rows[0]["exponentials"]


def test_sweep_argument_validation(tmp_path):
    with pytest.raises(ValueError):
        sweep("frequency", [1.0], ["CF2-1"], tmp_path / "x.csv", epsilon=1e-3, n=4)
    with pytest.raises(ValueError):
        sweep("time", [], ["CF2-1"], tmp_path / "x.csv", epsilon=1e-3, n=4)
    with pytest.raises(ValueError):
        sweep("time", [1.0], ["CF2-1"], tmp_path / "x.csv", epsilon=1e-3)
    with pytest.raises(ValueError):
        sweep("error", [1e-3], ["CF2-1"], tmp_path / "x.csv", n=4)
    with pytest.raises(ValueError, match="n must be an integer, got 2.5"):
        sweep("spins", [4.0, 2.5], ["CF2-1"], tmp_path / "x.csv", epsilon=1e-3)
    assert not (tmp_path / "x.csv").exists()


def test_validate_bounds_hold_at_desk_scale(tmp_path):
    out = tmp_path / "report.csv"
    reports = validate(["CF2-1", "GS6-4"], seed=7, n=3, samples=4, out=out)
    assert [report.scheme_id for report in reports] == ["CF2-1", "GS6-4"]
    for report in reports:
        assert report.ok
        assert 0 < report.max_ratio <= 1.0
    lines = out.read_text().splitlines()
    assert len(lines) == 9
    assert lines[0].startswith("scheme_id,t0,h,")
    assert [line.split(",")[0] for line in lines[1:]] == ["CF2-1"] * 4 + ["GS6-4"] * 4
    # every scheme is measured at the same seeded (t0, h) samples
    assert [line.split(",")[1:3] for line in lines[1:5]] == \
        [line.split(",")[1:3] for line in lines[5:]]


def test_validate_input_validation(tmp_path):
    with pytest.raises(ValueError):
        validate(["CF2-1"], seed=0, n=9, samples=2, out=tmp_path / "x")
    with pytest.raises(ValueError):
        validate(["CF2-1"], seed=0, n=3, samples=0, out=tmp_path / "x")
    assert not (tmp_path / "x").exists()


def test_validation_report_flags_ratio_above_one():
    row = planner.ValidationRow(t0=0.0, h=0.1, measured=2.0, bound=1.0,
                                status="violated")
    report = planner.ValidationReport("CF2-1", (row,))
    assert not report.ok
    assert report.max_ratio == pytest.approx(2.0)
    assert math.isnan(planner.ValidationReport("CF2-1", ()).max_ratio)


def test_plan_rejects_non_finite_inputs():
    mb = ModelBounds(c=1.0, n=4)
    for total_time, epsilon in ((math.nan, 1e-3), (math.inf, 1e-3),
                                (1.0, math.nan), (1.0, math.inf)):
        with pytest.raises(ValueError, match="must be finite"):
            plan(_scheme("CF2-1"), mb, total_time, epsilon)


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("scheme_id", schemes.SCHEME_IDS)
def test_measured_error_is_the_step_against_the_reference(scheme_id, exact):
    scheme = _scheme(scheme_id)
    model = spin_model.random_model(3, seed=21)
    t0, h, tol = 0.4, 0.3, 1e-10
    if scheme.is_split:
        step = propagators.split_step(scheme, model, t0, h)
    elif exact:
        step = propagators.cfqm_step(scheme, model, t0, h)
    else:
        step = propagators.trotterized_cfqm_step(scheme, model, t0, h)
    want = propagators.spectral_distance(
        step, propagators.reference_propagator(model, t0, t0 + h, tol))
    assert measured_error(scheme, model, t0, h, tol, exact=exact) == want


def test_verify_order_smoke_second_order():
    model = spin_model.random_model(2, seed=3)
    slope = verify_order(_scheme("CF2-1"), model,
                         np.geomspace(0.3, 0.6, 3), t0=0.1)
    assert 2.7 <= slope <= 3.3


def test_verify_order_error_paths():
    model = spin_model.random_model(2, seed=3)
    scheme = _scheme("CF2-1")
    with pytest.raises(ValueError):
        verify_order(scheme, model, [0.3])
    with pytest.raises(GridTooFineError):
        verify_order(scheme, model, [1e-5, 2e-5])
    with pytest.raises(AsymptoticRegimeError):
        verify_order(scheme, model, [0.4, 0.4])
