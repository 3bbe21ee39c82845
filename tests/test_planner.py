"""Step-count planning, sweeps and measured-vs-bound validation."""

import math

import pytest

from cfqm import planner, schemes
from cfqm.errors import InfeasiblePlanError
from cfqm.planner import ModelBounds, plan, step_exponentials, sweep, validate


def _scheme(scheme_id):
    return schemes.load_scheme(scheme_id)


def test_model_bounds_validation():
    with pytest.raises(ValueError):
        ModelBounds(c=0.0, n=4)
    with pytest.raises(ValueError):
        ModelBounds(c=1.0, n=1)


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
            below = planner._breakdown_at(scheme, mb, cbar, 8.0 / (p.r - 1), 1e-6)
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


def test_suzuki_yardstick_vacuous_when_budget_exceeds_validity():
    # order-2 validity needs eps <= 0.9 * (5/3) * lam * T
    assert planner.suzuki_exponentials(1, 1.0, 0.1, 1.0) is None
    assert planner.suzuki_exponentials(1, 1.0, 0.1, 0.1) is not None


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


def test_validate_bounds_hold_at_desk_scale(tmp_path):
    for scheme_id in ("CF2-1", "GS6-4"):
        out = tmp_path / f"{scheme_id}.csv"
        report = validate(_scheme(scheme_id), seed=7, n=3, samples=4, out=out)
        assert report.ok
        assert 0 < report.max_ratio <= 1.0
        lines = out.read_text().splitlines()
        assert len(lines) == 5
        assert lines[0].startswith("t0,h,")


def test_validate_input_validation(tmp_path):
    with pytest.raises(ValueError):
        validate(_scheme("CF2-1"), seed=0, n=9, samples=2, out=tmp_path / "x")
    with pytest.raises(ValueError):
        validate(_scheme("CF2-1"), seed=0, n=3, samples=0, out=tmp_path / "x")


def test_validation_report_flags_ratio_above_one():
    row = planner.ValidationRow(t0=0.0, h=0.1, measured=2.0, bound=1.0,
                                status="violated")
    report = planner.ValidationReport("CF2-1", 2, 0, (row,))
    assert not report.ok
    assert report.max_ratio == pytest.approx(2.0)
    assert math.isnan(planner.ValidationReport("CF2-1", 2, 0, ()).max_ratio)


def test_plan_rejects_non_finite_inputs():
    mb = ModelBounds(c=1.0, n=4)
    for total_time, epsilon in ((math.nan, 1e-3), (math.inf, 1e-3),
                                (1.0, math.nan), (1.0, math.inf)):
        with pytest.raises(ValueError, match="must be finite"):
            plan(_scheme("CF2-1"), mb, total_time, epsilon)
