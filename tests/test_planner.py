"""Step-count planning, sweeps and the dense checks (measured error,
validation and the empirical order)."""

import math
import re

import numpy as np
import pytest

from cfqm import planner, propagators, schemes, spin_model
from cfqm.errors import (
    AsymptoticRegimeError,
    DivergentRegimeError,
    GridTooFineError,
    InfeasiblePlanError,
)
from cfqm.planner import (
    ModelBounds,
    measured_error,
    plan,
    step_exponentials,
    sweep,
    validate,
    verify_order,
)
from oracles import doubling_plan_search


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


def _recording(monkeypatch):
    """Record the h of every bound evaluation plan (or the oracle) spends."""
    seen = []
    breakdown_at = planner._breakdown_at

    def recording(scheme, model_bounds, cbar, h):
        seen.append(h)
        return breakdown_at(scheme, model_bounds, cbar, h)

    monkeypatch.setattr(planner, "_breakdown_at", recording)
    return seen


# probes: every r plan scores, in order.  After r = 1 and r = 2**32 the
# loop interpolates log g between finite ends (rounded up), extrapolates
# from r at slope s + 1 while lo is past a guard (rounded down), and
# bisects (in log r while r > 4 lo) after two probes that did not halve
# the bracket
@pytest.mark.parametrize("scheme_id, total_time, n, epsilon, probes, outcome", [
    # r = 1 past a guard: extrapolation to 29018, then interpolation, and
    # the linear bisection 42072 after 55217 and 55126
    ("CF4-2", 1024.0, 128, 1e-3,
     [1, 2 ** 32, 29018, 63522, 55217, 55126, 42072, 55125, 55124], 55125),
    # r = 1 past a guard: extrapolation to 10, then bisections at 56 and
    # 122 (in log r) among the interpolations
    ("GS10-6", 4.0, 4, 1e-2,
     [1, 2 ** 32, 10, 5784, 699, 393, 315, 56, 267, 266, 122, 265], 266),
    ("CF2-1", 1.0, 4, 1e-30, [1, 2 ** 32], "meets epsilon"),
    ("CF2-1", float(2 ** 34), 4, 1e-3, [1, 2 ** 32], "diverge"),
    # r = 1 feasible: nothing else is scored
    ("CF4-2", 1e-3, 4, 1e-3, [1], 1),
    # r = 1 finite but infeasible: interpolation from the first probe on
    ("CF4-2", 0.5, 4, 1e-12, [1, 2 ** 32, 15204, 6174, 6163, 6162], 6163),
    # interpolation from a finite r = 1 with one bisection, at
    # isqrt(1 * 5940) = 77, after 5949 and 5940 did not halve (1, r]
    ("CF2-1", 0.25, 4, 1e-9, [1, 2 ** 32, 6496, 5949, 5940, 77, 5939], 5940),
])
def test_plan_probe_sequence_is_pinned(monkeypatch, scheme_id, total_time, n,
                                       epsilon, probes, outcome):
    # both searches give the outcome, and plan, run last, spends exactly
    # the pinned bound evaluations, every h exactly T / r
    seen = _recording(monkeypatch)
    args = (_scheme(scheme_id), ModelBounds(c=1.0, n=n), total_time, epsilon)
    for search in (lambda: doubling_plan_search(*args)[0],
                   lambda: plan(*args).r):
        seen.clear()
        if isinstance(outcome, int):
            assert search() == outcome
        else:
            with pytest.raises(InfeasiblePlanError, match=outcome):
                search()
    assert seen == [total_time / r for r in probes]


# the benchmark's plan-grid points: T at n = 128 and eps = 1e-3, eps at
# T = 1024 and n = 128, and the n = T diagonal at eps = 1e-3
_PLAN_GRID = ([(2.0 ** k, 128, 1e-3) for k in range(6, 17)]
              + [(1024.0, 128, 10.0 ** -k) for k in range(2, 8)]
              + [(float(2 ** k), 2 ** k, 1e-3) for k in range(2, 13)])


def test_plan_search_cost_is_pinned(monkeypatch):
    # bound evaluations over the 7 x 28 plan-grid points: 6696 with the
    # doubling search, 4119 and 4082 with an exponent search for its
    # power-of-two bracket followed by its bisection, 1550 with one
    # bracketed search; a search that spends more fails here before it
    # shows in a benchmark
    seen = _recording(monkeypatch)
    for scheme_id in schemes.SCHEME_IDS:
        for total_time, n, epsilon in _PLAN_GRID:
            plan(_scheme(scheme_id), ModelBounds(c=1.0, n=n), total_time, epsilon)
    assert len(seen) == 1550


def _outcome(search):
    try:
        return search()
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


def test_plan_matches_the_doubling_search(monkeypatch):
    # 600 seeded points, a third with T down to 1e-320 and half with eps
    # down to 1e-323: every plan, breakdown and error of the bracketed
    # search is the doubling search's (about 0.3 s), and its cost is
    # pinned, in total and for the worst plan, so a probe rule that walks
    # fails; the worst is GS6-4 at T = 2.2e-72, eps = 1.7e-321, where the
    # bounds are subnormal and the loop bisects
    seen = _recording(monkeypatch)
    costs = []
    rng = np.random.default_rng(20261020)
    outcomes = {"plan": 0, "meets epsilon": 0, "diverge": 0}
    for i in range(600):
        scheme = _scheme(schemes.SCHEME_IDS[i % len(schemes.SCHEME_IDS)])
        total_time = 10.0 ** rng.uniform(-320 if i % 3 == 0 else -3, 11)
        epsilon = 10.0 ** rng.uniform(-323 if i % 2 == 0 else -20, 1)
        mb = ModelBounds(c=1.0, n=round(10.0 ** rng.uniform(math.log10(2), 7)))
        args = (scheme, mb, total_time, epsilon)
        seen.clear()
        found = _outcome(lambda: plan(*args))
        costs.append(len(seen))
        expected = _outcome(lambda: doubling_plan_search(*args))
        if isinstance(found, planner.Plan):
            assert (found.r, found.breakdown) == expected, args
            outcomes["plan"] += 1
        else:
            assert found == expected, args
            assert found[0] is InfeasiblePlanError
            outcomes["diverge" if "diverge" in found[1] else "meets epsilon"] += 1
    assert min(outcomes.values()) >= 30, outcomes
    assert (sum(costs), max(costs)) == (1642, 34)


def test_feasibility_is_monotone_around_each_plan():
    # plan may return its first feasible r only because feasibility never
    # falls as r grows: check every r within 30 of 70 seeded answers
    rng = np.random.default_rng(20261021)
    plans = flips = 0
    while plans < 70:
        scheme = _scheme(schemes.SCHEME_IDS[plans % len(schemes.SCHEME_IDS)])
        total_time = 10.0 ** rng.uniform(-3, 11)
        epsilon = 10.0 ** rng.uniform(-20, 1)
        mb = ModelBounds(c=1.0, n=round(10.0 ** rng.uniform(math.log10(2), 7)))
        try:
            found = plan(scheme, mb, total_time, epsilon).r
        except InfeasiblePlanError:
            continue
        cbar = schemes.compute_cbar(scheme, mb.c)
        feasible = []
        for r in range(max(1, found - 30), min(planner.MAX_STEPS, found + 30) + 1):
            try:
                bd = planner._breakdown_at(scheme, mb, cbar, total_time / r)
            except DivergentRegimeError:
                feasible.append(False)
                continue
            feasible.append(r * bd.total <= epsilon)
        flips += sum(a and not b for a, b in zip(feasible, feasible[1:]))
        assert found == max(1, found - 30) + feasible.index(True)
        plans += 1
    assert flips == 0


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


def test_validate_builds_each_reference_once(monkeypatch, tmp_path):
    # a reference memo of one entry still serves every scheme at a sample,
    # so two schemes cost exactly the midpoint products of one
    monkeypatch.setattr(propagators, "_REFERENCE_CACHE_LIMIT", 1)
    builds = []
    midpoint_product = propagators._midpoint_product

    def counting(*args):
        builds.append(args[1:])
        return midpoint_product(*args)

    monkeypatch.setattr(propagators, "_midpoint_product", counting)
    counts = []
    for scheme_ids in (["CF2-1"], ["CF2-1", "CF4-2"]):
        monkeypatch.setattr(propagators, "_REFERENCE_CACHE", {})
        builds.clear()
        validate(scheme_ids, seed=7, n=2, samples=3, out=tmp_path / "x.csv")
        counts.append(len(builds))
    assert counts[0] > 0
    assert counts[1] == counts[0]


def test_measured_error_rejects_a_start_time_the_float_grid_cannot_hold(
        monkeypatch):
    def no_reference(*args, **kwargs):
        raise AssertionError("reference work before the start-time check")

    monkeypatch.setattr(propagators, "reference_propagator", no_reference)
    model = spin_model.random_model(2, seed=1)
    for t0 in (1e8, 1e12, 1e300):
        detail = re.escape(f"t0={t0} cannot hold a step h=0.3")
        with pytest.raises(ValueError, match=detail):
            measured_error(_scheme("CF4-2"), model, t0, 0.3, 1e-12)


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


@pytest.mark.parametrize("scheme_id", schemes.SCHEME_IDS)
def test_measured_error_is_the_step_against_the_reference(scheme_id):
    scheme = _scheme(scheme_id)
    model = spin_model.random_model(3, seed=21)
    t0, h, tol = 0.4, 0.3, 1e-10
    if scheme.is_split:
        step = propagators.split_step(scheme, model, t0, h)
    else:
        step = propagators.trotterized_cfqm_step(scheme, model, t0, h)
    want = propagators.spectral_distance(
        step, propagators.reference_propagator(model, t0, t0 + h, tol))
    assert measured_error(scheme, model, t0, h, tol) == want


@pytest.mark.parametrize("scheme_id", ["CF4-2", "GS6-4"])
def test_verify_order_measures_the_step_a_plan_costs(monkeypatch, scheme_id):
    # the exact-exponential step is no plan's step, so the fit never runs it
    def never(*args, **kwargs):
        raise AssertionError("verify_order ran the exact-exponential step")

    monkeypatch.setattr(propagators, "cfqm_step", never)
    scheme = _scheme(scheme_id)
    slope = verify_order(scheme, spin_model.random_model(3, seed=1),
                         np.geomspace(0.3, 0.7, 5))
    lo, hi = planner.slope_window(scheme.s)
    assert lo <= slope <= hi


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
