"""Per-step error bounds against independently derived oracles.

The Magnus remainder coefficients and the product-vs-truncation remainder
are checked here against the composition DP and exact Fraction series of
``oracles``, which share no recurrence with the closed forms in ``bounds``.
The cached product inner sums are checked with ``==`` against the
uncached term of ``oracles``, and every bound must reject non-finite
inputs before any series work.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from cfqm import bounds, series_core
from cfqm.bounds import (
    BoundParams,
    cfqm_remainder,
    magnus_remainder,
    quadrature_remainder,
    step_error,
    suzuki_step_cost,
    trotter_step_error,
)
from cfqm.errors import DivergentRegimeError, EpsilonTooLargeError
from cfqm.planner import ModelBounds
from cfqm.schemes import SCHEME_IDS, compute_cbar, load_scheme
from oracles import (
    PowerSeries,
    magnus_coeffs_dp,
    series_exp,
    series_geometric,
    uncached_product_term,
)


def _magnus_series_fractions(c: Fraction, order: int) -> PowerSeries:
    """1/(1 - 2c*(x + x^2/2 + x^3/3 + ...)) with exact coefficients."""
    u = PowerSeries([Fraction(0)] + [2 * c / k for k in range(1, order + 1)])
    return series_geometric(u)


def test_magnus_coefficients_small_orders():
    # G_1 = 2c, G_2 = c + 4c^2, G_3 = 2c/3 + 4c^2 + 8c^3
    for c in (1.0, 0.25, 0.5):
        for coeffs in (magnus_coeffs_dp(c, 3), bounds._magnus_table(c)):
            assert coeffs[1] == pytest.approx(2 * c, rel=1e-12)
            assert coeffs[2] == pytest.approx(c + 4 * c ** 2, rel=1e-12)
            assert coeffs[3] == pytest.approx(2 * c / 3 + 4 * c ** 2 + 8 * c ** 3,
                                              rel=1e-12)


def test_magnus_coefficients_against_fraction_series():
    c = Fraction(1, 4)
    exact = _magnus_series_fractions(c, 18)
    for coeffs in (magnus_coeffs_dp(float(c), 18), bounds._magnus_table(float(c))):
        for p in range(1, 19):
            assert coeffs[p] == pytest.approx(float(exact.coeffs[p]), rel=1e-12)


def test_magnus_remainder_matches_fraction_tail():
    c, h, s = 1, 0.25, 1
    exact = _magnus_series_fractions(Fraction(c), 40)
    tail = sum(float(exact.coeffs[p]) * (h / 2.0) ** p for p in range(2 * s + 1, 41))
    got = magnus_remainder(c, h, s, rel_tol=1e-12)
    assert got == pytest.approx(tail, rel=1e-8)


def test_magnus_remainder_monotone_and_order():
    vals = [magnus_remainder(1.0, h, 2) for h in (0.1, 0.2, 0.3, 0.4)]
    assert vals == sorted(vals)
    # leading order h^(2s+1): quartering h divides the remainder by ~4^5
    lo = magnus_remainder(1.0, 0.02, 2)
    hi = magnus_remainder(1.0, 0.08, 2)
    assert hi / lo == pytest.approx(4 ** 5, rel=0.15)


def test_magnus_remainder_divergence_guard():
    # boundary: 2c*(-ln(1 - h/2)) >= 1, i.e. h >= 2*(1 - e^(-1/(2c)))
    h_star = 2.0 * (1.0 - math.exp(-0.5))
    with pytest.raises(DivergentRegimeError):
        magnus_remainder(1.0, h_star + 1e-9, 1)
    # just inside the radius the stopping rule still gives up (the term
    # ratio is ~1), which the guard reports the same way
    with pytest.raises(DivergentRegimeError):
        magnus_remainder(1.0, h_star - 1e-6, 1)
    assert magnus_remainder(1.0, h_star - 0.05, 1) > 0


def test_magnus_remainder_input_validation():
    with pytest.raises(ValueError):
        magnus_remainder(0.0, 0.1, 1)
    with pytest.raises(ValueError):
        magnus_remainder(1.0, -0.1, 1)
    with pytest.raises(ValueError):
        magnus_remainder(1.0, 0.1, 0)


def test_cfqm_remainder_matches_exponential_series():
    # For product bound purposes the closed form is the tail of
    # exp(u*t/(1-t)) with u = cbar*m; series_exp provides an independent
    # route with exact Fractions.
    cbar, m, s, h = Fraction(1, 2), 3, 2, 0.2
    u = cbar * m
    order = 60
    arg = PowerSeries([Fraction(0)] + [u] * order)  # u*(t + t^2 + ...)
    e = series_exp(arg)
    tail = sum(float(e.coeffs[p]) * h ** p for p in range(2 * s + 1, order + 1))
    got = cfqm_remainder(float(cbar), h, s, m, rel_tol=1e-12)
    assert got == pytest.approx(tail, rel=1e-9)


def test_cfqm_remainder_order_one_is_exact():
    assert cfqm_remainder(1.0, 0.5, 1, 1) == 0.0


def test_cfqm_remainder_guards():
    with pytest.raises(DivergentRegimeError):
        cfqm_remainder(1.0, 1.0, 2, 2)
    with pytest.raises(ValueError):
        cfqm_remainder(-1.0, 0.1, 2, 2)


def test_cfqm_remainder_large_exponent_bounds_do_not_overflow():
    # A split scheme with many exponentials pushes cbar*m to ~50; close to
    # h=1 the tail needs hundreds of orders, which used to overflow the
    # comb/factorial arithmetic instead of reporting the regime.
    with pytest.raises(DivergentRegimeError):
        cfqm_remainder(2.3, 0.9, 3, 20)
    loose = cfqm_remainder(2.3, 0.6, 3, 20)
    assert math.isfinite(loose) and loose > 1.0


def test_quadrature_inner_sum_value():
    # s=1, h=1, c=1: 2!/(1 - 1/2)^3 = 16
    assert bounds._quadrature_inner_sum(1.0, 1.0, 1) == pytest.approx(16.0, rel=1e-12)


def test_quadrature_remainder_frozen_values():
    # y=[[1]], c=1, h=1, s=1: (1/24) * 16 * 1 = 2/3
    got = quadrature_remainder([[1.0]], 1.0, 1.0, 1)
    assert got == pytest.approx(2.0 / 3.0, rel=1e-12)
    # y=[[0,1]], c=1, h=1, s=2: (16/69120) * 768 * 1 = 8/45
    got2 = quadrature_remainder([[0.0, 1.0]], 1.0, 1.0, 2)
    assert got2 == pytest.approx(8.0 / 45.0, rel=1e-12)
    # a scheme's value at an ordinary step, bit for bit
    got3 = quadrature_remainder(load_scheme("CF4-2").y, 1.0, 1e-3, 2)
    assert got3.hex() == "0x1.916c2f88c45c4p-46"


def test_quadrature_remainder_linear_in_c_and_rows():
    y = [[0.4, -1.3], [0.4, 1.3]]
    base = quadrature_remainder(y, 1.0, 0.3, 2)
    assert quadrature_remainder(y, 2.0, 0.3, 2) == pytest.approx(2 * base, rel=1e-12)
    doubled = quadrature_remainder(np.vstack([y, y]), 1.0, 0.3, 2)
    assert doubled == pytest.approx(2 * base, rel=1e-12)


@pytest.mark.parametrize("h", [1e-3, 1e-62, 1e-70])
def test_quadrature_remainder_at_tiny_steps_matches_exact_formula(h):
    # below h ~ 1.6e-61 the prefactor h**5 is subnormal (1e-62) or 0.0
    # (1e-70), while the g = 1 weight 1/h keeps the bound near 2.2e-282 at
    # 1e-70; the formula evaluated in exact rationals is the oracle
    y = load_scheme("CF4-2").y
    x = Fraction(h)
    weights = sum(abs(Fraction(v)) / x ** g for row in y.tolist()
                  for g, v in enumerate(row))
    exact = x ** 5 * Fraction(16, 69120) * 24 / (1 - x / 2) ** 5 * weights
    got = quadrature_remainder(y, 1.0, h, 2)
    assert got == pytest.approx(float(exact), rel=1e-14, abs=0.0)


def test_quadrature_remainder_requires_matching_columns():
    with pytest.raises(ValueError):
        quadrature_remainder([[1.0, 0.0]], 1.0, 0.3, 1)
    with pytest.raises(DivergentRegimeError):
        quadrature_remainder([[1.0]], 1.0, 2.0, 1)


def test_trotter_stage_constants_frozen():
    assert bounds._trotter_stage_constant(1, 1) == 3632.0
    assert bounds._trotter_stage_constant(1, 2) == 11246376945408.0
    assert bounds._trotter_stage_constant(3, 1) == 3 * 3632.0


def test_trotter_step_error_n_scaling():
    # per-step bound scales as n^(-2s) at fixed coefficients
    z = [[0.3, 0.7], [0.5, -0.5]]
    for s in (1, 2):
        e2 = trotter_step_error(z, 2, 0.2, s)
        e8 = trotter_step_error(z, 8, 0.2, s)
        assert e8 / e2 == pytest.approx(4.0 ** (-2 * s), rel=1e-12)


def test_trotter_step_error_row_additive():
    z1, z2 = [[0.3, 0.7]], [[0.5, -0.5]]
    both = trotter_step_error(np.vstack([z1, z2]), 4, 0.2, 1)
    assert both == pytest.approx(trotter_step_error(z1, 4, 0.2, 1)
                                 + trotter_step_error(z2, 4, 0.2, 1), rel=1e-12)


def test_suzuki_step_cost_hand_value():
    # 6*1*1*1*(25/3)*sqrt(2500) = 2500 exactly
    assert suzuki_step_cost(lam=1.0, h=1.0, s=1, eps_step=1.0 / 2500.0) == 2500


def test_suzuki_step_cost_validity_limit():
    limit = 0.9 * (5.0 / 3.0)  # s=1, lam=h=1
    assert suzuki_step_cost(1.0, 1.0, 1, limit * 0.999) >= 1
    with pytest.raises(EpsilonTooLargeError):
        suzuki_step_cost(1.0, 1.0, 1, limit * 1.001)


def test_suzuki_step_cost_rejects_an_overflowing_count():
    # a ValueError, not EpsilonTooLargeError, which the planner reads as
    # "the cost model is vacuous"
    with pytest.raises(ValueError, match=r"^Suzuki step count overflows at "
                                         r"h=1e\+300, eps_step=0.001$") as err:
        suzuki_step_cost(1.0, 1e300, 2, 1e-3)
    assert not isinstance(err.value, EpsilonTooLargeError)


def test_step_error_assembly_non_split():
    scheme = load_scheme("CF4-2")
    c, h, n = 1.0, 0.25, 4
    params = BoundParams(c=c, cbar=compute_cbar(scheme, c), h=h,
                         s=scheme.s, m=scheme.m, n=n)
    bd = step_error(scheme, params)
    assert bd.magnus_taylor == pytest.approx(magnus_remainder(c, h, 2), rel=1e-9)
    assert bd.quadrature == pytest.approx(
        quadrature_remainder(scheme.y, c, h, 2), rel=1e-12)
    assert bd.trotter == pytest.approx(
        trotter_step_error(scheme.z, n, h, 2), rel=1e-12)
    assert bd.total == pytest.approx(
        bd.magnus_taylor + bd.cfqm_taylor + bd.quadrature + bd.trotter, rel=1e-15)


def test_step_error_assembly_split():
    scheme = load_scheme("GS6-4")
    params = BoundParams(c=1.0, cbar=compute_cbar(scheme, 1.0), h=0.25,
                         s=scheme.s, m=scheme.m, n=4)
    bd = step_error(scheme, params)
    assert bd.trotter == 0.0
    assert bd.quadrature == pytest.approx(
        quadrature_remainder(scheme.y_rho, 1.0, 0.25, 2)
        + quadrature_remainder(scheme.y_sigma, 1.0, 0.25, 2), rel=1e-12)
    # split product has 2m exponentials in the product-vs-truncation term
    assert bd.cfqm_taylor == pytest.approx(
        cfqm_remainder(params.cbar, 0.25, 2, 2 * scheme.m), rel=1e-9)


def test_step_error_first_order_has_no_product_term():
    scheme = load_scheme("CF2-1")
    params = BoundParams(c=1.0, cbar=compute_cbar(scheme, 1.0), h=0.3,
                         s=1, m=1, n=4)
    assert step_error(scheme, params).cfqm_taylor == 0.0


def test_step_error_rejects_mismatched_params():
    scheme = load_scheme("CF4-2")
    params = BoundParams(c=1.0, cbar=0.5, h=0.2, s=1, m=2, n=4)
    with pytest.raises(ValueError):
        step_error(scheme, params)


def _value_or_divergent(fn, *args):
    try:
        return fn(*args)
    except DivergentRegimeError:
        return "divergent"


def _uncached_cfqm_remainder(cbar, h, s, m):
    u = cbar * m
    return series_core.sum_tail(lambda p: uncached_product_term(u, h, p),
                                2 * s + 1, 1e-6)


def test_cfqm_remainder_cache_matches_uncached_oracle():
    # every scheme's u = cbar * m (2m exponentials for split schemes; CF2-1,
    # whose s = 1 has no product term, at s = 2), h ascending then
    # descending, first cold and then warm: the cached inner sums give the
    # same floats as rebuilding them on every call, divergence included
    cases = []
    for scheme_id in SCHEME_IDS:
        scheme = load_scheme(scheme_id)
        m = 2 * scheme.m if scheme.is_split else scheme.m
        cases.append((compute_cbar(scheme, 1.0), max(scheme.s, 2), m))
    hs = [0.002, 0.0185759637, 0.05, 0.1, 0.2, 0.3, 0.45, 0.6, 0.8]
    want = {(case, h): _value_or_divergent(_uncached_cfqm_remainder, case[0], h,
                                           *case[1:])
            for case in cases for h in hs}
    assert "divergent" in want.values()
    bounds._product_table.cache_clear()
    for _ in ("cold", "warm"):
        for case in cases:
            for h in hs + hs[::-1]:
                got = _value_or_divergent(cfqm_remainder, case[0], h, *case[1:])
                assert got == want[case, h], (case, h)
    bounds._product_table.cache_clear()
    for _ in ("cold", "warm"):
        with pytest.raises(DivergentRegimeError):
            cfqm_remainder(2.3, 0.9, 3, 20)
    with pytest.raises(DivergentRegimeError):
        _uncached_cfqm_remainder(2.3, 0.9, 3, 20)


def test_cfqm_remainder_overflowing_orders_are_inf(monkeypatch):
    # at u = 1000 the inner sum's terms overflow from order 284 on, where
    # h**p has long underflowed to 0: the term must be inf there, as the
    # uncached loop returns it, and never h**p * inf = nan
    terms = []
    monkeypatch.setattr(bounds, "sum_tail",
                        lambda term, p_start, rel_tol: terms.append(term) or 0.0)
    cfqm_remainder(250.0, 1e-3, 2, 4)
    (term,) = terms
    orders = range(5, 401)
    values = [term(p) for p in orders]
    assert values == [uncached_product_term(1000.0, 1e-3, p) for p in orders]
    assert values[-1] == math.inf and 0.0 in values


@pytest.fixture
def no_series_work(monkeypatch):
    """Make any tail sum fail and check the product cache stays untouched."""
    def fail(*args, **kwargs):
        raise AssertionError("series work before the input checks")

    monkeypatch.setattr(bounds, "sum_tail", fail)
    monkeypatch.setattr(series_core, "sum_tail", fail)
    before = bounds._product_table.cache_info()
    yield
    assert bounds._product_table.cache_info() == before


NON_FINITE_CALLS = {
    "magnus c": (lambda x: magnus_remainder(x, 0.1, 2), "c"),
    "magnus h": (lambda x: magnus_remainder(1.0, x, 2), "h"),
    "cfqm cbar": (lambda x: cfqm_remainder(x, 0.1, 2, 2), "cbar"),
    "cfqm h": (lambda x: cfqm_remainder(1.0, x, 2, 2), "h"),
    "cfqm s=1": (lambda x: cfqm_remainder(x, 0.1, 1, 1), "cbar"),
    "quadrature c": (lambda x: quadrature_remainder([[1.0, 0.5]], x, 0.1, 2), "c"),
    "quadrature h": (lambda x: quadrature_remainder([[1.0, 0.5]], 1.0, x, 2), "h"),
    "trotter h": (lambda x: trotter_step_error([[1.0, 0.5]], 4, x, 2), "h"),
    "suzuki lam": (lambda x: suzuki_step_cost(x, 1.0, 1, 1e-3), "lam"),
    "suzuki h": (lambda x: suzuki_step_cost(1.0, x, 1, 1e-3), "h"),
    "suzuki eps": (lambda x: suzuki_step_cost(1.0, 1.0, 1, x), "eps_step"),
    "model c": (lambda x: ModelBounds(c=x, n=4), "c"),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("case", sorted(NON_FINITE_CALLS))
def test_non_finite_inputs_fail_before_series_work(no_series_work, case, bad):
    call, name = NON_FINITE_CALLS[case]
    with pytest.raises(ValueError, match=rf"^{name} must be finite, got {bad}$") as info:
        call(bad)
    assert type(info.value) is ValueError


def test_negative_infinity_keeps_the_positivity_messages(no_series_work):
    with pytest.raises(ValueError, match=r"^c must be positive, got -inf$"):
        magnus_remainder(-math.inf, 0.1, 2)
    with pytest.raises(ValueError, match=r"^h must be positive, got -inf$"):
        cfqm_remainder(1.0, -math.inf, 2, 2)
    with pytest.raises(ValueError, match=r"^c must be positive, got -inf$"):
        ModelBounds(c=-math.inf, n=4)
    with pytest.raises(ValueError, match=r"^lam, h and eps_step must be positive$"):
        suzuki_step_cost(1.0, -math.inf, 1, 1e-3)
