"""Per-step error bounds against independently derived oracles.

The Magnus remainder coefficients and the product-vs-truncation remainder
are checked here against the composition DP and exact Fraction series of
``oracles``, which share no recurrence with the closed forms in ``bounds``.
The cached product inner sums are checked with ``==`` against the
uncached term of ``oracles``, and every bound must reject non-finite
inputs before any series work, as must the planner's Suzuki yardstick,
whose cost formula is checked here too.  ``step_error`` is pinned to the
public term functions bit for bit, and to their exceptions.
"""

import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from cfqm import bounds, series_core
from cfqm.bounds import (
    BoundParams,
    ErrorBreakdown,
    cfqm_remainder,
    magnus_remainder,
    quadrature_remainder,
    step_error,
    trotter_step_error,
)
from cfqm.errors import DivergentRegimeError
from cfqm.planner import ModelBounds, suzuki_exponentials
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
    got = bounds._magnus_tail(c, h, s, 1e-12)
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
    got = bounds._product_tail(float(cbar) * m, h, s, 1e-12)
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
    assert bounds._trotter_stage_sum(1) == 3632
    assert bounds._trotter_stage_sum(2) == 11246376945408
    # Z_i = 1 and h = 1 leave n * K(s) / (2s+1)!
    assert trotter_step_error([[12.0]], 3, 1.0, 1) == 3 * 3632.0 / 6
    assert trotter_step_error([[8.0]], 2, 1.0, 2) == 2 * 11246376945408.0 / 120


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
    assert suzuki_exponentials(s=1, lam=1.0, total_time=1.0,
                               epsilon=1.0 / 2500.0) == 2500


def test_suzuki_step_cost_validity_limit():
    # order-2 validity needs eps <= 0.9 * (5/3) * lam * T; beyond it the
    # cost model is vacuous and there is no count
    limit = 0.9 * (5.0 / 3.0)  # s=1, lam=T=1
    assert suzuki_exponentials(1, 1.0, 1.0, limit * 0.999) == 41
    assert suzuki_exponentials(1, 1.0, 1.0, limit * 1.001) is None


def test_suzuki_step_cost_rejects_an_overflowing_count():
    # the count overflows a float, so the planner records none
    assert suzuki_exponentials(2, 1.0, 1e300, 1e-3) is None


def _outcome(fn, *args):
    """A call's value, or the type and message of the ValueError it raised."""
    try:
        return fn(*args)
    except ValueError as exc:  # DivergentRegimeError is one
        return type(exc), str(exc)


def _public_terms(scheme, c: float, cbar: float, h: float, n: int) -> ErrorBreakdown:
    """step_error's breakdown from the public term functions: split
    products have 2m exponentials, add the y_rho and y_sigma quadrature
    terms and need no product formula."""
    s = scheme.s
    if scheme.is_split:
        return ErrorBreakdown(
            magnus_remainder(c, h, s), cfqm_remainder(cbar, h, s, 2 * scheme.m),
            quadrature_remainder(scheme.y_rho, c, h, s)
            + quadrature_remainder(scheme.y_sigma, c, h, s), 0.0)
    return ErrorBreakdown(
        magnus_remainder(c, h, s), cfqm_remainder(cbar, h, s, scheme.m),
        quadrature_remainder(scheme.y, c, h, s), trotter_step_error(scheme.z, n, h, s))


def _assert_step_error_is_its_public_terms(split: bool) -> None:
    # h from the quadrature prefactor-underflow branch (1e-70) to just
    # below each convergence guard: the Magnus one at c = 1 and the
    # product one (h < 1) at c = 1/4, beyond which the Magnus guard lies;
    # every field is its public term bit for bit, and where step_error
    # raises, the first public term to raise raises the same
    seen = Counter()
    for scheme_id in SCHEME_IDS:
        scheme = load_scheme(scheme_id)
        if scheme.is_split != split:
            continue
        for c, guard in ((1.0, 2.0 * (1.0 - math.exp(-0.5))), (0.25, 1.0)):
            cbar = compute_cbar(scheme, c)
            for h in (1e-70, 1e-62, 1e-40, 1e-12, 1e-3, 0.0185759637, 0.1,
                      0.5 * guard, 0.9 * guard, guard * (1 - 1e-9)):
                for n in (2, 128, 2 ** 40):
                    want = _outcome(_public_terms, scheme, c, cbar, h, n)
                    params = BoundParams(c=c, cbar=cbar, h=h, s=scheme.s,
                                         m=scheme.m, n=n)
                    assert _outcome(step_error, scheme, params) == want, (
                        scheme_id, c, h, n)
                    seen[type(want).__name__] += 1
                    seen["underflow"] += h == 1e-70 and want.quadrature > 0.0
    assert seen["tuple"] and seen["ErrorBreakdown"] and seen["underflow"], seen


def test_step_error_assembly_non_split():
    _assert_step_error_is_its_public_terms(split=False)


def test_step_error_assembly_split():
    _assert_step_error_is_its_public_terms(split=True)


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


_CF4_2 = dict(c=1.0, cbar=0.5, h=0.1, s=2, m=2, n=4)
_TAIL_STOP = ("remainder tail did not satisfy the stopping rule within 400 "
              "orders; the step size is too close to (or beyond) the "
              "convergence boundary")
STEP_ERROR_FAULTS = {
    "c <= 0": (dict(c=0.0), ValueError, "c must be positive, got 0.0"),
    "cbar <= 0": (dict(cbar=-0.5), ValueError, "cbar must be positive, got -0.5"),
    "h <= 0": (dict(h=-0.0), ValueError, "h must be positive, got -0.0"),
    "c nan": (dict(c=math.nan), ValueError, "c must be finite, got nan"),
    "c inf": (dict(c=math.inf), ValueError, "c must be finite, got inf"),
    "cbar nan": (dict(cbar=math.nan), ValueError, "cbar must be finite, got nan"),
    "cbar inf": (dict(cbar=math.inf), ValueError, "cbar must be finite, got inf"),
    "h nan": (dict(h=math.nan), ValueError, "h must be finite, got nan"),
    "h inf": (dict(h=math.inf), ValueError, "h must be finite, got inf"),
    "s mismatch": (dict(s=3), ValueError,
                   "params (s=3, m=2) do not match scheme CF4-2 (s=2, m=2)"),
    "m mismatch": (dict(m=3), ValueError,
                   "params (s=2, m=3) do not match scheme CF4-2 (s=2, m=2)"),
    "n < 2": (dict(n=1), ValueError, "need at least two spins, got n=1"),
    "magnus guard": (dict(h=0.8), DivergentRegimeError,
                     "Magnus remainder series diverges at h=0.8, c=1.0: "
                     "need 2c*(-ln(1-h/2)) < 1"),
    "magnus guard h >= 2": (dict(c=0.25, h=2.0), DivergentRegimeError,
                            "Magnus remainder series diverges at h=2.0, c=0.25: "
                            "need 2c*(-ln(1-h/2)) < 1"),
    "product guard": (dict(c=0.25, cbar=0.125, h=1.2), DivergentRegimeError,
                      "product-vs-truncation remainder requires h < 1, got h=1.2"),
    "stopping rule below the magnus guard": (dict(h=0.786), DivergentRegimeError,
                                             _TAIL_STOP),
    "stopping rule below the product guard": (dict(c=0.25, cbar=0.125, h=0.999),
                                              DivergentRegimeError, _TAIL_STOP),
}


@pytest.mark.parametrize("fault", sorted(STEP_ERROR_FAULTS))
def test_step_error_raises_the_term_functions_errors(request, fault):
    # params are checked once, up front, with the exception types and
    # messages the public term functions raise for the same input, so bad
    # inputs fail before any series work
    changes, kind, message = STEP_ERROR_FAULTS[fault]
    if kind is ValueError:
        request.getfixturevalue("no_series_work")
    with pytest.raises(kind) as info:
        step_error(load_scheme("CF4-2"), BoundParams(**dict(_CF4_2, **changes)))
    assert type(info.value) is kind and str(info.value) == message


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
    "suzuki lam": (lambda x: suzuki_exponentials(1, x, 1.0, 1e-3), "lam"),
    "suzuki h": (lambda x: suzuki_exponentials(1, 1.0, x, 1e-3), "total_time"),
    "suzuki eps": (lambda x: suzuki_exponentials(1, 1.0, 1.0, x), "epsilon"),
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
    with pytest.raises(ValueError,
                       match=r"^lam, total_time and epsilon must be positive$"):
        suzuki_exponentials(1, 1.0, -math.inf, 1e-3)
