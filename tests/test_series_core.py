"""The shared tail-sum stopping rule, and the combinatorial and exact
truncated-series oracles the bound tests are built on."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfqm.errors import DivergentRegimeError
from cfqm.series_core import sum_tail
from oracles import (
    PowerSeries,
    compositions,
    iter_weak_compositions,
    series_exp,
    series_geometric,
    series_neg_log_one_minus,
    weak_composition_factorial_sum,
    x_series,
)


def test_compositions_order_and_count():
    assert compositions(0) == [()]
    assert compositions(1) == [(1,)]
    assert compositions(3) == [(3,), (2, 1), (1, 2), (1, 1, 1)]
    for p in range(1, 15):
        out = compositions(p)
        assert len(out) == 2 ** (p - 1)
        assert len(set(out)) == len(out)
        assert all(sum(k) == p and min(k) >= 1 for k in out)


def test_compositions_parts_follow_binomial():
    # number of compositions of p with z parts is binomial(p-1, z-1)
    for p in (5, 9):
        by_parts = {}
        for k in compositions(p):
            by_parts[len(k)] = by_parts.get(len(k), 0) + 1
        for z in range(1, p + 1):
            assert by_parts.get(z, 0) == math.comb(p - 1, z - 1)


def test_weak_compositions_enumeration():
    got = sorted(iter_weak_compositions(2, 2))
    assert got == [(0, 2), (1, 1), (2, 0)]
    assert sum(1 for _ in iter_weak_compositions(5, 3)) == math.comb(7, 2)


@given(d=st.integers(0, 8), m=st.integers(1, 5))
def test_weak_composition_factorial_sum_identity(d, m):
    assert weak_composition_factorial_sum(d, m) == Fraction(m ** d, math.factorial(d))


def test_series_exp_known_coefficients():
    # exp(2x + x^2): x^2 coefficient is 2^2/2 + 1 = 3
    s = PowerSeries([Fraction(0), Fraction(2), Fraction(1), Fraction(0), Fraction(0)])
    e = series_exp(s)
    assert e.coeffs[0] == 1
    assert e.coeffs[1] == 2
    assert e.coeffs[2] == 3
    assert e.coeffs[3] == Fraction(10, 3)


def test_series_neg_log_known_coefficients():
    # -ln(1 - (x + x^2)): x^2 coefficient is 1 + 1/2 = 3/2
    s = PowerSeries([Fraction(0), Fraction(1), Fraction(1), Fraction(0)])
    l = series_neg_log_one_minus(s)
    assert l.coeffs[1] == 1
    assert l.coeffs[2] == Fraction(3, 2)
    # classical series for -ln(1-x)
    lx = series_neg_log_one_minus(x_series(12))
    assert lx.coeffs[1:] == tuple(Fraction(1, k) for k in range(1, 13))


def test_series_requires_zero_constant():
    with pytest.raises(ValueError):
        series_exp(PowerSeries([Fraction(1), Fraction(1)]))
    with pytest.raises(ValueError):
        series_geometric(PowerSeries([Fraction(2)]))


@st.composite
def _zero_constant_series(draw):
    n = draw(st.integers(3, 10))
    coeffs = [Fraction(0)] + [
        Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 4)))
        for _ in range(n)
    ]
    return PowerSeries(coeffs)


@given(_zero_constant_series())
@settings(max_examples=60)
def test_exp_of_log_equals_geometric(s):
    # exp(-ln(1 - S)) == 1/(1 - S); all three routes share no recurrences,
    # and Fraction arithmetic makes the comparison exact.
    lhs = series_exp(series_neg_log_one_minus(s))
    assert lhs == series_geometric(s)


@given(_zero_constant_series())
@settings(max_examples=60)
def test_geometric_times_complement_is_one(s):
    g = series_geometric(s)
    one_minus_s = PowerSeries([1 - s.coeffs[0]] + [-c for c in s.coeffs[1:]])
    prod = g * one_minus_s
    assert prod.coeffs[0] == 1
    assert all(c == 0 for c in prod.coeffs[1:])


def test_power_series_mul_truncates_to_shorter():
    a = PowerSeries([1, 1, 1])
    b = PowerSeries([1, 2])
    assert (a * b).order == 1
    assert (a * b).coeffs == (1, 3)


def test_power_series_eval_horner():
    p = PowerSeries([Fraction(1), Fraction(0), Fraction(3)])
    assert p(Fraction(1, 2)) == Fraction(7, 4)


def test_sum_tail_geometric():
    # sum_{p>=3} (1/2)^p == 1/4
    got = sum_tail(lambda p: 0.5 ** p, 3, 1e-14)
    assert got == pytest.approx(0.25, rel=1e-12)


def test_sum_tail_rejects_divergence_and_negatives():
    with pytest.raises(DivergentRegimeError):
        sum_tail(lambda p: 1.1 ** p, 2, 1e-10)
    with pytest.raises(ValueError):
        sum_tail(lambda p: -1.0, 1, 1e-10)


def test_sum_tail_stops_on_an_underflowed_tail():
    # terms of exactly 0.0 count as decreasing, so a tail that underflows
    # stops after three orders instead of running into the order cap
    terms = []
    assert sum_tail(lambda p: terms.append(p) or 0.0, 3, 1e-6) == 0.0
    assert terms == [3, 4, 5]
    # a run of inf terms (the product term's overflow sentinel) never
    # decreases, so it still reports a divergent regime
    with pytest.raises(DivergentRegimeError):
        sum_tail(lambda p: math.inf, 3, 1e-6)


@pytest.mark.parametrize("rel_tol", [math.nan, -1.0, -1e-300, 1.0, 10.0, math.inf])
def test_sum_tail_rejects_invalid_rel_tol(rel_tol):
    # a plain ValueError before any term, not a DivergentRegimeError that
    # plan/validate would treat as a guard trip
    terms = []
    with pytest.raises(ValueError, match=r"rel_tol must be in \[0, 1\)") as err:
        sum_tail(lambda p: terms.append(p) or 0.5 ** p, 1, rel_tol)
    assert not isinstance(err.value, DivergentRegimeError)
    assert terms == []
