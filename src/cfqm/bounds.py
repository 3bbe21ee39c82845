"""A-priori error bounds for commutator-free quasi-Magnus steps.

All bounds are per step of size h for a generator A(t) = -i H(t) whose
midpoint Taylor coefficients satisfy ||a_j|| <= c (componentwise for the
split bounds).  Four sources of error are kept separate:

* ``magnus_remainder``   -- truncating the Magnus series at grade 2s,
* ``cfqm_remainder``     -- replacing the truncated exponential by the
                            m-exponential commutator-free product,
* ``quadrature_remainder`` -- evaluating the averaged generators with the
                            s-node Gauss-Legendre rule,
* ``trotter_step_error`` -- replacing each product exponential by a
                            (2s)-th order product formula over the odd/even
                            two-site blocks of a spin chain.

Tail sums share one stopping rule (see :func:`cfqm.series_core.sum_tail`):
stop once the current term is below ``rel_tol`` times the running sum and
terms have decreased three orders in a row.  Step sizes outside a bound's
convergence region raise :class:`~cfqm.errors.DivergentRegimeError` rather
than returning a number that means nothing.

Each bound is evaluated by its closed form alone, in one private kernel
that the public term function and :func:`step_error` share; the
identities behind the closed forms are pinned by the test suite against
independent oracles.  :func:`step_error` checks its params once, so a
planner attempt does only the work that depends on h: the coefficients
of the two series are cached per constant (G_p per c, the product inner
sums per cbar * m) and extended on demand by the same float loops, the
factorials per s and the scheme's |y| rows and |z| row sums per scheme.
A bound's value does not depend on what ran before it, bit for bit.
Non-finite inputs raise ValueError before any series work.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DivergentRegimeError, require_finite, require_positive
from .series_core import sum_tail


# ---------------------------------------------------------------------------
# Magnus series truncation (remainder of the grade-2s truncation)
# ---------------------------------------------------------------------------


class _MagnusCoefficients:
    """Coefficients G_p of the Magnus remainder majorant for a fixed c,
    extended on demand.

    G_p is the x**p coefficient of 1/(1 + 2c ln(1-x)), computed by the
    division recurrence d_k = sum_{a=1}^{k} u_a d_{k-a} with d_0 = 1 and
    u_k = 2c l_k, where l_{k+1} = (k l_k)/(k+1) from l_1 = 1 are the
    coefficients 1/k of -ln(1-x).  Every term is positive, so the float
    accumulation is forward-stable.
    """

    def __init__(self, c: float):
        self._two_c = 2.0 * c
        self._l = 0.0
        self._u = [0.0]
        self._d = [1.0]

    def __getitem__(self, p: int) -> float:
        u, d = self._u, self._d
        while len(d) <= p:
            k = len(d)
            self._l = 1.0 if k == 1 else (k - 1) * self._l / k
            u.append(self._two_c * self._l)
            acc = 0.0
            for a in range(1, k + 1):
                acc = acc + u[a] * d[k - a]
            d.append(acc)
        return d[p]


@lru_cache(maxsize=64)
def _magnus_table(c: float) -> _MagnusCoefficients:
    return _MagnusCoefficients(c)


def magnus_remainder(c: float, h: float, s: int, rel_tol: float = 1e-6) -> float:
    """Bound on the norm distance between exp(Omega) and exp(Omega^[2s]).

    Valid when 2c * (-ln(1 - h/2)) < 1; outside that region the majorant
    series diverges and :class:`DivergentRegimeError` is raised.  The
    remainder is sum_{p >= 2s+1} G_p (h/2)**p with the G_p from the
    generating function 1/(1 + 2c ln(1-x)).
    """
    require_positive(c=c, h=h)
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    require_finite(c=c, h=h)
    return _magnus_tail(c, h, s, rel_tol)


def _magnus_tail(c: float, h: float, s: int, rel_tol: float) -> float:
    if h >= 2.0 or 2.0 * c * (-math.log1p(-h / 2.0)) >= 1.0:
        raise DivergentRegimeError(
            f"Magnus remainder series diverges at h={h}, c={c}: "
            f"need 2c*(-ln(1-h/2)) < 1")
    table = _magnus_table(c)
    x = h / 2.0
    return sum_tail(lambda p: table[p] * x ** p, 2 * s + 1, rel_tol)


# ---------------------------------------------------------------------------
# Commutator-free product vs. truncated Magnus exponential
# ---------------------------------------------------------------------------


class _ProductCoefficients:
    """Inner sums inner(p) = sum_{z=1}^{p} binomial(p-1, z-1) u**z / z! of
    the product remainder for a fixed u = cbar * m, extended on demand.

    a_z = binomial(p-1, z-1) u**z / z! is accumulated multiplicatively:
    plain float products cannot trip the integer-to-float conversion
    overflow that comb/factorial would at large p.  An order whose a_z
    overflows is stored as None; its term is inf (not h**p * inf, which is
    nan once h**p underflows), which the stopping rule then reports as a
    divergent regime.
    """

    def __init__(self, u: float):
        self._u = u
        self._inner = [0.0]  # the empty sum of order 0

    def __getitem__(self, p: int) -> float | None:
        u, inner = self._u, self._inner
        while len(inner) <= p:
            q = len(inner)
            a = u
            acc = u
            for z in range(1, q):
                a = a * (q - z) * u / (z * (z + 1))
                if not math.isfinite(a):
                    acc = None
                    break
                acc += a
            inner.append(acc)
        return inner[p]


@lru_cache(maxsize=64)
def _product_table(u: float) -> _ProductCoefficients:
    return _ProductCoefficients(u)


def cfqm_remainder(cbar: float, h: float, s: int, m: int,
                   rel_tol: float = 1e-6) -> float:
    """Bound on the distance between the m-exponential product and
    exp(Omega^[2s]), given componentwise exponent bounds cbar.

    Each order contributes

        term(p) = h**p * sum_{z=1}^{p} binomial(p-1, z-1) (cbar m)**z / z!

    summed from p = 2s+1 under the shared stopping rule.  The binomial
    counts compositions of p by number of parts and the (cbar m)**z / z!
    factor is the weak-composition factorial sum (both identities are
    pinned by the test suite).  The inner sums do not depend on h: they
    are cached per cbar * m and computed by the same loop on first use, so
    every value is the same float whichever h came first.  For s = 1 the
    single-exponential scheme reproduces exp(Omega^[2]) identically, so
    the remainder is 0.
    """
    require_positive(cbar=cbar, h=h)
    if s < 1 or m < 1:
        raise ValueError(f"s and m must be >= 1, got s={s}, m={m}")
    require_finite(cbar=cbar, h=h)
    return _product_tail(cbar * m, h, s, rel_tol)


def _product_tail(u: float, h: float, s: int, rel_tol: float) -> float:
    if s == 1:
        return 0.0
    if h >= 1.0:
        raise DivergentRegimeError(
            f"product-vs-truncation remainder requires h < 1, got h={h}")
    table = _product_table(u)

    def term(p: int) -> float:
        inner = table[p]
        return math.inf if inner is None else h ** p * inner

    return sum_tail(term, 2 * s + 1, rel_tol)


# ---------------------------------------------------------------------------
# Gauss-Legendre quadrature remainder
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _factorial_constants(s: int) -> tuple[float, float, float, float, float]:
    """(2s)!, (s!)**4, (2s+1) ((2s)!)**3, their int/int quotient and
    (2s+1)!, each rounded to float once, as mixed arithmetic would."""
    numer = math.factorial(s) ** 4
    denom = (2 * s + 1) * math.factorial(2 * s) ** 3
    return (float(math.factorial(2 * s)), float(numer), float(denom),
            numer / denom, float(math.factorial(2 * s + 1)))


def _quadrature_inner_sum(c: float, h: float, s: int) -> float:
    """c * (2s)! / (1 - h/2)**(2s+1), the closed form of the tail
    sum_{l >= 0} c * (2s+l)!/l! * (h/2)**l."""
    return c * _factorial_constants(s)[0] / (1.0 - h / 2.0) ** (2 * s + 1)


def quadrature_remainder(y, c: float, h: float, s: int) -> float:
    """Bound on the error of evaluating the averaged generators A^(g) with
    the s-node Gauss-Legendre rule inside each exponential.

    ``y`` holds the scheme coefficients in the averaged-generator basis,
    one row per exponential and one column per g = 0..s-1.  The bound is

        h**(2s+1) (s!)**4 / ((2s+1) ((2s)!)**3)
            * sum_{i,g} |y_{i,g}| / h**g * c (2s)! / (1 - h/2)**(2s+1)

    and requires h < 2.  Note the 1/h**g weight: rows that draw strongly on
    the higher averaged generators make this term dominant at small h.
    Once the prefactor leaves the normal float range (h < 1.6e-61 at
    s = 2), the weights carry its h**(2s+1) instead: |y_{i,g}| h**(2s+1-g).
    """
    require_positive(c=c, h=h)
    require_finite(c=c, h=h)
    if h >= 2.0:
        raise DivergentRegimeError(
            f"quadrature remainder requires h < 2, got h={h}")
    ymat = np.atleast_2d(np.asarray(y, dtype=float))
    if ymat.shape[1] != s:
        raise ValueError(f"y must have s={s} columns, got shape {ymat.shape}")
    return _quadrature_term(np.abs(ymat).tolist(), c, h, s)


def _quadrature_term(y_abs_rows, c: float, h: float, s: int) -> float:
    """The quadrature bound for rows of |y_{i,g}| and 0 < h < 2."""
    _, numer, denom, ratio, _ = _factorial_constants(s)
    prefactor = h ** (2 * s + 1) * numer / denom
    inner = _quadrature_inner_sum(c, h, s)
    if prefactor < sys.float_info.min:
        # fsum rounds the exact sum once, whatever the order of its terms
        powers = [h ** (2 * s + 1 - g) for g in range(s)]
        return ratio * inner * math.fsum(y_abs * power for row in y_abs_rows
                                         for y_abs, power in zip(row, powers))
    # row by row, left to right, in Python floats (not sum(), which
    # compensates floats from Python 3.12 on)
    scales = [h ** g for g in range(s)]
    weights = 0.0
    for row in y_abs_rows:
        for y_abs, scale in zip(row, scales):
            weights += y_abs / scale
    return prefactor * inner * weights


# ---------------------------------------------------------------------------
# Product-formula (Trotter) error for the odd/even block split
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _trotter_stage_sum(s: int) -> int:
    """K(s) = sum_{k=1}^{2*5**(s-1)} (2k-1)**2s k (4k-4)**2s + (2k+1)**2s k (4k)**2s."""
    return sum((2 * k - 1) ** (2 * s) * k * (4 * k - 4) ** (2 * s)
               + (2 * k + 1) ** (2 * s) * k * (4 * k) ** (2 * s)
               for k in range(1, 2 * 5 ** (s - 1) + 1))


def trotter_step_error(z, n: int, h: float, s: int) -> float:
    """Bound on replacing each CFQM exponential by the (2s)-th order
    canonical product formula over the odd/even two-site blocks.

    ``z`` holds the quadrature-node coefficients (one row per exponential).
    With Z_i = sum_k |z_{i,k}| / (4n), each exponential contributes

        [sum_k n(2k-1)**2s k (4k-4)**2s + n(2k+1)**2s k (4k)**2s]
            * (Z_i h)**(2s+1) / (2s+1)!

    with the stage sum running over k = 1..2*5**(s-1).
    """
    if n < 2:
        raise ValueError(f"need at least two spins, got n={n}")
    require_positive(h=h)
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    require_finite(h=h)
    return _trotter_term(_abs_row_sums(z), n, h, s)


def _abs_row_sums(z) -> tuple[float, ...]:
    """sum_k |z_{i,k}| per row, left to right, as numpy sums rows this short."""
    sums = []
    for row in np.abs(np.atleast_2d(np.asarray(z, dtype=float))).tolist():
        row_sum = 0.0
        for z_abs in row:
            row_sum += z_abs
        sums.append(row_sum)
    return tuple(sums)


def _trotter_term(z_row_sums, n: int, h: float, s: int) -> float:
    # n * K(s) in exact integers, then one rounding to float
    const = float(n * _trotter_stage_sum(s))
    fact = _factorial_constants(s)[4]
    total = 0.0
    for row_sum in z_row_sums:
        total += const * (row_sum / (4.0 * n) * h) ** (2 * s + 1) / fact
    return total


# ---------------------------------------------------------------------------
# Per-step assembly
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundParams:
    """Inputs the per-step bounds need beyond the scheme itself.

    c     componentwise bound on the midpoint Taylor coefficients of A(t)
    cbar  c times the largest extended-basis coefficient of the scheme
    h     step size
    s     half order (the scheme is order 2s)
    m     number of scheme stages (matches the scheme)
    n     number of spins (enters only the product-formula term)
    """

    c: float
    cbar: float
    h: float
    s: int
    m: int
    n: int


@dataclass(frozen=True)
class ErrorBreakdown:
    """Per-step error bound, split by source."""

    magnus_taylor: float
    cfqm_taylor: float
    quadrature: float
    trotter: float

    @property
    def total(self) -> float:
        return self.magnus_taylor + self.cfqm_taylor + self.quadrature + self.trotter


@lru_cache(maxsize=64)
def _scheme_constants(scheme) -> tuple[tuple, tuple[float, ...]]:
    """|y| rows per coefficient family (y, or y_rho and y_sigma) and |z|
    row sums (none for split schemes) of a scheme, as Python floats."""
    families = (scheme.y_rho, scheme.y_sigma) if scheme.is_split else (scheme.y,)
    return (tuple(tuple(map(tuple, np.abs(y).tolist())) for y in families),
            () if scheme.is_split else _abs_row_sums(scheme.z))


def step_error(scheme, params: BoundParams, rel_tol: float = 1e-6) -> ErrorBreakdown:
    """Assemble the full per-step bound for a scheme.

    For split schemes the product has 2m exponentials (one kinetic-like and
    one potential-like per stage), both coefficient families enter the
    quadrature term, and the Trotter term is zero because every exponential
    is a sum of commuting two-site blocks already.  For non-split schemes
    the Trotter term uses the scheme's quadrature-node coefficients; it is
    the cost of implementing each exponential on the spin chain.  The s=1
    scheme is the exact exponential of the truncated series, so its product
    term vanishes (see :func:`cfqm_remainder`).

    ``params`` is checked once, up front, with the term functions'
    exceptions and messages, so bad inputs raise before any convergence
    guard; the terms come from the kernels those functions share, with the
    scheme constants cached per scheme.
    """
    c, cbar, h, s, m, n = (params.c, params.cbar, params.h, params.s,
                           params.m, params.n)
    if s != scheme.s or m != scheme.m:
        raise ValueError(
            f"params (s={s}, m={m}) do not match scheme "
            f"{scheme.scheme_id} (s={scheme.s}, m={scheme.m})")
    exponentials = 2 * m if scheme.is_split else m
    require_positive(c=c, h=h)
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    require_finite(c=c, h=h)
    require_positive(cbar=cbar)
    if exponentials < 1:
        raise ValueError(f"s and m must be >= 1, got s={s}, m={exponentials}")
    require_finite(cbar=cbar)
    if not scheme.is_split and n < 2:
        raise ValueError(f"need at least two spins, got n={n}")
    y_families, z_row_sums = _scheme_constants(scheme)
    magnus = _magnus_tail(c, h, s, rel_tol)
    cfqm = _product_tail(cbar * exponentials, h, s, rel_tol)
    quad = 0.0  # split schemes add their two families' terms, as floats
    for y_abs_rows in y_families:
        quad += _quadrature_term(y_abs_rows, c, h, s)
    trotter = 0.0 if scheme.is_split else _trotter_term(z_row_sums, n, h, s)
    return ErrorBreakdown(magnus, cfqm, quad, trotter)
