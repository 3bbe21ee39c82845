"""Independent routes to the identities behind the closed-form bounds and
the structured propagators.

``cfqm.bounds`` evaluates each bound by its closed form only.  The helpers
here rebuild the same quantities by other means (enumeration, exact
``Fraction`` series, a composition dynamic program) so the tests can pin
the closed forms against them.  Likewise :func:`dense_trotterized_step`
runs the product formula with dense d x d exponentials of the split
parts, the route the local-gate propagator replaces.  None of this is
used at run time.

A *composition* of p >= 1 is an ordered tuple of positive integers summing
to p; there are 2**(p-1) of them.  A *weak composition* of d into m parts
allows zero parts; there are binomial(d+m-1, m-1) of them.  A
:class:`PowerSeries` is a truncated series sum_k c_k x**k stored as the
coefficient tuple ``(c_0, ..., c_N)``; with ``Fraction`` coefficients all
arithmetic stays exact.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np

from cfqm import spin_model
from cfqm.propagators import (
    _require_hermitian,
    expm_antihermitian,
    node_times,
    product_formula_spec,
)


@lru_cache(maxsize=1)
def compositions(p: int) -> list[tuple[int, ...]]:
    """All compositions of p, larger first parts first, e.g. for p = 3::

        (3,), (2, 1), (1, 2), (1, 1, 1)

    Level p is derived from level p-1: every composition of p is one of
    p-1 with its first part incremented (these come first) or with a 1
    prepended.  The last level built is memoized, so an ascending scan
    over p builds each level once.
    """
    if p < 2:
        return [(1,) * p]
    prev = compositions(p - 1)
    out = [(k[0] + 1,) + k[1:] for k in prev]
    out.extend(map((1,).__add__, prev))
    return out


def iter_weak_compositions(d: int, m: int) -> Iterator[tuple[int, ...]]:
    """Yield all weak compositions of d into exactly m parts (zeros allowed)."""
    # Stars and bars: bar positions among d + m - 1 slots.
    for bars in itertools.combinations(range(d + m - 1), m - 1):
        edges = (-1,) + bars + (d + m - 1,)
        yield tuple(b - a - 1 for a, b in zip(edges, edges[1:]))


def weak_composition_factorial_sum(d: int, m: int) -> Fraction:
    """Sum over weak compositions (k_1,...,k_m) of d of 1/(k_1! ... k_m!),
    by direct enumeration (the multinomial theorem gives m**d / d!)."""
    total = Fraction(0)
    for parts in iter_weak_compositions(d, m):
        total += Fraction(1, math.prod(map(math.factorial, parts)))
    return total


@dataclass(frozen=True)
class PowerSeries:
    """A truncated power series; arithmetic truncates to the shorter operand."""

    coeffs: Sequence

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(self.coeffs))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __mul__(self, other: "PowerSeries") -> "PowerSeries":
        n = min(self.order, other.order)
        return PowerSeries([sum(self.coeffs[i] * other.coeffs[k - i]
                                for i in range(k + 1)) for k in range(n + 1)])

    def __call__(self, x):
        """Evaluate by Horner's rule."""
        acc = 0 * x
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


def x_series(order: int) -> PowerSeries:
    """The series x with exact coefficients, truncated at ``order``."""
    return PowerSeries([Fraction(0), Fraction(1)] + [Fraction(0)] * (order - 1))


def _require_zero_constant(s: PowerSeries, what: str) -> None:
    if s.coeffs[0] != 0:
        raise ValueError(f"{what} requires a series with zero constant term, "
                         f"got constant {s.coeffs[0]!r}")


def series_exp(s: PowerSeries) -> PowerSeries:
    """exp(S) for S(0) = 0, from E' = S' E:
    (k+1) e_{k+1} = sum_{a=1}^{k+1} a s_a e_{k+1-a}."""
    _require_zero_constant(s, "series_exp")
    e = [s.coeffs[0] + 1]
    for k in range(s.order):
        e.append(sum(a * s.coeffs[a] * e[k + 1 - a] for a in range(1, k + 2))
                 / (k + 1))
    return PowerSeries(e)


def series_neg_log_one_minus(s: PowerSeries) -> PowerSeries:
    """-log(1 - S) for S(0) = 0, from (1 - S) L' = S':
    (k+1) l_{k+1} = (k+1) s_{k+1} + sum_{a=1}^{k} s_a (k+1-a) l_{k+1-a}."""
    _require_zero_constant(s, "series_neg_log_one_minus")
    l = [s.coeffs[0]]
    for k in range(s.order):
        acc = (k + 1) * s.coeffs[k + 1] + sum(
            s.coeffs[a] * (k + 1 - a) * l[k + 1 - a] for a in range(1, k + 1))
        l.append(acc / (k + 1))
    return PowerSeries(l)


def series_geometric(s: PowerSeries) -> PowerSeries:
    """1 / (1 - S) for S(0) = 0 by long division, d_k = sum_{a=1}^{k} s_a d_{k-a};
    it shares no recurrence with :func:`series_exp` or
    :func:`series_neg_log_one_minus`."""
    _require_zero_constant(s, "series_geometric")
    d = [s.coeffs[0] + 1]
    for k in range(1, s.order + 1):
        d.append(sum(s.coeffs[a] * d[k - a] for a in range(1, k + 1)))
    return PowerSeries(d)


def magnus_coeffs_dp(c: float, pmax: int) -> list[float]:
    """Coefficients G_p of the Magnus remainder majorant, by composition DP.

    Structurally this evaluates

        G_p = sum_{k in C(p)} 1/len(k)! * prod_l f(k_l),
        f(q) = sum_{j in C(q)} (2c)**len(j) / len(j) * prod_l 1/j_l,

    but through dynamic programs over the number of parts rather than by
    enumerating compositions:

        e_z(q) = [x**q] (sum_j x**j/j)**z     (inner parts DP)
        F_z(p) = [length-z part of the outer convolution of f]

    It shares no recurrence with the generating-function route in
    ``cfqm.bounds``.
    """
    e = [[0.0] * (pmax + 1) for _ in range(pmax + 1)]
    e[0][0] = 1.0
    for z in range(1, pmax + 1):
        for q in range(z, pmax + 1):
            e[z][q] = sum(e[z - 1][q - j] / j for j in range(1, q - z + 2))
    f = [0.0] * (pmax + 1)
    for q in range(1, pmax + 1):
        f[q] = sum((2.0 * c) ** z / z * e[z][q] for z in range(1, q + 1))
    big_f = [[0.0] * (pmax + 1) for _ in range(pmax + 1)]
    big_f[0][0] = 1.0
    for z in range(1, pmax + 1):
        for p in range(z, pmax + 1):
            big_f[z][p] = sum(f[j] * big_f[z - 1][p - j] for j in range(1, p - z + 2))
    out = [0.0] * (pmax + 1)
    for p in range(1, pmax + 1):
        out[p] = sum(big_f[z][p] / math.factorial(z) for z in range(1, p + 1))
    return out


def _expm_factory(h_mat: np.ndarray):
    """Eigendecompose once, exponentiate at many tau (used by the product
    formula, whose stages reuse the same two Hamiltonians)."""
    arr = _require_hermitian(h_mat)
    evals, evecs = np.linalg.eigh(arr)
    adjoint = evecs.conj().T

    def apply(tau: float) -> np.ndarray:
        return (evecs * np.exp(-1j * tau * evals)) @ adjoint

    return apply


def dense_trotterized_step(scheme, model, t0: float, h: float) -> np.ndarray:
    """One step of a non-split scheme with each exponential replaced by the
    (2s)-th order product formula over the odd/even block split, with
    dense exponentials of the summed parts and one factor per stage."""
    if scheme.is_split:
        raise ValueError(f"{scheme.scheme_id} is a split scheme; it is not trotterized")
    pf = product_formula_spec(scheme.s)
    odd_parts = []
    even_parts = []
    for t in node_times(scheme, t0, h):
        h_odd, h_even = spin_model.split_at(model, t)
        odd_parts.append(h_odd)
        even_parts.append(h_even)
    dim = model.dim
    u = np.eye(dim, dtype=complex)
    for i in range(scheme.m):
        b_mat = sum(scheme.z[i, k] * odd_parts[k] for k in range(scheme.s))
        c_mat = sum(scheme.z[i, k] * even_parts[k] for k in range(scheme.s))
        exp_b = _expm_factory(b_mat)
        exp_c = _expm_factory(c_mat)
        u_i = np.eye(dim, dtype=complex)
        for xi, beta in zip(pf.xi, pf.beta):
            if beta != 0.0:
                u_i = exp_b(h * beta) @ u_i
            if xi != 0.0:
                u_i = exp_c(h * xi) @ u_i
        u = u @ u_i
    return u


def per_factor_split_step(scheme, model, t0: float, h: float) -> np.ndarray:
    """One step of a split scheme with a dense exponential of every
    exchange exponent sum_k rho_ik C, each eigendecomposed anew, and the
    factors accumulated on the right."""
    coupling = spin_model.coupling_matrix(model)
    fields = [spin_model.field_diagonal(model, t) for t in node_times(scheme, t0, h)]
    u = np.eye(model.dim, dtype=complex)
    for i in range(scheme.m):
        if np.abs(scheme.rho[i]).max() > 0.0:
            exponent = sum(scheme.rho[i, k] * coupling for k in range(scheme.s))
            u = u @ expm_antihermitian(exponent, h)
        if np.abs(scheme.sigma[i]).max() > 0.0:
            diag = sum(scheme.sigma[i, k] * fields[k] for k in range(scheme.s))
            u = u * np.exp(-1j * h * diag)[None, :]
    return u
