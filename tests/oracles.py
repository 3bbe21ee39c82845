"""Independent routes to the identities behind the closed-form bounds and
the structured propagators.

``cfqm.bounds`` evaluates each bound by its closed form only.  The helpers
here rebuild the same quantities by other means (enumeration, exact
``Fraction`` series, a composition dynamic program) so the tests can pin
the closed forms against them; :func:`uncached_product_term` rebuilds
the product remainder's h-independent inner sum on every call, which
``bounds`` caches.  :func:`kron_coupling` and :func:`kron_generators`
build the exchange part and the generators a * C + diag(f . sigma^z) as
sums of Kronecker products of Pauli matrices, the route the runtime's
sector-state blocks replace; the dense oracle steps below start from
them.  Likewise :func:`dense_cfqm_step` sums dense node
Hamiltonians into each exponent, :func:`dense_trotterized_step`
runs the product formula with dense d x d exponentials of the split
parts, :func:`dense_reference_propagator` composes and extrapolates dense
d x d midpoint micro-steps exponentiated by ``eigh``, and
:func:`scalar_compute_cbar` scans the xbar coefficients one (i, j) at a
time from exact integer quotients: the routes the runtime's
weight-built sector exponents, local gates, sector blocks, Taylor
exponentials and vectorised scan replace.  :func:`doubling_plan_search`
is the planner's first step-count search, doubling r from 1 and then
bisecting: the reference every plan is compared against.  None of this is
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

from cfqm import planner, schemes, spin_model
from cfqm.errors import DivergentRegimeError, InfeasiblePlanError
from cfqm.propagators import (
    _REFERENCE_CHUNK_BUDGET,
    _REFERENCE_MAX_STEPS,
    _reunitarize,
    _suzuki_stages,
    _tree_product,
    node_times,
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


def uncached_product_term(u: float, h: float, p: int) -> float:
    """Order-p term h**p * sum_{z=1}^{p} binomial(p-1, z-1) u**z / z! of the
    product remainder, with the inner sum rebuilt on every call: the loop
    ``cfqm.bounds`` now runs once per u and caches."""
    a = u
    inner = u
    for z in range(1, p):
        a = a * (p - z) * u / (z * (z + 1))
        if not math.isfinite(a):
            return math.inf
        inner += a
    return h ** p * inner


def doubling_plan_search(scheme, model_bounds, total_time: float,
                         epsilon: float):
    """(r, breakdown) of the minimal feasible step count, found by doubling
    r from 1 until feasible and then bisecting the last doubling: the
    reference :func:`cfqm.planner.plan` must agree with, plan, breakdown
    and error, whatever it probes.  Raises the same
    :class:`InfeasiblePlanError` messages."""
    cbar = schemes.compute_cbar(scheme, model_bounds.c)

    def attempt(r: int):
        try:
            return planner._breakdown_at(scheme, model_bounds, cbar,
                                         total_time / r)
        except DivergentRegimeError:
            return None

    # the minimal feasible count lies in (lo, r] once r is feasible, and
    # best is the breakdown at r
    lo, r = 0, 1
    while (best := attempt(r)) is None or r * best.total > epsilon:
        if r == planner.MAX_STEPS:
            # h = T/r is smallest here and every guard is monotone in h, so
            # this last attempt tells whether the guards ever held
            if best is None:
                raise InfeasiblePlanError(
                    f"no step count up to 2**32 brings h = {total_time}/r inside "
                    f"the convergence guards (c={model_bounds.c}); the bound "
                    "series diverge everywhere on this range")
            raise InfeasiblePlanError(
                f"no step count up to 2**32 meets epsilon={epsilon} for scheme "
                f"{scheme.scheme_id} at T={total_time}")
        lo, r = r, 2 * r
    while r - lo > 1:
        mid = (lo + r) // 2
        bd = attempt(mid)
        if bd is not None and mid * bd.total <= epsilon:
            r, best = mid, bd
        else:
            lo = mid
    return r, best


def scalar_xbar(row, j: int) -> float:
    """xbar_j = sum_g y_g T[g, j] for one row, any j >= 1, with each
    T[g, j] = (1 - (-1)^k) / (k 2^k), k = g + j, an exact integer quotient
    and the products summed left to right."""
    total = 0.0
    for g, y in enumerate(row):
        k = g + j
        total += float(y) * ((1 - (-1) ** k) / (k * 2 ** k))
    return total


def scalar_compute_cbar(scheme, c: float) -> float:
    """cbar = c * max_{i,j} |xbar_{i,j}| by a scalar scan over j = 1..4s,
    extended by doubling until the tail bound (2^(1-j)/j) max_i sum_g
    |y_{i,g}| for the unscanned j drops below the current maximum."""
    rows = np.vstack([scheme.y_rho, scheme.y_sigma]) if scheme.is_split else scheme.y
    biggest_row = float(np.abs(rows).sum(axis=1).max())
    best = 0.0
    j_scanned = 0
    j_limit = 4 * scheme.s
    while True:
        for j in range(j_scanned + 1, j_limit + 1):
            for i in range(rows.shape[0]):
                best = max(best, abs(scalar_xbar(rows[i], j)))
        j_scanned = j_limit
        if 2.0 ** (1 - (j_scanned + 1)) / (j_scanned + 1) * biggest_row <= best:
            break
        j_limit = 2 * j_scanned
    return c * best


_PAULI = (np.array([[0.0, 1.0], [1.0, 0.0]]),
          np.array([[0.0, -1.0j], [1.0j, 0.0]]),
          np.array([[1.0, 0.0], [0.0, -1.0]]))


def _kron_chain(*factors: np.ndarray) -> np.ndarray:
    out = np.ones((1,) * factors[0].ndim)
    for factor in factors:
        out = np.kron(out, factor)
    return out


def kron_coupling(n: int) -> np.ndarray:
    """The exchange part (1/4n) sum_i sigma_i . sigma_{i+1} of the chain,
    summed from Kronecker products of the Pauli matrices."""
    bond = sum(np.kron(p, p) for p in _PAULI).real
    out = np.zeros((2 ** n, 2 ** n))
    for site in range(1, n):
        out += _kron_chain(np.eye(2 ** (site - 1)), bond, np.eye(2 ** (n - site - 1)))
    return out / (4.0 * n)


def kron_site_z(n: int) -> np.ndarray:
    """Diagonals of sigma_1^z, ..., sigma_n^z as Kronecker products, (n, 2^n)."""
    return np.array([_kron_chain(np.ones(2 ** (site - 1)), np.diag(_PAULI[2]),
                                 np.ones(2 ** (n - site))) for site in range(1, n + 1)])


def kron_generators(model, exchange, fields) -> np.ndarray:
    """Dense ``exchange * C + diag(fields . sigma^z)`` from :func:`kron_coupling`
    and :func:`kron_site_z`, for ``exchange`` of shape ``batch`` and per-site
    ``fields`` of shape ``batch + (n,)``; shape ``batch + (2^n, 2^n)``."""
    out = np.asarray(exchange, dtype=float)[..., None, None] * kron_coupling(model.n)
    idx = np.arange(model.dim)
    out[..., idx, idx] += np.asarray(fields, dtype=float) @ kron_site_z(model.n)
    return out


def expm_antihermitian(h_mat: np.ndarray, tau: float) -> np.ndarray:
    """exp(-i tau H) for a Hermitian H or a stack of them, via
    eigendecomposition."""
    evals, evecs = np.linalg.eigh(h_mat)
    phases = np.exp(-1j * tau * evals)
    return (evecs * phases[..., None, :]) @ np.swapaxes(evecs.conj(), -1, -2)


def dense_cfqm_step(scheme, model, t0: float, h: float) -> np.ndarray:
    """One step of a non-split scheme with exact exponentials, each exponent
    summed from the dense node Hamiltonians."""
    if scheme.is_split:
        raise ValueError(f"{scheme.scheme_id} is a split scheme; use split_step")
    times = node_times(scheme, t0, h)
    h_nodes = kron_generators(model, np.ones(times.size),
                              spin_model.field_amplitudes(model, times))
    u = np.eye(model.dim, dtype=complex)
    for i in range(scheme.m):
        exponent = sum(scheme.z[i, k] * h_nodes[k] for k in range(scheme.s))
        u = u @ expm_antihermitian(exponent, h)
    return u


def _expm_factory(h_mat: np.ndarray):
    """Eigendecompose once, exponentiate at many tau (used by the product
    formula, whose stages reuse the same two Hamiltonians)."""
    evals, evecs = np.linalg.eigh(h_mat)
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
    stages = _suzuki_stages(scheme.s)
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
        for xi, beta in stages:
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
    coupling = kron_coupling(model.n)
    fields = spin_model.field_amplitudes(model, node_times(scheme, t0, h)) @ kron_site_z(model.n)
    u = np.eye(model.dim, dtype=complex)
    for i in range(scheme.m):
        if np.abs(scheme.rho[i]).max() > 0.0:
            exponent = sum(scheme.rho[i, k] * coupling for k in range(scheme.s))
            u = u @ expm_antihermitian(exponent, h)
        if np.abs(scheme.sigma[i]).max() > 0.0:
            diag = sum(scheme.sigma[i, k] * fields[k] for k in range(scheme.s))
            u = u * np.exp(-1j * h * diag)[None, :]
    return u


def dense_midpoint_product(model, t0: float, t1: float, num_steps: int) -> np.ndarray:
    """Compose num_steps exact midpoint-rule micro-steps over [t0, t1]."""
    h_micro = (t1 - t0) / num_steps
    mids = t0 + (np.arange(num_steps) + 0.5) * h_micro
    chunk_size = max(16, _REFERENCE_CHUNK_BUDGET // model.dim ** 2)
    u = np.eye(model.dim, dtype=complex)
    for start in range(0, num_steps, chunk_size):
        chunk = mids[start:start + chunk_size]
        hams = kron_generators(model, np.ones(chunk.size),
                               spin_model.field_amplitudes(model, chunk))
        steps = expm_antihermitian(hams, h_micro)
        u = _reunitarize(_tree_product(steps) @ u)
    return u


def dense_reference_propagator(model, t0: float, t1: float, tol: float = 1e-12) -> np.ndarray:
    """U(t1, t0) by mesh halving of the dense midpoint rule with one
    Richardson extrapolation, until two consecutive extrapolants agree to
    ``tol`` in the dense spectral norm (no memo)."""
    num_steps = 16
    u_prev = dense_midpoint_product(model, t0, t1, num_steps)
    ext_prev = None
    while num_steps <= _REFERENCE_MAX_STEPS // 2:
        num_steps *= 2
        u = dense_midpoint_product(model, t0, t1, num_steps)
        ext = _reunitarize((4.0 * u - u_prev) / 3.0)
        if ext_prev is not None and np.linalg.norm(ext - ext_prev, ord=2) < tol:
            return ext
        u_prev, ext_prev = u, ext
    raise RuntimeError(f"dense midpoint reference did not converge to {tol}")
