"""Matrix-level propagators: scheme steps, product formulas, references.

All propagators act on dense Hermitian Hamiltonians and return unitaries
for the evolution U(t0 + h, t0) with the time-ordered convention that the
earliest factor sits rightmost.  Scheme products are indexed so that the
i = 1 exponential is leftmost, i.e. the i = m exponential acts on the state
first.

The reference propagator composes exact midpoint-rule micro-steps and
halves the mesh until two consecutive refinements agree to the requested
tolerance, which places the reference error well below the scheme errors
measured against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import spin_model
from .errors import ReferenceConvergenceError

#: Memory budget (complex entries) per eigendecomposition batch inside the
#: reference propagator; the chunk size adapts to the matrix dimension.
_EIGH_BATCH_ENTRIES = 1 << 22

#: Mesh-size cap for the reference propagator.
_REFERENCE_MAX_STEPS = 2 ** 20

_HERMITICITY_RTOL = 1e-12


def _require_hermitian(mat: np.ndarray) -> np.ndarray:
    arr = np.asarray(mat)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    scale = max(1.0, float(np.abs(arr).max()))
    if np.abs(arr - arr.conj().T).max() > _HERMITICITY_RTOL * scale:
        raise ValueError("matrix is not Hermitian")
    return arr


def expm_antihermitian(h_mat: np.ndarray, tau: float) -> np.ndarray:
    """exp(-i tau H) for Hermitian H, via eigendecomposition."""
    arr = _require_hermitian(h_mat)
    evals, evecs = np.linalg.eigh(arr)
    phases = np.exp(-1j * tau * evals)
    return (evecs * phases) @ evecs.conj().T


def _expm_factory(h_mat: np.ndarray):
    """Eigendecompose once, exponentiate at many tau (used by the product
    formula, whose stages reuse the same two Hamiltonians)."""
    arr = _require_hermitian(h_mat)
    evals, evecs = np.linalg.eigh(arr)
    adjoint = evecs.conj().T

    def apply(tau: float) -> np.ndarray:
        return (evecs * np.exp(-1j * tau * evals)) @ adjoint

    return apply


def spectral_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Largest singular value of u - v."""
    return float(np.linalg.norm(u - v, ord=2))


def node_times(scheme, t0: float, h: float) -> np.ndarray:
    """Times t_mid + c_k h/2 at which the scheme samples the Hamiltonian."""
    return t0 + h / 2.0 + scheme.nodes * h / 2.0


def cfqm_step(scheme, model, t0: float, h: float) -> np.ndarray:
    """One step of a non-split scheme with exact exponentials."""
    if scheme.is_split:
        raise ValueError(f"{scheme.scheme_id} is a split scheme; use split_step")
    h_nodes = [spin_model.hamiltonian_at(model, t) for t in node_times(scheme, t0, h)]
    u = np.eye(model.dim, dtype=complex)
    for i in range(scheme.m):
        exponent = sum(scheme.z[i, k] * h_nodes[k] for k in range(scheme.s))
        u = u @ expm_antihermitian(exponent, h)
    return u


def split_step(scheme, model, t0: float, h: float) -> np.ndarray:
    """One step of a split scheme, alternating exchange and field exponentials.

    Each family commutes across the quadrature nodes by construction: the
    exchange part is one time-independent matrix and the field part is
    diagonal, so its exponentials are phases applied to the columns.  Zero
    coefficient rows (the trailing sigma row) contribute identity factors
    and are skipped.
    """
    if not scheme.is_split:
        raise ValueError(f"{scheme.scheme_id} is not a split scheme; use cfqm_step")
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


@dataclass(frozen=True)
class ProductFormulaSpec:
    """Stage coefficients of the canonical (2s)-th order product formula.

    The formula for H = B + C is the product over stages, applied in order
    (stage 1 acts first), of exp(-i t xi_k C) exp(-i t beta_k B).  The
    standard recursion gives 2 * 5^(s-1) stages with coefficient sums equal
    to 1 and magnitudes bounded by 1.
    """

    s: int
    xi: tuple[float, ...]
    beta: tuple[float, ...]

    @property
    def order(self) -> int:
        return 2 * self.s

    @property
    def num_stages(self) -> int:
        return len(self.xi)


def _suzuki_stages(s: int) -> list[tuple[float, float]]:
    if s == 1:
        return [(0.5, 0.0), (0.5, 1.0)]
    prev = _suzuki_stages(s - 1)
    u = 1.0 / (4.0 - 4.0 ** (1.0 / (2 * s - 1)))
    out = []
    for factor in (u, u, 1.0 - 4.0 * u, u, u):
        out.extend((xi * factor, beta * factor) for xi, beta in prev)
    return out


@lru_cache(maxsize=8)
def product_formula_spec(s: int) -> ProductFormulaSpec:
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    stages = _suzuki_stages(s)
    xi = tuple(stage[0] for stage in stages)
    beta = tuple(stage[1] for stage in stages)
    spec = ProductFormulaSpec(s=s, xi=xi, beta=beta)
    if spec.num_stages != 2 * 5 ** (s - 1):
        raise AssertionError(f"stage count {spec.num_stages} at s={s}")
    if abs(sum(xi) - 1.0) > 1e-13 or abs(sum(beta) - 1.0) > 1e-13:
        raise AssertionError(f"stage sums off at s={s}: {sum(xi)}, {sum(beta)}")
    if max(map(abs, xi + beta)) > 1.0 + 1e-12:
        raise AssertionError(f"stage coefficient above 1 at s={s}")
    return spec


def trotterized_cfqm_step(scheme, model, t0: float, h: float) -> np.ndarray:
    """One step of a non-split scheme with each exponential replaced by the
    (2s)-th order product formula over the odd/even block split."""
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


def _tree_product(steps: np.ndarray) -> np.ndarray:
    """Product of a stack of unitaries in time order (steps[0] acts first),
    reduced pairwise so the accumulated roundoff grows with log(len) rather
    than len."""
    arr = steps
    while arr.shape[0] > 1:
        if arr.shape[0] % 2:
            head, arr = arr[-1:], arr[:-1]
        else:
            head = None
        arr = arr[1::2] @ arr[0::2]
        if head is not None:
            arr = np.concatenate([arr, head], axis=0)
    return arr[0]


def _reunitarize(u: np.ndarray) -> np.ndarray:
    """One Newton-Schulz step toward the nearest unitary.

    Long products drift away from unitarity with a small coherent bias that
    otherwise dominates the reference error at fine meshes; one step from a
    near-unitary start reduces the defect quadratically (to roundoff here).
    """
    return u @ (1.5 * np.eye(u.shape[0]) - 0.5 * (u.conj().T @ u))


def _midpoint_product(model, t0: float, t1: float, num_steps: int) -> np.ndarray:
    """Compose num_steps exact midpoint-rule micro-steps over [t0, t1]."""
    h_micro = (t1 - t0) / num_steps
    mids = t0 + (np.arange(num_steps) + 0.5) * h_micro
    chunk_size = max(16, _EIGH_BATCH_ENTRIES // model.dim ** 2)
    u = np.eye(model.dim, dtype=complex)
    for start in range(0, num_steps, chunk_size):
        chunk = mids[start:start + chunk_size]
        h_batch = spin_model.hamiltonians_at(model, chunk)
        evals, evecs = np.linalg.eigh(h_batch)
        phases = np.exp(-1j * h_micro * evals)
        steps = (evecs * phases[:, None, :]) @ np.swapaxes(evecs.conj(), 1, 2)
        u = _reunitarize(_tree_product(steps) @ u)
    return u


_REFERENCE_CACHE: dict = {}
_REFERENCE_CACHE_LIMIT = 128


def reference_propagator(model, t0: float, t1: float, tol: float = 1e-12) -> np.ndarray:
    """Converged reference for U(t1, t0), by mesh halving of the midpoint rule.

    The midpoint rule is symmetric, so its global error is even in the
    micro-step; one Richardson extrapolation of the N- and 2N-step products,
    (4 U_{2N} - U_N) / 3, is therefore fourth-order accurate and reaches
    tight tolerances with far coarser meshes than the bare rule.  The mesh
    is doubled until two consecutive extrapolants differ by less than
    ``tol`` in spectral norm; failing to converge within 2**20 steps raises
    :class:`ReferenceConvergenceError`.

    Results are memoized by model data and window (order-condition checks
    compare many schemes against the same reference); the returned array is
    marked read-only because cache entries are shared.
    """
    if t1 <= t0:
        raise ValueError(f"need t1 > t0, got [{t0}, {t1}]")
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    key = (model.n, model.phases.tobytes(), model.freqs.tobytes(), t0, t1, tol)
    cached = _REFERENCE_CACHE.get(key)
    if cached is not None:
        return cached
    num_steps = 16
    u_prev = _midpoint_product(model, t0, t1, num_steps)
    ext_prev = None
    result = None
    while num_steps <= _REFERENCE_MAX_STEPS // 2:
        num_steps *= 2
        u = _midpoint_product(model, t0, t1, num_steps)
        ext = _reunitarize((4.0 * u - u_prev) / 3.0)
        if ext_prev is not None and spectral_distance(ext, ext_prev) < tol:
            result = ext
            break
        u_prev, ext_prev = u, ext
    else:
        raise ReferenceConvergenceError(
            f"midpoint reference did not converge to {tol} within "
            f"{_REFERENCE_MAX_STEPS} steps on [{t0}, {t1}]")
    result.setflags(write=False)
    while len(_REFERENCE_CACHE) >= _REFERENCE_CACHE_LIMIT:
        _REFERENCE_CACHE.pop(next(iter(_REFERENCE_CACHE)))
    _REFERENCE_CACHE[key] = result
    return result


def midpoint_step(model, t0: float, h: float) -> np.ndarray:
    """One exact midpoint-rule step exp(-i h H(t0 + h/2))."""
    return expm_antihermitian(spin_model.hamiltonian_at(model, t0 + h / 2.0), h)


def evolve(model, t0: float, total_time: float, steps: int, method: str,
           scheme=None) -> np.ndarray:
    """Propagate over [t0, t0 + total_time] in ``steps`` equal steps.

    ``method`` is one of 'midpoint', 'cfqm', 'trotterized-cfqm' or 'split';
    all but 'midpoint' require a matching scheme.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if total_time <= 0:
        raise ValueError(f"total_time must be positive, got {total_time}")
    step_fns = {
        "midpoint": lambda t, h: midpoint_step(model, t, h),
        "cfqm": lambda t, h: cfqm_step(scheme, model, t, h),
        "trotterized-cfqm": lambda t, h: trotterized_cfqm_step(scheme, model, t, h),
        "split": lambda t, h: split_step(scheme, model, t, h),
    }
    if method not in step_fns:
        raise ValueError(f"unknown method {method!r}; pick from {sorted(step_fns)}")
    if method != "midpoint" and scheme is None:
        raise ValueError(f"method {method!r} requires a scheme")
    h = total_time / steps
    u = np.eye(model.dim, dtype=complex)
    for k in range(steps):
        u = step_fns[method](t0 + k * h, h) @ u
    return u
