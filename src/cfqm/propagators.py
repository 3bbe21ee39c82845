"""Matrix-level propagators: scheme steps, product formulas, references.

All propagators return dense unitaries for the evolution U(t0 + h, t0)
with the time-ordered convention that the earliest factor sits rightmost.
Scheme products are indexed so that the i = 1 exponential is leftmost,
i.e. the i = m exponential acts on the state first.

On this model H(t) = C + D(t) with C the constant exchange part and D(t)
diagonal, so a scheme exponent sum_k z_ik H(t_k) is (sum_k z_ik) C plus a
diagonal: every step starts from these per-exponential exchange and field
weights.  Both parts conserve sum_i sigma_i^z, so every exponent and
propagator is block-diagonal over the magnetization sectors of
:func:`cfqm.spin_model.sector_groups`, and no kernel works on dense
2^n x 2^n arrays: every kernel works on the per-group block stacks and
scatters them into the dense result once, through
:func:`cfqm.spin_model.dense`.  The split and the trotterized step are one
:func:`_phase_chain` per group, phases in real eigenbases joined by real
changes of basis; each step only builds the chain's inputs.  The trotterized
step's factors are symmetric and a palindrome: U = Z^T diag(phi_mid) Z.

The exact step's exponents and the reference's micro-steps are
exp(-i tau G) for real symmetric sector blocks G of small norm, which
:func:`_expm` evaluates as cos - i sin by a truncated Taylor series in
real matrix products; ``eigh`` is left only for the trotterized step's
2x2 bond blocks and the split step's cached exchange eigenbasis.

The reference propagator composes exact midpoint-rule micro-steps and
halves the mesh until two consecutive refinements agree to the requested
tolerance, which places the reference error well below the scheme errors
measured against it.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from . import spin_model
from .errors import ReferenceConvergenceError, require_finite, require_positive

#: Micro-steps per chunk of the reference propagator, as a budget of chunk
#: * 4^n (at least 16 steps): each chunk is exponentiated as one stack and
#: multiplied into the product, which is reunitarized once per chunk.  The
#: budget bounds the chunk's ``_expm`` working set, about 12 stacks of the
#: chunk's sector blocks, which sets the reference's peak memory.  It puts
#: n = 8 on the 16-step floor and n = 7 at 32 steps: there a larger chunk
#: only saves per-chunk products on small blocks, which cost less time than
#: its working set did.
_REFERENCE_CHUNK_BUDGET = 1 << 19

#: Mesh-size cap for the reference propagator.
_REFERENCE_MAX_STEPS = 2 ** 20

#: Unit roundoff of float64, the target of the Taylor truncation error.
_UNIT_ROUNDOFF = 2.0 ** -53


@lru_cache(maxsize=None)
def _taylor_plan(degree: int):
    """Paterson-Stockmeyer plan for the degree-J Taylor series of cos X
    and of -sin X = X q(Y), both as polynomials in Y = X^2.

    Each series is cut into blocks of r coefficients, c_0 I + c_1 Y + ...
    + c_(r-1) Y^(r-1), which Horner's rule in Y^r joins.  r is the size
    with the fewest products: Y^2 .. Y^p with p = min(r, top), then one
    per further block.  Returns p, the number of cos blocks, and for
    all blocks (cos first, each series from its highest block down) the
    c_0 and the zero-padded (c_1, ..., c_p) rows.
    """
    series = ([(-1) ** k / math.factorial(2 * k) for k in range(degree // 2 + 1)],
              [(-1) ** (k + 1) / math.factorial(2 * k + 1)
               for k in range((degree + 1) // 2)])
    top = len(series[0]) - 1  # highest power of Y either series needs
    r = min(range(1, top + 2), key=lambda r: min(r, top) - 1 + sum(
        -(-len(c) // r) - 1 for c in series))
    count = min(r, top)
    rows = [(c[k], c[k + 1:k + r]) for c in series for k in reversed(range(0, len(c), r))]
    firsts = np.array([first for first, _ in rows])
    tails = np.zeros((len(rows), count))
    for row, (_, tail) in enumerate(rows):
        tails[row, :len(tail)] = tail
    for arr in (firsts, tails):
        arr.setflags(write=False)
    return count, -(-len(series[0]) // r), firsts, tails


def _horner(blocks: np.ndarray, step: np.ndarray) -> np.ndarray:
    """sum_j blocks[-1-j] step^j, the blocks given highest first."""
    out = blocks[0]
    for block in blocks[1:]:
        out = out @ step
        out += block
    return out


def _expm(generators: np.ndarray, tau: float) -> np.ndarray:
    """exp(-i tau G) for a real symmetric G or a stack of them, as
    cos X - i sin X with X = tau G, by a truncated Taylor series in real
    matrix products (Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 31, 2009).

    theta, the largest absolute row sum of X over the stack, bounds the
    spectral norm of every symmetric X.  When theta > 1, X is scaled by
    2^-s to theta <= 1 and the result squared s times.  The degree J is
    the smallest with theta^(J+1)/(J+1)! e^theta <= 2^-53, which bounds
    the truncation error of both series, and at least 2 so that both have
    a block; cos X and sin X = X q(X^2) are evaluated as polynomials in
    Y = X^2 by Paterson-Stockmeyer.  A non-finite theta raises ValueError.
    """
    x = tau * np.asarray(generators, dtype=float)
    theta = float(np.abs(x).sum(axis=-1).max())
    if not math.isfinite(theta):
        raise ValueError(f"exponent norm must be finite, got {theta}")
    squarings = max(0, math.ceil(math.log2(theta))) if theta > 1.0 else 0
    if squarings:
        x /= 2.0 ** squarings
        theta /= 2.0 ** squarings
    degree, remainder = 0, theta
    while remainder * math.exp(theta) > _UNIT_ROUNDOFF:
        degree += 1
        remainder *= theta / (degree + 1)
    count, cos_count, firsts, tails = _taylor_plan(max(degree, 2))
    powers = np.empty((count,) + x.shape)  # Y, Y^2, ..., Y^count
    np.matmul(x, x, out=powers[0])
    for k in range(1, count):
        np.matmul(powers[k - 1], powers[0], out=powers[k])
    # every block of both series in one product, then c_0 on the diagonals
    d = x.shape[-1]
    blocks = (tails @ powers.reshape(count, x.size)).reshape((len(tails),) + x.shape)
    blocks.reshape(len(tails), -1, d * d)[..., ::d + 1] += firsts[:, None, None]
    step = powers[-1]  # Y^r wherever a series has two blocks
    out = np.empty(x.shape, dtype=complex)
    out.real = _horner(blocks[:cos_count], step)
    out.imag = x @ _horner(blocks[cos_count:], step)
    for _ in range(squarings):
        out = out @ out
    return out


def _block_norm(blocks: list[np.ndarray]) -> float:
    """Spectral norm of a block-diagonal matrix given as per-group stacks."""
    return max(float(np.linalg.svd(b, compute_uv=False)[..., 0].max()) for b in blocks)


def spectral_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Largest singular value of u - v, from its sector blocks when they
    hold all its nonzeros (as for any two propagators), else dense."""
    diff = u - v
    n = diff.shape[0].bit_length() - 1 if diff.ndim == 2 else 0
    if 2 <= n <= spin_model.MAX_DENSE_SPINS and diff.shape == (2 ** n, 2 ** n):
        blocks = [diff[rows, cols] for rows, cols in spin_model.sector_groups(n)]
        if sum(map(np.count_nonzero, blocks)) == np.count_nonzero(diff):
            return _block_norm(blocks)
    return float(np.linalg.norm(diff, ord=2))


def node_times(scheme, t0: float, h: float) -> np.ndarray:
    """Times t_mid + c_k h/2 at which the scheme samples the Hamiltonian."""
    return t0 + h / 2.0 + scheme.nodes * h / 2.0


def _exponent_weights(scheme, model, t0: float, h: float):
    """Exchange and field weights of the m exponents: exponent i is
    exchange[i] * C + diag(fields[i] . sigma^z), i.e. sum_k z_ik H(t_k)."""
    amplitudes = spin_model.field_amplitudes(model, node_times(scheme, t0, h))
    return scheme.z.sum(axis=1), scheme.z @ amplitudes


def cfqm_step(scheme, model, t0: float, h: float) -> np.ndarray:
    """One step of a non-split scheme with exact exponentials: no plan's
    step, but the reference the Trotter-defect checks and the benchmark use.
    A non-finite ``t0`` or ``h`` raises ValueError before any matrix work,
    as in :func:`split_step` and :func:`trotterized_cfqm_step`.
    """
    if scheme.is_split:
        raise ValueError(f"{scheme.scheme_id} is a split scheme; use split_step")
    require_finite(t0=t0, h=h)
    exchange, fields = _exponent_weights(scheme, model, t0, h)
    # one exponential stack per group over all m exponents; exponent m acts first
    return spin_model.dense(model.n, [
        _tree_product(_expm(generators, h)[::-1])
        for generators in spin_model.sector_generators(model, exchange, fields)])


def _phase_chain(first, changes, phases, last) -> np.ndarray:
    """last diag(phases[-1]) changes[-1] ... changes[0] diag(phases[0]) first.

    ``first``, ``changes`` and ``last`` are real matrices and ``phases`` F
    unit-modulus diagonals of shape batch + (d,), with F - 1 changes; all
    broadcast over the leading batch.  Every real factor is one real
    product on the interleaved (re, im) columns of the complex accumulator,
    and each diagonal multiplies it in place.
    """
    u = np.ascontiguousarray(phases[0][..., None] * first)
    for change, phase in zip(changes, phases[1:]):
        u = (change @ u.view(float)).view(complex)
        u *= phase[..., None]
    return (last @ u.view(float)).view(complex)


def split_step(scheme, model, t0: float, h: float) -> np.ndarray:
    """One step of a split scheme, alternating exchange and field exponentials.

    The chain runs from i = m down to 1 over the field phases of exponent i
    and its exchange phases in the cached real eigenbasis V of each
    exchange block: first = I, changes V^T, V, V^T, ..., and last = V.  A
    zero sigma or rho row gives exact unit phases.
    """
    if not scheme.is_split:
        raise ValueError(f"{scheme.scheme_id} is not a split scheme; use cfqm_step")
    require_finite(t0=t0, h=h)
    n = model.n
    fields = scheme.sigma @ spin_model.field_diagonal(model, node_times(scheme, t0, h))
    field_phases = np.exp(-1j * h * fields)  # (m, 2^n)
    blocks = []
    for (rows, cols), (evals, evecs) in zip(spin_model.sector_groups(n),
                                            spin_model.sector_coupling_eigh(n)):
        exchange = np.exp(-1j * h * scheme.rho.sum(axis=1)[:, None, None] * evals)
        phases = [p for i in reversed(range(scheme.m))
                  for p in (field_phases[i, rows[..., 0]], exchange[i])]
        changes = [np.swapaxes(evecs, -1, -2), evecs] * scheme.m
        blocks.append(_phase_chain(np.eye(evecs.shape[-1]), changes[:-1], phases, evecs))
    return spin_model.dense(n, blocks)


def _suzuki_stages(s: int) -> list[tuple[float, float]]:
    """Stage coefficients (xi_k, beta_k) of the canonical (2s)-th order
    product formula for H = B + C: the product over stages, stage 1 acting
    first, of exp(-i t xi_k C) exp(-i t beta_k B), by the standard
    recursion (2 * 5^(s-1) stages)."""
    if s == 1:
        return [(0.5, 0.0), (0.5, 1.0)]
    prev = _suzuki_stages(s - 1)
    u = 1.0 / (4.0 - 4.0 ** (1.0 / (2 * s - 1)))
    out = []
    for factor in (u, u, 1.0 - 4.0 * u, u, u):
        out.extend((xi * factor, beta * factor) for xi, beta in prev)
    return out


@lru_cache(maxsize=8)
def product_formula_factors(s: int) -> tuple[tuple[int, float], ...]:
    """The order-2s product formula as (part, coefficient) factors in the
    order they act, part 0 being B (odd blocks) and 1 being C (even blocks).

    Zero-coefficient factors are dropped and adjacent factors of the same
    part are merged, C B C | C B C -> C B 2C B C, which is exact because a
    part commutes with itself: 3, 11 and 51 factors at s = 1, 2, 3 instead
    of 3, 15 and 75.  The exponential accounting of the planner still
    counts every stage (see :func:`cfqm.planner.step_exponentials`).
    """
    factors: list[list] = []
    for xi, beta in _suzuki_stages(s):
        for part, coeff in ((0, beta), (1, xi)):
            if coeff == 0.0:
                continue
            if factors and factors[-1][0] == part:
                factors[-1][1] += coeff
            else:
                factors.append([part, coeff])
    return tuple((part, coeff) for part, coeff in factors)


@lru_cache(maxsize=16)
def _split_layout(n: int, bond_sites: tuple[tuple[int, ...], tuple[int, ...]]):
    """Gather indices for the eigenbases of the two parts of the odd/even
    split, whose bonds start on ``bond_sites[0]`` and ``bond_sites[1]``.

    Part p is a tensor product over slots: its bonds, then its unpaired
    sites (site n first, so an end term's slot follows the bonds), then
    identity slots up to the common count S.
    Slot (p, j) holds a 4x4 matrix, indexed on a bond by the pair's two
    bits and on a site by its bit.  Returns S and, per group of
    :func:`cfqm.spin_model.sector_groups`, the flat indices into a
    (2, S, 4, 4) stack of slot matrices, shape (2, S, g, d_k, d_k), and
    into a (2, S, 4) stack of slot diagonals, shape (2, S, g, d_k): the
    group blocks of the products are the gathers' products over S, and
    the group diagonals of the sums their sums over S.
    """
    states = np.arange(2 ** n)
    slots = []
    for sites in bond_sites:
        paired = {site + k for site in sites for k in (0, 1)}
        single = sorted(set(range(1, n + 1)) - paired, reverse=True)
        slots.append([(states >> (n - 1 - site)) & 3 for site in sites]
                     + [(states >> (n - site)) & 1 for site in single])
    width = max(map(len, slots))
    local = np.zeros((2, width, 2 ** n), dtype=np.intp)
    for p, rows in enumerate(slots):
        local[p, :len(rows)] = rows
    offset = np.arange(2 * width).reshape(2, width, 1)
    # the indices stay below 2 * S * 16 <= 224, so bytes keep the cache small
    groups = [((16 * offset[..., None, None] + 4 * local[:, :, rows]
                + local[:, :, cols]).astype(np.uint8),
               (4 * offset[..., None] + local[:, :, rows[..., 0]]).astype(np.uint8))
              for rows, cols in spin_model.sector_groups(n)]
    return width, groups


def _split_eigenbases(n: int, exchange, fields) -> list[tuple[np.ndarray, np.ndarray]]:
    """Real eigenbases of a batch of m odd/even split pairs (B, C), built
    by :func:`cfqm.spin_model.local_terms` from ``exchange`` (m,) and
    ``fields`` (m, n), per group of :func:`cfqm.spin_model.sector_groups`.

    Each 4x4 bond block is 1 + 2 + 1 block-diagonal over the pair's
    magnetization, so one batched eigh of the middle 2x2 blocks of every
    bond gives P = W diag(lam) W^T with W a real tensor product that
    conserves sum sigma^z exactly, even where the local spectrum is
    degenerate; the unpaired sites add identities to W and their diagonal
    to lam.  Returns per group ``(w, lam)``, the blocks of W of shape
    (m, 2, g, d_k, d_k) and the matching lam of shape (m, 2, g, d_k),
    part 0 being B and 1 being C.
    """
    m = len(exchange)
    parts = [spin_model.local_terms(n, parity, exchange, fields) for parity in (1, 0)]
    evals, evecs = np.linalg.eigh(
        np.concatenate([blocks[..., 1:3, 1:3] for _, blocks, _ in parts], axis=-3))
    width, groups = _split_layout(n, tuple(sites for sites, _, _ in parts))
    # slot matrices 1 (+) V (+) 1 on the bonds, identities elsewhere
    bases = np.tile(np.eye(4), (m, 2, width, 1, 1))
    spectra = np.zeros((m, 2, width, 4))
    bond = 0
    for p, (sites, blocks, end) in enumerate(parts):
        mid = slice(bond, bond + len(sites))
        bond = mid.stop
        bases[:, p, :len(sites), 1:3, 1:3] = evecs[:, mid]
        spectra[:, p, :len(sites), 0] = blocks[..., 0, 0]
        spectra[:, p, :len(sites), 1:3] = evals[:, mid]
        spectra[:, p, :len(sites), 3] = blocks[..., 3, 3]
        if end is not None:
            spectra[:, p, len(sites), :2] = end
    return [(np.take(bases.reshape(m, -1), entries, axis=1).prod(axis=2),
             np.take(spectra.reshape(m, -1), diagonal, axis=1).sum(axis=2))
            for entries, diagonal in groups]


def trotterized_cfqm_step(scheme, model, t0: float, h: float) -> np.ndarray:
    """One step of a non-split scheme with each exponential replaced by the
    (2s)-th order product formula over the odd/even block split.

    Exponential i is exp(-i h (B_i + C_i)) with B_i = sum_k z_ik H_odd(t_k)
    and C_i likewise.  Its F factors A_k = exp(-i tau_k P) are phases in P's
    real eigenbasis W (:func:`_split_eigenbases`); they equal their transposes
    as P is real symmetric, and they form a palindrome, so the product is
    X^T A_mid X = Z^T diag(phi_mid) Z with X = A_(mid-1) ... A_0, mid = F // 2.
    Z = W_mid^T X is the chain with first = W^T of the first factor's part,
    changes W_C^T W_B or its transpose and last = the change into W_mid, with
    the m exponentials as its batch; they are then multiplied, m acting first.
    """
    if scheme.is_split:
        raise ValueError(f"{scheme.scheme_id} is a split scheme; it is not trotterized")
    require_finite(t0=t0, h=h)
    n = model.n
    spin_model.require_dense(n)
    exchange, fields = _exponent_weights(scheme, model, t0, h)
    factors = product_formula_factors(scheme.s)
    mid = len(factors) // 2  # the factors are a palindrome around factor mid
    order = [part for part, _ in factors[:mid + 1]]
    taus = h * np.array([coeff for _, coeff in factors[:mid + 1]])
    blocks = []
    for w, lam in _split_eigenbases(n, exchange, fields):
        phases = np.exp(-1j * taus[:, None, None] * lam[:, order])
        into_c = np.swapaxes(w[:, 1], -1, -2) @ w[:, 0]  # B eigenbasis -> C eigenbasis
        change = (np.ascontiguousarray(np.swapaxes(into_c, -1, -2)), into_c)
        z = _phase_chain(np.swapaxes(w[:, order[0]], -1, -2),
                         [change[p] for p in order[1:mid]],
                         np.moveaxis(phases[:, :mid], 1, 0), change[order[mid]])
        u = np.swapaxes(z, -1, -2) @ (phases[:, mid, ..., None] * z)
        blocks.append(_tree_product(u[::-1]))
    return spin_model.dense(n, blocks)


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
    """One Newton-Schulz step toward the nearest unitary (of each matrix).

    Long products drift away from unitarity with a small coherent bias that
    otherwise dominates the reference error at fine meshes; one step from a
    near-unitary start reduces the defect quadratically (to roundoff here).
    """
    return u @ (1.5 * np.eye(u.shape[-1]) - 0.5 * (np.swapaxes(u.conj(), -1, -2) @ u))


def _midpoint_product(model, t0: float, t1: float, num_steps: int) -> list[np.ndarray]:
    """Sector blocks of num_steps exact midpoint micro-steps over [t0, t1]."""
    h_micro = (t1 - t0) / num_steps
    mids = t0 + (np.arange(num_steps) + 0.5) * h_micro
    chunk_size = max(16, _REFERENCE_CHUNK_BUDGET // model.dim ** 2)
    blocks = [np.tile(np.eye(rows.shape[1], dtype=complex), (len(rows), 1, 1))
              for rows, _ in spin_model.sector_groups(model.n)]
    for start in range(0, num_steps, chunk_size):
        hams = spin_model.hamiltonians_at(model, mids[start:start + chunk_size])
        blocks = [_reunitarize(_tree_product(_expm(stack, h_micro)) @ u)
                  for stack, u in zip(hams, blocks)]
    return blocks


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
    compare many schemes against the same reference).  The memo keeps the
    converged sector blocks, not the dense matrix, and every call returns a
    fresh dense array built from them.  A non-finite ``t0``, ``t1`` or
    ``tol`` raises ValueError before any matrix work.
    """
    require_finite(t0=t0, t1=t1, tol=tol)
    if t1 <= t0:
        raise ValueError(f"need t1 > t0, got [{t0}, {t1}]")
    require_positive(tol=tol)
    key = (model.n, model.phases.tobytes(), model.freqs.tobytes(), t0, t1, tol)
    cached = _REFERENCE_CACHE.get(key)
    if cached is not None:
        return spin_model.dense(model.n, cached)
    num_steps = 16
    u_prev = _midpoint_product(model, t0, t1, num_steps)
    ext_prev = None
    while num_steps <= _REFERENCE_MAX_STEPS // 2:
        num_steps *= 2
        u = _midpoint_product(model, t0, t1, num_steps)
        ext = [_reunitarize((4.0 * a - b) / 3.0) for a, b in zip(u, u_prev)]
        if ext_prev is not None and _block_norm(
                [a - b for a, b in zip(ext, ext_prev)]) < tol:
            break
        u_prev, ext_prev = u, ext
    else:
        raise ReferenceConvergenceError(
            f"midpoint reference did not converge to {tol} within "
            f"{_REFERENCE_MAX_STEPS} steps on [{t0}, {t1}]")
    while len(_REFERENCE_CACHE) >= _REFERENCE_CACHE_LIMIT:
        _REFERENCE_CACHE.pop(next(iter(_REFERENCE_CACHE)))
    _REFERENCE_CACHE[key] = ext
    return spin_model.dense(model.n, ext)
