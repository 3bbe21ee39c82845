"""Dense time-dependent Heisenberg chains used to exercise the bounds.

The model is an open chain of n spins with oscillating on-site fields,

    H(t) = (1/4n) sum_{i=1}^{n-1} sigma_i . sigma_{i+1}
         + (1/4n) sum_{i=1}^{n}  cos(phi_i + omega_i t) sigma_i^z,

normalized so that ||H(t)|| <= 1.  With |omega_i| <= 1 every midpoint Taylor
coefficient of the generator is bounded by c = 1 (the j-th derivative picks
up omega_i^j and the field prefactor already contributes only 1/4); this is
``TAYLOR_BOUND_C``, and ``random_model`` draws omega_i from [0.5, 1].

Two decompositions of H(t) are provided:

* ``local_terms`` / ``split_at`` -- the odd/even two-site-block split used
  by the product formula: bonds (2k-1, 2k) plus the odd-site fields form
  H_odd, bonds (2k, 2k+1) plus the even-site fields form H_even, so
  H_odd + H_even = H(t) exactly.  ``local_terms`` returns a part as its
  local Hermitian terms, the 4x4 bond blocks on disjoint site pairs plus a
  2x2 diagonal term for the last site when it is left unpaired;
  ``split_at`` is their dense embedding.
* the exchange part C and ``field_diagonal`` -- the time-independent
  exchange part and the diagonal of the field part, each self-commuting
  across times, as required by the split schemes.

Every operator the propagators use is ``a * C + diag(f . sigma^z)`` with C
the exchange part: H(t) (a = 1, f the field amplitudes at t) or a CFQM
exponent sum_k z_ik H(t_k) (a = sum_k z_ik, f the same weighted sum of
amplitudes).  Both parts conserve sum_i sigma_i^z, so these operators and
their propagators are block-diagonal over the n + 1 sectors of k spins
down (k set bits of the index), of sizes binomial(n, k); ``sector_groups``
pairs sector k with the equally large sector n - k.  The sector blocks
are the one construction of the operators: ``sector_generators`` builds
any batch of them from the cached blocks of C, built from the sector
states, and the field diagonal; ``hamiltonians_at`` is its unit-exchange
case over many times and ``sector_coupling_eigh`` the exchange eigenbasis
per group.  ``dense`` scatters blocks into the 2^n x 2^n matrix, and no
dense C is kept.

Dense matrices are capped at n <= 12 spins; the cost planner never builds
matrices and has no such limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


#: Largest chain for which dense matrices are built (2^n scaling).
MAX_DENSE_SPINS = 12

# two-site exchange block sigma.sigma on the ordered basis |00>,|01>,|10>,|11>
_EXCHANGE_BLOCK = np.array([[1.0, 0.0, 0.0, 0.0],
                            [0.0, -1.0, 2.0, 0.0],
                            [0.0, 2.0, -1.0, 0.0],
                            [0.0, 0.0, 0.0, 1.0]])
# sigma^z on the left site of a pair, and the diagonal of a single sigma^z
_LEFT_Z_BLOCK = np.diag([1.0, 1.0, -1.0, -1.0])
_Z_DIAGONAL = np.array([1.0, -1.0])


@dataclass(frozen=True, eq=False)
class HeisenbergModel:
    """Chain length plus per-site field phases and frequencies."""

    n: int
    phases: np.ndarray
    freqs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "phases", np.asarray(self.phases, dtype=float))
        object.__setattr__(self, "freqs", np.asarray(self.freqs, dtype=float))
        if self.n < 2:
            raise ValueError(f"need at least two spins, got n={self.n}")
        if self.phases.shape != (self.n,) or self.freqs.shape != (self.n,):
            raise ValueError(
                f"phases and freqs must have shape ({self.n},), got "
                f"{self.phases.shape} and {self.freqs.shape}")
        if not (np.all(np.isfinite(self.phases)) and np.all(np.isfinite(self.freqs))):
            raise ValueError("phases and freqs must be finite")

    @property
    def dim(self) -> int:
        return 2 ** self.n


#: The Taylor bound c of every chain with |omega_i| <= 1 (module docstring).
TAYLOR_BOUND_C = 1.0


def random_model(n: int, seed: int) -> HeisenbergModel:
    """Seeded model with phases ~ U[0, 2pi) and frequencies ~ U[0.5, 1]."""
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise ValueError(f"n must be an integer >= 2, got {n}")
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    rng = np.random.default_rng(seed)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=n)
    freqs = rng.uniform(0.5, 1.0, size=n)
    return HeisenbergModel(n=n, phases=phases, freqs=freqs)


def require_dense(n: int) -> None:
    """Raise ValueError when a dense 2^n matrix would exceed the cap."""
    if n > MAX_DENSE_SPINS:
        raise ValueError(
            f"dense matrices are limited to n <= {MAX_DENSE_SPINS} spins, "
            f"got n={n}; use the analytic bounds for larger chains")


def _embed(n: int, site: int, block: np.ndarray) -> np.ndarray:
    """Dense operator of ``block`` acting on the sites from ``site`` (1-based)
    on, as many as the block spans."""
    left = 2 ** (site - 1)
    return np.kron(np.kron(np.eye(left), block), np.eye(2 ** n // (left * len(block))))


@lru_cache(maxsize=8)
def _site_z_diagonals(n: int) -> np.ndarray:
    """Diagonals of sigma_i^z, shape (n, 2^n), entries +-1."""
    require_dense(n)
    out = 1.0 - 2.0 * (np.arange(2 ** n) >> np.arange(n - 1, -1, -1)[:, None] & 1)
    out.setflags(write=False)
    return out


def field_amplitudes(model: HeisenbergModel, times) -> np.ndarray:
    """Per-site field amplitudes cos(phi_i + omega_i t) / (4n), shape
    ``np.shape(times) + (n,)``."""
    ts = np.asarray(times, dtype=float)[..., None]
    return np.cos(model.phases + model.freqs * ts) / (4.0 * model.n)


def field_diagonal(model: HeisenbergModel, t) -> np.ndarray:
    """Diagonal of the field part (1/4n) sum cos(phi_i + omega_i t) sigma_i^z
    at a time or an array of times, shape ``np.shape(t) + (2^n,)``."""
    return field_amplitudes(model, t) @ _site_z_diagonals(model.n)


@lru_cache(maxsize=None)
def sector_groups(n: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Fancy-index pairs ``(rows, cols)`` of shapes (g, d_k, 1), (g, 1, d_k)
    for the groups k = 0..n//2 of the g = 1 or 2 sectors with k or n - k
    spins down: ``a[..., rows, cols]`` gathers their blocks as one
    ``(..., g, d_k, d_k)`` stack and ``out[rows, cols] = ...`` scatters it."""
    require_dense(n)
    down = np.array([bin(i).count("1") for i in range(2 ** n)])
    groups = []
    for k in range(n // 2 + 1):
        idx = np.stack([np.flatnonzero(down == j) for j in sorted({k, n - k})])
        groups.append((idx[:, :, None], idx[:, None, :]))
    return tuple(groups)


def dense(n: int, blocks: list[np.ndarray]) -> np.ndarray:
    """The 2^n x 2^n matrix with the given per-group blocks of
    :func:`sector_groups` and zeros elsewhere, of the blocks' dtype."""
    out = np.zeros((2 ** n, 2 ** n), dtype=np.result_type(*blocks))
    for (rows, cols), block in zip(sector_groups(n), blocks):
        out[rows, cols] = block
    return out


def _sector_exchange(n: int, states: np.ndarray) -> np.ndarray:
    """Block of the exchange part C on the ascending basis ``states`` of one
    sector.  The bonds are the pairs of adjacent bits (j, j+1); each adds 1
    to the diagonal of a state whose two bits agree, -1 where they differ,
    and 2 between such a state and its copy with both bits flipped.  The
    integer sums over 4n are exactly the entries of the dense C."""
    idx = np.arange(states.size)
    block = np.zeros((states.size, states.size))
    for j in range(n - 1):
        differ = ((states >> j) ^ (states >> (j + 1))) & 1 == 1
        block[idx, idx] += np.where(differ, -1.0, 1.0)
        block[idx[differ], np.searchsorted(states, states[differ] ^ (3 << j))] = 2.0
    return block / (4.0 * n)


@lru_cache(maxsize=8)
def _sector_coupling(n: int) -> tuple[np.ndarray, ...]:
    """Per group of :func:`sector_groups`, the (g, d_k, d_k) blocks of the
    exchange part, built from the sector states once per chain length,
    without the dense C."""
    out = tuple(np.stack([_sector_exchange(n, states) for states in rows[..., 0]])
                for rows, _ in sector_groups(n))
    for block in out:
        block.setflags(write=False)
    return out


@lru_cache(maxsize=8)
def sector_coupling_eigh(n: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Per group of :func:`sector_groups`, the eigenvalues (g, d_k) and
    real orthonormal eigenvectors (g, d_k, d_k) of the exchange part's
    blocks, computed once per chain length."""
    out = []
    for block in _sector_coupling(n):
        out.append(np.linalg.eigh(block))
        for arr in out[-1]:
            arr.setflags(write=False)
    return tuple(out)


def sector_generators(model: HeisenbergModel, exchange, fields) -> list[np.ndarray]:
    """``exchange * C + diag(fields . sigma^z)`` for ``exchange`` of shape
    ``batch`` and ``fields`` (per-site amplitudes) of shape ``batch + (n,)``,
    as one ``batch + (g, d_k, d_k)`` stack per group of :func:`sector_groups`,
    from the cached blocks of C and one diagonal product."""
    exchange = np.asarray(exchange, dtype=float)[..., None, None, None]
    diagonal = fields @ _site_z_diagonals(model.n)
    out = []
    for (rows, _), coupling in zip(sector_groups(model.n), _sector_coupling(model.n)):
        block = exchange * coupling
        idx = np.arange(block.shape[-1])
        block[..., idx, idx] += diagonal[..., rows[..., 0]]
        out.append(block)
    return out


def hamiltonians_at(model: HeisenbergModel, times) -> list[np.ndarray]:
    """H(t) over ``times`` as sector blocks: per group of
    :func:`sector_groups`, one (len(times), g, d_k, d_k) stack, the blocks
    ``H(t)[rows, cols]`` of each time."""
    ts = np.asarray(times, dtype=float).ravel()
    return sector_generators(model, np.ones(ts.size), field_amplitudes(model, ts))


def local_terms(n: int, parity: int, exchange, fields):
    """Local Hermitian terms of one part of the odd/even split.

    ``parity`` 1 selects the bonds (2k-1, 2k) and the odd sites, 0 the bonds
    (2k, 2k+1) and the even sites.  ``exchange`` weighs C as in
    :func:`sector_generators`: each bond (a, a+1) carries the block
    ``exchange/4n * sigma.sigma + fields[a-1] * (sigma^z (x) I)``; the last
    site n, which has no bond of its own, is in the part of its parity as
    the diagonal ``fields[n-1] * (1, -1)``.  ``exchange`` may have shape
    ``batch`` and ``fields`` shape ``batch + (n,)`` to build many
    combinations of parts at once.

    Returns ``(sites, blocks, end)``: the left sites of the bonds, their
    blocks of shape ``batch + (len(sites), 4, 4)``, and the end-site
    diagonal of shape ``batch + (2,)`` or None.  The blocks act on disjoint
    site pairs, so they commute with each other and with the end term.
    """
    exchange = np.asarray(exchange, dtype=float) / (4.0 * n)
    fields = np.asarray(fields, dtype=float)
    sites = tuple(range(2 - parity, n, 2))
    left = fields[..., [site - 1 for site in sites]]
    blocks = (exchange[..., None, None, None] * _EXCHANGE_BLOCK
              + left[..., None, None] * _LEFT_Z_BLOCK)
    end = fields[..., n - 1, None] * _Z_DIAGONAL if n % 2 == parity else None
    return sites, blocks, end


def split_at(model: HeisenbergModel, t: float) -> tuple[np.ndarray, np.ndarray]:
    """The odd/even two-site-block split (H_odd, H_even) at time t.

    Each part is the dense embedding of its :func:`local_terms`; the two
    sum to the dense H(t).
    """
    n = model.n
    require_dense(n)
    fields = field_amplitudes(model, t)
    parts = []
    for parity in (1, 0):  # odd sites first
        sites, blocks, end = local_terms(n, parity, 1.0, fields)
        part = np.zeros((model.dim, model.dim))
        for site, block in zip(sites, blocks):
            part += _embed(n, site, block)
        if end is not None:
            part += _embed(n, n, np.diag(end))
        parts.append(part)
    return parts[0], parts[1]
