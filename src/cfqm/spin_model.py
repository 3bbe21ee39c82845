"""Dense time-dependent Heisenberg chains used to exercise the bounds.

The model is an open chain of n spins with oscillating on-site fields,

    H(t) = (1/4n) sum_{i=1}^{n-1} sigma_i . sigma_{i+1}
         + (1/4n) sum_{i=1}^{n}  cos(phi_i + omega_i t) sigma_i^z,

normalized so that ||H(t)|| <= 1.  With |omega_i| <= 1 every midpoint Taylor
coefficient of the generator is bounded by c = 1 (the j-th derivative picks
up omega_i^j and the field prefactor already contributes only 1/4).

Two decompositions of H(t) are provided:

* ``local_terms`` / ``split_at`` -- the odd/even two-site-block split used
  by the product formula: bonds (2k-1, 2k) plus the odd-site fields form
  H_odd, bonds (2k, 2k+1) plus the even-site fields form H_even, so
  H_odd + H_even = H(t) exactly.  ``local_terms`` returns a part as its
  local Hermitian terms, the 4x4 bond blocks on disjoint site pairs plus a
  2x2 diagonal term for the last site when it is left unpaired;
  ``split_at`` is their dense embedding.
* ``coupling_matrix`` / ``field_diagonal`` -- the time-independent exchange
  part and the diagonal of the field part, each self-commuting across
  times, as required by the split schemes.

Dense matrices are capped at n <= 12 spins; the cost planner never builds
matrices and has no such limit.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DataIntegrityError

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


def random_model(n: int, seed: int) -> HeisenbergModel:
    """Seeded model with phases ~ U[0, 2pi) and frequencies ~ U[0.5, 1]."""
    rng = np.random.default_rng(seed)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=n)
    freqs = rng.uniform(0.5, 1.0, size=n)
    return HeisenbergModel(n=n, phases=phases, freqs=freqs)


def taylor_bound_c(model: HeisenbergModel) -> float:
    """Uniform bound c on the normalized midpoint Taylor coefficients.

    For |omega_i| <= 1 the bound c = 1 holds for every derivative order.
    Larger frequencies fall outside that regime; we then return
    max(1, omega_max) and warn, since that value is a heuristic rather
    than a uniform-in-j bound.
    """
    omega_max = float(np.abs(model.freqs).max())
    if omega_max <= 1.0:
        return 1.0
    warnings.warn(
        f"field frequencies up to {omega_max} exceed 1; the Taylor bound "
        f"c = max(1, omega_max) is heuristic in this regime",
        RuntimeWarning, stacklevel=2)
    return max(1.0, omega_max)


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
def _coupling_matrix(n: int) -> np.ndarray:
    require_dense(n)
    out = np.zeros((2 ** n, 2 ** n))
    for site in range(1, n):
        out += _embed(n, site, _EXCHANGE_BLOCK)
    out /= 4.0 * n
    out.setflags(write=False)
    return out


@lru_cache(maxsize=8)
def _coupling_eigh(n: int) -> tuple[np.ndarray, np.ndarray]:
    evals, evecs = np.linalg.eigh(_coupling_matrix(n))
    evals.setflags(write=False)
    evecs.setflags(write=False)
    return evals, evecs


@lru_cache(maxsize=8)
def _site_z_diagonals(n: int) -> np.ndarray:
    """Diagonals of sigma_i^z, shape (n, 2^n), entries +-1."""
    require_dense(n)
    out = np.empty((n, 2 ** n))
    base = np.array([1.0, -1.0])
    for site in range(1, n + 1):
        pattern = np.repeat(base, 2 ** (n - site))
        out[site - 1] = np.tile(pattern, 2 ** (site - 1))
    out.setflags(write=False)
    return out


def coupling_matrix(model: HeisenbergModel) -> np.ndarray:
    """The time-independent exchange part (1/4n) sum sigma_i.sigma_{i+1}."""
    return _coupling_matrix(model.n)


def coupling_eigh(model: HeisenbergModel) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and real orthonormal eigenvectors of
    :func:`coupling_matrix`, computed once per chain length."""
    return _coupling_eigh(model.n)


def field_amplitudes(model: HeisenbergModel, times) -> np.ndarray:
    """Per-site field amplitudes cos(phi_i + omega_i t) / (4n), shape
    ``np.shape(times) + (n,)``."""
    ts = np.asarray(times, dtype=float)[..., None]
    return np.cos(model.phases + model.freqs * ts) / (4.0 * model.n)


def field_diagonal(model: HeisenbergModel, t: float) -> np.ndarray:
    """Diagonal of the field part (1/4n) sum cos(phi_i + omega_i t) sigma_i^z."""
    return field_amplitudes(model, t) @ _site_z_diagonals(model.n)


def hamiltonian_at(model: HeisenbergModel, t: float) -> np.ndarray:
    """Dense H(t), a real symmetric matrix of dimension 2^n."""
    out = _coupling_matrix(model.n).copy()
    idx = np.arange(model.dim)
    out[idx, idx] += field_diagonal(model, t)
    return out


def hamiltonians_at(model: HeisenbergModel, times) -> np.ndarray:
    """Stack of dense H(t) over ``times``, shape (len(times), 2^n, 2^n)."""
    ts = np.asarray(times, dtype=float).ravel()
    coupling = _coupling_matrix(model.n)
    amps = np.cos(model.phases[:, None] + model.freqs[:, None] * ts[None, :]) \
        / (4.0 * model.n)
    diags = amps.T @ _site_z_diagonals(model.n)
    out = np.broadcast_to(coupling, (ts.size,) + coupling.shape).copy()
    idx = np.arange(model.dim)
    out[:, idx, idx] += diags
    return out


def local_terms(n: int, parity: int, exchange, fields):
    """Local Hermitian terms of one part of the odd/even split.

    ``parity`` 1 selects the bonds (2k-1, 2k) and the odd sites, 0 the bonds
    (2k, 2k+1) and the even sites.  Each bond (a, a+1) carries the block
    ``exchange * sigma.sigma + fields[a-1] * (sigma^z (x) I)``; the last
    site n, which has no bond of its own, is in the part of its parity as
    the diagonal ``fields[n-1] * (1, -1)``.  ``exchange`` may have shape
    ``batch`` and ``fields`` shape ``batch + (n,)`` to build many
    combinations of parts at once.

    Returns ``(sites, blocks, end)``: the left sites of the bonds, their
    blocks of shape ``batch + (len(sites), 4, 4)``, and the end-site
    diagonal of shape ``batch + (2,)`` or None.  The blocks act on disjoint
    site pairs, so they commute with each other and with the end term.
    """
    exchange = np.asarray(exchange, dtype=float)
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
    sum to ``hamiltonian_at(model, t)``.
    """
    n = model.n
    require_dense(n)
    fields = field_amplitudes(model, t)
    parts = []
    for parity in (1, 0):  # odd sites first
        sites, blocks, end = local_terms(n, parity, 1.0 / (4.0 * n), fields)
        part = np.zeros((model.dim, model.dim))
        for site, block in zip(sites, blocks):
            part += _embed(n, site, block)
        if end is not None:
            part += _embed(n, n, np.diag(end))
        parts.append(part)
    return parts[0], parts[1]


def save_model(model: HeisenbergModel, path) -> None:
    """Write a model file: a ``heisenberg <n>`` header and one
    ``site <phase> <freq>`` row per spin."""
    lines = [f"heisenberg {model.n}"]
    for phase, freq in zip(model.phases, model.freqs):
        lines.append(f"site {phase:.17g} {freq:.17g}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_model(path) -> HeisenbergModel:
    """Read a model file written by :func:`save_model`."""
    with open(path) as fh:
        text = fh.read()
    n = None
    sites: list[tuple[float, float]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "heisenberg":
            if n is not None:
                raise DataIntegrityError(f"{path}:{lineno}: duplicate header")
            try:
                n = int(parts[1])
            except (IndexError, ValueError) as exc:
                raise DataIntegrityError(f"{path}:{lineno}: bad header") from exc
        elif parts[0] == "site":
            try:
                phase, freq = float(parts[1]), float(parts[2])
            except (IndexError, ValueError) as exc:
                raise DataIntegrityError(f"{path}:{lineno}: bad site row") from exc
            sites.append((phase, freq))
        else:
            raise DataIntegrityError(f"{path}:{lineno}: unknown directive {parts[0]!r}")
    if n is None:
        raise DataIntegrityError(f"{path}: missing 'heisenberg <n>' header")
    if len(sites) != n:
        raise DataIntegrityError(f"{path}: expected {n} site rows, got {len(sites)}")
    phases, freqs = zip(*sites)
    return HeisenbergModel(n=n, phases=np.array(phases), freqs=np.array(freqs))
