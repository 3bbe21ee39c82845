"""Dense time-dependent Heisenberg chains used to exercise the bounds.

The model is an open chain of n spins with oscillating on-site fields,

    H(t) = (1/4n) sum_{i=1}^{n-1} sigma_i . sigma_{i+1}
         + (1/4n) sum_{i=1}^{n}  cos(phi_i + omega_i t) sigma_i^z,

normalized so that ||H(t)|| <= 1.  With |omega_i| <= 1 every midpoint Taylor
coefficient of the generator is bounded by c = 1 (the j-th derivative picks
up omega_i^j and the field prefactor already contributes only 1/4).

Two decompositions of H(t) are provided:

* ``split_at``  -- the odd/even two-site-block split used by the product
  formula: bonds (2k-1, 2k) plus the odd-site fields form H_odd, bonds
  (2k, 2k+1) plus the even-site fields form H_even, so H_odd + H_even = H(t)
  exactly and each part is a direct sum of disjoint blocks.
* ``coupling_matrix`` / ``field_diagonal`` -- the time-independent exchange
  part and the diagonal of the field part, each self-commuting across
  times, as required by the split schemes.

Everything is dense and capped at n <= 12 spins; the cost planner never
builds matrices and has no such limit.
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


def _require_dense(n: int) -> None:
    if n > MAX_DENSE_SPINS:
        raise ValueError(
            f"dense matrices are limited to n <= {MAX_DENSE_SPINS} spins, "
            f"got n={n}; use the analytic bounds for larger chains")


def _bond_term(n: int, left_site: int) -> np.ndarray:
    """Exchange block acting on sites (left_site, left_site + 1), 1-based."""
    eye_left = np.eye(2 ** (left_site - 1))
    eye_right = np.eye(2 ** (n - left_site - 1))
    return np.kron(np.kron(eye_left, _EXCHANGE_BLOCK), eye_right)


@lru_cache(maxsize=8)
def _coupling_matrix(n: int) -> np.ndarray:
    _require_dense(n)
    out = np.zeros((2 ** n, 2 ** n))
    for site in range(1, n):
        out += _bond_term(n, site)
    out /= 4.0 * n
    out.setflags(write=False)
    return out


@lru_cache(maxsize=8)
def _site_z_diagonals(n: int) -> np.ndarray:
    """Diagonals of sigma_i^z, shape (n, 2^n), entries +-1."""
    _require_dense(n)
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


def field_diagonal(model: HeisenbergModel, t: float) -> np.ndarray:
    """Diagonal of the field part (1/4n) sum cos(phi_i + omega_i t) sigma_i^z."""
    amps = np.cos(model.phases + model.freqs * t) / (4.0 * model.n)
    return amps @ _site_z_diagonals(model.n)


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


def split_at(model: HeisenbergModel, t: float) -> tuple[np.ndarray, np.ndarray]:
    """The odd/even two-site-block split (H_odd, H_even) at time t.

    H_odd collects bonds starting at odd sites plus all odd-site fields,
    H_even the remaining bonds plus all even-site fields; the two sum to
    ``hamiltonian_at(model, t)`` exactly and each part is a direct sum of
    blocks with disjoint support.
    """
    n = model.n
    _require_dense(n)
    dim = model.dim
    idx = np.arange(dim)
    amps = np.cos(model.phases + model.freqs * t) / (4.0 * n)
    site_z = _site_z_diagonals(n)
    parts = []
    for parity in (1, 0):  # odd sites first
        part = np.zeros((dim, dim))
        for site in range(1, n):
            if site % 2 == parity:
                part += _bond_term(n, site)
        part /= 4.0 * n
        for site in range(1, n + 1):
            if site % 2 == parity:
                part[idx, idx] += amps[site - 1] * site_z[site - 1]
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
