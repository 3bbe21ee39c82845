"""Commutator-free quasi-Magnus scheme data and coefficient transforms.

A scheme of order 2s with m exponentials approximates one propagation step
over [t0, t0 + h] by

    U(h) = prod_{i=1}^m exp(sum_k z_{i,k} A_k h),     A_k = A(t_mid + c_k h/2),

with (c_k, w_k) the s-node Gauss-Legendre rule on [-1, 1] and t_mid the step
midpoint.  Three coefficient bases appear:

  graded      x[i, j], j = 1..s     multiplying alpha_j = a_{j-1} h^j, where
                                    a_j are midpoint Taylor coefficients of A
  averaged    y[i, g], g = 0..s-1   multiplying A^(g)(h) = h^{-g} *
                                    int_{-h/2}^{h/2} t^g A(t + t_mid) dt
  quadrature  z[i, k], k = 1..s     multiplying A_k h

connected by

    x = y @ T,        T[g, j] = (1 - (-1)^(g+j)) / ((g+j) 2^(g+j)),
    z = y @ Q,        Q[g, k] = w_k c_k^g / 2^(g+1),

so that T^{-1} maps graded to averaged coefficients and
``T^{-1} @ Q @ 1 = e_1`` (the quadrature rule integrates the constant
exactly).  Scheme files store the y coefficients; z is derived on load.

Split schemes alternate exponentials of two self-commuting parts T(t), V(t)
of the generator,

    U(h) = prod_{i=1}^m exp(sum_k rho_{i,k} T_k h) exp(sum_k sigma_{i,k} V_k h),

with the last sigma row zero (the product ends on a T factor).  Their files
store rho and sigma directly; the averaged-basis rows used by the quadrature
bound are recovered through Q^{-1}.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

import numpy as np

from .errors import DataIntegrityError, SchemeLookupError, require_positive

#: Scheme identifiers shipped with the package, in order of increasing cost.
SCHEME_IDS = ("CF2-1", "CF4-2", "CF4-3", "CF6-5", "CF6-6", "GS6-4", "GS10-6")

_ANTISYMMETRY_ATOL = 1e-10


def t_matrix(s: int, jmax: int | None = None) -> np.ndarray:
    """Matrix T[g, j] connecting averaged to graded coefficients, shape
    (s, jmax) with rows g = 0..s-1 and columns j = 1..jmax (default jmax=s),
    each entry an exact integer quotient rounded once to float."""
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    jmax = s if jmax is None else jmax
    return np.array([[(1 - (-1) ** (g + j)) / ((g + j) * 2 ** (g + j))
                      for j in range(1, jmax + 1)] for g in range(s)])


@dataclass(frozen=True, eq=False)
class TransformMatrices:
    """The coefficient maps for a given s, built once and cached.

    T maps averaged -> graded, Q maps averaged -> quadrature (already
    carrying the w_k c_k^g / 2^(g+1) scaling).  ``nodes`` and ``weights``
    are the s-point Gauss-Legendre rule on [-1, 1]; it integrates monomials
    up to degree 2s - 1 exactly, which every downstream identity relies on.
    """

    s: int
    T: np.ndarray
    Q: np.ndarray
    nodes: np.ndarray
    weights: np.ndarray


@lru_cache(maxsize=8)
def transform_matrices(s: int) -> TransformMatrices:
    nodes, weights = np.polynomial.legendre.leggauss(s)
    q = np.array([[weights[k] * nodes[k] ** g / 2 ** (g + 1)
                   for k in range(s)] for g in range(s)])
    return TransformMatrices(s=s, T=t_matrix(s), Q=q, nodes=nodes, weights=weights)


@lru_cache(maxsize=64)
def compute_cbar(scheme: "CFQMScheme", c: float) -> float:
    """The constant cbar = c * max_{i,j} |xbar_{i,j}| entering the
    product-vs-truncation bound, maximized over all j >= 1.

    The scan covers j = 1..jmax with jmax = 4s, doubled until the analytic
    tail bound |xbar_{i,j}| <= (2^(1-j)/j) max_i sum_g |y_{i,g}| for every
    j > jmax drops below the current maximum, so the result is certified
    rather than truncated.  Results are cached per (scheme, c); the cache is
    bounded because :func:`parse_scheme_text` makes a new scheme per call.
    """
    require_positive(c=c)
    if scheme.is_split:
        rows = np.vstack([scheme.y_rho, scheme.y_sigma])
    else:
        rows = scheme.y
    biggest_row = float(np.abs(rows).sum(axis=1).max())
    jmax = 4 * scheme.s
    while True:
        xbars = (rows[:, :, None] * t_matrix(scheme.s, jmax)).sum(axis=1)
        best = float(np.abs(xbars).max())
        if 2.0 ** -jmax / (jmax + 1) * biggest_row <= best:
            return c * best
        jmax *= 2


@dataclass(frozen=True, eq=False)
class CFQMScheme:
    """One commutator-free quasi-Magnus scheme, as loaded from its data file.

    Non-split schemes carry y (averaged basis) and the derived z; split
    schemes carry the node coefficients rho/sigma of the two exponential
    families plus the averaged-basis rows y_rho/y_sigma recovered through
    the inverse quadrature map.  ``m`` counts stages: m exponentials for a
    non-split scheme, 2m - 1 nontrivial exponentials for a split one (the
    last sigma row is zero).
    """

    scheme_id: str
    s: int
    m: int
    kind: str
    nodes: np.ndarray
    y: np.ndarray | None = None
    z: np.ndarray | None = None
    rho: np.ndarray | None = None
    sigma: np.ndarray | None = None
    y_rho: np.ndarray | None = None
    y_sigma: np.ndarray | None = None

    @property
    def is_split(self) -> bool:
        return self.kind == "split"


def parse_scheme_text(text: str, *, source: str = "<string>") -> CFQMScheme:
    """Parse a scheme data file.

    Grammar (``#`` starts a comment, blank lines ignored)::

        scheme <id> s=<s> m=<m> kind=<non-split|split>
        y <g0> <g1> ...          # m rows, non-split
        rho <k1> <k2> ...        # m rows, split
        sigma <k1> <k2> ...      # m rows, split

    All parsed schemes are validated: the graded coefficients must satisfy
    the time-antisymmetry x[m+1-i, j] = (-1)^(j+1) x[i, j] (per family for
    split schemes, whose sigma rows close with a zero row).  The node
    coefficients of a non-split scheme are derived as z = y @ Q.
    """
    header = None
    rows: dict[str, list[list[float]]] = {"y": [], "rho": [], "sigma": []}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "scheme":
            if header is not None:
                raise DataIntegrityError(f"{source}:{lineno}: duplicate scheme header")
            if len(parts) != 5:
                raise DataIntegrityError(
                    f"{source}:{lineno}: header needs 'scheme <id> s= m= kind='")
            fields = {}
            for item in parts[2:]:
                key, _, value = item.partition("=")
                fields[key] = value
            try:
                header = (parts[1], int(fields["s"]), int(fields["m"]), fields["kind"])
            except (KeyError, ValueError) as exc:
                raise DataIntegrityError(f"{source}:{lineno}: bad header: {exc}") from exc
        elif parts[0] in rows:
            try:
                rows[parts[0]].append([float(tok) for tok in parts[1:]])
            except ValueError as exc:
                raise DataIntegrityError(f"{source}:{lineno}: bad number: {exc}") from exc
        else:
            raise DataIntegrityError(f"{source}:{lineno}: unknown directive {parts[0]!r}")
    if header is None:
        raise DataIntegrityError(f"{source}: missing scheme header")
    scheme_id, s, m, kind = header
    if kind not in ("non-split", "split"):
        raise DataIntegrityError(f"{source}: kind must be non-split or split, got {kind!r}")
    if not 1 <= s <= 6 or m < 1:
        raise DataIntegrityError(f"{source}: implausible sizes s={s}, m={m}")
    tm = transform_matrices(s)

    def as_matrix(name: str, expected_rows: int) -> np.ndarray:
        data = rows[name]
        if len(data) != expected_rows:
            raise DataIntegrityError(
                f"{source}: expected {expected_rows} {name} rows, got {len(data)}")
        if any(len(r) != s for r in data):
            raise DataIntegrityError(f"{source}: every {name} row needs {s} entries")
        mat = np.array(data, dtype=float)
        if not np.all(np.isfinite(mat)):
            raise DataIntegrityError(f"{source}: non-finite {name} entry")
        return mat

    if kind == "non-split":
        if rows["rho"] or rows["sigma"]:
            raise DataIntegrityError(f"{source}: non-split scheme with rho/sigma rows")
        y = as_matrix("y", m)
        scheme = CFQMScheme(scheme_id=scheme_id, s=s, m=m, kind=kind,
                            nodes=tm.nodes, y=y, z=y @ tm.Q)
    else:
        if rows["y"]:
            raise DataIntegrityError(f"{source}: split scheme with y rows")
        rho = as_matrix("rho", m)
        sigma = as_matrix("sigma", m)
        q_inv = np.linalg.inv(tm.Q)
        scheme = CFQMScheme(scheme_id=scheme_id, s=s, m=m, kind=kind,
                            nodes=tm.nodes, rho=rho, sigma=sigma,
                            y_rho=rho @ q_inv, y_sigma=sigma @ q_inv)
    _validate_scheme(scheme, source)
    return scheme


def _check_antisymmetry(x: np.ndarray, label: str, source: str) -> None:
    m = x.shape[0]
    for i in range(m):
        for j in range(1, x.shape[1] + 1):
            want = (-1) ** (j + 1) * x[i, j - 1]
            got = x[m - 1 - i, j - 1]
            if abs(got - want) > _ANTISYMMETRY_ATOL:
                raise DataIntegrityError(
                    f"{source}: {label} rows are not time-antisymmetric at "
                    f"(i={i + 1}, j={j}): {got} vs {want}")


def _validate_scheme(scheme: CFQMScheme, source: str) -> None:
    tm = transform_matrices(scheme.s)
    if scheme.is_split:
        sigma_last = np.abs(scheme.sigma[-1]).max()
        if sigma_last > _ANTISYMMETRY_ATOL:
            raise DataIntegrityError(
                f"{source}: split scheme must end on a zero sigma row, "
                f"max |sigma_m| = {sigma_last}")
        _check_antisymmetry(scheme.y_rho @ tm.T, "rho", source)
        _check_antisymmetry(scheme.y_sigma[:-1] @ tm.T, "sigma", source)
    else:
        _check_antisymmetry(scheme.y @ tm.T, "y", source)


@lru_cache(maxsize=None)
def load_scheme(scheme_id: str) -> CFQMScheme:
    """Load a shipped scheme by identifier (see ``SCHEME_IDS``)."""
    if scheme_id not in SCHEME_IDS:
        raise SchemeLookupError(
            f"unknown scheme {scheme_id!r}; available: {', '.join(SCHEME_IDS)}")
    filename = scheme_id.lower() + ".txt"
    text = resources.files("cfqm.data").joinpath(filename).read_text()
    scheme = parse_scheme_text(text, source=filename)
    if scheme.scheme_id != scheme_id:
        raise DataIntegrityError(
            f"{filename}: header id {scheme.scheme_id!r} does not match {scheme_id!r}")
    return scheme
