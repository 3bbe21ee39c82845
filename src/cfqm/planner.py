"""Cost planning and empirical validation on top of the per-step bounds.

The planner answers "how many steps r (and which step size h = T/r) does a
scheme need so the accumulated bound meets a global error budget", counts
the fast-forwardable exponentials that plan costs, and compares against the
Suzuki product-formula cost model on the same budget.  Sweeps serialize the
results as CSV for plotting; validation runs the actual matrices at desk
scale and reports measured-vs-bound ratios.

Exponential accounting convention (kept identical across methods): every
stage of a product contributes one exponential per Hamiltonian block it
touches.  A trotterized non-split CFQM step therefore costs m * 2 * sigma
exponentials (m exponentials, each expanded into the 2*5**(s-1)-stage
canonical product formula with one odd-block and one even-block factor per
stage), a split CFQM step costs 2*m (one exchange and one field factor per
stage, structurally empty factors still occupy their slot), and the Suzuki
yardstick is the count returned by :func:`cfqm.bounds.suzuki_step_cost`.
The propagators merge adjacent same-block factors of the product formula
(C B C | C B C -> C B 2C B C, see
:func:`cfqm.propagators.product_formula_factors`), but the accounted cost
stays m * 2 * (2 * 5**(s-1)), the convention shared with the Suzuki
yardstick, so plans do not depend on how the steps are implemented.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from . import bounds, propagators, schemes, spin_model
from .bounds import BoundParams, ErrorBreakdown
from .errors import (
    DivergentRegimeError,
    EpsilonTooLargeError,
    InfeasiblePlanError,
    ReferenceConvergenceError,
)

MAX_STEPS = 2 ** 32

# Validation samples draw h from this range; the upper end stays inside the
# h < 2*(1 - e^(-1/(2c))) convergence guard for c = 1 (~0.787).
_VALIDATE_H_RANGE = (0.05, 0.6)
_VALIDATE_T0_RANGE = (0.0, 2.0 * math.pi)


@dataclass(frozen=True)
class ModelBounds:
    """What the bounds need to know about the model class.

    c is the componentwise Taylor-coefficient bound of the interaction
    picture generator (1.0 for the bundled Heisenberg family with
    frequencies capped at 1) and n the number of spins, which enters only
    the product-formula term of non-split schemes.
    """

    c: float
    n: int

    def __post_init__(self) -> None:
        if self.c <= 0:
            raise ValueError(f"c must be positive, got {self.c}")
        if self.n < 2:
            raise ValueError(f"need at least two spins, got n={self.n}")


@dataclass(frozen=True)
class Plan:
    """A feasible (scheme, step count) choice and its cost."""

    scheme_id: str
    total_time: float
    n: int
    epsilon: float
    h: float
    r: int
    exponentials: int
    breakdown: ErrorBreakdown
    suzuki_exponentials: int | None

    @property
    def global_bound(self) -> float:
        return self.r * self.breakdown.total


def step_exponentials(scheme) -> int:
    """Fast-forwardable exponentials one step of ``scheme`` costs."""
    if scheme.is_split:
        return 2 * scheme.m
    stages = 2 * 5 ** (scheme.s - 1)
    return scheme.m * 2 * stages


def _breakdown_at(scheme, model_bounds: ModelBounds, cbar: float, h: float,
                  rel_tol: float) -> ErrorBreakdown:
    params = BoundParams(c=model_bounds.c, cbar=cbar, h=h,
                         s=scheme.s, m=scheme.m, n=model_bounds.n)
    return bounds.step_error(scheme, params, rel_tol)


def suzuki_exponentials(s: int, lam: float, total_time: float,
                        epsilon: float) -> int | None:
    """Suzuki cost on the same budget, or None when the model is vacuous.

    The order-2s Suzuki count for r steps is r * N(h=T/r, eps=epsilon/r);
    both the validity condition and the pre-ceiling count are invariant
    under that substitution, so a single step (r = 1) is optimal and is
    what gets evaluated.  The blocks of the odd/even splitting are 2-local,
    hence q = 2.
    """
    try:
        return bounds.suzuki_step_cost(q=2, lam=lam, h=total_time, s=s,
                                       eps_step=epsilon)
    except EpsilonTooLargeError:
        return None


def plan(scheme, model_bounds: ModelBounds, total_time: float,
         epsilon: float, rel_tol: float = 1e-6) -> Plan:
    """Minimal-step plan meeting ``r * step_bound(T/r) <= epsilon``.

    The per-step bound decreases faster than 1/r as r grows (every term
    is O(h^{2s+1}) or steeper), so the global bound is monotone in r and
    the minimal feasible r is found by doubling until feasible and then
    bisecting.  Step counts where the bounds' convergence guards fail are
    treated as infeasible.  Non-finite or non-positive ``total_time`` and
    ``epsilon`` raise ValueError.  Raises :class:`InfeasiblePlanError` if no
    r <= 2**32 works; the message distinguishes budgets the bounds can
    never certify from guards that never engaged.
    """
    for name, value in (("total_time", total_time), ("epsilon", epsilon)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if total_time <= 0:
        raise ValueError(f"total_time must be positive, got {total_time}")
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    cbar = schemes.compute_cbar(scheme, model_bounds.c)

    def attempt(r: int) -> ErrorBreakdown | None:
        try:
            return _breakdown_at(scheme, model_bounds, cbar, total_time / r, rel_tol)
        except DivergentRegimeError:
            return None

    guards_ever_held = False
    r = 1
    feasible_r, feasible_bd = None, None
    while r <= MAX_STEPS:
        bd = attempt(r)
        if bd is not None:
            guards_ever_held = True
            if r * bd.total <= epsilon:
                feasible_r, feasible_bd = r, bd
                break
        r *= 2
    if feasible_r is None:
        if not guards_ever_held:
            raise InfeasiblePlanError(
                f"no step count up to 2**32 brings h = {total_time}/r inside "
                f"the convergence guards (c={model_bounds.c}); the bound "
                "series diverge everywhere on this range")
        raise InfeasiblePlanError(
            f"no step count up to 2**32 meets epsilon={epsilon} for scheme "
            f"{scheme.scheme_id} at T={total_time}")

    lo = feasible_r // 2  # largest examined infeasible count (0 when r=1)
    hi = feasible_r
    while hi - lo > 1:
        mid = (lo + hi) // 2
        bd = attempt(mid)
        if bd is not None and mid * bd.total <= epsilon:
            hi, feasible_bd = mid, bd
        else:
            lo = mid
    r = hi
    assert r * feasible_bd.total <= epsilon
    return Plan(
        scheme_id=scheme.scheme_id,
        total_time=total_time,
        n=model_bounds.n,
        epsilon=epsilon,
        h=total_time / r,
        r=r,
        exponentials=r * step_exponentials(scheme),
        breakdown=feasible_bd,
        suzuki_exponentials=suzuki_exponentials(
            scheme.s, model_bounds.c, total_time, epsilon),
    )


# ---------------------------------------------------------------------------
# Parameter sweeps
# ---------------------------------------------------------------------------

SWEEP_AXES = ("time", "error", "spins")

SWEEP_COLUMNS = (
    "scheme_id", "axis_value", "h", "r", "exponentials", "magnus_taylor",
    "cfqm_taylor", "quadrature", "trotter", "suzuki_exponentials", "status",
)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def sweep(axis: str, grid, scheme_ids, out, *, total_time: float | None = None,
          epsilon: float | None = None, n: int | None = None, c: float = 1.0,
          rel_tol: float = 1e-6) -> list[dict]:
    """Plan every (scheme, grid point) pair and write the rows as CSV.

    axis selects what the grid varies: total evolution time, the error
    budget, or the spin count.  The other two knobs come from the keyword
    arguments.  A spins sweep with no explicit total_time runs the n = T
    diagonal.  Infeasible points are kept as rows with a status column so
    downstream plots can show gaps honestly.  Output is deterministic:
    fixed column order, %.17g floats, LF newlines.
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"axis must be one of {SWEEP_AXES}, got {axis!r}")
    grid = list(grid)
    if not grid:
        raise ValueError("sweep grid must be nonempty")
    if axis != "error" and epsilon is None:
        raise ValueError("epsilon is required unless sweeping it")
    if axis == "time" and n is None:
        raise ValueError("n is required for a time sweep")
    if axis == "error" and (n is None or total_time is None):
        raise ValueError("n and total_time are required for an error sweep")

    rows = []
    for scheme_id in scheme_ids:
        scheme = schemes.load_scheme(scheme_id)
        for value in grid:
            if axis == "time":
                T, eps, nn = float(value), epsilon, n
            elif axis == "error":
                T, eps, nn = total_time, float(value), n
            else:
                nn = int(value)
                T = float(value) if total_time is None else total_time
                eps = epsilon
            row = {"scheme_id": scheme_id, "axis_value": value}
            try:
                p = plan(scheme, ModelBounds(c=c, n=nn), T, eps, rel_tol)
            except InfeasiblePlanError:
                row.update(h=None, r=None, exponentials=None,
                           magnus_taylor=None, cfqm_taylor=None,
                           quadrature=None, trotter=None,
                           suzuki_exponentials=suzuki_exponentials(
                               scheme.s, c, T, eps),
                           status="infeasible")
            else:
                row.update(h=p.h, r=p.r, exponentials=p.exponentials,
                           magnus_taylor=p.breakdown.magnus_taylor,
                           cfqm_taylor=p.breakdown.cfqm_taylor,
                           quadrature=p.breakdown.quadrature,
                           trotter=p.breakdown.trotter,
                           suzuki_exponentials=p.suzuki_exponentials,
                           status="ok")
            rows.append(row)

    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SWEEP_COLUMNS)
        for row in rows:
            writer.writerow([_fmt(row[col]) for col in SWEEP_COLUMNS])
    return rows


# ---------------------------------------------------------------------------
# Measured-vs-bound validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ValidationRow:
    t0: float
    h: float
    measured: float | None
    bound: float | None
    status: str

    @property
    def ratio(self) -> float | None:
        if self.measured is None or self.bound is None:
            return None
        return self.measured / self.bound


@dataclass(frozen=True)
class ValidationReport:
    scheme_id: str
    n: int
    seed: int
    rows: tuple[ValidationRow, ...]

    @property
    def ok(self) -> bool:
        return all(row.ratio is None or row.ratio <= 1.0 for row in self.rows)

    @property
    def max_ratio(self) -> float:
        ratios = [row.ratio for row in self.rows if row.ratio is not None]
        return max(ratios) if ratios else math.nan


def _one_step(scheme, model, t0: float, h: float) -> np.ndarray:
    if scheme.is_split:
        return propagators.split_step(scheme, model, t0, h)
    return propagators.trotterized_cfqm_step(scheme, model, t0, h)


def validate(scheme, seed: int, n: int, samples: int, out,
             reference_tol: float = 1e-11, rel_tol: float = 1e-6):
    """Measured one-step error against the a-priori bound, as a report file.

    Runs the implementable step (split product, or the trotterized product
    for non-split schemes) on a seeded Heisenberg model at ``samples``
    random (t0, h) points and tabulates measured error, bound and their
    ratio.  Guard violations and reference-oracle failures become flagged
    rows rather than crashes.  Returns the report; ``report.ok`` is False
    when any ratio exceeds one.
    """
    if n > 8:
        raise ValueError(f"validation runs dense matrices; n={n} > 8")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    model = spin_model.random_model(n, seed=seed)
    mb = ModelBounds(c=spin_model.taylor_bound_c(model), n=n)
    cbar = schemes.compute_cbar(scheme, mb.c)
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(samples):
        t0 = rng.uniform(*_VALIDATE_T0_RANGE)
        h = rng.uniform(*_VALIDATE_H_RANGE)
        try:
            bd = _breakdown_at(scheme, mb, cbar, h, rel_tol)
        except DivergentRegimeError:
            rows.append(ValidationRow(t0, h, None, None, "guard"))
            continue
        try:
            ref = propagators.reference_propagator(model, t0, t0 + h,
                                                   tol=reference_tol)
        except ReferenceConvergenceError:
            rows.append(ValidationRow(t0, h, None, bd.total, "no-reference"))
            continue
        measured = propagators.spectral_distance(
            _one_step(scheme, model, t0, h), ref)
        status = "ok" if measured <= bd.total else "violated"
        rows.append(ValidationRow(t0, h, measured, bd.total, status))

    report = ValidationReport(scheme.scheme_id, n, seed, tuple(rows))
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["t0", "h", "measured_error", "bound_total",
                         "ratio", "status"])
        for row in rows:
            writer.writerow([_fmt(row.t0), _fmt(row.h), _fmt(row.measured),
                             _fmt(row.bound), _fmt(row.ratio), row.status])
    return report
