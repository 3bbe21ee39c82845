"""Cost planning and empirical validation on top of the per-step bounds.

The planner answers "how many steps r (and which step size h = T/r) does a
scheme need so the accumulated bound meets a global error budget", counts
the fast-forwardable exponentials that plan costs, and compares against the
Suzuki product-formula cost model on the same budget.  Sweeps serialize the
results as CSV for plotting.  The two dense checks run the actual matrices
at desk scale through one seam, :func:`measured_error` (a scheme's step
against the converged reference): validation reports measured-vs-bound
ratios, and :func:`verify_order` fits the empirical convergence order.

Exponential accounting convention (kept identical across methods): every
stage of a product contributes one exponential per Hamiltonian block it
touches.  A trotterized non-split CFQM step therefore costs m * 2 * sigma
exponentials (m exponentials, each expanded into the 2*5**(s-1)-stage
canonical product formula with one odd-block and one even-block factor per
stage), a split CFQM step costs 2*m (one exchange and one field factor per
stage, structurally empty factors still occupy their slot), and the Suzuki
yardstick is the count of :func:`suzuki_exponentials`, which lives here
with every other cost and never reads below one order-2s product-formula
step, 2 * (2 * 5**(s-1)) exponentials.
The propagators merge adjacent same-block factors of the product formula
(C B C | C B C -> C B 2C B C, see
:func:`cfqm.propagators.product_formula_factors`), but the accounted cost
stays m * 2 * (2 * 5**(s-1)), the convention shared with the Suzuki
yardstick, so plans do not depend on how the steps are implemented.
"""

from __future__ import annotations

import csv
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import bounds, propagators, schemes, spin_model
from .bounds import BoundParams, ErrorBreakdown
from .errors import (
    AsymptoticRegimeError,
    DivergentRegimeError,
    GridTooFineError,
    InfeasiblePlanError,
    ReferenceConvergenceError,
    require_finite,
)

MAX_STEPS = 2 ** 32

# Validation samples draw h from this range; the upper end stays inside the
# h < 2*(1 - e^(-1/(2c))) convergence guard for c = 1 (~0.787).
_VALIDATE_H_RANGE = (0.05, 0.6)
_VALIDATE_T0_RANGE = (0.0, 2.0 * math.pi)
# What the reference propagator certifies for the two dense checks.
_VALIDATE_REFERENCE_TOL = 1e-11
_VERIFY_ORDER_REFERENCE_TOL = 1e-12


@dataclass(frozen=True)
class ModelBounds:
    """What the bounds need to know about the model class.

    c is the componentwise Taylor-coefficient bound of the interaction
    picture generator (:data:`cfqm.spin_model.TAYLOR_BOUND_C` for the
    bundled Heisenberg family) and n the number of spins, which enters only
    the product-formula term of non-split schemes.
    """

    c: float
    n: int

    def __post_init__(self) -> None:
        if self.c <= 0:
            raise ValueError(f"c must be positive, got {self.c}")
        require_finite(c=self.c)
        # ints skip the float conversion, which overflows beyond ~1e308
        if not isinstance(self.n, int) and not float(self.n).is_integer():
            raise ValueError(f"n must be an integer, got {self.n}")
        if self.n > 2 ** 53:
            raise ValueError(f"n must be at most 2**53, got {self.n}")
        if self.n < 2:
            raise ValueError(f"need at least two spins, got n={self.n}")
        object.__setattr__(self, "n", int(self.n))


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


def _product_formula_exponentials(s: int) -> int:
    """Exponentials of one order-2s canonical product formula step over the
    odd/even blocks: one odd- and one even-block factor per stage."""
    return 2 * (2 * 5 ** (s - 1))


def step_exponentials(scheme) -> int:
    """Fast-forwardable exponentials one step of ``scheme`` costs."""
    if scheme.is_split:
        return 2 * scheme.m
    return scheme.m * _product_formula_exponentials(scheme.s)


def _breakdown_at(scheme, model_bounds: ModelBounds, cbar: float,
                  h: float) -> ErrorBreakdown:
    params = BoundParams(c=model_bounds.c, cbar=cbar, h=h,
                         s=scheme.s, m=scheme.m, n=model_bounds.n)
    return bounds.step_error(scheme, params)


def suzuki_exponentials(s: int, lam: float, total_time: float,
                        epsilon: float) -> int | None:
    """Suzuki cost on the same budget, or None when vacuous or overflowing.

    One order-2s Suzuki step of size h on a 2-local Hamiltonian with
    interaction strength lam, meeting error eps, costs

        N = ceil(6 lam h s (25/3)**s (lam h / eps)**(1/(2s)))

    exponentials (the odd/even blocks of the chain's split are 2-local, so
    the locality factor q of the cost model is 2 and 3 q is 6), valid for
    eps <= (9/10) (5/3)**s lam h; the model is vacuous beyond that.  The
    count for r steps is r * N(h=T/r, eps=epsilon/r); both the validity
    condition and the pre-ceiling count are invariant under that
    substitution, so a single step (r = 1) is optimal and is what gets
    evaluated.  No count is below that one step's product formula.
    """
    if lam <= 0 or total_time <= 0 or epsilon <= 0:
        raise ValueError("lam, total_time and epsilon must be positive")
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    require_finite(lam=lam, total_time=total_time, epsilon=epsilon)
    if epsilon > 0.9 * (5.0 / 3.0) ** s * lam * total_time:
        return None
    count = (6.0 * lam * total_time * s * (25.0 / 3.0) ** s
             * (lam * total_time / epsilon) ** (1.0 / (2 * s)))
    if not math.isfinite(count):
        return None
    return max(math.ceil(count), _product_formula_exponentials(s))


def plan(scheme, model_bounds: ModelBounds, total_time: float,
         epsilon: float) -> Plan:
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
    require_finite(total_time=total_time, epsilon=epsilon)
    if total_time <= 0:
        raise ValueError(f"total_time must be positive, got {total_time}")
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    cbar = schemes.compute_cbar(scheme, model_bounds.c)

    def attempt(r: int) -> ErrorBreakdown | None:
        try:
            return _breakdown_at(scheme, model_bounds, cbar, total_time / r)
        except DivergentRegimeError:
            return None

    # the minimal feasible count lies in (lo, r] once r is feasible, and
    # best is the breakdown at r
    lo, r = 0, 1
    while (best := attempt(r)) is None or r * best.total > epsilon:
        if r == MAX_STEPS:
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
    assert r * best.total <= epsilon
    return Plan(
        scheme_id=scheme.scheme_id,
        total_time=total_time,
        n=model_bounds.n,
        epsilon=epsilon,
        h=total_time / r,
        r=r,
        exponentials=r * step_exponentials(scheme),
        breakdown=best,
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


def _write_csv(out, columns, records) -> None:
    """Write a header plus one row per record (values in column order) with
    the deterministic formatting of :func:`_fmt` and LF newlines."""
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for record in records:
            writer.writerow([_fmt(value) for value in record])


def sweep(axis: str, grid, scheme_ids, out, *, total_time: float | None = None,
          epsilon: float | None = None, n: int | None = None) -> list[dict]:
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

    c = spin_model.TAYLOR_BOUND_C
    rows = []
    for scheme_id in scheme_ids:
        scheme = schemes.load_scheme(scheme_id)
        for value in grid:
            if axis == "time":
                T, eps, nn = float(value), epsilon, n
            elif axis == "error":
                T, eps, nn = total_time, float(value), n
            else:
                nn = value  # ModelBounds rejects non-integers
                T = float(value) if total_time is None else total_time
                eps = epsilon
            row = dict.fromkeys(SWEEP_COLUMNS)
            row.update(scheme_id=scheme_id, axis_value=value)
            try:
                p = plan(scheme, ModelBounds(c=c, n=nn), T, eps)
            except InfeasiblePlanError:
                row.update(suzuki_exponentials=suzuki_exponentials(
                    scheme.s, c, T, eps), status="infeasible")
            else:
                row.update(asdict(p.breakdown), h=p.h, r=p.r,
                           exponentials=p.exponentials,
                           suzuki_exponentials=p.suzuki_exponentials,
                           status="ok")
            rows.append(row)

    _write_csv(out, SWEEP_COLUMNS,
               ([row[col] for col in SWEEP_COLUMNS] for row in rows))
    return rows


# ---------------------------------------------------------------------------
# Dense checks: measured-vs-bound validation and the empirical order
# ---------------------------------------------------------------------------


def measured_error(scheme, model, t0: float, h: float, reference_tol: float,
                   *, exact: bool = False) -> float:
    """Spectral-norm error of one step of ``scheme`` on [t0, t0 + h].

    The step is the split product for split schemes; for non-split schemes
    it is the trotterized product a device would run, or the product of
    exact exponentials when ``exact`` is set.  It is measured against
    :func:`cfqm.propagators.reference_propagator` at ``reference_tol``,
    whose :class:`ReferenceConvergenceError` propagates.
    """
    ref = propagators.reference_propagator(model, t0, t0 + h, reference_tol)
    if scheme.is_split:
        step = propagators.split_step(scheme, model, t0, h)
    elif exact:
        step = propagators.cfqm_step(scheme, model, t0, h)
    else:
        step = propagators.trotterized_cfqm_step(scheme, model, t0, h)
    return propagators.spectral_distance(step, ref)


VALIDATE_COLUMNS = ("scheme_id", "t0", "h", "measured_error", "bound_total",
                    "ratio", "status")


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
    rows: tuple[ValidationRow, ...]

    @property
    def ok(self) -> bool:
        return all(row.ratio is None or row.ratio <= 1.0 for row in self.rows)

    @property
    def max_ratio(self) -> float:
        ratios = [row.ratio for row in self.rows if row.ratio is not None]
        return max(ratios) if ratios else math.nan


def validate(scheme_ids, seed: int, n: int, samples: int,
             out) -> list[ValidationReport]:
    """Measured one-step error against the a-priori bound, as one CSV.

    Runs each scheme's implementable step (split product, or the
    trotterized product for non-split schemes) on a seeded Heisenberg
    model at the same ``samples`` random (t0, h) points and tabulates
    measured error, bound and their ratio, one report per scheme in
    ``scheme_ids`` order.  Guard violations and reference-oracle failures
    become flagged rows rather than crashes.  ``out`` receives every
    scheme's rows under ``VALIDATE_COLUMNS`` once all of them are done;
    ``report.ok`` is False when any ratio exceeds one.
    """
    if n > 8:
        raise ValueError(f"validation runs dense matrices; n={n} > 8")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    loaded = [schemes.load_scheme(scheme_id) for scheme_id in scheme_ids]
    model = spin_model.random_model(n, seed=seed)
    mb = ModelBounds(c=spin_model.TAYLOR_BOUND_C, n=n)
    reports = []
    for scheme in loaded:
        cbar = schemes.compute_cbar(scheme, mb.c)
        rng = np.random.default_rng(seed)
        rows = []
        for _ in range(samples):
            t0 = rng.uniform(*_VALIDATE_T0_RANGE)
            h = rng.uniform(*_VALIDATE_H_RANGE)
            try:
                bd = _breakdown_at(scheme, mb, cbar, h)
            except DivergentRegimeError:
                rows.append(ValidationRow(t0, h, None, None, "guard"))
                continue
            try:
                measured = measured_error(scheme, model, t0, h,
                                          _VALIDATE_REFERENCE_TOL)
            except ReferenceConvergenceError:
                rows.append(ValidationRow(t0, h, None, bd.total, "no-reference"))
                continue
            status = "ok" if measured <= bd.total else "violated"
            rows.append(ValidationRow(t0, h, measured, bd.total, status))
        reports.append(ValidationReport(scheme.scheme_id, tuple(rows)))
    _write_csv(out, VALIDATE_COLUMNS,
               ([report.scheme_id, row.t0, row.h, row.measured, row.bound,
                 row.ratio, row.status]
                for report in reports for row in report.rows))
    return reports


def slope_window(s: int) -> tuple[float, float]:
    """Accepted window for the measured convergence slope of an order-2s
    scheme: the ideal 2s+1 minus 0.15 (noise) and plus 0.3 (superconvergence
    at finite h)."""
    return 2 * s + 1 - 0.15, 2 * s + 1 + 0.3


def verify_order(scheme, model, h_grid, t0: float = 0.0) -> float:
    """Measured convergence slope of single-step errors over ``h_grid``.

    For each h the scheme's one-step propagator (with exact exponentials)
    is compared against a converged midpoint reference, and the slope of
    log(error) against log(h) is fit by least squares.  Raises
    :class:`GridTooFineError` when any error sits below 1e-13 (roundoff
    floor, no slope is trustworthy) and :class:`AsymptoticRegimeError` when
    the errors fail to increase monotonically with h.  A non-finite ``t0``
    or step size raises ValueError before any matrix is built.
    """
    hs = np.sort(np.asarray(h_grid, dtype=float))
    require_finite(t0=t0)
    if not np.all(np.isfinite(hs)):
        raise ValueError(f"step sizes must be finite, got {list(map(float, h_grid))}")
    if hs.size < 2:
        raise ValueError("need at least two grid points")
    if hs[0] <= 0:
        raise ValueError("step sizes must be positive")
    errs = np.array([measured_error(scheme, model, t0, h,
                                    _VERIFY_ORDER_REFERENCE_TOL, exact=True)
                     for h in hs])
    if errs.min() < 1e-13:
        raise GridTooFineError(
            f"smallest step error {errs.min():.3e} is at roundoff level; "
            f"use larger steps")
    if not np.all(np.diff(errs) > 0):
        raise AsymptoticRegimeError(
            f"step errors are not monotone over the grid: {errs.tolist()}")
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    return float(slope)
