"""Seeded inputs, operations and output checks of the benchmark workloads.

Every workload runs in rounds.  Round k of seed s is built from
``numpy.random.default_rng([s, k])`` alone, so the same seed gives the same
inputs whatever else ran before, and a run always completes whole rounds.
The program is called only through public functions, looked up as module
attributes at call time so that the traced run's wrappers see every call.

plan-grid
    Warm planning, no matrices.  One round plans all 7 schemes over the
    pinned time grid (T = 2^6..2^16, eps 1e-3, n 128), eps grid (1e-2..1e-7,
    T 1024, n 128) and the n = T spins diagonal (4..4096, eps 1e-3), in a
    seeded order, then runs one ``cfqm sweep`` through ``cli.main``.  The
    planner, bounds, series and ``compute_cbar`` do all the work; a dense
    kernel change must read "no change" here.
validate-suite
    The soundness suite's traffic.  One round is 17 samples: three for each
    n in 2..6, one in each third of h in [0.15, 0.6], with reference tol
    1e-10, and one each with n 7 and 8, h in [0.10, 0.25] and tol 1e-9.
    Every round holds the same chain lengths and h strata (only their
    order, the models, t0 and h within its stratum are drawn), because n
    sets the cost of the steps and h the cost of the bound series.  Every scheme is certified against the
    sample's shared reference (bound, step, exact step for non-split
    schemes, spectral distances), so the reference memo answers six of the
    seven calls and small-d Python overhead matters.
propagate-large
    The dense kernel at the largest size a run can repeat often enough for
    steady latency percentiles, no reference.  One round is two ops per
    scheme: trotterized vs exact step, their distance and the Trotter bound
    for the non-split schemes (n 8, n 7 for the 50-stage CF6 schemes), one
    split step at n 8 for GS6-4 and GS10-6.  At n 9 one op per scheme takes
    ~11 s, so a run would hold ~14 ops and its p50 would be one op's time.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from cfqm import bounds, cli, planner, propagators, schemes, spin_model
from cfqm.schemes import SCHEME_IDS

#: Seed whose outputs are recorded in golden.json.
PINNED_SEED = 20240814

#: Tolerances of the golden comparison: measured errors and defects agree to
#: 1e-12 absolute, bounds to 1e-12 relative, step counts exactly.
ABS_TOL = 1e-12
REL_TOL = 1e-12

#: Largest allowed spectral-norm unitarity defect of a split step.
UNITARITY_TOL = 1e-10


@dataclass
class Op:
    """One timed call into the program.

    ``run`` is the only part that is timed.  ``summary`` turns its result
    into the values compared with the golden record, and ``invariant``
    returns a failure message or None; both run outside the timing.
    ``weight`` is the number of ops the call stands for (a sweep covers one
    plan per row) and ``sampled`` whether its time is a per-op latency.
    """

    key: str
    run: Callable[[], object]
    summary: Callable[[object], list]
    invariant: Callable[[object], str | None]
    tolerances: tuple[str, ...]
    weight: int = 1
    sampled: bool = True
    golden_key: str | None = None


def _no_invariant(result) -> None:
    return None


# ---------------------------------------------------------------------------
# plan-grid
# ---------------------------------------------------------------------------

PLAN_N = 128
TIME_GRID = tuple(2.0 ** k for k in range(6, 17))
EPS_GRID = tuple(10.0 ** -k for k in range(2, 8))
SPINS_GRID = tuple(2 ** k for k in range(2, 13))
SWEEP_ARGS = ("sweep", "--axis", "spins", "--grid", "16,64,256",
              "--eps", "1e-3") + tuple(a for sid in SCHEME_IDS
                                       for a in ("--scheme", sid))
SWEEP_ROWS = 3 * len(SCHEME_IDS)


def _plan_points() -> list[tuple[str, str, float]]:
    points = []
    for scheme_id in SCHEME_IDS:
        points += [(scheme_id, "time", t) for t in TIME_GRID]
        points += [(scheme_id, "error", e) for e in EPS_GRID]
        points += [(scheme_id, "spins", float(n)) for n in SPINS_GRID]
    return points


def _plan_op(scheme_id: str, axis: str, value: float) -> Op:
    if axis == "time":
        n, total_time, eps = PLAN_N, value, 1e-3
    elif axis == "error":
        n, total_time, eps = PLAN_N, 1024.0, value
    else:
        n, total_time, eps = int(value), value, 1e-3

    def run():
        return planner.plan(schemes.load_scheme(scheme_id),
                            planner.ModelBounds(c=1.0, n=n), total_time, eps)

    def invariant(p):
        if not p.global_bound <= eps:
            return f"global bound {p.global_bound!r} above eps {eps!r}"
        return None

    key = f"{scheme_id}|{axis}|{value:g}"
    return Op(key=key, run=run, summary=lambda p: [p.r, p.exponentials],
              invariant=invariant, tolerances=("exact", "exact"),
              golden_key=key)


def _sweep_op(workdir: str) -> Op:
    out = os.path.join(workdir, "sweep.csv")

    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(list(SWEEP_ARGS) + ["--out", out])
        if code != 0:
            raise RuntimeError(f"cfqm sweep exited {code}")
        return out

    def summary(path):
        with open(path, "rb") as fh:
            return [hashlib.sha256(fh.read()).hexdigest()]

    return Op(key="sweep", run=run, summary=summary, invariant=_no_invariant,
              tolerances=("exact",), weight=SWEEP_ROWS, sampled=False,
              golden_key="sweep")


def plan_grid_setup(workdir: str) -> None:
    mb = planner.ModelBounds(c=1.0, n=PLAN_N)
    for scheme_id in SCHEME_IDS:
        planner.plan(schemes.load_scheme(scheme_id), mb, 100.0, 1e-3)
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["sweep", "--axis", "spins", "--grid", "8", "--eps", "1e-2",
                  "--scheme", SCHEME_IDS[0],
                  "--out", os.path.join(workdir, "setup.csv")])


def plan_grid_round(seed: int, k: int, workdir: str) -> list[Op]:
    rng = np.random.default_rng([seed, k])
    points = _plan_points()
    ops = [_plan_op(*points[i]) for i in rng.permutation(len(points))]
    return ops + [_sweep_op(workdir)]


# ---------------------------------------------------------------------------
# validate-suite
# ---------------------------------------------------------------------------

SMALL_SPINS = (2, 3, 4, 5, 6)
SMALL_PER_SPIN = 3
BIG_SPINS = (7, 8)


@dataclass(frozen=True)
class Sample:
    model: spin_model.HeisenbergModel
    t0: float
    h: float
    reference_tol: float


def _draw_sample(rng, n: int, stratum: int) -> Sample:
    model = spin_model.random_model(n, seed=int(rng.integers(2 ** 31)))
    t0 = float(rng.uniform(0.0, 2.0 * math.pi))
    if n in BIG_SPINS:
        return Sample(model, t0, float(rng.uniform(0.10, 0.25)), 1e-9)
    width = (0.60 - 0.15) / SMALL_PER_SPIN
    h = rng.uniform(0.15 + stratum * width, 0.15 + (stratum + 1) * width)
    return Sample(model, t0, float(h), 1e-10)


def _bound(scheme, n: int, h: float):
    cbar = schemes.compute_cbar(scheme, 1.0)
    params = bounds.BoundParams(c=1.0, cbar=cbar, h=h, s=scheme.s, m=scheme.m, n=n)
    return bounds.step_error(scheme, params, 1e-6)


def certify(scheme, sample: Sample) -> tuple:
    """Bound, step, exact step and distances for one (scheme, sample) pair,
    as the soundness criteria compute them."""
    model, t0, h = sample.model, sample.t0, sample.h
    total = _bound(scheme, model.n, h).total
    ref = propagators.reference_propagator(model, t0, t0 + h, tol=sample.reference_tol)
    if scheme.is_split:
        step = propagators.split_step(scheme, model, t0, h)
        defect = trotter_bound = None
    else:
        step = propagators.trotterized_cfqm_step(scheme, model, t0, h)
        exact = propagators.cfqm_step(scheme, model, t0, h)
        defect = propagators.spectral_distance(step, exact)
        trotter_bound = bounds.trotter_step_error(scheme.z, model.n, h, scheme.s)
    measured = propagators.spectral_distance(step, ref)
    return measured, total, defect, trotter_bound


def _certify_invariant(result) -> str | None:
    measured, total, defect, trotter_bound = result
    if not measured <= total:
        return f"measured {measured!r} above bound {total!r}"
    if defect is not None and not defect <= trotter_bound:
        return f"Trotter defect {defect!r} above bound {trotter_bound!r}"
    return None


def validate_suite_setup(workdir: str) -> None:
    model = spin_model.random_model(2, seed=1)
    sample = Sample(model, 0.0, 0.3, 1e-10)
    for scheme_id in SCHEME_IDS:
        certify(schemes.load_scheme(scheme_id), sample)


def validate_suite_round(seed: int, k: int, workdir: str) -> list[Op]:
    rng = np.random.default_rng([seed, k])
    kinds = [(n, j) for n in SMALL_SPINS for j in range(SMALL_PER_SPIN)]
    kinds += [(n, 0) for n in BIG_SPINS]
    ops = []
    for index in rng.permutation(len(kinds)):
        sample = _draw_sample(rng, *kinds[index])
        for scheme_id in SCHEME_IDS:
            def run(scheme_id=scheme_id, sample=sample):
                return certify(schemes.load_scheme(scheme_id), sample)

            ops.append(Op(key=f"{scheme_id}|n={sample.model.n}|h={sample.h:.4f}",
                          run=run, summary=list, invariant=_certify_invariant,
                          tolerances=("abs", "rel", "abs", "rel")))
    return ops


# ---------------------------------------------------------------------------
# propagate-large
# ---------------------------------------------------------------------------

LARGE_SPINS = {"CF2-1": 8, "CF4-2": 8, "CF4-3": 8, "CF6-5": 7, "CF6-6": 7,
               "GS6-4": 8, "GS10-6": 8}
LARGE_OPS_PER_SCHEME = 2


def _probe(rng, dim: int) -> Callable[[np.ndarray], list[float]]:
    """<w|U|v> for seeded unit vectors w, v: a cheap fingerprint of U."""
    vecs = rng.standard_normal((2, dim)) + 1j * rng.standard_normal((2, dim))
    w, v = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)

    def amplitude(u: np.ndarray) -> list[float]:
        amp = complex(w.conj() @ (u @ v))
        return [amp.real, amp.imag]

    return amplitude


def _unitarity_defect(u: np.ndarray) -> float:
    return float(np.linalg.norm(u.conj().T @ u - np.eye(u.shape[0]), ord=2))


def _pair_op(scheme, model, t0: float, h: float, probe, key: str) -> Op:
    def run():
        trotterized = propagators.trotterized_cfqm_step(scheme, model, t0, h)
        exact = propagators.cfqm_step(scheme, model, t0, h)
        defect = propagators.spectral_distance(trotterized, exact)
        bound = bounds.trotter_step_error(scheme.z, model.n, h, scheme.s)
        return trotterized, defect, bound

    def invariant(result):
        _, defect, bound = result
        if not defect <= bound:
            return f"Trotter defect {defect!r} above bound {bound!r}"
        return None

    return Op(key=key, run=run,
              summary=lambda r: [r[1], r[2]] + probe(r[0]),
              invariant=invariant, tolerances=("abs", "rel", "abs", "abs"))


def _split_op(scheme, model, t0: float, h: float, probe, key: str) -> Op:
    def run():
        return propagators.split_step(scheme, model, t0, h)

    def invariant(u):
        defect = _unitarity_defect(u)
        if not defect <= UNITARITY_TOL:
            return f"split step unitarity defect {defect!r} above {UNITARITY_TOL}"
        return None

    return Op(key=key, run=run, summary=probe, invariant=invariant,
              tolerances=("abs", "abs"))


def propagate_large_setup(workdir: str) -> None:
    model = spin_model.random_model(2, seed=1)
    for scheme_id in SCHEME_IDS:
        scheme = schemes.load_scheme(scheme_id)
        make = _split_op if scheme.is_split else _pair_op
        probe = _probe(np.random.default_rng(0), model.dim)
        make(scheme, model, 0.0, 0.3, probe, scheme_id).run()


def propagate_large_round(seed: int, k: int, workdir: str) -> list[Op]:
    rng = np.random.default_rng([seed, k])
    ops = []
    for scheme_id in SCHEME_IDS * LARGE_OPS_PER_SCHEME:
        scheme = schemes.load_scheme(scheme_id)
        n = LARGE_SPINS[scheme_id]
        model = spin_model.random_model(n, seed=int(rng.integers(2 ** 31)))
        t0 = float(rng.uniform(0.0, 2.0 * math.pi))
        h = float(rng.uniform(0.10, 0.50))
        probe = _probe(rng, model.dim)
        make = _split_op if scheme.is_split else _pair_op
        ops.append(make(scheme, model, t0, h, probe, f"{scheme_id}|n={n}|h={h:.4f}"))
    return ops


@dataclass(frozen=True)
class Workload:
    setup: Callable[[str], None]
    round_ops: Callable[[int, int, str], list[Op]]
    golden_rounds: int  # rounds of the pinned seed recorded in golden.json


WORKLOADS = {
    "plan-grid": Workload(plan_grid_setup, plan_grid_round, 1),
    "validate-suite": Workload(validate_suite_setup, validate_suite_round, 8),
    "propagate-large": Workload(propagate_large_setup, propagate_large_round, 8),
}


def compare(values: list, golden: list, tolerances: tuple[str, ...]) -> str | None:
    """Failure message when ``values`` miss ``golden``, else None."""
    if len(values) != len(golden):
        return f"got {len(values)} values, golden has {len(golden)}"
    for got, want, tol in zip(values, golden, tolerances):
        if got is None or want is None or tol == "exact":
            ok = got == want
        elif tol == "abs":
            ok = abs(got - want) <= ABS_TOL
        else:
            ok = abs(got - want) <= REL_TOL * abs(want)
        if not ok:
            return f"{got!r} differs from golden {want!r} ({tol})"
    return None
