"""The shared stopping rule for the nonnegative tail sums of the bounds."""

from __future__ import annotations

import math
from typing import Callable

from .errors import DivergentRegimeError

#: Highest order a tail sum reaches before it is declared divergent.
HARD_CAP = 400


def sum_tail(term: Callable[[int], float], p_start: int, rel_tol: float) -> float:
    """Sum term(p) for p = p_start, p_start+1, ... with the shared stopping rule.

    Stops once the last term is below ``rel_tol`` times the running sum
    *and* the terms have decreased (a 0.0 term counts) for three orders in
    a row; raises :class:`DivergentRegimeError` if that never happens by
    order :data:`HARD_CAP`.  Terms must be nonnegative and ``rel_tol`` in
    [0, 1); anything else, NaN included, raises ValueError.
    """
    if not 0.0 <= rel_tol < 1.0:
        raise ValueError(f"rel_tol must be in [0, 1), got {rel_tol}")
    total = 0.0
    prev = math.inf
    decreasing_run = 0
    for p in range(p_start, HARD_CAP + 1):
        t = term(p)
        if t < 0:
            raise ValueError(f"tail term at order {p} is negative: {t}")
        total += t
        decreasing_run = decreasing_run + 1 if t < prev or t == 0.0 else 0
        if decreasing_run >= 3 and t <= rel_tol * total:
            return total
        prev = t
    raise DivergentRegimeError(
        f"remainder tail did not satisfy the stopping rule within {HARD_CAP} orders; "
        f"the step size is too close to (or beyond) the convergence boundary")
