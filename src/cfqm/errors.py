"""Exception types shared across the package.

Every guard that protects a mathematical precondition raises one of these
instead of returning garbage, so callers (and the CLI) can distinguish
"the bound does not apply here" from "the computation failed".
:func:`require_finite` is the one check for non-finite inputs and
:func:`require_positive` the one for non-positive ones.
"""

import math


def require_finite(**values: float) -> None:
    """Raise ValueError naming the first of ``values`` that is not finite."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def require_positive(**values: float) -> None:
    """Raise ValueError naming the first of ``values`` that is <= 0 (NaN
    passes; :func:`require_finite` rejects it)."""
    for name, value in values.items():
        if value <= 0:
            raise ValueError(f"{name} must be positive, got {value}")


class DivergentRegimeError(ValueError):
    """A remainder series is evaluated outside its radius of convergence."""


class SchemeLookupError(KeyError):
    """Unknown scheme identifier."""

    __str__ = Exception.__str__  # KeyError's would quote the message


class DataIntegrityError(ValueError):
    """A coefficient file is malformed or fails a structural invariant."""


class GridTooFineError(ValueError):
    """Order verification ran into the numerical noise floor."""


class AsymptoticRegimeError(ValueError):
    """Order verification grid lies outside the asymptotic regime."""


class ReferenceConvergenceError(RuntimeError):
    """The reference propagator could not certify the requested tolerance."""


class InfeasiblePlanError(RuntimeError):
    """No step count within the search budget meets the error target."""
