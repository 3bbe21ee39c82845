"""Commutator-free quasi-Magnus propagators, error bounds, and cost planning."""

from .bounds import (
    BoundParams,
    ErrorBreakdown,
    cfqm_remainder,
    magnus_remainder,
    quadrature_remainder,
    step_error,
    trotter_step_error,
)
from .planner import (
    ModelBounds,
    Plan,
    plan,
    suzuki_exponentials,
    sweep,
    validate,
    verify_order,
)
from .propagators import (
    cfqm_step,
    reference_propagator,
    spectral_distance,
    split_step,
    trotterized_cfqm_step,
)
from .schemes import (
    SCHEME_IDS,
    CFQMScheme,
    compute_cbar,
    load_scheme,
    parse_scheme_text,
)
from .spin_model import (
    HeisenbergModel,
    random_model,
    split_at,
)

__version__ = "0.1.0"

__all__ = [
    "BoundParams",
    "CFQMScheme",
    "ErrorBreakdown",
    "HeisenbergModel",
    "ModelBounds",
    "Plan",
    "SCHEME_IDS",
    "cfqm_remainder",
    "cfqm_step",
    "compute_cbar",
    "load_scheme",
    "magnus_remainder",
    "parse_scheme_text",
    "plan",
    "quadrature_remainder",
    "random_model",
    "reference_propagator",
    "spectral_distance",
    "split_at",
    "split_step",
    "step_error",
    "suzuki_exponentials",
    "sweep",
    "trotter_step_error",
    "trotterized_cfqm_step",
    "validate",
    "verify_order",
]
