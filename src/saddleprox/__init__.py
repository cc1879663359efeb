"""Primal-dual proximal splitting for saddle-point problems with smooth
non-bilinear coupling, with denoising and PDE-game instances."""

from .core import (
    ConfigurationError,
    DivergenceError,
    IterationRecord,
    PrimalDualState,
    SaddleProblem,
    SolveOptions,
    solve,
    step,
)
from .schedules import (
    AcceleratedRule,
    ConstantRule,
    InfeasibleConstantsError,
    LinearRateRule,
    POTTS_PRESETS,
    ProblemConstants,
    StepTriple,
    bound_accelerated,
    bound_constant,
    bound_linear,
    check_48,
    check_52,
    potts_steps,
)

__version__ = "0.1.0"

__all__ = [
    "AcceleratedRule",
    "ConfigurationError",
    "ConstantRule",
    "DivergenceError",
    "InfeasibleConstantsError",
    "IterationRecord",
    "LinearRateRule",
    "POTTS_PRESETS",
    "PrimalDualState",
    "ProblemConstants",
    "SaddleProblem",
    "SolveOptions",
    "StepTriple",
    "bound_accelerated",
    "bound_constant",
    "bound_linear",
    "check_48",
    "check_52",
    "potts_steps",
    "solve",
    "step",
    "__version__",
]
