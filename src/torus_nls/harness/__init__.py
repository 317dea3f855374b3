"""Randomized verification harness: samplers, estimates, presets, checks."""

from .checks import cube_identity_check, vanishing_check
from .estimates import (GUARD_BANDLIMIT, GUARD_TIME, EstimateSpec,
                        ExperimentReport, RunEnvironment, desk_guard,
                        fit_scaling_slope, run_estimate)
from .exponents import HoelderExponentSet, epsilon_max, hoelder_exponents
from .presets import (contraction_ratio, get_evaluator, get_preset,
                      preset_names, preset_registry)
from .samplers import (SamplerSpec, random_field, sample_path, support_mask,
                       xnorm_lower_bound)

__all__ = [
    "GUARD_BANDLIMIT", "GUARD_TIME", "support_mask",
    "EstimateSpec", "ExperimentReport", "RunEnvironment", "SamplerSpec",
    "HoelderExponentSet", "contraction_ratio", "cube_identity_check",
    "desk_guard", "epsilon_max", "fit_scaling_slope", "get_evaluator", "get_preset",
    "hoelder_exponents", "preset_names", "preset_registry", "random_field",
    "run_estimate", "sample_path", "vanishing_check", "xnorm_lower_bound",
]
