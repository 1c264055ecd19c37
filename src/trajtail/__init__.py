"""Trajectory geometry and tail-exponent diagnostics for stochastic optimizers."""

from .core import (
    DataError,
    RadiusGrid,
    Seed,
    SimplexWeights,
    Trajectory,
    increments,
    load_trajectory,
    normalize_by_running_std,
    save_trajectory,
)
from .exponents import (
    BallMassCurve,
    StableIndexResult,
    TailFitResult,
    ball_mass_curve,
    exponent_from_ball_mass,
    fit_power_law,
    layerwise_stable_index,
    lower_tail_exponent_reciprocal,
    stable_index,
)
from .ft import (
    FtEstimate,
    SubgradientOptions,
    TruncatedGram,
    brute_force_gamma2,
    estimate_gamma2,
    ft_objective,
)
from .simulate import ProcessSpec, beta_prime_sample, simulate, stable_sample
from .spatial import CoveringProfile, KFunctionCurve, covering_numbers, k_function

__version__ = "0.1.0"
