"""Trajectory geometry and tail-exponent diagnostics for stochastic optimizers.

The public names resolve on first use (PEP 562), so ``import trajtail``
loads no numpy.  ``python -m trajtail.cli`` imports this package before the
CLI module, and the CLI sets numpy's BLAS thread count before numpy loads.
"""

import importlib
import sys
import types

# The public names, by the submodule that defines each.
_EXPORTS = {
    "core": (
        "DataError",
        "RadiusGrid",
        "Seed",
        "SimplexWeights",
        "Trajectory",
        "increments",
        "load_trajectory",
        "normalize_by_running_std",
        "save_trajectory",
    ),
    "exponents": (
        "BallMassCurve",
        "StableIndexResult",
        "TailFitResult",
        "ball_mass_curve",
        "exponent_from_ball_mass",
        "fit_power_law",
        "layerwise_stable_index",
        "lower_tail_exponent_reciprocal",
        "stable_index",
    ),
    "ft": (
        "FtEstimate",
        "SubgradientOptions",
        "TruncatedGram",
        "brute_force_gamma2",
        "estimate_gamma2",
        "ft_objective",
    ),
    "simulate": ("ProcessSpec", "beta_prime_sample", "simulate", "stable_sample"),
    "spatial": ("CoveringProfile", "KFunctionCurve", "covering_numbers", "k_function"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = [*_MODULE_OF, *_EXPORTS]
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:  # a submodule; ``simulate`` is the function, see _Package
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


class _Package(types.ModuleType):
    """The package's type: ``trajtail.simulate`` stays the function after its submodule loads.

    Loading a submodule binds it as an attribute of its package.  The eager
    ``from .simulate import simulate`` of earlier versions then rebound the
    name to the function; this property keeps that outcome.
    """

    @property
    def simulate(self):
        return importlib.import_module(f"{__name__}.simulate").simulate

    @simulate.setter
    def simulate(self, module):
        pass  # the import system binds the submodule here


sys.modules[__name__].__class__ = _Package
