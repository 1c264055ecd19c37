"""Plug-in bound calculators and special-function integrals.

The universal chaining constants are not pinned by theory, so calculators
expose them as parameters defaulting to 1; outputs are to be read "up to the
universal constant".
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DegenerateDataError
from .exponents import BallMassCurve

__all__ = [
    "BoundInputs",
    "GaussRadialBounds",
    "theorem1_high_prob_bound",
    "theorem1_expectation_bound",
    "corollary1_bound",
    "kernel_functional",
    "j_integral",
    "gauss_radial_bounds_check",
]

# j_integral's relative error budget: the quadrature must estimate its error below this.
J_REL_TOL = 1e-6
GAUSS_CHECK_SLACK = 1e-10


@dataclass(frozen=True)
class BoundInputs:
    """Inputs to the trajectory generalization bounds.

    ``mutual_info_inf`` and ``mutual_info_1`` are user-supplied dependence
    constants (they are not estimated here).  ``unbounded_loss_tail`` is the
    optional tail probability that discounts the confidence level when the
    loss is unbounded.
    """

    loss_bound: float
    lipschitz: float
    rho: float
    n: int
    delta: float
    gamma2: float
    mutual_info_inf: float = 0.0
    mutual_info_1: float = 0.0
    k1: float = 1.0
    k2: float = 1.0
    unbounded_loss_tail: float = 0.0

    def __post_init__(self):
        for name in ("loss_bound", "lipschitz", "rho", "k1", "k2"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")
        for name in ("gamma2", "mutual_info_inf", "mutual_info_1", "unbounded_loss_tail"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative, got {getattr(self, name)}")

    @property
    def l_rho(self) -> float:
        return max(self.loss_bound, self.lipschitz * self.rho)

    @property
    def confidence(self) -> float:
        return 1.0 - self.delta - self.unbounded_loss_tail


def theorem1_high_prob_bound(inp: BoundInputs) -> float:
    """High-probability bound: k1 * L_rho * (gamma2/sqrt(n) + sqrt((log(1/delta) + I_inf)/n))."""
    tail = np.sqrt((np.log(1.0 / inp.delta) + inp.mutual_info_inf) / inp.n)
    return float(inp.k1 * inp.l_rho * (inp.gamma2 / np.sqrt(inp.n) + tail))


def theorem1_expectation_bound(inp: BoundInputs) -> float:
    """Expectation bound: k2 * L_rho * (gamma2 + sqrt(I_1)) / sqrt(n)."""
    return float(inp.k2 * inp.l_rho * (inp.gamma2 + np.sqrt(inp.mutual_info_1)) / np.sqrt(inp.n))


def corollary1_bound(alpha: float, rho: float, c_rho: float) -> float:
    """Regular-measure bound sqrt(pi * alpha) / (2 * rho * C_rho).

    Requires ``rho * c_rho <= 1`` (mass of a ball cannot exceed one).
    """
    if not (alpha > 0 and rho > 0 and c_rho > 0):
        raise ValueError("alpha, rho and c_rho must be positive")
    if rho * c_rho > 1.0 + 1e-12:
        raise ValueError(f"rho * c_rho must be <= 1, got {rho * c_rho}")
    return float(np.sqrt(np.pi * alpha) / (2.0 * rho * c_rho))


def kernel_functional(curve: BallMassCurve, rho: float, dim: int) -> float:
    """Normalized entropy of the empirical kernel mass curve.

    Trapezoidal quadrature of sqrt((dim + 2) log 3 - log mass(r)) over
    [0, rho] divided by rho, with the mass curve extended by its first/last
    values to the interval ends.  Zero-mass radii are trimmed (reported via a
    warning); the sup over anchors is whatever the curve's construction mode
    provides.
    """
    if not rho > 0:
        raise ValueError(f"rho must be positive, got {rho}")
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    r = curve.radii.radii
    m = curve.masses
    keep = (m > 0.0) & (r <= rho)
    n_zero = int(np.sum((m == 0.0) & (r <= rho)))
    if n_zero:
        warnings.warn(f"trimmed {n_zero} zero-mass radii below rho", stacklevel=2)
    if not keep.any():
        raise DegenerateDataError("no positive masses at radii below rho")
    r, m = r[keep], m[keep]
    const = (dim + 2) * np.log(3.0)
    integrand = np.sqrt(const - np.log(m))
    eval_r = np.concatenate([[0.0], r, [rho]])
    eval_f = np.concatenate([[integrand[0]], integrand, [integrand[-1]]])
    return float(np.trapezoid(eval_f, eval_r) / rho)


def _quad(func, a: float, b: float, **kwargs) -> tuple[float, float]:
    """``scipy.integrate.quad``, imported on first use: only the bound commands integrate."""
    from scipy import integrate

    return integrate.quad(func, a, b, **kwargs)


def _inner_v_integral(b_times_s: float, dim: int) -> float:
    """integral_0^1 v^(dim/2 - 1) exp(-b_times_s * v) dv by adaptive quadrature.

    For dim < 2 the integrand is singular at v = 0; the substitution
    v = u^(2/dim) makes it smooth.  For dim >= 2 the algebraic endpoint
    weight is handled directly.
    """
    if dim < 2:
        p = 2.0 / dim
        val, _ = _quad(
            lambda u: np.exp(-b_times_s * u**p), 0.0, 1.0, epsabs=1e-15, epsrel=1e-11, limit=200
        )
        return (2.0 / dim) * val
    val, _ = _quad(
        lambda v: np.exp(-b_times_s * v),
        0.0,
        1.0,
        weight="alg",
        wvar=(dim / 2.0 - 1.0, 0.0),
        epsabs=1e-15,
        epsrel=1e-11,
        limit=200,
    )
    return val


def j_integral(a: float, horizon: float, rho: float, dim: int) -> float:
    """Nested adaptive quadrature of the double integral

        (1/T) * int_0^1 int_{1/T}^inf v^(D/2-1) s^(D/2-2) exp(-a s v rho^2) ds dv

    evaluated with the order of integration exchanged (v inside) so the v = 0
    singularity is handled once, by the substitution v = u^(2/D).

    With b = a rho^2, c = b/T and s = D/2 the integral has the closed form

        J = (b^(1-s) / T) * [gamma(s, c) / c + Gamma(s-1, c)],

    where gamma and Gamma are the lower and upper incomplete gamma
    functions (Gamma(0, c) = E1(c)).  J decreases in ``a`` but is not
    monotone in D: J(1, 1, 1, D) = 1.672, 0.852, 0.658, 0.632 for D = 1..4,
    while for b < 1 the factor b^(1-D/2) can make it rise, as in
    J(0.5, 1, 0.5, D) = 2.911, 2.563, 3.712, 7.520.
    """
    if not (a > 0 and horizon > 0 and rho > 0):
        raise ValueError("a, horizon and rho must be positive")
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    b = a * rho * rho
    exponent = dim / 2.0 - 2.0
    value, err = _quad(
        lambda s: s**exponent * _inner_v_integral(b * s, dim),
        1.0 / horizon,
        np.inf,
        epsabs=0.0,
        epsrel=J_REL_TOL / 4.0,
        limit=400,
    )
    value /= horizon
    err /= horizon
    if not np.isfinite(value) or err > J_REL_TOL * abs(value):
        raise ConvergenceError(f"quadrature error estimate {err:.3e} exceeds {J_REL_TOL:.0e} * |J|")
    return float(value)


@dataclass(frozen=True)
class GaussRadialBounds:
    """Both sides of the radial Gaussian-mass sandwich at one parameter point."""

    integral: float
    lower: float
    upper: float
    holds: bool


def gauss_radial_bounds_check(a: float, r: float, rho: float, dim: int) -> GaussRadialBounds:
    """Verify (r^D / 2) * I_rho(a, D) <= int_0^r u^(D-1) e^(-a u^2) du <= r^D / D.

    The radial integral and I_rho are both computed by adaptive quadrature;
    ``holds`` allows ``GAUSS_CHECK_SLACK`` of absolute tolerance on each side.
    """
    if not (a > 0 and r > 0 and rho > 0):
        raise ValueError("a, r and rho must be positive")
    if r > rho:
        raise ValueError(f"r must not exceed rho, got r={r} > rho={rho}")
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    radial, _ = _quad(
        lambda u: u ** (dim - 1) * np.exp(-a * u * u), 0.0, r, epsabs=1e-14, epsrel=1e-12, limit=200
    )
    i_rho = _inner_v_integral(a * rho * rho, dim)
    lower = r**dim / 2.0 * i_rho
    upper = r**dim / dim
    holds = (lower <= radial + GAUSS_CHECK_SLACK) and (radial <= upper + GAUSS_CHECK_SLACK)
    return GaussRadialBounds(float(radial), float(lower), float(upper), bool(holds))
