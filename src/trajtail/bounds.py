"""Plug-in bound calculators and special-function integrals.

The universal chaining constants are not pinned by theory, so calculators
expose them as parameters defaulting to 1; outputs are to be read "up to the
universal constant".
"""

from __future__ import annotations

import logging
import sys
from dataclasses import dataclass, fields

import numpy as np

from .core import DataError
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

log = logging.getLogger(__name__)

# gauss_radial_bounds_check's slack on each side, relative to the largest log it
# compares: a few ulps, the rounding of those logs.
GAUSS_CHECK_SLACK = 16 * np.finfo(np.float64).eps
# exp(-c) is 0 in float64 above this c.
_EXP_UNDERFLOW = -np.log(np.finfo(np.float64).smallest_subnormal)


def _require_finite(name: str, value: float) -> None:
    if not np.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class BoundInputs:
    """Inputs to the trajectory generalization bounds.

    ``mutual_info_inf`` and ``mutual_info_1`` are user-supplied dependence
    constants (they are not estimated here).  ``unbounded_loss_tail`` is the
    optional tail probability that discounts the confidence level when the
    loss is unbounded; with ``delta`` it must leave a positive confidence.
    """

    loss_bound: float
    lipschitz: float
    rho: float
    n: int
    gamma2: float
    delta: float = 0.05
    mutual_info_inf: float = 0.0
    mutual_info_1: float = 0.0
    k1: float = 1.0
    k2: float = 1.0
    unbounded_loss_tail: float = 0.0

    def __post_init__(self):
        for f in fields(self):
            if f.name != "n":  # the one integer field
                _require_finite(f.name, getattr(self, f.name))
        for name in ("loss_bound", "lipschitz", "rho", "k1", "k2"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.n > sys.float_info.max:  # the bounds take sqrt(float(n))
            raise ValueError("n must fit in a float64")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")
        for name in ("gamma2", "mutual_info_inf", "mutual_info_1", "unbounded_loss_tail"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative, got {getattr(self, name)}")
        if not self.delta + self.unbounded_loss_tail < 1.0:
            raise ValueError(f"delta + unbounded_loss_tail must be below 1, got {self.delta + self.unbounded_loss_tail}")

    @property
    def l_rho(self) -> float:
        return max(self.loss_bound, self.lipschitz * self.rho)

    @property
    def confidence(self) -> float:
        return 1.0 - self.delta - self.unbounded_loss_tail


def theorem1_high_prob_bound(inp: BoundInputs) -> float:
    """High-probability bound: k1 * L_rho * (gamma2/sqrt(n) + sqrt((log(1/delta) + I_inf)/n))."""
    n = float(inp.n)
    tail = np.sqrt((np.log(1.0 / inp.delta) + inp.mutual_info_inf) / n)
    return float(inp.k1 * inp.l_rho * (inp.gamma2 / np.sqrt(n) + tail))


def theorem1_expectation_bound(inp: BoundInputs) -> float:
    """Expectation bound: k2 * L_rho * (gamma2 + sqrt(I_1)) / sqrt(n)."""
    return float(inp.k2 * inp.l_rho * (inp.gamma2 + np.sqrt(inp.mutual_info_1)) / np.sqrt(float(inp.n)))


def corollary1_bound(alpha: float, rho: float, c_rho: float) -> float:
    """Regular-measure bound sqrt(pi * alpha) / (2 * rho * C_rho).

    Requires ``rho * c_rho <= 1`` (mass of a ball cannot exceed one).
    """
    for name, value in (("alpha", alpha), ("rho", rho), ("c_rho", c_rho)):
        _require_finite(name, value)
    if not (alpha > 0 and rho > 0 and c_rho > 0):
        raise ValueError("alpha, rho and c_rho must be positive")
    if rho * c_rho > 1.0 + 1e-12:
        raise ValueError(f"rho * c_rho must be <= 1, got {rho * c_rho}")
    return float(np.sqrt(np.pi * alpha) / (2.0 * rho * c_rho))


def kernel_functional(curve: BallMassCurve, rho: float, dim: int) -> float:
    """Normalized entropy of the empirical kernel mass curve.

    Trapezoidal quadrature of sqrt((dim + 2) log 3 - log mass(r)) over
    [0, rho] divided by rho, with the mass curve extended by its first/last
    values to the interval ends.  Zero-mass radii are trimmed (a logged
    warning reports them).  The curve is ``ball_mass_curve``'s pooled lag
    average: an average over start points, not a sup over anchors.
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
        log.warning("trimmed %d zero-mass radii below rho", n_zero)
    if not keep.any():
        raise DataError("no positive masses at radii below rho")
    r, m = r[keep], m[keep]
    const = (dim + 2) * np.log(3.0)
    integrand = np.sqrt(const - np.log(m))
    eval_r = np.concatenate([[0.0], r, [rho]])
    eval_f = np.concatenate([[integrand[0]], integrand, [integrand[-1]]])
    return float(np.trapezoid(eval_f, eval_r) / rho)


def _log_i(s: float, x: float, log_x: float) -> float:
    """log I(s, x), where I(s, x) = int_0^1 v^(s-1) exp(-x v) dv = 1F1(s; s+1; -x) / s.

    Below x = s, Kummer's transformation I = exp(-x) 1F1(1; s+1; x) / s sums
    positive terms; from x = s on, I = gamma(s, x) / x^s, whose regularized
    lower incomplete gamma is at least about one half.  (scipy's 1F1(s; s+1; -x)
    itself is off by up to 7e-11 relative there.)  In logs, neither form
    underflows or overflows before the caller combines it.  ``log_x`` is
    log x, which stays finite where x has overflowed to inf.
    """
    from scipy import special  # imported on first use: only the bound commands need it

    if x < s:
        return float(np.log(special.hyp1f1(1.0, s + 1.0, x) / s) - x)
    return float(special.gammaln(s) + np.log(special.gammainc(s, x)) - s * log_x)


def _finite_positive(name: str, value: float) -> float:
    if not 0.0 < value < np.inf:
        raise DataError(f"{name} = {value} lies outside the float64 range")
    return float(value)


def _scaled_square(a: float, r: float, t: float) -> tuple[float, float]:
    """x = a r^2 / t and log x, the log exact to rounding where x over- or underflows float64.

    The mantissas are multiplied and the binary exponents added apart, so x
    is the plain product wherever it and the products before it are normal
    floats.
    """
    (ma, ea), (mr, er), (mt, et) = np.frexp(a), np.frexp(r), np.frexp(t)
    m, e = ma * mr * mr / mt, ea + 2 * er - et
    with np.errstate(over="ignore", under="ignore"):
        x = float(np.ldexp(m, e))
    if np.finfo(np.float64).tiny <= x < np.inf:
        return x, float(np.log(x))
    return x, float(np.log(m) + e * np.log(2.0))


def j_integral(a: float, horizon: float, rho: float, dim: int) -> float:
    """The double integral

        J = (1/T) * int_0^1 int_{1/T}^inf v^(D/2-1) s^(D/2-2) exp(-a s v rho^2) ds dv

    in closed form.  With b = a rho^2, c = b/T and s = D/2,

        J = (b^(1-s) / T) * [gamma(s, c) / c + Gamma(s-1, c)]
          = T^(-s) * I(s, c) + T^(-s) * c^(1-s) * Gamma(s-1, c),

    where gamma and Gamma are the lower and upper incomplete gamma functions
    and I is the inner v integral (see ``_log_i``).  The second term is
    T^(-s) exp(-c) U(1, s, c) for s <= 1 (Tricomi's U; Gamma(0, c) = E1(c)),
    and is summed in logs from the regularized Gamma(s-1, c) for s > 1, so
    that neither T^(-s) nor c^(1-s) overflows on its own.  Every power of c
    is taken from log c, which is exact where c itself leaves the float64
    range (see ``_scaled_square``); below that range E1(c) = -euler_gamma -
    log c to within c, and for s <= 1 the second term is dropped once exp(-c)
    underflows.  A J outside the float64 range raises ``DataError``.

    J decreases in ``a`` but is not monotone in D: J(1, 1, 1, D) = 1.672,
    0.852, 0.658, 0.632 for D = 1..4, while for b < 1 the factor b^(1-D/2)
    can make it rise, as in J(0.5, 1, 0.5, D) = 2.911, 2.563, 3.712, 7.520.
    """
    from scipy import special

    if not (a > 0 and horizon > 0 and rho > 0):
        raise ValueError("a, horizon and rho must be positive")
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    c, log_c = _scaled_square(a, rho, horizon)
    s = dim / 2.0
    with np.errstate(divide="ignore", over="ignore"):
        if s > 1.0:
            log_tail = (1.0 - s) * log_c + special.gammaln(s - 1.0) + np.log(special.gammaincc(s - 1.0, c))
        elif c > _EXP_UNDERFLOW:
            # below the rounding of the first term, c^(s-1) exp(-c) / Gamma(s) in relative size
            log_tail = -np.inf
        elif s == 1.0 and c < np.finfo(np.float64).tiny:
            log_tail = np.log(-np.euler_gamma - log_c)
        else:
            log_tail = np.log(special.hyperu(1.0, s, c)) - c
        log_t = s * np.log(horizon)
        value = np.exp(_log_i(s, c, log_c) - log_t) + np.exp(log_tail - log_t)
    return _finite_positive("J", value)


@dataclass(frozen=True)
class GaussRadialBounds:
    """Both sides of the radial Gaussian-mass sandwich at one parameter point."""

    integral: float
    lower: float
    upper: float
    holds: bool


def gauss_radial_bounds_check(a: float, r: float, rho: float, dim: int) -> GaussRadialBounds:
    """Verify (r^D / 2) * I_rho(a, D) <= int_0^r u^(D-1) e^(-a u^2) du <= r^D / D.

    Substituting u = r sqrt(v) makes the radial integral (r^D / 2) I(D/2, a r^2),
    and I_rho(a, D) is I(D/2, a rho^2) (see ``_log_i``).  With the common
    factor r^D / 2 divided out, the sandwich reads I(s, a rho^2) <= I(s, a r^2)
    <= 1/s; ``holds`` compares the logs of these, allowing only their rounding:
    ``GAUSS_CHECK_SLACK`` times the largest log magnitude.  Each side is one
    exp of its summed logs, so it is returned wherever it lies in the float64
    range; a side outside it raises ``DataError``.
    """
    if not (a > 0 and r > 0 and rho > 0):
        raise ValueError("a, r and rho must be positive")
    if r > rho:
        raise ValueError(f"r must not exceed rho, got r={r} > rho={rho}")
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    s = dim / 2.0
    log_i_r, log_i_rho = _log_i(s, *_scaled_square(a, r, 1.0)), _log_i(s, *_scaled_square(a, rho, 1.0))
    slack = GAUSS_CHECK_SLACK * max(1.0, abs(log_i_r), abs(log_i_rho), abs(np.log(s)))
    holds = log_i_rho <= log_i_r + slack and log_i_r <= slack - np.log(s)
    log_r_d = dim * np.log(r)
    with np.errstate(over="ignore", under="ignore"):
        return GaussRadialBounds(
            _finite_positive("the radial integral", np.exp(log_r_d - np.log(2.0) + log_i_r)),
            _finite_positive("the lower bound", np.exp(log_r_d - np.log(2.0) + log_i_rho)),
            _finite_positive("the upper bound", np.exp(log_r_d - np.log(dim))),
            bool(holds),
        )
