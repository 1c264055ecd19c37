"""Spatial diagnostics: K-function, greedy covering numbers, entropy integral.

The K-function estimator implemented here uses the diameter/n prefactor (in
place of the classical area/n^2 normalization); its growth exponent in r is
what matters for the clustering diagnostic, and that is unaffected.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import RadiusGrid, Trajectory
from .errors import InsufficientDataError

__all__ = [
    "KFunctionCurve",
    "CoveringProfile",
    "k_function",
    "k_function_slope",
    "covering_numbers",
    "dudley_dominates",
]

DEFAULT_PAIR_WINDOW = (0.005, 0.1)
DUDLEY_FACTOR = 3.0


@dataclass(frozen=True)
class KFunctionCurve:
    radii: RadiusGrid
    values: np.ndarray
    n: int
    diameter: float

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != (len(self.radii),):
            raise ValueError("values must match the radius grid length")
        if np.any(np.diff(v) < 0):
            raise ValueError("K-function values must be nondecreasing")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class CoveringProfile:
    """Greedy covering counts per radius plus the entropy integral.

    The counts come from a farthest-point traversal, so they upper-bound the
    true covering numbers; ``dudley_value`` is thus a diagnostic, not a bound
    certificate.
    """

    radii: RadiusGrid
    counts: np.ndarray
    dudley_value: float

    def __post_init__(self):
        c = np.asarray(self.counts, dtype=np.int64)
        if c.shape != (len(self.radii),):
            raise ValueError("counts must match the radius grid length")
        if np.any(c < 1) or np.any(np.diff(c) > 0):
            raise ValueError("counts must be positive and nonincreasing in r")
        c.setflags(write=False)
        object.__setattr__(self, "counts", c)


def k_function(trajectory: Trajectory, radii: RadiusGrid) -> KFunctionCurve:
    """Evaluate K(r) = (diam/n) * #{ordered pairs i != j with |w_i - w_j| <= r}."""
    n = len(trajectory)
    if n < 2:
        return KFunctionCurve(radii, np.zeros(len(radii)), n, 0.0)
    d = np.sort(trajectory.pair_distances())
    diam = float(d[-1])
    pairs = 2.0 * np.searchsorted(d, radii.radii, side="right")
    return KFunctionCurve(radii, diam / n * pairs, n, diam)


def k_function_slope(curve: KFunctionCurve, window: tuple[float, float] = DEFAULT_PAIR_WINDOW) -> float:
    """Small-r log-log slope of the K-function.

    The fit is restricted to radii where the fraction of pairs within r lies
    in ``window``; needs at least 5 usable grid points.
    """
    lo, hi = window
    if not 0.0 < lo < hi <= 1.0:
        raise ValueError(f"window must satisfy 0 < lo < hi <= 1, got {window}")
    if curve.n < 2 or curve.diameter <= 0.0:
        raise InsufficientDataError("K-function slope needs at least two distinct points")
    total = curve.diameter * (curve.n - 1)
    frac = curve.values / total
    usable = (frac >= lo) & (frac <= hi) & (curve.values > 0.0)
    if int(usable.sum()) < 5:
        raise InsufficientDataError(
            f"only {int(usable.sum())} grid points with pair fraction in [{lo}, {hi}] (need 5)"
        )
    slope = np.polyfit(np.log(curve.radii.radii[usable]), np.log(curve.values[usable]), 1)[0]
    return float(slope)


def _farthest_point_radii(dist: np.ndarray) -> np.ndarray:
    """Covering radius after k greedy centers, for k = 1..#distinct points.

    ``dist`` is the ``(n, n)`` pairwise distance matrix.  Starts from point 0
    and repeatedly adds the point farthest from the current centers (ties to
    the lowest index via argmax).
    """
    dist_to_centers = dist[0].copy()
    radii = [float(dist_to_centers.max())]
    while radii[-1] > 0.0:
        center = int(np.argmax(dist_to_centers))
        np.minimum(dist_to_centers, dist[center], out=dist_to_centers)
        radii.append(float(dist_to_centers.max()))
    return np.asarray(radii)


def covering_numbers(trajectory: Trajectory, radii: RadiusGrid, rho: float) -> CoveringProfile:
    """Greedy cover sizes per radius and the normalized entropy integral.

    ``dudley_value`` is the trapezoidal quadrature of sqrt(log N_r) over
    [0, rho] (evaluated on {0} + the grid radii below rho + {rho}), divided
    by rho.
    """
    if not rho > 0:
        raise ValueError(f"rho must be positive, got {rho}")
    cover_radii = _farthest_point_radii(trajectory.distances)

    def counts_at(r: np.ndarray) -> np.ndarray:
        # smallest k with cover_radii[k - 1] <= r; cover_radii is nonincreasing
        return cover_radii.size - np.searchsorted(cover_radii[::-1], r, side="right") + 1

    counts = counts_at(radii.radii).astype(np.int64)
    inside = radii.radii[radii.radii < rho]
    eval_r = np.concatenate([[0.0], inside, [rho]])
    integrand = np.sqrt(np.log(counts_at(eval_r).astype(np.float64)))
    dudley = float(np.trapezoid(integrand, eval_r) / rho)
    return CoveringProfile(radii, counts, dudley)


def dudley_dominates(gamma2_value: float, profile: CoveringProfile) -> bool:
    """Diagnostic: does ``DUDLEY_FACTOR * dudley_value`` dominate the functional estimate?

    The chaining constant is unknown, so violations are reported by callers
    rather than asserted.
    """
    return gamma2_value <= DUDLEY_FACTOR * profile.dudley_value + 1e-9
