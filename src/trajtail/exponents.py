"""Tail-exponent estimators for trajectories and raw samples.

Three routes to an exponent live here:

- a continuous power-law MLE with KS-minimizing cutoff selection, applied to
  reciprocals of step norms (small steps become a heavy upper tail);
- a log-log regression on empirical ball-mass curves of the step kernel;
- a block log-moment estimator of the stable self-similarity index.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from .core import RadiusGrid, Trajectory, increments
from .errors import DegenerateDataError, InsufficientDataError

__all__ = [
    "TailFitResult",
    "BallMassCurve",
    "StableIndexResult",
    "fit_power_law",
    "lower_tail_exponent_reciprocal",
    "ball_mass_curve",
    "exponent_from_ball_mass",
    "stable_index",
    "layerwise_stable_index",
]

LOW_SAMPLE_THRESHOLD = 50
DEFAULT_MASS_WINDOW = (0.01, 0.2)
MAX_ANCHORS = 64
_XMIN_GRID_SIZE = 100


@dataclass(frozen=True)
class TailFitResult:
    """Fitted power-law tail.

    ``alpha_survival`` is the survival-function exponent (the headline lower
    tail exponent); ``alpha_density = alpha_survival + 1`` is the continuous
    density exponent.
    """

    alpha_survival: float
    alpha_density: float
    x_min: float
    ks_distance: float
    n_tail: int
    n_samples: int
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        if abs(self.alpha_density - self.alpha_survival - 1.0) > 1e-12:
            raise ValueError("alpha_density must equal alpha_survival + 1")
        if self.n_tail < 2:
            raise ValueError("a tail fit needs at least 2 samples")
        if not 0.0 <= self.ks_distance <= 1.0:
            raise ValueError(f"ks_distance must lie in [0, 1], got {self.ks_distance}")


@dataclass(frozen=True)
class BallMassCurve:
    """Empirical kernel ball masses at the radii of a grid, nondecreasing in r."""

    radii: RadiusGrid
    masses: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.masses, dtype=np.float64)
        if m.shape != (len(self.radii),):
            raise ValueError("masses must match the radius grid length")
        if np.any(m < 0) or np.any(m > 1):
            raise ValueError("masses must lie in [0, 1]")
        if np.any(np.diff(m) < 0):
            raise ValueError("masses must be nondecreasing in r")
        m.setflags(write=False)
        object.__setattr__(self, "masses", m)


@dataclass(frozen=True)
class StableIndexResult:
    """Stable-index estimate; the median of per-block values when layered."""

    alpha_hat: float
    per_block: tuple[float, ...]
    block_size: int
    n_zero_dropped: int = 0

    def __post_init__(self):
        if not 0.0 < self.alpha_hat <= 2.0:
            raise ValueError(f"alpha_hat must lie in (0, 2], got {self.alpha_hat}")


def _pareto_ks(tail: np.ndarray, x_min: float, alpha_density: float) -> float:
    """Two-sided KS distance between the empirical tail and the fitted CDF."""
    k = tail.size
    cdf = 1.0 - (tail / x_min) ** (1.0 - alpha_density)
    i = np.arange(1, k + 1)
    return float(max(np.max(i / k - cdf), np.max(cdf - (i - 1) / k)))


def fit_power_law(samples: Sequence[float], x_min: float | None = None) -> TailFitResult:
    """Continuous power-law fit with MLE exponent and KS-selected cutoff.

    For each candidate cutoff on a 100-point quantile grid (or the forced
    ``x_min``), the density exponent is ``1 + n_tail / sum(log(x / x_min))``
    and the candidate minimizing the KS distance wins.  Fewer than 50 samples
    attach a low-sample note instead of failing.
    """
    x = np.asarray(samples, dtype=np.float64).ravel()
    if x.size < 2:
        raise InsufficientDataError(f"power-law fit needs >= 2 samples, got {x.size}")
    if np.any(~np.isfinite(x)) or np.any(x <= 0):
        raise ValueError("samples must be positive and finite")
    if x.min() == x.max():
        raise DegenerateDataError("all samples equal: zero log-spread")
    x = np.sort(x)
    notes: tuple[str, ...] = ()
    if x.size < LOW_SAMPLE_THRESHOLD:
        notes += (f"low sample count ({x.size} < {LOW_SAMPLE_THRESHOLD})",)

    if x_min is not None:
        if not x_min > 0:
            raise ValueError(f"x_min must be positive, got {x_min}")
        candidates = np.array([float(x_min)])
    else:
        levels = np.linspace(0.0, 0.99, _XMIN_GRID_SIZE)
        candidates = np.unique(np.quantile(x, levels, method="lower"))

    best = None
    for xm in candidates:
        tail = x[x >= xm]
        if tail.size < 2:
            continue
        log_spread = float(np.sum(np.log(tail / xm)))
        if log_spread <= 0.0:
            continue
        a_density = 1.0 + tail.size / log_spread
        ks = _pareto_ks(tail, xm, a_density)
        if best is None or ks < best[0]:
            best = (ks, float(xm), a_density, tail.size)
    if best is None:
        raise DegenerateDataError("no usable cutoff: tail has zero log-spread")
    ks, xm, a_density, n_tail = best
    return TailFitResult(a_density - 1.0, a_density, xm, ks, n_tail, x.size, notes)


def lower_tail_exponent_reciprocal(trajectory: Trajectory, x_min: float | None = None) -> TailFitResult:
    """Power-law fit of reciprocal lag-1 step norms.

    Since P(|step| <= r) ~ c r^alpha iff P(1/|step| >= y) ~ c y^(-alpha), the
    survival exponent of the reciprocals is the kernel's lower tail exponent.
    Zero-length steps are dropped and counted in the notes.
    """
    if len(trajectory) < LOW_SAMPLE_THRESHOLD + 1:
        raise InsufficientDataError(
            f"need at least {LOW_SAMPLE_THRESHOLD + 1} iterates, got {len(trajectory)}"
        )
    norms = np.linalg.norm(increments(trajectory, 1), axis=1)
    nonzero = norms[norms > 0.0]
    dropped = norms.size - nonzero.size
    if nonzero.size < LOW_SAMPLE_THRESHOLD:
        raise InsufficientDataError(
            f"only {nonzero.size} nonzero steps (need {LOW_SAMPLE_THRESHOLD})"
        )
    fit = fit_power_law(1.0 / nonzero, x_min=x_min)
    if dropped:
        fit = replace(fit, notes=fit.notes + (f"dropped {dropped} zero-length steps",))
    return fit


def ball_mass_curve(
    trajectory: Trajectory, lags: Iterable[int], radii: RadiusGrid, mode: str = "average"
) -> BallMassCurve:
    """Empirical masses of balls around trajectory points under the step kernel.

    ``average`` pools all lag-k steps: the mass at radius r is the fraction of
    steps no longer than r, averaged over lags.  ``worst`` evaluates per-anchor
    masses on a deterministic subsample of at most ``MAX_ANCHORS`` start points
    and takes the pointwise minimum (a conservative stand-in for the least
    favorable anchor).
    """
    lag_list = sorted(set(int(k) for k in lags))
    if not lag_list:
        raise ValueError("lag set must be nonempty")
    if lag_list[0] < 1:
        raise ValueError("lags must be positive")
    if lag_list[-1] >= len(trajectory):
        raise InsufficientDataError(f"max lag {lag_list[-1]} must be smaller than trajectory length {len(trajectory)}")
    if mode not in ("average", "worst"):
        raise ValueError(f"mode must be 'average' or 'worst', got {mode!r}")
    r = radii.radii
    if mode == "average":
        acc = np.zeros(r.size)
        for k in lag_list:
            norms = np.sort(np.linalg.norm(increments(trajectory, k), axis=1))
            acc += np.searchsorted(norms, r, side="right") / norms.size
        masses = acc / len(lag_list)
    else:
        pts = trajectory.points
        last_start = len(trajectory) - 1 - lag_list[-1]
        anchors = np.unique(np.linspace(0, last_start, min(MAX_ANCHORS, last_start + 1)).astype(int))
        masses = np.ones(r.size)
        for a in anchors:
            hits = np.zeros(r.size)
            for k in lag_list:
                norm = float(np.linalg.norm(pts[a + k] - pts[a]))
                hits += norm <= r
            masses = np.minimum(masses, hits / len(lag_list))
    return BallMassCurve(radii, masses)


def exponent_from_ball_mass(curve: BallMassCurve, window: tuple[float, float] = DEFAULT_MASS_WINDOW) -> float:
    """Least-squares slope of log mass against log radius inside the window.

    Only radii whose masses lie in ``window`` (and strictly inside (0, 1))
    participate; at least 5 such grid points are required.
    """
    lo, hi = window
    if not 0.0 < lo < hi < 1.0:
        raise ValueError(f"window must satisfy 0 < lo < hi < 1, got {window}")
    m = curve.masses
    usable = (m >= lo) & (m <= hi) & (m > 0.0) & (m < 1.0)
    if int(usable.sum()) < 5:
        raise InsufficientDataError(
            f"only {int(usable.sum())} grid points with mass in [{lo}, {hi}] (need 5)"
        )
    slope = np.polyfit(np.log(curve.radii.radii[usable]), np.log(m[usable]), 1)[0]
    return float(slope)


def stable_index(samples: Sequence[float], block_size: int = 10) -> StableIndexResult:
    """Block log-moment estimate of the stable index, clipped to (0, 2].

    With Y_j the sums of ``block_size`` consecutive samples,
    ``1/alpha = (mean log|Y| - mean log|X|) / log block_size``; exact under
    the self-similarity |Y| =d K^(1/alpha) |X|.  Zeros are dropped (counted);
    scaling all samples leaves the estimate unchanged.
    """
    if block_size < 2:
        raise ValueError(f"block_size must be >= 2, got {block_size}")
    x = np.asarray(samples, dtype=np.float64).ravel()
    if x.size < 10 * block_size:
        raise InsufficientDataError(f"need at least {10 * block_size} samples, got {x.size}")
    n_blocks = x.size // block_size
    x = x[: n_blocks * block_size]
    y = x.reshape(n_blocks, block_size).sum(axis=1)
    ax = np.abs(x[x != 0.0])
    ay = np.abs(y[y != 0.0])
    dropped = int(x.size - ax.size) + int(y.size - ay.size)
    if ax.size == 0 or ay.size == 0:
        raise DegenerateDataError("all samples (or all block sums) are zero")
    inv_alpha = (np.mean(np.log(ay)) - np.mean(np.log(ax))) / np.log(block_size)
    alpha = 2.0 if inv_alpha <= 0.5 else 1.0 / inv_alpha
    return StableIndexResult(float(alpha), (float(alpha),), block_size, dropped)


def layerwise_stable_index(
    trajectory: Trajectory, blocks: Sequence[Sequence[int]], block_size: int = 10
) -> StableIndexResult:
    """Median over coordinate blocks of the stable index of pooled lag-1 steps.

    ``blocks`` must partition the coordinate indices 0..D-1.
    """
    dim = trajectory.dim
    seen: set[int] = set()
    for b in blocks:
        if len(b) == 0:
            raise ValueError("blocks must be nonempty")
        for i in b:
            if not 0 <= i < dim:
                raise ValueError(f"coordinate index {i} out of range for dimension {dim}")
            if i in seen:
                raise ValueError(f"coordinate index {i} appears in more than one block")
            seen.add(i)
    if len(seen) != dim:
        raise ValueError(f"blocks cover {len(seen)} of {dim} coordinates")
    deltas = increments(trajectory, 1)
    per_block = []
    dropped = 0
    for b in blocks:
        res = stable_index(deltas[:, list(b)].ravel(), block_size)
        per_block.append(res.alpha_hat)
        dropped += res.n_zero_dropped
    return StableIndexResult(float(np.median(per_block)), tuple(per_block), block_size, dropped)
