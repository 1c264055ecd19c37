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

from .core import DataError, RadiusGrid, Trajectory, _window_slope, check_finite, increments, step_norms

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
        raise DataError(f"power-law fit needs >= 2 samples, got {x.size}")
    if np.any(~np.isfinite(x)) or np.any(x <= 0):
        raise ValueError("samples must be positive and finite")
    if x.min() == x.max():
        raise DataError("all samples equal: zero log-spread")
    x = np.sort(x)
    notes: tuple[str, ...] = ()
    if x.size < LOW_SAMPLE_THRESHOLD:
        notes += (f"low sample count ({x.size} < {LOW_SAMPLE_THRESHOLD})",)

    if x_min is not None:
        if not x_min > 0:
            raise ValueError(f"x_min must be positive, got {x_min}")
        n_above = int(np.count_nonzero(x >= x_min))
        if n_above < 2:
            raise DataError(f"x_min {x_min} leaves {n_above} of {x.size} samples at or above it (need >= 2)")
        candidates = np.array([float(x_min)])
    else:
        levels = np.linspace(0.0, 0.99, _XMIN_GRID_SIZE)
        candidates = np.unique(np.quantile(x, levels, method="lower"))

    best = None
    for xm in candidates:
        tail = x[x >= xm]  # >= 2 samples: the forced cutoff is checked and a grid level is at most 0.99
        log_spread = float(np.sum(np.log(tail / xm)))
        if log_spread <= 0.0:
            continue
        a_density = 1.0 + tail.size / log_spread
        ks = _pareto_ks(tail, xm, a_density)
        if best is None or ks < best[0]:
            best = (ks, float(xm), a_density, tail.size)
    if best is None:
        raise DataError("no usable cutoff: tail has zero log-spread")
    ks, xm, a_density, n_tail = best
    return TailFitResult(a_density - 1.0, a_density, xm, ks, n_tail, x.size, notes)


def lower_tail_exponent_reciprocal(trajectory: Trajectory, x_min: float | None = None) -> TailFitResult:
    """Power-law fit of reciprocal lag-1 step norms.

    Since P(|step| <= r) ~ c r^alpha iff P(1/|step| >= y) ~ c y^(-alpha), the
    survival exponent of the reciprocals is the kernel's lower tail exponent.
    Zero-length steps are dropped and counted in the notes; a norm or a
    reciprocal (of a subnormal norm) too large for float64 raises
    :class:`DataError`.
    """
    if len(trajectory) < LOW_SAMPLE_THRESHOLD + 1:
        raise DataError(f"need at least {LOW_SAMPLE_THRESHOLD + 1} iterates, got {len(trajectory)}")
    norms = step_norms(trajectory)
    check_finite(norms, "step norms")
    nonzero = norms[norms > 0.0]
    dropped = norms.size - nonzero.size
    if nonzero.size < LOW_SAMPLE_THRESHOLD:
        raise DataError(f"only {nonzero.size} nonzero steps (need {LOW_SAMPLE_THRESHOLD})")
    with np.errstate(over="ignore"):
        reciprocals = 1.0 / nonzero
    check_finite(reciprocals, "reciprocal step norms")
    fit = fit_power_law(reciprocals, x_min=x_min)
    if dropped:
        fit = replace(fit, notes=fit.notes + (f"dropped {dropped} zero-length steps",))
    return fit


def ball_mass_curve(trajectory: Trajectory, lags: Iterable[int], radii: RadiusGrid) -> BallMassCurve:
    """Empirical masses of balls around trajectory points under the step kernel.

    All lag-k steps are pooled: the mass at radius r is the fraction of steps
    no longer than r, averaged over lags.
    """
    lag_list = sorted(set(int(k) for k in lags))
    if not lag_list:
        raise ValueError("lag set must be nonempty")
    r = radii.radii
    acc = np.zeros(r.size)
    for k in lag_list:
        norms = np.sort(step_norms(trajectory, k))
        acc += np.searchsorted(norms, r, side="right") / norms.size
    return BallMassCurve(radii, acc / len(lag_list))


def exponent_from_ball_mass(curve: BallMassCurve, window: tuple[float, float] = DEFAULT_MASS_WINDOW) -> float:
    """Least-squares slope of log mass against log radius inside the window.

    Only radii whose masses lie in ``window`` participate; at least 5 such
    grid points are required.
    """
    lo, hi = window
    if not 0.0 < lo < hi < 1.0:
        raise ValueError(f"window must satisfy 0 < lo < hi < 1, got {window}")
    m = curve.masses
    return _window_slope(curve.radii, m, (m >= lo) & (m <= hi), f"mass in [{lo}, {hi}]")


def stable_index(samples: Sequence[float], block_size: int = 10) -> StableIndexResult:
    """Block log-moment estimate of the stable index, clipped to (0, 2].

    With Y_j the sums of ``block_size`` consecutive samples,
    ``1/alpha = (mean log|Y| - mean log|X|) / log block_size``; exact under
    the self-similarity |Y| =d K^(1/alpha) |X|.  Zeros are dropped (counted);
    scaling all samples leaves the estimate unchanged.  A non-finite block sum
    (overflowed, or holding a non-finite sample) raises :class:`DataError`.
    """
    if block_size < 2:
        raise ValueError(f"block_size must be >= 2, got {block_size}")
    x = np.asarray(samples, dtype=np.float64).ravel()
    if x.size < 10 * block_size:
        raise DataError(f"need at least {10 * block_size} samples, got {x.size}")
    n_blocks = x.size // block_size
    x = x[: n_blocks * block_size]
    with np.errstate(over="ignore", invalid="ignore"):
        y = x.reshape(n_blocks, block_size).sum(axis=1)
    check_finite(y, "block sums")
    ax = np.abs(x[x != 0.0])
    ay = np.abs(y[y != 0.0])
    dropped = int(x.size - ax.size) + int(y.size - ay.size)
    if ax.size == 0 or ay.size == 0:
        raise DataError("all samples (or all block sums) are zero")
    inv_alpha = (np.mean(np.log(ay)) - np.mean(np.log(ax))) / np.log(block_size)
    alpha = 2.0 if inv_alpha <= 0.5 else 1.0 / inv_alpha
    return StableIndexResult(float(alpha), (float(alpha),), block_size, dropped)


def layerwise_stable_index(trajectory: Trajectory, sizes: Sequence[int], block_size: int = 10) -> StableIndexResult:
    """Median over layers of the stable index of each layer's pooled lag-1 steps.

    ``sizes`` are the widths of consecutive coordinate layers, in coordinate
    order; they must be positive and sum to the dimension.  One layer,
    ``(dim,)``, is the stable index of all steps pooled.
    """
    if min(sizes) < 1 or sum(sizes) != trajectory.dim:
        raise ValueError(f"layer sizes {tuple(sizes)} are not positive widths summing to dimension {trajectory.dim}")
    layers = np.split(increments(trajectory, 1), np.cumsum(sizes)[:-1], axis=1)
    results = [stable_index(layer.ravel(), block_size) for layer in layers]
    per_block = tuple(res.alpha_hat for res in results)
    dropped = sum(res.n_zero_dropped for res in results)
    return StableIndexResult(float(np.median(per_block)), per_block, block_size, dropped)
