"""Seeded generators for the stochastic processes used throughout.

All generators are bit-reproducible functions of their spec (including the
seed): draws come from a single PCG64 stream consumed in a documented, fixed
order, so results do not depend on thread count or call context.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DataError, Seed, Trajectory

__all__ = [
    "PROCESS_KINDS",
    "PROCESS_PARAMS",
    "ProcessSpec",
    "simulate",
    "beta_prime_sample",
    "stable_sample",
    "stable_transform",
]

# The parameters each kind reads besides ``dim``, ``steps`` and ``seed``.
PROCESS_PARAMS = {
    "gaussian_walk": ("sigma",),
    "stable_levy_walk": ("stable_alpha", "sigma"),
    "beta_prime_walk": ("bp_alpha", "bp_beta"),
    "perturbed_gd_quadratic": ("gd_step", "curvature", "sigma"),
}
PROCESS_KINDS = tuple(PROCESS_PARAMS)


@dataclass(frozen=True)
class ProcessSpec:
    """Configuration of one simulated process.

    ``PROCESS_PARAMS`` names the fields each kind reads; it ignores the
    others, and each number it reads must be finite.  ``sigma`` (the step
    scale, or the gradient-noise scale of ``perturbed_gd_quadratic``), which
    must be nonnegative, and ``curvature``, which must be positive, hold one
    value, or one value per coordinate.
    ``stable_levy_walk`` adds i.i.d. symmetric stable
    coordinates of index ``stable_alpha`` in (0, 2]; ``beta_prime_walk`` is
    planar (``dim`` must be 2), with a uniform direction and a beta-prime step
    length; ``perturbed_gd_quadratic`` descends the quadratic from the
    origin, or from ``start`` (``dim`` values) when given.
    """

    kind: str
    dim: int
    steps: int
    seed: int
    sigma: float | tuple[float, ...] = (1.0,)
    stable_alpha: float = 1.5
    bp_alpha: float = 0.5
    bp_beta: float = 3.5
    gd_step: float = 0.1
    curvature: float | tuple[float, ...] = (1.0,)
    start: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind not in PROCESS_KINDS:
            raise ValueError(f"unknown process kind {self.kind!r}; choose from {PROCESS_KINDS}")
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if self.kind == "beta_prime_walk" and self.dim != 2:
            raise ValueError("beta_prime_walk is a planar process; dim must be 2")
        if self.kind == "stable_levy_walk" and not 0.0 < self.stable_alpha <= 2.0:
            raise ValueError(f"stable index must lie in (0, 2], got {self.stable_alpha}")
        if self.kind == "beta_prime_walk" and not (self.bp_alpha > 0 and self.bp_beta > 0):
            raise ValueError("beta-prime shapes must be positive")
        if self.kind == "perturbed_gd_quadratic" and not self.gd_step > 0:
            raise ValueError(f"gd_step must be positive, got {self.gd_step}")
        for name in PROCESS_PARAMS[self.kind]:
            values = np.atleast_1d(np.asarray(getattr(self, name), dtype=np.float64))
            if not np.all(np.isfinite(values)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
            if values.size not in (1, self.dim):
                raise ValueError(f"{name} needs 1 or dim = {self.dim} values, got {values.size}")
            if name == "sigma" and np.any(values < 0):
                raise ValueError("sigma must be nonnegative")
            if name == "curvature" and np.any(values <= 0):
                raise ValueError("curvature must be positive")
        if self.kind == "perturbed_gd_quadratic" and self.start is not None and np.shape(self.start) != (self.dim,):
            raise ValueError(f"start must have dimension {self.dim}")

    def _vector(self, name: str) -> np.ndarray:
        """Field ``name`` (``sigma`` or ``curvature``) broadcast to one value per coordinate."""
        return np.broadcast_to(np.asarray(getattr(self, name), dtype=np.float64), (self.dim,))


def stable_transform(alpha: float, u: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Symmetric stable draw from uniform angle u in (-pi/2, pi/2) and unit
    exponential e; odd in u.  At alpha = 2 this reduces to 2 sin(u) sqrt(e),
    a Gaussian with variance 2."""
    if not 0.0 < alpha <= 2.0:
        raise ValueError(f"alpha must lie in (0, 2], got {alpha}")
    u = np.asarray(u, dtype=np.float64)
    e = np.maximum(np.asarray(e, dtype=np.float64), 1e-300)
    if alpha == 1.0:
        return np.tan(u)
    t1 = np.sin(alpha * u) / np.cos(u) ** (1.0 / alpha)
    t2 = (np.cos((1.0 - alpha) * u) / e) ** ((1.0 - alpha) / alpha)
    return t1 * t2


def stable_sample(alpha: float, rng: np.random.Generator, size: int | tuple[int, ...]) -> np.ndarray:
    """An array of ``size`` unit-scale symmetric stable draws via the trigonometric transform."""
    return stable_transform(alpha, rng.uniform(-np.pi / 2, np.pi / 2, size), rng.standard_exponential(size))


def beta_prime_sample(alpha: float, beta: float, rng: np.random.Generator, size: int | tuple[int, ...]) -> np.ndarray:
    """An array of ``size`` beta-prime draws, each a ratio of gamma variates with shapes (alpha, beta).

    Tiny shapes can underflow a gamma draw to zero; such draws are resampled
    so the result is always positive and finite.  Raises :class:`DataError`
    when 100 rounds of resampling leave a draw at zero.
    """
    if not (alpha > 0 and beta > 0):
        raise ValueError(f"shapes must be positive, got ({alpha}, {beta})")
    g1 = rng.standard_gamma(alpha, size)
    g2 = rng.standard_gamma(beta, size)
    for _ in range(100):
        bad = (g1 <= 0.0) | (g2 <= 0.0)
        if not bad.any():
            break
        k = int(bad.sum())
        g1[bad] = rng.standard_gamma(alpha, k)
        g2[bad] = rng.standard_gamma(beta, k)
    else:
        raise DataError(f"gamma draws with shapes ({alpha}, {beta}) kept underflowing to zero")
    return g1 / g2


def simulate(spec: ProcessSpec) -> Trajectory:
    """Run the process for ``spec.steps`` steps from the origin.

    Returns ``steps + 1`` points.  Draw order per kind is fixed (documented
    in each branch), so trajectories are bit-reproducible given the spec.
    Raises :class:`DataError` when a point leaves the float64 range.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        points = _points(spec)
    bad = ~np.isfinite(points).all(axis=1)
    if bad.any():
        raise DataError(f"{spec.kind} trajectory leaves the float64 range at row {int(np.argmax(bad))}")
    return Trajectory(points)


def _points(spec: ProcessSpec) -> np.ndarray:
    """The ``(steps + 1, dim)`` points of ``simulate``, unchecked."""
    rng = Seed(spec.seed).generator()
    n, d = spec.steps, spec.dim
    if spec.kind == "gaussian_walk":
        # one (steps, dim) normal block
        deltas = rng.standard_normal((n, d)) * spec._vector("sigma")
    elif spec.kind == "stable_levy_walk":
        # stable_sample's draws: one (steps, dim) uniform block, then one exponential block
        deltas = stable_sample(spec.stable_alpha, rng, (n, d)) * spec._vector("sigma")
    elif spec.kind == "beta_prime_walk":
        # angles first, then step lengths
        angles = rng.uniform(-np.pi, np.pi, n)
        lengths = beta_prime_sample(spec.bp_alpha, spec.bp_beta, rng, n)
        deltas = np.column_stack([np.cos(angles), np.sin(angles)]) * lengths[:, None]
    elif spec.kind == "perturbed_gd_quadratic":
        # one (steps, dim) normal block for the gradient noise
        curv = spec._vector("curvature")
        noise = rng.standard_normal((n, d)) * spec._vector("sigma")
        w = np.zeros(d) if spec.start is None else np.asarray(spec.start, dtype=np.float64)
        points = np.empty((n + 1, d))
        points[0] = w
        for k in range(n):
            w = w - spec.gd_step * (curv * w + noise[k])
            points[k + 1] = w
        return points
    else:  # pragma: no cover - guarded by ProcessSpec
        raise ValueError(spec.kind)

    return np.vstack([np.zeros((1, d)), np.cumsum(deltas, axis=0)])
