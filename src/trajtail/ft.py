"""Normalized trajectory-clustering functional on finite point sets.

The functional of a point set W under the truncated metric
``d_rho(x, y) = min(rho, |x - y|)`` is

    (1/rho) * inf_p max_i  integral_0^rho sqrt(log 1/mu_p(B_r(w_i))) dr,

minimized over probability vectors ``p`` on the points.  For an atomic
measure the inner integral is a finite sum over the segments between
consecutive sorted distances: the segment starting at the j-th sorted
distance carries the cumulative mass of the j+1 nearest atoms, and the
trailing segment up to ``rho`` carries mass one and contributes nothing.
``TruncatedGram`` stores the sorted layout only up to the last column in
which any row still has a positive segment: past it every row sits on the
``rho`` plateau, so every later segment is exactly zero and adds nothing.

``estimate_gamma2`` minimizes the objective by accelerated gradient descent
in softmax coordinates on the smoothed max ``mu * logsumexp(f / mu)`` of the
anchor integrals ``f`` (Nesterov, "Smooth minimization of non-smooth
functions", 2005), with ``mu`` shrinking along the run; ``brute_force_gamma2``
is an exhaustive simplex-grid oracle used to validate it on small sets.

The objective is not convex in ``p``.  ``sqrt(-log c)`` is convex only for
``c <= exp(-1/2)`` and concave above it, so a segment whose cumulative mass
exceeds ``exp(-1/2)`` can bend the objective above its chords.  A local
descent can therefore stall; the minimizer keeps the best iterate it has
seen and falls back to uniform weights when they do better.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .core import _DIFF_BUDGET, Seed, SimplexWeights, Trajectory, pairwise_distances

__all__ = [
    "TruncatedGram",
    "FtEstimate",
    "SubgradientOptions",
    "ft_objective",
    "estimate_gamma2",
    "brute_force_gamma2",
    "resolve_rho",
]

# Cumulative masses are clipped into [MASS_FLOOR, 1] before taking logs, or in
# float32, where 1e-300 rounds to zero, into [its smallest normal number, 1].
MASS_FLOOR = 1e-300
# Smoothing of the max over anchors falls geometrically from start to end.  The
# high start matters: over 30 appendix-C cells (300 iterations) a start of 0.02
# ends about 0.026 higher on average than a start of 0.1.
_MU_START = 0.1
_MU_END = 1e-3
# sqrt(-log c) is floored here in its derivative, which is singular at c = 1.
_SQRT_LOG_FLOOR = 1e-6

BRUTE_FORCE_MAX_POINTS = 6
_BATCH_ROWS = 400_000


def resolve_rho(rho: float | None, loss_bound: float | None = None, lipschitz: float | None = None) -> float:
    """Truncation radius: explicit value, else loss_bound/lipschitz (given together, not with rho), else 1."""
    if (loss_bound is None) != (lipschitz is None):
        raise ValueError("loss_bound and lipschitz must be given together")
    if rho is not None and loss_bound is not None:
        raise ValueError("rho and loss_bound/lipschitz are exclusive")
    if rho is not None:
        if not rho > 0:
            raise ValueError(f"rho must be positive, got {rho}")
        return float(rho)
    if loss_bound is not None:
        if not (loss_bound > 0 and lipschitz > 0):
            raise ValueError("loss_bound and lipschitz must be positive")
        return float(loss_bound) / float(lipschitz)
    return 1.0


@dataclass(frozen=True)
class TruncatedGram:
    """The leading columns of each row's sort of the pairwise truncated distances.

    ``entries[i, j] = min(rho, |w_i - w_j|)``, shape ``(n, n)``.  ``order[i]``
    begins the stable permutation sorting row i ascending (ties keep index
    order, so duplicate points produce zero-length segments that contribute
    nothing); ``sorted_entries`` holds the sorted values and ``segments[i, j]
    = sorted_entries[i, j+1] - sorted_entries[i, j]``.  ``order`` and
    ``segments`` keep ``w`` columns and ``sorted_entries`` ``w + 1``, where
    ``w`` is one past the last column in which any row has a positive
    segment: later columns of the full sort are constant along every row
    (at ``rho`` or the row's largest distance), so their segments are
    exactly zero and no integral needs them.

    Only ``order``, ``segments`` and a read-only ``points`` are stored;
    ``entries`` and ``sorted_entries`` are computed from ``points`` on first
    access.
    """

    points: np.ndarray
    rho: float
    order: np.ndarray
    segments: np.ndarray

    @classmethod
    def from_points(cls, points: np.ndarray, rho: float) -> "TruncatedGram":
        """Sort the truncated distances in row blocks of ``core._DIFF_BUDGET`` elements, keeping ``w`` columns.

        A read-only ``points`` array is kept by reference; a writable one is
        copied, so a caller changing it later cannot change ``entries``.
        """
        if not rho > 0:
            raise ValueError(f"rho must be positive, got {rho}")
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise ValueError("points must be a nonempty 2-d array")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points contain non-finite coordinates")
        rho = float(rho)
        dist = pairwise_distances(pts)
        np.minimum(dist, rho, out=dist)
        n = pts.shape[0]
        rows = max(1, _DIFF_BUDGET // n)
        blocks = [slice(start, start + rows) for start in range(0, n, rows)]
        # A row's sort ends on the plateau at its largest value (rho once reached), and its
        # last positive segment is the one onto that plateau: row i needs n - (plateau length) columns.
        w = n - min(int((dist[b] == dist[b].max(axis=1, keepdims=True)).sum(axis=1).min()) for b in blocks)
        order = np.empty((n, w), dtype=np.intp)
        segments = np.empty((n, w))
        for b in blocks:
            lead = np.argsort(dist[b], axis=1, kind="stable")[:, : w + 1]
            order[b] = lead[:, :w]
            segments[b] = np.diff(np.take_along_axis(dist[b], lead, axis=1), axis=1)
        del dist  # the copy below and the distances are never held together
        if pts.flags.writeable:
            pts = pts.copy()
            pts.setflags(write=False)
        return cls(pts, rho, order, segments)

    @property
    def n(self) -> int:
        return self.order.shape[0]

    @cached_property
    def entries(self) -> np.ndarray:
        """Read-only ``(n, n)`` truncated distances, computed from ``points`` on first access."""
        dist = pairwise_distances(self.points)
        np.minimum(dist, self.rho, out=dist)
        dist.setflags(write=False)
        return dist

    @cached_property
    def sorted_entries(self) -> np.ndarray:
        """Read-only ``(n, w + 1)`` leading columns of ``entries`` sorted row by row, computed on first access."""
        values = np.sort(self.entries, axis=1)[:, : self.order.shape[1] + 1].copy()
        values.setflags(write=False)
        return values


@dataclass(frozen=True)
class FtEstimate:
    """Estimated functional value with the weights achieving it."""

    value: float
    weights: SimplexWeights
    objective_trace: np.ndarray
    method: str  # "subgradient" (optimized weights) | "uniform" | "oracle"

    def __post_init__(self):
        if not self.value >= 0.0:
            raise ValueError(f"estimate must be nonnegative, got {self.value}")
        object.__setattr__(self, "objective_trace", np.asarray(self.objective_trace, dtype=np.float64))


@dataclass(frozen=True)
class SubgradientOptions:
    """Settings for the smoothed-max gradient minimizer.

    Each restart runs ``iterations`` gradient steps.  The first starts from
    zero logits (uniform weights); the remaining ``restarts - 1`` use
    standard-normal logits drawn from streams derived from ``seed``.  The
    best objective value ever seen (across iterations and restarts, and
    including uniform weights) is returned.
    """

    iterations: int = 200
    restarts: int = 1
    seed: int = 0
    dtype: str = "float64"

    def __post_init__(self):
        if self.iterations < 1 or self.restarts < 1:
            raise ValueError("iterations and restarts must be >= 1")
        if self.dtype not in ("float64", "float32"):
            raise ValueError(f"dtype must be float64 or float32, got {self.dtype}")
        Seed(self.seed)  # raises on a seed outside the 64-bit unsigned range


DEFAULT_OPTIONS = SubgradientOptions()


def _anchor_integrals(seg, idx, p, q, c, r) -> np.ndarray:
    """Unnormalized per-anchor integrals at weights ``p``, in ``seg``'s dtype; shape (n,).

    ``seg`` and ``idx`` are a ``TruncatedGram``'s segments and flattened
    ``order``.  The sorted masses land in ``q``, the clipped
    cumulative masses in ``c`` and ``sqrt(-log c)`` in ``r``.  Each stage
    works in place, so one buffer can serve as all three when nothing
    reads them afterwards.
    """
    # mode="clip" writes straight into ``out`` (the default mode buffers it); ``idx`` is in range.
    np.take(p.astype(q.dtype, copy=False), idx, out=q.reshape(-1), mode="clip")
    np.cumsum(q, axis=1, out=c)
    np.clip(c, max(MASS_FLOOR, np.finfo(c.dtype).tiny), 1.0, out=c)
    np.log(c, out=r)
    np.abs(r, out=r)
    np.sqrt(r, out=r)
    return np.einsum("ij,ij->i", seg, r)


class _Workspace:
    """Anchor integrals and their smoothed-max gradient for one Gram, in one dtype.

    Holds three ``(n, w)`` work buffers that every call overwrites, so an
    iteration allocates only length-``n`` vectors and, in float32, one
    float64 chunk of ``core._DIFF_BUDGET`` elements for the gradient's
    scatter.  ``integrals`` leaves the sorted masses, cumulative masses and
    ``sqrt(-log c)`` in them for ``gradient`` to reuse at the same weights.
    """

    def __init__(self, gram: TruncatedGram, dtype: str = "float64"):
        self.seg = gram.segments.astype(dtype, copy=False)
        self.rho = gram.rho
        self.idx = gram.order.reshape(-1)
        self.q = np.empty_like(self.seg)
        self.c = np.empty_like(self.seg)
        self.r = np.empty_like(self.seg)

    def integrals(self, p: np.ndarray) -> np.ndarray:
        """Per-anchor integrals over ``rho`` at weights ``p``; float64, shape (n,)."""
        return _anchor_integrals(self.seg, self.idx, p, self.q, self.c, self.r).astype(np.float64) / self.rho

    def gradient(self, p: np.ndarray, f: np.ndarray, mu: float) -> tuple[np.ndarray, float]:
        """Gradient in logits ``z`` (``p = softmax(z)``) of ``mu * logsumexp(f / mu)``.

        ``f`` must come from ``integrals(p)``, the call just before.  Also
        returns ``L = sum_i lambda_i |grad_z f_i|^2`` with ``lambda =
        softmax(f / mu)``, the curvature scale of the smoothed max.
        """
        q, c, r = self.q, self.c, self.r
        lam = _softmax(f / mu)
        # d/dc sqrt(-log c) = -1 / (2 c sqrt(-log c)); fold -1/(2 rho) into the weights.
        scale = -0.5 / self.rho
        np.maximum(r, _SQRT_LOG_FLOOR, out=r)
        np.multiply(c, r, out=r)
        np.divide(self.seg, r, out=c)
        np.cumsum(c[:, ::-1], axis=1, out=r[:, ::-1])
        # Row i's squared norm over scale^2: sum q^2 R^2 - 2 a sum q^2 R + a^2 |p|^2, a = sum q R.
        np.multiply(q, r, out=c)
        a = c.sum(axis=1, dtype=np.float64)
        np.multiply(c, q, out=c)
        b = c.sum(axis=1, dtype=np.float64)
        np.multiply(c, r, out=c)
        d = c.sum(axis=1, dtype=np.float64)
        curvature = scale * scale * float(lam @ (d - 2.0 * a * b + a * a * (p @ p)))
        np.multiply(r, (scale * lam).astype(r.dtype)[:, None], out=r)
        weights = r.reshape(-1)
        if weights.dtype == np.float64:
            g = np.bincount(self.idx, weights=weights, minlength=p.size)
        else:
            # bincount would cast all n*w weights to one float64 copy.  np.add.at
            # adds in the same index order, so g is bitwise the same.
            g = np.zeros(p.size)
            for start in range(0, weights.size, _DIFF_BUDGET):
                chunk = slice(start, start + _DIFF_BUDGET)
                np.add.at(g, self.idx[chunk], weights[chunk].astype(np.float64))
        return p * (g - float(p @ g)), curvature


def ft_objective(gram: TruncatedGram, weights: SimplexWeights | np.ndarray) -> float:
    """Objective value at a fixed weight vector: max over anchors, over rho.

    Exact for the atomic measure (the ball-mass map r -> p(B_r(w_i)) is a
    step function); masses are clipped below at ``MASS_FLOOR`` before logs,
    so weight vectors with (near-)zero mass on isolated points evaluate to a
    large finite value rather than infinity.
    """
    p = weights.weights if isinstance(weights, SimplexWeights) else np.asarray(weights, dtype=np.float64)
    if p.shape != (gram.n,):
        raise ValueError(f"weights have length {p.shape}, gram has {gram.n} points")
    buf = np.empty_like(gram.segments)
    vals = _anchor_integrals(gram.segments, gram.order.reshape(-1), p, buf, buf, buf)
    return float(vals.max()) / gram.rho


def _softmax(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max())
    return e / e.sum()


def _minimize_restart(gram: TruncatedGram, z0: np.ndarray, options: SubgradientOptions):
    """Accelerated gradient descent from logits ``z0`` on the smoothed max ``mu * logsumexp(f / mu)``.

    ``f`` are the anchor integrals over ``rho``, and ``mu`` falls
    geometrically from ``_MU_START`` to ``_MU_END`` (Nesterov 2005).
    Iteration ``k`` evaluates at the momentum point ``y = z + k/(k+3) (z -
    z_prev)`` and steps from ``y`` by ``2 mu / L`` times the full gradient
    there, ``L`` as in ``_Workspace.gradient``.  The momentum is never reset:
    resetting it when the objective rises breaks the exact symmetries by
    about 1e-6.  The objective ``max f`` at every ``y`` enters the trace,
    and the best of them is returned.
    """
    work = _Workspace(gram, options.dtype)
    z = z_prev = z0.astype(np.float64)
    best_val = np.inf
    best_p = None
    iterations = options.iterations
    trace = np.empty(iterations + 1)
    mus = _MU_START * (_MU_END / _MU_START) ** (np.arange(iterations) / max(iterations - 1, 1))
    for t in range(iterations + 1):
        y = z + (t / (t + 3)) * (z - z_prev)
        p = _softmax(y)
        f = work.integrals(p)
        obj = float(f.max())
        trace[t] = obj
        if obj < best_val:
            best_val = obj
            best_p = p
        if t == iterations:
            break
        gz, curvature = work.gradient(p, f, mus[t])
        # curvature is 0 only when no integral depends on the weights.  The
        # factor 2 keeps rounding noise at 1e-15 under the exact symmetries;
        # from about 6 on, the iteration amplifies it.
        z_prev, z = z, y
        if curvature > 0.0:
            z = y - (2.0 * mus[t] / curvature) * gz
            z -= z.max()
    return best_val, best_p, trace


def estimate_gamma2(w, rho: float | None = None, *, options: SubgradientOptions | None = None) -> FtEstimate:
    """Minimize the objective over the simplex; deterministic given the seed.

    Returns the better of the optimized weights and uniform weights, so the
    estimate never exceeds the uniform-weights objective (and hence never
    exceeds ``sqrt(log n)``).  The value is the float64 ``ft_objective`` of
    the returned weights, also when the descent evaluates in float32.
    """
    options = options or DEFAULT_OPTIONS
    pts = w.points if isinstance(w, Trajectory) else Trajectory(w).points
    rho = resolve_rho(rho)
    n = pts.shape[0]
    if n == 1:
        return FtEstimate(0.0, SimplexWeights.uniform(1), np.zeros(0), "uniform")
    gram = TruncatedGram.from_points(pts, rho)
    uniform = SimplexWeights.uniform(n)
    uniform_val = ft_objective(gram, uniform)

    best_val = np.inf
    best_p = None
    best_trace = np.zeros(0)
    for r in range(options.restarts):
        if r == 0:
            z0 = np.zeros(n)
        else:
            z0 = Seed(options.seed).spawn(r).generator().standard_normal(n)
        val, p, trace = _minimize_restart(gram, z0, options)
        if val < best_val:
            best_val, best_p, best_trace = val, p, trace

    best = uniform if best_p is None else SimplexWeights(best_p)
    best_val = ft_objective(gram, best)
    if uniform_val <= best_val:
        return FtEstimate(uniform_val, uniform, best_trace, "uniform")
    return FtEstimate(best_val, best, best_trace, "subgradient")


def _concat_aranges(lengths: np.ndarray) -> np.ndarray:
    """Concatenation of arange(l) for each l in ``lengths``."""
    total = int(lengths.sum())
    starts = np.repeat(np.cumsum(lengths) - lengths, lengths)
    return np.arange(total, dtype=np.int64) - starts


@lru_cache(maxsize=4)
def _simplex_grid(q: int, parts: int) -> np.ndarray:
    """All nonnegative integer vectors of length ``parts`` summing to ``q``."""
    if parts == 1:
        return np.array([[q]], dtype=np.int64)
    if parts == 2:
        j = np.arange(q + 1, dtype=np.int64)
        return np.column_stack([j, q - j])
    if parts == 3:
        lengths = np.arange(q + 1, 0, -1, dtype=np.int64)
        first = np.repeat(np.arange(q + 1, dtype=np.int64), lengths)
        second = _concat_aranges(lengths)
        return np.column_stack([first, second, q - first - second])
    blocks = []
    for first in range(q + 1):
        rest = _simplex_grid(q - first, parts - 1)
        blocks.append(np.hstack([np.full((rest.shape[0], 1), first, dtype=np.int64), rest]))
    return np.vstack(blocks)


def brute_force_gamma2(w, rho: float | None = None, grid_resolution: int = 200) -> FtEstimate:
    """Exhaustive minimum over simplex vectors with coordinates k/q.

    Cumulative masses on the grid only take values k/q, so the integrand is
    evaluated through a precomputed table, exactly matching the clipped-log
    convention of :func:`ft_objective`.  Only feasible for very small point
    sets; refuses n > 6.
    """
    pts = w.points if isinstance(w, Trajectory) else Trajectory(w).points
    n = pts.shape[0]
    if n > BRUTE_FORCE_MAX_POINTS:
        raise ValueError(f"brute force supports at most {BRUTE_FORCE_MAX_POINTS} points, got {n}")
    if grid_resolution < 1:
        raise ValueError("grid_resolution must be >= 1")
    rho = resolve_rho(rho)
    if n == 1:
        return FtEstimate(0.0, SimplexWeights.uniform(1), np.zeros(0), "oracle")
    q = grid_resolution
    gram = TruncatedGram.from_points(pts, rho)
    grid = _simplex_grid(q, n)
    masses = np.clip(np.arange(q + 1, dtype=np.float64) / q, MASS_FLOOR, 1.0)
    table = np.sqrt(np.abs(np.log(masses)))
    best_val = np.inf
    best_row = None
    for start in range(0, grid.shape[0], _BATCH_ROWS):
        chunk = grid[start : start + _BATCH_ROWS]
        vals = np.full(chunk.shape[0], -np.inf)
        for i in range(n):
            cum = np.cumsum(chunk[:, gram.order[i]], axis=1)
            np.maximum(vals, np.take(table, cum) @ gram.segments[i], out=vals)
        k = int(np.argmin(vals))
        if vals[k] < best_val:
            best_val = float(vals[k])
            best_row = chunk[k].astype(np.float64) / q
    return FtEstimate(best_val / rho, SimplexWeights(best_row), np.array([best_val / rho]), "oracle")
