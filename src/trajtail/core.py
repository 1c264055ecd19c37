"""Shared domain types, trajectory ingestion and derivation utilities.

Everything here is immutable after construction and safe to share across
threads; the operations are pure functions of their inputs.
"""

from __future__ import annotations

import io
import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import BinaryIO, Callable, Sequence

import numpy as np

__all__ = [
    "DataError",
    "Seed",
    "Trajectory",
    "SimplexWeights",
    "RadiusGrid",
    "RunningStdNormalization",
    "pairwise_distances",
    "load_trajectory",
    "save_trajectory",
    "increments",
    "step_norms",
    "check_finite",
    "normalize_by_running_std",
]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# Weight vectors must sum to one within this slack.
SIMPLEX_TOL = 1e-9
# Element cap on the coordinate differences ``pairwise_distances`` holds at once.
_DIFF_BUDGET = 1 << 16
# Bytes of the first block a trailing read takes from the end of a file; each next block doubles.
_TAIL_BLOCK = 1 << 16


class DataError(Exception):
    """A failure caused by the input data, not by how the call was made.

    Malformed files, too few samples, degenerate inputs and values outside the
    float64 range raise this; the CLI maps it to exit code 1.  Argument-contract
    violations raise plain ``ValueError`` instead (exit code 2).
    """


def _splitmix64(x: int) -> int:
    """SplitMix64 avalanche finalizer; maps 64-bit ints to 64-bit ints."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


@dataclass(frozen=True)
class Seed:
    """Deterministic randomness root.

    Replicate ``i`` of a run seeded with ``base`` draws from the stream seeded
    by ``_splitmix64(base + (i + 1) * GOLDEN)``, i.e. the ``(i+1)``-th output
    of a SplitMix64 sequence started at ``base``.  The same ``(base, i)``
    always yields the same stream, independent of thread scheduling.
    """

    base: int

    def __post_init__(self):
        if not 0 <= int(self.base) <= _MASK64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.base}")
        object.__setattr__(self, "base", int(self.base))

    def spawn(self, *indices: int) -> "Seed":
        """Derive a child seed from one or more replicate/grid indices."""
        value = self.base
        for i in indices:
            if i < 0:
                raise ValueError("derivation indices must be nonnegative")
            value = _splitmix64((value + (int(i) + 1) * _GOLDEN) & _MASK64)
        return Seed(value)

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.PCG64(self.base))


def _freeze(arr: np.ndarray) -> np.ndarray:
    # always copy so freezing never locks a caller-owned array
    arr = np.array(arr, dtype=np.float64, order="C", copy=True)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Trajectory:
    """Ordered sequence of iterates in R^D.

    ``points`` has shape ``(m + 1, D)``; entries must be finite.
    """

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2:
            raise ValueError(f"points must be a 2-d array, got ndim={pts.ndim}")
        if pts.shape[0] < 1 or pts.shape[1] < 1:
            raise ValueError(f"trajectory needs >= 1 point of dimension >= 1, got shape {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("trajectory contains non-finite coordinates")
        object.__setattr__(self, "points", _freeze(pts))

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @cached_property
    def distances(self) -> np.ndarray:
        """Read-only ``(n, n)`` matrix of :func:`pairwise_distances`, computed on first use."""
        dist = pairwise_distances(self.points)
        dist.setflags(write=False)
        return dist

    def pair_distances(self) -> np.ndarray:
        """Distances of the pairs ``i < j`` in row-major order: the upper triangle of ``distances``."""
        return self.distances[~np.tri(len(self), dtype=bool)]


def pairwise_distances(points: np.ndarray) -> np.ndarray:
    """Euclidean distances between the rows of ``points``, shape ``(n, n)``.

    Row ``i`` is computed against the rows after it and mirrored into column
    ``i``, so the matrix is exactly symmetric with a zero diagonal, and
    duplicate rows are exactly 0 apart.  The differences are taken in chunks
    of at most ``_DIFF_BUDGET`` elements, never ``n * D`` or ``n * n * D`` at
    once.  Distances too large for float64 are ``inf``, without a warning.
    """
    pts = np.ascontiguousarray(points, dtype=np.float64)
    n, dim = pts.shape
    dist = np.zeros((n, n))
    chunk = max(1, _DIFF_BUDGET // dim)
    scratch = np.empty((min(chunk, max(n - 1, 0)), dim))
    with np.errstate(over="ignore"):
        for i in range(n - 1):
            for j0 in range(i + 1, n, chunk):
                j1 = min(j0 + chunk, n)
                diff = scratch[: j1 - j0]
                np.subtract(pts[j0:j1], pts[i], out=diff)
                row = np.einsum("ij,ij->i", diff, diff)
                np.sqrt(row, out=row)
                dist[i, j0:j1] = row
                dist[j0:j1, i] = row
    return dist


@dataclass(frozen=True)
class SimplexWeights:
    """Probability vector over trajectory points."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64).ravel()
        if w.size < 1:
            raise ValueError("weights must be nonempty")
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")
        if abs(w.sum() - 1.0) > SIMPLEX_TOL:
            raise ValueError(f"weights must sum to 1 within {SIMPLEX_TOL}, got {w.sum()!r}")
        object.__setattr__(self, "weights", _freeze(w))

    def __len__(self) -> int:
        return self.weights.size

    @classmethod
    def uniform(cls, n: int) -> "SimplexWeights":
        return cls(np.full(n, 1.0 / n))


@dataclass(frozen=True)
class RadiusGrid:
    """Strictly increasing, positive and finite radii."""

    radii: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.radii, dtype=np.float64).ravel()
        if r.size < 1:
            raise ValueError("radius grid must be nonempty")
        if np.any(r <= 0) or not np.all(np.isfinite(r)):
            raise ValueError("radii must be positive and finite")
        if np.any(np.diff(r) <= 0):
            raise ValueError("radii must be strictly increasing")
        object.__setattr__(self, "radii", _freeze(r))

    def __len__(self) -> int:
        return self.radii.size

    @classmethod
    def from_quantiles(cls, values: Sequence[float], levels: Sequence[float]) -> "RadiusGrid":
        """Grid at empirical quantiles of positive ``values`` (duplicates dropped)."""
        vals = np.asarray(values, dtype=np.float64)
        check_finite(vals, "values")
        vals = vals[vals > 0]
        if vals.size == 0:
            raise DataError("no positive values to take quantiles of")
        radii = np.unique(np.quantile(vals, np.asarray(levels)))
        radii = radii[radii > 0]
        if radii.size == 0:
            raise DataError("quantile grid collapsed to zero radii")
        return cls(radii)


def _window_slope(radii: RadiusGrid, values: np.ndarray, usable: np.ndarray, what: str) -> float:
    """Least-squares slope of log ``values`` against log radius over the ``usable`` grid points, at least 5.

    ``what`` names the window in the :class:`DataError` raised when fewer are usable.
    """
    count = int(usable.sum())
    if count < 5:
        raise DataError(f"only {count} grid points with {what} (need 5)")
    return float(np.polyfit(np.log(radii.radii[usable]), np.log(values[usable]), 1)[0])


def load_trajectory(path: str | Path, has_header: bool = False, last: int | None = None) -> Trajectory:
    """Read a trajectory from CSV: one iterate per row, D numeric columns.

    Raises :class:`DataError` on ragged rows, non-UTF-8, non-numeric or
    non-finite cells (each naming the line) and when no data rows remain.

    With ``last``, only the file's last ``last`` data lines are read (all of
    them when it has fewer): the file is read backwards in growing blocks, so
    the cost does not grow with the lines before them, and nothing in those
    lines is checked.  The header line counts only when the read reaches it.

    Lines split at ``\\n``, ``\\r`` and ``\\r\\n``, as in text mode.
    ``np.loadtxt`` parses them first; its result is kept only when it has one
    finite row per line, which is exactly what the line-by-line reader would
    return.  Anything else (blank, ragged or unparsable rows, non-finite
    cells, no data) goes to the line-by-line reader, which defines what is
    accepted and names the offending line by its number in the file.
    """
    path = Path(path)
    if last is None:
        lines = _text_lines(path.open("rb"))[int(has_header) :]
    elif last < 1:
        raise ValueError(f"last must be a positive line count, got {last}")
    else:
        lines = _read_last_lines(path, last, has_header)
    if lines:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
                points = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            points = None
        if points is not None and points.shape[0] == len(lines) and np.isfinite(points).all():
            return Trajectory(points)
    return _parse_lines(path, lines, lambda: len(_text_lines(path.open("rb"))) - len(lines))


def _text_lines(stream: BinaryIO) -> list[str]:
    """The lines of ``stream`` as text mode splits them, at ``\\n``, ``\\r`` or ``\\r\\n``, without their ends.

    Bytes are decoded as UTF-8.  One that is not becomes a lone surrogate
    (``surrogateescape``), which no parser reads as a number and
    :func:`_parse_lines` names.  Closes ``stream``.
    """
    with io.TextIOWrapper(stream, encoding="utf-8", errors="surrogateescape", newline="") as text:
        return [line.rstrip("\r\n") for line in text]


def _line_ends(data: bytes) -> int:
    """Line ends in ``data``: ``\\n``, ``\\r`` and ``\\r\\n`` each count once."""
    if b"\r" not in data:
        return data.count(b"\n")
    return data.count(b"\n") + data.count(b"\r") - data.count(b"\r\n")


def _read_last_lines(path: Path, last: int, has_header: bool) -> list[str]:
    """The last ``last`` data lines of ``path`` (all when it has fewer), read from its end."""
    with path.open("rb") as handle:
        pos = handle.seek(0, io.SEEK_END)
        data = b""
        block = _TAIL_BLOCK
        while pos > 0:
            step = min(block, pos)
            pos -= step
            handle.seek(pos)
            data = handle.read(step) + data
            # the complete lines are those after the first line end; the last of them may lack one
            if _line_ends(data) - data.endswith((b"\n", b"\r")) >= last:
                break
            block *= 2
    lines = _text_lines(io.BytesIO(data))
    if pos == 0 and has_header:
        del lines[:1]
    # with pos > 0, lines[0] may start before the bytes read (or be the "\n" of a
    # "\r\n"), but at least `last` complete lines follow it
    return lines[-last:]


def _load_trajectory_lines(path: Path, has_header: bool) -> Trajectory:
    """The reference reader behind :func:`load_trajectory`: every line through :func:`_parse_lines`."""
    return _parse_lines(path, _text_lines(path.open("rb"))[int(has_header) :], lambda: int(has_header))


def _parse_lines(path: Path, lines: list[str], lines_before: Callable[[], int]) -> Trajectory:
    """The line-by-line reader: each cell through ``float``.

    ``lines_before()`` counts the file's lines before ``lines[0]``; it is
    called only to name a bad line.
    """

    def line(index: int) -> str:
        return f"{path}: line {lines_before() + index + 1}"

    rows: list[list[float]] = []
    width: int | None = None
    for index, text in enumerate(lines):
        try:
            text.encode("utf-8")
        except UnicodeEncodeError as exc:
            byte = ord(text[exc.start]) - 0xDC00  # where surrogateescape put it
            raise DataError(f"{line(index)}: byte 0x{byte:02x} is not UTF-8") from None
        cells = text.split(",")
        if cells == [""]:
            raise DataError(f"{line(index)}: blank row")
        if width is None:
            width = len(cells)
        elif len(cells) != width:
            raise DataError(f"{line(index)}: expected {width} columns, got {len(cells)}")
        try:
            rows.append([float(c) for c in cells])
        except ValueError as exc:
            raise DataError(f"{line(index)}: {exc}") from None
    if not rows:
        raise DataError(f"{path}: no data rows")
    points = np.asarray(rows)
    bad = np.flatnonzero(~np.isfinite(points).all(axis=1))
    if bad.size:
        # blank rows raise above, so data row i is lines[i]
        raise DataError(f"{line(int(bad[0]))}: non-finite coordinate")
    return Trajectory(points)


def save_trajectory(trajectory: Trajectory, path: str | Path) -> Path:
    """Write CSV with 17 significant digits so load/save round-trips exactly."""
    path = Path(path)
    with path.open("w", newline="") as handle:
        np.savetxt(handle, trajectory.points, fmt="%.17g", delimiter=",")
    return path


def increments(trajectory: Trajectory, lag: int = 1) -> np.ndarray:
    """Read-only ``(len - lag, D)`` array of the steps ``points[j + lag] - points[j]``; requires ``lag < len``."""
    if lag < 1:
        raise ValueError(f"lag must be a positive integer, got {lag}")
    if lag >= len(trajectory):
        raise DataError(f"lag {lag} must be smaller than trajectory length {len(trajectory)}")
    pts = trajectory.points
    with np.errstate(over="ignore"):  # steps too large for float64 are inf
        deltas = pts[lag:] - pts[:-lag]
    deltas.setflags(write=False)
    return deltas


def step_norms(trajectory: Trajectory, lag: int = 1) -> np.ndarray:
    """Euclidean norms of the lag-``lag`` steps; a norm too large for float64 is inf, without a warning.

    Each step is scaled by the power of two that brings its largest absolute
    coordinate into [0.5, 1) before squaring, and its norm scaled back, so no
    square overflows or underflows: the norms are right at every scale, and
    bitwise the unscaled ones wherever those squares are normal floats.
    """
    steps = increments(trajectory, lag)
    _, exponent = np.frexp(np.abs(steps).max(axis=1))
    with np.errstate(over="ignore"):
        return np.ldexp(np.linalg.norm(np.ldexp(steps, -exponent[:, None]), axis=1), exponent)


def check_finite(values: np.ndarray, what: str) -> None:
    """Raise :class:`DataError` counting the non-finite ``values``, which overflowed float64."""
    overflowed = int(np.count_nonzero(~np.isfinite(values)))
    if overflowed:
        raise DataError(f"{overflowed} of {values.size} {what} are non-finite (overflowed float64)")


@dataclass(frozen=True)
class RunningStdNormalization:
    """Result of prefix-standard-deviation normalization.

    ``first_scaled_index`` is the first index whose own prefix std scales it;
    earlier points are divided by that index's std.  Coordinates that never
    vary are listed in ``degenerate_axes`` and left unscaled throughout.
    """

    trajectory: Trajectory
    first_scaled_index: int
    degenerate_axes: tuple[int, ...]


def normalize_by_running_std(trajectory: Trajectory) -> RunningStdNormalization:
    """Divide iterate k coordinate-wise by the std of iterates 0..k.

    The variance sum is divided by ``k + 1`` (the population convention).
    Each iterate from the first index where every varying coordinate has
    positive prefix std is divided by its own prefix std, and the iterates
    before it by that index's, so no varying axis keeps raw units.  A fully
    constant trajectory, a single point among them, is returned unscaled with
    all axes flagged.  Deviations from the first iterate too large for float64
    raise :class:`DataError`.

    The prefix sums run on the iterates centered at the first one: variance is
    shift-invariant, and a prefix that contains the center has mean square at
    most ``k + 2`` times its variance, so ``E[x^2] - E[x]^2`` keeps its
    precision however far the iterates sit from the origin.  Each axis is
    summed in units of the power of two that brings its largest centered
    value into [0.5, 1), so no square overflows or underflows: the result is
    the same at every power-of-two scale, and bitwise the unscaled sums'
    wherever those squares are normal floats.
    """
    pts = trajectory.points
    n, dim = pts.shape
    counts = np.arange(1, n + 1, dtype=np.float64)[:, None]
    with np.errstate(over="ignore"):
        centered = pts - pts[0]
    check_finite(centered, "deviations from the first iterate")
    _, exponent = np.frexp(np.abs(centered).max(axis=0))
    units = np.ldexp(centered, -exponent)
    cum = np.cumsum(units, axis=0)
    cum2 = np.cumsum(units * units, axis=0)
    var = cum2 / counts - (cum / counts) ** 2
    sd = np.ldexp(np.sqrt(np.clip(var, 0.0, None)), exponent)

    varying = sd[-1] > 0.0
    degenerate_axes = tuple(int(i) for i in np.nonzero(~varying)[0])
    if not varying.any():
        return RunningStdNormalization(trajectory, n, degenerate_axes)

    positive_from = np.argmax(sd[:, varying] > 0.0, axis=0)
    k0 = int(positive_from.max())
    sd[:k0] = sd[k0]
    scaled = pts.copy()
    cols = np.nonzero(varying)[0]
    scaled[:, cols] = pts[:, cols] / sd[:, cols]
    return RunningStdNormalization(Trajectory(scaled), k0, degenerate_axes)
