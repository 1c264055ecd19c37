import contextlib
import io
import re
import statistics
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import pdist

from trajtail import core
from trajtail.core import (
    RadiusGrid,
    Seed,
    SimplexWeights,
    Trajectory,
    _load_trajectory_lines,
    increments,
    load_trajectory,
    normalize_by_running_std,
    pairwise_distances,
    save_trajectory,
)
from trajtail.errors import (
    DegenerateDataError,
    EmptyInputError,
    InsufficientDataError,
    TrajectoryFormatError,
    TrajectoryParseError,
)
from trajtail.simulate import ProcessSpec, simulate

finite_coords = st.floats(min_value=-1e12, max_value=1e12, allow_nan=False, allow_infinity=False)


class TestSeed:
    def test_same_indices_same_stream(self):
        a = Seed(42).spawn(3).generator().standard_normal(5)
        b = Seed(42).spawn(3).generator().standard_normal(5)
        np.testing.assert_array_equal(a, b)

    def test_different_indices_differ(self):
        assert Seed(42).spawn(0).base != Seed(42).spawn(1).base
        assert Seed(42).spawn(0, 1).base != Seed(42).spawn(1, 0).base

    def test_validation(self):
        with pytest.raises(ValueError):
            Seed(-1)
        with pytest.raises(ValueError):
            Seed(0).spawn(-2)


class TestLoadSave:
    def test_zero_matrix(self, tmp_path):
        path = tmp_path / "z.csv"
        path.write_text("0,0\n0,0\n0,0\n")
        t = load_trajectory(path)
        assert len(t) == 3 and t.dim == 2
        np.testing.assert_array_equal(t.points, np.zeros((3, 2)))

    def test_ragged_row_names_line(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("1,2\n3\n")
        with pytest.raises(TrajectoryFormatError, match="line 2"):
            load_trajectory(path)

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("1,2\n3,x\n")
        with pytest.raises(TrajectoryParseError, match="line 2"):
            load_trajectory(path)

    @pytest.mark.parametrize(
        "text, has_header, line", [("1,2\n3,nan\n", False, 2), ("x,y\n1,2\n0,0\n-inf,1\n", True, 4)]
    )
    def test_non_finite_cell_names_line(self, tmp_path, text, has_header, line):
        path = tmp_path / "f.csv"
        path.write_text(text)
        with pytest.raises(TrajectoryParseError, match=f"line {line}: non-finite"):
            load_trajectory(path, has_header=has_header)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("")
        with pytest.raises(EmptyInputError):
            load_trajectory(path)

    def test_header_skipped(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("x,y\n1,2\n")
        t = load_trajectory(path, has_header=True)
        assert len(t) == 1
        np.testing.assert_array_equal(t.points, [[1.0, 2.0]])

    def test_simulator_round_trip(self, tmp_path):
        spec = ProcessSpec("beta_prime_walk", dim=2, steps=200, seed=7)
        t = simulate(spec)
        assert len(t) == 201
        path = save_trajectory(t, tmp_path / "bp.csv")
        back = load_trajectory(path)
        np.testing.assert_array_equal(back.points, t.points)

    def test_saved_bytes(self, tmp_path):
        t = Trajectory(np.array([[-0.0, 1e-320, 1e300], [0.1, -2.5, 3.0]]))
        path = save_trajectory(t, tmp_path / "t.csv")
        assert path.read_bytes() == b"-0,9.9998886718268301e-321,1.0000000000000001e+300\n0.10000000000000001,-2.5,3\n"

    @settings(max_examples=50, deadline=None)
    @given(rows=st.lists(st.lists(finite_coords, min_size=3, max_size=3), min_size=1, max_size=8))
    def test_round_trip_is_identity(self, rows, tmp_path_factory):
        t = Trajectory(np.asarray(rows))
        path = tmp_path_factory.mktemp("rt") / "t.csv"
        save_trajectory(t, path)
        np.testing.assert_array_equal(load_trajectory(path).points, t.points)


def _finite_text(x: float, style: str) -> str:
    return {"repr": repr(x), "g17": "%.17g" % x, "int": str(int(x)), "spaced": f" {x!r} "}[style]


# Cells the line-by-line reader accepts (``float`` strips spaces, reads "1_0" and
# full-width digits) next to cells it rejects or reads as non-finite.
_ODD_CELLS = ("1_0", "\uff11", "nan", "inf", "-inf", "", "x", " 1.5 ", "1e500")


@st.composite
def _csv_files(draw):
    """CSV text that is valid, or broken in one of the ways a loader has to name."""
    width = draw(st.integers(1, 4))
    odd = draw(st.booleans())
    finite = st.builds(
        _finite_text, st.floats(-1e12, 1e12, allow_nan=False), st.sampled_from(["repr", "g17", "int", "spaced"])
    )
    cell = st.one_of(finite, st.sampled_from(_ODD_CELLS)) if odd else finite
    row = st.lists(cell, min_size=width, max_size=width)
    if draw(st.booleans()):  # ragged rows and blank lines
        row = st.one_of(row, st.lists(cell, min_size=0, max_size=5))
    rows = [",".join(r) for r in draw(st.lists(row, max_size=6))]
    if draw(st.booleans()):
        rows.insert(0, ",".join(f"c{i}" for i in range(width)))  # a header line
    endings = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(rows), max_size=len(rows)))
    text = "".join(r + e for r, e in zip(rows, endings))
    if rows and draw(st.booleans()):
        text = text.rstrip("\r\n")  # no final newline
    return text


def _load_outcome(loader, path, has_header):
    try:
        points = loader(path, has_header).points
    except Exception as exc:  # the exception itself is the outcome compared
        return type(exc), str(exc)
    return points.shape, points.tobytes()


class TestLoaderMatchesLineReader:
    @settings(max_examples=300, deadline=None)
    @given(text=_csv_files(), has_header=st.booleans())
    @example(text="", has_header=False)
    @example(text="", has_header=True)
    @example(text="x,y\n", has_header=True)
    @example(text="x,y", has_header=True)
    @example(text="1,2\n\n3,4\n", has_header=False)
    @example(text="1,2\r\n3,4", has_header=False)
    @example(text="\n\n", has_header=False)
    def test_same_points_or_same_error(self, tmp_path_factory, text, has_header):
        """``load_trajectory`` returns what the line-by-line reader returns, or raises what it raises, silently."""
        path = tmp_path_factory.mktemp("csv") / "t.csv"
        path.write_bytes(text.encode())
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            fast = _load_outcome(load_trajectory, path, has_header)
        assert fast == _load_outcome(_load_trajectory_lines, path, has_header)
        assert not caught and err.getvalue() == ""


def _tail_outcome(text: str, has_header: bool, last: int, where, path):
    """What the line-by-line reader gives on ``path``, a file of only the last ``last`` data lines of ``text``.

    An error is given as it would read for the whole file at ``where``: its
    path and line number shifted by the lines before the tail.
    """
    lines = list(io.StringIO(text, newline=""))  # text mode's split, ends kept
    tail = lines[int(has_header) :][-last:]
    before = len(lines) - len(tail)
    path.write_bytes("".join(tail).encode())
    kind, detail = _load_outcome(_load_trajectory_lines, path, False)
    if isinstance(kind, type):
        detail = detail.replace(str(path), str(where))
        detail = re.sub(r": line (\d+):", lambda m: f": line {int(m.group(1)) + before}:", detail, count=1)
    return kind, detail


class TestTrailingRead:
    """``load_trajectory(path, has_header, last=k)`` reads the last ``k`` data lines as if they were the file."""

    @settings(max_examples=300, deadline=None)
    @given(
        text=_csv_files(),
        has_header=st.booleans(),
        last=st.integers(1, 9),
        block=st.one_of(st.integers(1, 24), st.just(core._TAIL_BLOCK)),
    )
    @example(text="", has_header=False, last=1, block=1)
    @example(text="x,y\n", has_header=True, last=1, block=1)
    @example(text="x,y", has_header=True, last=2, block=3)
    @example(text="1,2\r\n3,4\r\n", has_header=False, last=1, block=1)
    def test_same_as_tail_file(self, tmp_path_factory, text, has_header, last, block):
        path = tmp_path_factory.mktemp("csv") / "t.csv"
        path.write_bytes(text.encode())
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            with mock.patch.object(core, "_TAIL_BLOCK", block):
                got = _load_outcome(lambda p, h: load_trajectory(p, h, last=last), path, has_header)
        assert got == _tail_outcome(text, has_header, last, path, tmp_path_factory.mktemp("tail") / "t.csv")
        assert not caught and err.getvalue() == ""

    @pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"])
    def test_every_block_boundary(self, tmp_path, ending):
        """Blocks of every size, so that one starts inside each line and between the two bytes of each ``\\r\\n``."""
        text = "".join(f"{i},{-i}.5{ending}" for i in range(6))
        path = tmp_path / "b.csv"
        path.write_bytes(text.encode())
        full = load_trajectory(path).points
        for block in range(1, len(text) + 2):
            with mock.patch.object(core, "_TAIL_BLOCK", block):
                for last in range(1, 8):
                    got = load_trajectory(path, last=last).points
                    assert got.tobytes() == full[-last:].tobytes(), (block, last)

    def test_tail_longer_than_first_block(self, tmp_path):
        t = simulate(ProcessSpec("gaussian_walk", dim=300, steps=400, seed=3))
        path = save_trajectory(t, tmp_path / "wide.csv")
        assert 201 * len(path.read_bytes()) // len(t) > 4 * core._TAIL_BLOCK
        got = load_trajectory(path, last=201).points
        assert got.tobytes() == t.points[-201:].tobytes()

    @pytest.mark.parametrize("has_header", [False, True])
    @pytest.mark.parametrize("extra", [0, 1, 5])
    def test_last_at_and_past_the_row_count(self, tmp_path, has_header, extra):
        path = tmp_path / "s.csv"
        path.write_text("a,b\n" * has_header + "1,2\n3,4\n5,6\n")
        got = load_trajectory(path, has_header, last=3 + extra).points
        np.testing.assert_array_equal(got, [[1, 2], [3, 4], [5, 6]])

    @pytest.mark.parametrize("text, has_header", [("", False), ("", True), ("a,b\n", True), ("a,b", True)])
    def test_no_data_rows(self, tmp_path, text, has_header):
        path = tmp_path / "e.csv"
        path.write_text(text)
        with pytest.raises(EmptyInputError):
            load_trajectory(path, has_header, last=1)

    def test_rows_before_the_tail_are_not_read(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"1,x\n\xff,2\n3\n\n4,nan\n5,6\n7,8\n")
        np.testing.assert_array_equal(load_trajectory(path, last=2).points, [[5, 6], [7, 8]])
        with pytest.raises(TrajectoryParseError, match="line 5: non-finite"):
            load_trajectory(path, last=3)

    @pytest.mark.parametrize("last", [None, 2])
    def test_non_utf8_byte_names_line(self, tmp_path, last):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"1,2\n3,4\n5,\xff6\n")
        with pytest.raises(TrajectoryParseError, match="line 3: byte 0xff is not UTF-8"):
            load_trajectory(path, last=last)

    def test_last_must_be_positive(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("1,2\n")
        with pytest.raises(ValueError, match="positive"):
            load_trajectory(path, last=0)


class TestPairwiseDistances:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 300),
        dim=st.integers(1, 2000),
        offset=st.sampled_from([0.0, 1e6, 1e12]),
        duplicates=st.integers(0, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=300, dim=2000, offset=1e12, duplicates=5, seed=0)
    @example(n=150, dim=2000, offset=1e6, duplicates=0, seed=1)
    def test_matches_pdist(self, n, dim, offset, duplicates, seed):
        """Within 1e-14 relative of scipy's ``pdist``; exactly symmetric, zero on the diagonal and between duplicates."""
        rng = np.random.default_rng(seed)
        pts = offset + rng.standard_normal((n, dim))
        same = rng.integers(0, n, size=duplicates)
        pts[same] = pts[same[:1]]
        dist = pairwise_distances(pts)
        assert dist.shape == (n, n)
        assert np.array_equal(dist, dist.T)
        assert not np.diagonal(dist).any()
        assert not dist[np.ix_(same, same)].any()
        upper = dist[~np.tri(n, dtype=bool)]
        ref = pdist(pts)
        np.testing.assert_allclose(upper, ref, rtol=1e-14, atol=0.0)

    def test_overflow_is_inf_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dist = pairwise_distances(np.array([[1e308], [-1e308], [1e308]]))
            steps = np.linalg.norm(increments(Trajectory([[1e308], [-1e308]])), axis=1)
        np.testing.assert_array_equal(dist, [[0.0, np.inf, 0.0], [np.inf, 0.0, np.inf], [0.0, np.inf, 0.0]])
        np.testing.assert_array_equal(steps, [np.inf])

    def test_trajectory_caches_read_only_matrix(self, rng):
        t = Trajectory(rng.standard_normal((6, 3)))
        assert t.distances is t.distances
        assert not t.distances.flags.writeable
        np.testing.assert_allclose(t.pair_distances(), pdist(t.points), rtol=1e-14, atol=0.0)


class TestTrajectoryType:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Trajectory(np.array([[0.0], [np.inf]]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Trajectory(np.zeros((0, 2)))

    def test_points_are_read_only(self):
        t = Trajectory(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            t.points[0, 0] = 1.0

    def test_one_dim_input_promoted(self):
        t = Trajectory(np.array([1.0, 2.0, 3.0]))
        assert t.dim == 1 and len(t) == 3


class TestIncrements:
    def test_constant_trajectory_zero_deltas(self):
        t = Trajectory(np.ones((4, 2)))
        np.testing.assert_array_equal(increments(t, 1), np.zeros((3, 2)))

    def test_lag_one_arithmetic(self):
        t = Trajectory(np.array([[0.0], [1.0], [3.0]]))
        np.testing.assert_array_equal(increments(t, 1), [[1.0], [2.0]])

    def test_lag_two_arithmetic(self):
        t = Trajectory(np.array([[0.0], [1.0], [3.0]]))
        np.testing.assert_array_equal(increments(t, 2), [[3.0]])

    def test_steps_are_read_only(self):
        steps = increments(Trajectory(np.array([[0.0], [1.0], [3.0]])), 1)
        with pytest.raises(ValueError):
            steps[0, 0] = 5.0

    def test_lag_too_large(self):
        t = Trajectory(np.zeros((3, 1)))
        with pytest.raises(InsufficientDataError):
            increments(t, 3)

    def test_lag_positive(self):
        t = Trajectory(np.zeros((3, 1)))
        with pytest.raises(ValueError):
            increments(t, 0)

    def test_reconstruction_exact_on_integers(self):
        t = Trajectory(np.array([[0.0, 1.0], [2.0, -3.0], [5.0, 7.0], [-1.0, 0.0]]))
        rebuilt = t.points[0] + np.vstack([np.zeros(2), np.cumsum(increments(t, 1), axis=0)])
        np.testing.assert_array_equal(rebuilt, t.points)

    def test_reconstruction_within_rounding(self):
        t = simulate(ProcessSpec("gaussian_walk", dim=3, steps=500, seed=1))
        rebuilt = t.points[0] + np.vstack([np.zeros(3), np.cumsum(increments(t, 1), axis=0)])
        scale = np.abs(t.points).max()
        assert np.abs(rebuilt - t.points).max() <= 1e-12 * max(scale, 1.0)


class TestNormalizeByRunningStd:
    def test_two_points_population_convention(self):
        t = Trajectory(np.array([[0.0], [2.0]]))
        res = normalize_by_running_std(t)
        assert res.first_scaled_index == 1
        np.testing.assert_allclose(res.trajectory.points, [[0.0], [2.0]])

    def test_constant_trajectory_flagged_unscaled(self):
        t = Trajectory(np.full((5, 2), 3.0))
        res = normalize_by_running_std(t)
        assert res.first_scaled_index == len(res.trajectory)
        assert res.degenerate_axes == (0, 1)
        np.testing.assert_array_equal(res.trajectory.points, t.points)

    def test_scale_invariance_power_of_two_exact(self):
        t = simulate(ProcessSpec("gaussian_walk", dim=2, steps=50, seed=3))
        a = normalize_by_running_std(t)
        b = normalize_by_running_std(Trajectory(4.0 * t.points))
        k0 = a.first_scaled_index
        assert b.first_scaled_index == k0
        np.testing.assert_array_equal(a.trajectory.points[k0:], b.trajectory.points[k0:])

    def test_scale_invariance_general_factor(self):
        t = simulate(ProcessSpec("gaussian_walk", dim=2, steps=50, seed=3))
        a = normalize_by_running_std(t)
        b = normalize_by_running_std(Trajectory(3.7 * t.points))
        k0 = a.first_scaled_index
        np.testing.assert_allclose(b.trajectory.points[k0:], a.trajectory.points[k0:], rtol=1e-12)

    def test_degenerate_axis_left_unscaled(self):
        pts = np.column_stack([np.arange(5.0), np.full(5, 2.0)])
        res = normalize_by_running_std(Trajectory(pts))
        assert res.degenerate_axes == (1,)
        np.testing.assert_array_equal(res.trajectory.points[:, 1], pts[:, 1])

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 40),
        dim=st.integers(1, 2),
        scale=st.sampled_from([1e-3, 1.0, 1e3]),
        offset=st.floats(min_value=-1e12, max_value=1e12),
    )
    def test_prefix_std_exact_under_large_offsets(self, seed, n, dim, scale, offset):
        pts = scale * np.cumsum(np.random.default_rng(seed).standard_normal((n, dim)), axis=0) + offset
        res = normalize_by_running_std(Trajectory(pts))
        ref_sd = np.sqrt([[statistics.pvariance(pts[: k + 1, a]) for a in range(dim)] for k in range(n)])
        varying = ref_sd[-1] > 0
        assert res.degenerate_axes == tuple(np.flatnonzero(~varying))
        if varying.any():
            k0 = int(np.argmax(np.all(ref_sd[:, varying] > 0, axis=1)))
            assert res.first_scaled_index == k0
            scaled = res.trajectory.points[k0:, varying]
            np.testing.assert_allclose(scaled * ref_sd[k0:, varying], pts[k0:, varying], rtol=1e-10, atol=0)

    def test_needs_two_points(self):
        with pytest.raises(InsufficientDataError):
            normalize_by_running_std(Trajectory(np.zeros((1, 2))))


class TestWeightAndGridTypes:
    def test_simplex_weights_validate(self):
        SimplexWeights([0.5, 0.5])
        with pytest.raises(ValueError):
            SimplexWeights([0.6, 0.6])
        with pytest.raises(ValueError):
            SimplexWeights([-0.1, 1.1])

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=2, max_size=10))
    def test_normalized_vectors_accepted(self, raw):
        w = np.asarray(raw) / np.sum(raw)
        assert len(SimplexWeights(w)) == len(raw)

    def test_radius_grid_validate(self):
        RadiusGrid([0.1, 0.2, 0.4])
        with pytest.raises(ValueError):
            RadiusGrid([0.2, 0.1])
        with pytest.raises(ValueError):
            RadiusGrid([0.0, 0.1])
        with pytest.raises(ValueError):
            RadiusGrid([0.1, np.inf])

    def test_quantile_grid_strictly_increasing(self, rng):
        values = rng.exponential(size=500)
        grid = RadiusGrid.from_quantiles(values, np.geomspace(0.01, 0.9, 32))
        assert np.all(np.diff(grid.radii) > 0)

    def test_quantile_grid_rejects_overflowed_values(self):
        with pytest.raises(DegenerateDataError, match=r"1 of 3 values are non-finite \(overflowed"):
            RadiusGrid.from_quantiles([1.0, np.inf, 2.0], [0.1, 0.5])
