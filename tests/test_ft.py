import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.spatial.distance import pdist

from trajtail import experiments, ft
from trajtail.core import _DIFF_BUDGET, Seed, SimplexWeights, Trajectory
from trajtail.ft import (
    _FLOAT32_MIN_POINTS,
    _MU_END,
    MASS_FLOOR,
    SubgradientOptions,
    TruncatedGram,
    _softmax,
    _Workspace,
    brute_force_gamma2,
    estimate_gamma2,
    ft_objective,
)
from trajtail.simulate import ProcessSpec, simulate

SQRT_LOG2 = np.sqrt(np.log(2.0))

QUICK = SubgradientOptions(iterations=300, restarts=2, seed=0)


def random_points(rng, n, dim=2, scale=1.0):
    return rng.uniform(0.0, 1.0, (n, dim)) * scale


# sqrt(-log c) is convex exactly for c <= exp(-1/2).
CONVEX_MASS = np.exp(-0.5)


def _max_segment_mass(gram, p):
    """Largest cumulative mass on a positive-length segment, over all anchors."""
    cum = np.cumsum(p[gram.order], axis=1)
    return cum[gram.segments > 0].max(initial=0.0)


def _midpoint_objective(pts, p, rho, cells=200_000):
    """(1/rho) max_i int_0^rho sqrt(-log p(B_r(w_i))) dr by a midpoint rule.

    Ball masses are counted directly from the points, so this reference
    shares no code with ``TruncatedGram`` or ``ft_objective``.
    """
    h = rho / cells
    r = (np.arange(cells) + 0.5) * h
    dist = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
    best = 0.0
    for row in dist:
        idx = np.argsort(row)
        mass = np.cumsum(p[idx])[np.searchsorted(row[idx], r, side="right") - 1]
        best = max(best, h * np.sum(np.sqrt(-np.log(np.minimum(mass, 1.0)))))
    return best / rho


class TestTruncatedGram:
    def test_invariants(self, rng):
        pts = random_points(rng, 6)
        g = TruncatedGram.from_points(pts, 0.3)
        assert g.entries.shape == (6, 6)
        np.testing.assert_array_equal(np.diag(g.entries), np.zeros(6))
        np.testing.assert_array_equal(g.entries, g.entries.T)
        assert g.entries.max() <= 0.3
        np.testing.assert_array_equal(g.sorted_entries[:, 0], np.zeros(6))
        assert np.all(g.segments >= 0)

    def test_rejects_bad_rho(self, rng):
        with pytest.raises(ValueError):
            TruncatedGram.from_points(random_points(rng, 3), 0.0)

    def test_build_memory_is_quadratic_not_cubic(self, rng):
        """The build never holds an n*n*D difference tensor: peak stays O(n^2)."""
        n, dim = 150, 2000
        pts = rng.standard_normal((n, dim))
        tracemalloc.start()
        try:
            TruncatedGram.from_points(pts, 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * n * n * 8, f"Gram build peaked at {peak} bytes"

    def test_no_quadratic_array_kept_until_entries_read(self):
        walk = simulate(ProcessSpec("gaussian_walk", 2, 399, 11))
        g = TruncatedGram.from_points(walk.points, 5.0)
        n = g.n
        assert n == 400 and g.order.shape == g.segments.shape
        assert all(a.size < n * n for a in vars(g).values() if isinstance(a, np.ndarray))
        assert g.entries.shape == (n, n)
        assert any(a.size == n * n for a in vars(g).values() if isinstance(a, np.ndarray))

    def test_points_kept_by_reference_only_when_read_only(self, rng):
        walk = simulate(ProcessSpec("gaussian_walk", 2, 30, 3))
        assert TruncatedGram.from_points(walk.points, 1.0).points is walk.points
        pts = random_points(rng, 30)
        before = TruncatedGram.from_points(pts, 0.3).entries.copy()
        g = TruncatedGram.from_points(pts, 0.3)
        pts[:] = 0.0
        assert not g.points.flags.writeable
        np.testing.assert_array_equal(g.entries, before)

    def test_figure1_cell_estimate_peak_memory(self):
        """The stable-arm figure-1 cell (w = 699 of n = 1,001) estimates within 25 MB.

        A Gram that also held the (n, n) entries and the (n, w + 1) sorted
        entries peaked at 47.3 MB on this cell, and a gradient that scattered
        through one float64 copy of the (n, w) weights at 28.1 MB.
        """
        walk, options = _figure1_stable_cell()
        tracemalloc.start()
        try:
            estimate_gamma2(walk, rho=1.0, options=options)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 25e6, f"estimate peaked at {peak} bytes"


class TestFtObjective:
    def test_single_atom_is_zero(self):
        g = TruncatedGram.from_points(np.zeros((1, 2)), 1.0)
        assert ft_objective(g, SimplexWeights([1.0])) == 0.0

    def test_two_far_points_is_sqrt_log2(self):
        g = TruncatedGram.from_points(np.array([[0.0, 0.0], [3.0, 0.0]]), 1.0)
        assert ft_objective(g, SimplexWeights([0.5, 0.5])) == pytest.approx(SQRT_LOG2, abs=1e-12)

    def test_coincident_points_zero_for_any_weights(self, rng):
        g = TruncatedGram.from_points(np.zeros((3, 2)), 1.0)
        for _ in range(5):
            w = rng.dirichlet(np.ones(3))
            assert ft_objective(g, w) == 0.0

    @staticmethod
    def _trimming_cases(rng):
        """Random sets (a quarter with duplicate points), then the block build's edge cases.

        The edge cases: ``rho`` above the diameter (no row reaches ``rho``),
        identical points (``w = 0``) and a single point.
        """
        for trial in range(40):
            n = int(rng.integers(2, 120))
            pts = random_points(rng, n, dim=int(rng.integers(1, 4)))
            if trial % 4 == 0:
                pts[n // 2 :] = pts[0]
            yield pts, float(rng.uniform(0.02, 0.6))
        yield random_points(rng, 90), 2.0
        yield np.full((30, 2), 0.4), 0.5
        yield random_points(rng, 1), 0.5

    def test_trimmed_columns_match_full_sum_bitwise(self, rng):
        """The stored columns are the leading columns of the full sort, bit for bit.

        The reference sorts ``entries`` row by row (stable) and diffs at full
        width.  The stored ``order`` and ``segments`` must equal its leading
        ``w`` columns and ``sorted_entries`` its leading ``w + 1``, every
        segment it drops must be exactly zero, and ``ft_objective`` must equal
        the einsum over the stored layout.  Most of the random sets must
        actually be trimmed.
        """
        trimmed = 0
        widths = []
        for pts, rho in self._trimming_cases(rng):
            n = pts.shape[0]
            g = TruncatedGram.from_points(pts, rho)
            order = np.argsort(g.entries, axis=1, kind="stable")
            sorted_entries = np.take_along_axis(g.entries, order, axis=1)
            segments = np.diff(sorted_entries, axis=1)
            w = g.segments.shape[1]
            widths.append(w)
            np.testing.assert_array_equal(g.order, order[:, :w])
            np.testing.assert_array_equal(g.sorted_entries, sorted_entries[:, : w + 1])
            np.testing.assert_array_equal(g.segments, segments[:, :w])
            assert np.all(segments[:, w:] == 0.0)
            trimmed += w < n - 1
            p = rng.dirichlet(np.full(n, 0.3))
            cum = np.cumsum(p[g.order], axis=1)
            stored = np.einsum("ij,ij->i", g.segments, np.sqrt(np.abs(np.log(np.clip(cum, MASS_FLOOR, 1.0)))))
            assert ft_objective(g, p) == float(stored.max()) / g.rho
        assert trimmed >= 20
        # rho above the diameter: each row's width comes from its own largest distance;
        # identical points and a single point keep no columns
        assert widths[-3] > 0 and widths[-2:] == [0, 0]

    def test_weight_length_mismatch(self):
        g = TruncatedGram.from_points(np.zeros((2, 1)), 1.0)
        with pytest.raises(ValueError):
            ft_objective(g, SimplexWeights([1.0]))

    def test_convexity_spot_check(self, rng):
        """Convexity along simplex segments wherever it is a theorem.

        ``sqrt(-log c)`` is convex and decreasing for ``c <= exp(-1/2)`` and
        concave above it.  Cumulative masses are linear in the weights, so
        when every mass on a positive-length segment of every anchor is at
        most ``exp(-1/2)`` at both ends of a simplex segment, each anchor's
        integral is convex along it, and so is their max.  Outside that
        regime the objective is not convex: the frozen configuration below
        is a genuine violation, confirmed by a midpoint quadrature of the
        ball-mass integral that does not go through ``TruncatedGram``.
        """
        worst = -np.inf
        convex_segments = 0
        for _ in range(2000):
            n = int(rng.integers(2, 7))
            pts = random_points(rng, n, dim=int(rng.integers(1, 4)), scale=10.0 ** rng.uniform(-4, 1))
            g = TruncatedGram.from_points(pts, 1.0)
            p = rng.dirichlet(np.full(n, rng.uniform(0.1, 3.0)))
            q = rng.dirichlet(np.full(n, rng.uniform(0.1, 3.0)))
            lam = rng.uniform(0.0, 1.0)
            if max(_max_segment_mass(g, p), _max_segment_mass(g, q)) > CONVEX_MASS:
                continue
            convex_segments += 1
            mix = ft_objective(g, lam * p + (1 - lam) * q)
            chord = lam * ft_objective(g, p) + (1 - lam) * ft_objective(g, q)
            worst = max(worst, mix - chord)
        assert convex_segments >= 50, f"only {convex_segments} segments in the convex regime"
        assert worst <= 1e-9, f"convexity violated by {worst:.3e} in the convex regime"

        pts = np.array(
            [
                [0.26152907, 0.35030782],
                [0.09191108, 0.00208485],
                [0.13805208, 0.31217501],
                [0.39412471, 0.2354922],
                [0.4032816, 0.60084122],
                [0.34405276, 0.28230418],
            ]
        )
        p = np.array([0.09442992, 0.53888438, 0.20874226, 0.07520725, 0.0202719, 0.06246429])
        q = np.array([0.14257481, 0.0492943, 0.54052334, 0.24805525, 0.01629028, 0.00326203])
        lam = 0.24042517602763647
        g = TruncatedGram.from_points(pts, 1.0)
        weights = (lam * p + (1 - lam) * q, p, q)
        values = np.array([ft_objective(g, w) for w in weights])
        reference = np.array([_midpoint_objective(pts, w, 1.0) for w in weights])
        np.testing.assert_allclose(values, reference, rtol=0.0, atol=1e-5)
        gap = values[0] - lam * values[1] - (1 - lam) * values[2]
        reference_gap = reference[0] - lam * reference[1] - (1 - lam) * reference[2]
        assert gap > 0.01, f"frozen configuration gap {gap:.6f} is no convexity violation"
        assert abs(gap - reference_gap) <= 1e-5, f"gap {gap:.7f} vs quadrature {reference_gap:.7f}"


class TestEstimateGamma2:
    def test_singleton(self):
        """One point takes the general path: a trace of ``iterations + 1`` zeros."""
        est = estimate_gamma2(np.zeros((1, 3)), 1.0, options=SubgradientOptions(iterations=7, restarts=2))
        assert est.value == 0.0 and est.method == "uniform"
        np.testing.assert_array_equal(est.weights.weights, [1.0])
        np.testing.assert_array_equal(est.objective_trace, np.zeros(8))

    def test_two_far_points(self):
        est = estimate_gamma2(np.array([[0.0, 0.0], [2.0, 0.0]]), 1.0)
        assert est.value == pytest.approx(SQRT_LOG2, abs=1e-3)
        np.testing.assert_allclose(est.weights.weights, [0.5, 0.5], atol=1e-2)

    def test_three_collinear_matches_oracle(self):
        pts = np.array([[0.0], [0.5], [1.0]])
        oracle = brute_force_gamma2(pts, 1.0, grid_resolution=200)
        est = estimate_gamma2(pts, 1.0)
        assert abs(est.value - oracle.value) <= 0.02 * oracle.value

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            estimate_gamma2(np.array([[0.0], [np.nan]]), 1.0)

    def test_value_bounded_by_uniform_and_log_n(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 30))
            pts = random_points(rng, n, scale=10.0 ** rng.uniform(-2, 1))
            g = TruncatedGram.from_points(pts, 1.0)
            est = estimate_gamma2(pts, 1.0, options=QUICK)
            assert est.value >= 0.0
            assert est.value <= ft_objective(g, SimplexWeights.uniform(n)) + 1e-9
            assert est.value <= np.sqrt(np.log(n)) + 1e-9

    def test_zero_iff_all_points_coincide(self):
        assert estimate_gamma2(np.zeros((4, 2)), 1.0, options=QUICK).value == 0.0
        assert estimate_gamma2(np.array([[0.0], [0.1]]), 1.0, options=QUICK).value > 0.0

    def test_translation_invariance(self, rng):
        opts = SubgradientOptions(iterations=300, restarts=1)
        pts = random_points(rng, 5)
        a = estimate_gamma2(pts, 1.0, options=opts)
        b = estimate_gamma2(pts + np.array([13.0, -7.0]), 1.0, options=opts)
        assert abs(a.value - b.value) <= 1e-9

    def test_joint_scaling_power_of_two_bitwise(self, rng):
        pts = random_points(rng, 5)
        a = estimate_gamma2(pts, 0.5, options=QUICK)
        b = estimate_gamma2(2.0 * pts, 1.0, options=QUICK)
        assert a.value == b.value
        np.testing.assert_array_equal(a.weights.weights, b.weights.weights)

    def test_joint_scaling_general_factor(self, rng):
        pts = random_points(rng, 5)
        a = estimate_gamma2(pts, 0.7, options=QUICK)
        b = estimate_gamma2(3.0 * pts, 2.1, options=QUICK)
        assert abs(a.value - b.value) <= 1e-9

    def test_permutation_invariance(self, rng):
        # deterministic zero start keeps the whole optimization equivariant;
        # random restarts are not permuted with the points
        opts = SubgradientOptions(iterations=300, restarts=1)
        pts = random_points(rng, 6)
        perm = rng.permutation(6)
        a = estimate_gamma2(pts, 1.0, options=opts)
        b = estimate_gamma2(pts[perm], 1.0, options=opts)
        assert abs(a.value - b.value) <= 1e-9

    def test_value_is_float64_objective_of_weights(self, rng):
        """The reported value is exactly ``ft_objective`` of the reported weights, in both descent dtypes."""
        wins = {"float64": 0, "float32": 0}
        for trial in range(6):
            # below the float32 size at rho 0.5; at or above it at rho 0.1, which keeps w small
            for dtype, smallest, rho in (("float64", 20, 0.5), ("float32", _FLOAT32_MIN_POINTS, 0.1)):
                pts = random_points(rng, int(rng.integers(smallest, smallest + 60)))
                opts = SubgradientOptions(iterations=150, restarts=2, seed=trial)
                est = estimate_gamma2(pts, rho, options=opts)
                if est.method == "subgradient":
                    wins[dtype] += 1
                    assert est.value == ft_objective(TruncatedGram.from_points(pts, rho), est.weights), dtype
        assert min(wins.values()) >= 3, wins

    def test_descent_dtype_follows_point_count(self, monkeypatch):
        """The default descent is the float32 one from ``_FLOAT32_MIN_POINTS`` points up and the float64 one below."""
        pts = random_points(np.random.default_rng(5), _FLOAT32_MIN_POINTS)
        options = SubgradientOptions(iterations=5)
        for n, expected, other in ((len(pts), "float32", "float64"), (len(pts) - 1, "float64", "float32")):
            default = estimate_gamma2(pts[:n], 0.1, options=options).objective_trace
            traces = {}
            for dtype, threshold in (("float32", 0), ("float64", n + 1)):
                with monkeypatch.context() as m:
                    m.setattr(ft, "_FLOAT32_MIN_POINTS", threshold)
                    traces[dtype] = estimate_gamma2(pts[:n], 0.1, options=options).objective_trace
            np.testing.assert_array_equal(default, traces[expected], err_msg=f"n = {n}")
            assert not np.array_equal(default, traces[other]), n

    def test_deterministic_given_seed(self, rng):
        pts = random_points(rng, 8)
        a = estimate_gamma2(pts, 1.0, options=QUICK)
        b = estimate_gamma2(pts, 1.0, options=QUICK)
        assert a.value == b.value
        np.testing.assert_array_equal(a.objective_trace, b.objective_trace)

    def test_accepts_trajectory(self):
        t = Trajectory(np.array([[0.0], [1.0]]))
        assert estimate_gamma2(t, 1.0, options=QUICK).value > 0.0


def _figure1_stable_cell():
    """The normalized walk and descent options of the figure-1 stable-arm cell (0, 3) at seed 777."""
    seed = Seed(777).spawn(0, 3)
    params = experiments.StudySpec("figure1_ordering").params
    process = ProcessSpec("stable_levy_walk", 2, 1000, seed.spawn(0).base, stable_alpha=params["stable_alpha"])
    walk = experiments._normalize(simulate(process), "full")
    return walk, SubgradientOptions(iterations=25, seed=seed.spawn(1).base)


def _walk_and_rho():
    """A 201-point Gaussian walk in 3-d with rho at the 0.35 quantile of its pairwise distances."""
    pts = simulate(ProcessSpec("gaussian_walk", 3, 200, 7)).points
    return pts, float(np.quantile(pdist(pts), 0.35))


class TestSmoothedMaxStep:
    @staticmethod
    def _central_jacobian(work, z, h=1e-5):
        """Central differences of the anchor integrals in the logits; row i is grad_z f_i."""
        cols = []
        for e in np.eye(z.size):
            cols.append((work.integrals(_softmax(z + h * e)) - work.integrals(_softmax(z - h * e))) / (2 * h))
        return np.column_stack(cols)

    def test_gradient_and_curvature_match_central_differences(self, rng):
        """The step direction is grad_z of mu*logsumexp(f/mu), and L = sum_i lambda_i |grad_z f_i|^2."""
        worst_grad = worst_curv = 0.0
        for _ in range(25):
            n = int(rng.integers(2, 9))
            gram = TruncatedGram.from_points(random_points(rng, n), float(rng.uniform(0.2, 1.0)))
            work = _Workspace(gram)
            z = 0.7 * rng.standard_normal(n)
            mu = float(rng.uniform(0.01, 0.1))
            p = _softmax(z)
            f = work.integrals(p)
            gz, curvature = work.gradient(p, f, mu)
            jac = self._central_jacobian(work, z)
            lam = _softmax(f / mu)
            # d/dz of mu*logsumexp(f/mu) = sum_i lambda_i grad_z f_i
            expected = lam @ jac
            expected_curvature = float(lam @ np.einsum("ij,ij->i", jac, jac))
            worst_grad = max(worst_grad, np.linalg.norm(gz - expected) / np.linalg.norm(expected))
            worst_curv = max(worst_curv, abs(curvature - expected_curvature) / expected_curvature)
        assert worst_grad <= 1e-6, worst_grad
        assert worst_curv <= 1e-6, worst_curv

    @pytest.mark.parametrize("rho", [1.0, 20.0])
    def test_zero_weight_anchor_finite_in_both_dtypes(self, rho):
        """A weightless anchor's cumulative mass starts at 0; the floor keeps its log finite, also in float32.

        ``MASS_FLOOR`` rounds to 0.0 in float32, where the floor is the smallest
        normal number; the smallest subnormal would overflow ``seg / (c r)``.
        """
        gram = TruncatedGram.from_points(rho * np.array([[0.0], [0.3], [0.5]]), rho)
        p = np.array([0.5, 0.5, 0.0])
        cum = np.cumsum(p[gram.order], axis=1)
        expected = np.einsum("ij,ij->i", gram.segments, np.sqrt(np.abs(np.log(np.clip(cum, MASS_FLOOR, 1.0))))) / rho
        values = {}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for dtype in ("float64", "float32"):
                work = _Workspace(gram, dtype)
                values[dtype] = f = work.integrals(p)
                gz, curvature = work.gradient(p, f, 0.1)
                assert np.all(np.isfinite(f)) and np.all(np.isfinite(gz)) and np.isfinite(curvature), dtype
        np.testing.assert_array_equal(values["float64"], expected)
        # the float32 floor is higher, so the weightless anchor's integral is smaller there
        assert values["float32"][2] < values["float64"][2]
        np.testing.assert_allclose(values["float32"][:2], values["float64"][:2], rtol=1e-6)

    def test_float32_curvature_where_a_row_reaches_mass_one(self):
        """Row 0 of the points 0, 6, 10 reaches mass 1 inside its kept columns at weights (0.5, 0.5, 0).

        There ``R`` is about 1 / ``_SQRT_LOG_FLOOR``, and expanding row 0's
        squared norm into ``sum q^2 R^2 - 2 a sum q^2 R + a^2 |p|^2`` cancels
        in float32 (6.52e4 against 25.97).  A large ``mu`` spreads lambda over
        every row, so row 0 counts in the curvature.
        """
        gram = TruncatedGram.from_points(np.array([[0.0], [6.0], [10.0]]), 20.0)
        p = np.array([0.5, 0.5, 0.0])
        curvature = {}
        for dtype in ("float64", "float32"):
            work = _Workspace(gram, dtype)
            curvature[dtype] = work.gradient(p, work.integrals(p), 1e6)[1]
        assert curvature["float32"] == pytest.approx(curvature["float64"], rel=0.05)

    @staticmethod
    def _scatter_grams(rng):
        """Grams whose ``n * w`` is zero, below one chunk, an exact multiple of it and a non-multiple past it."""
        yield TruncatedGram.from_points(np.full((30, 2), 0.4), 0.5)
        yield TruncatedGram.from_points(random_points(rng, 40), 0.3)
        # four distinct points, 128 copies each: every row's plateau is its farthest point's copies
        yield TruncatedGram.from_points(np.repeat(random_points(rng, 4), 128, axis=0), 5.0)
        yield TruncatedGram.from_points(random_points(rng, 600), 5.0)

    def test_gradient_scatter_matches_bincount_bitwise(self, rng):
        """The gradient's scatter equals ``np.bincount`` over the flattened weights, bit for bit.

        ``gradient`` leaves its scaled ``(n, w)`` weights in the workspace's
        ``r`` buffer, so the reference scatters those with ``np.bincount``.
        """
        sizes = []
        for gram in self._scatter_grams(rng):
            sizes.append(gram.order.size)
            z = 0.5 * rng.standard_normal(gram.n)
            p = _softmax(z)
            for dtype in ("float64", "float32"):
                work = _Workspace(gram, dtype)
                f = work.integrals(p)
                # the schedule's last mu: softmax(f / mu) spans many binades, so summation order shows
                gz, _ = work.gradient(p, f, _MU_END)
                g = np.bincount(gram.order.reshape(-1), weights=work.r.reshape(-1), minlength=gram.n)
                np.testing.assert_array_equal(gz, p * (g - float(p @ g)), err_msg=f"{dtype}, n*w = {sizes[-1]}")
        chunks = [size / _DIFF_BUDGET for size in sizes]
        assert chunks[0] == 0 and 0 < chunks[1] < 1 and chunks[2] == 3 and chunks[3] > 5 and chunks[3] % 1 > 0

    @pytest.mark.parametrize("dtype, bound", [("float32", 1e6), ("float64", 0.25e6)])
    def test_float32_gradient_allocates_at_most_a_chunk(self, dtype, bound):
        """One gradient on the figure-1 stable-arm cell peaks within a float64 chunk (5.64 MB with a full copy).

        float32 weights are cast one 0.5 MB chunk at a time; float64 ones are
        not copied at all, which the 0.25 MB bound checks.
        """
        walk, _ = _figure1_stable_cell()
        gram = TruncatedGram.from_points(walk.points, 1.0)
        work = _Workspace(gram, dtype)
        p = _softmax(np.zeros(gram.n))
        f = work.integrals(p)
        tracemalloc.start()
        try:
            work.gradient(p, f, 0.05)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert gram.order.shape == (1001, 699)
        assert peak <= bound, f"gradient peaked at {peak} bytes"

    def test_default_estimate_invariant_on_a_walk(self):
        pts, rho = _walk_and_rho()
        base = estimate_gamma2(pts, rho).value
        perm = np.random.default_rng(3).permutation(len(pts))
        variants = {
            "permuted": estimate_gamma2(pts[perm], rho).value,
            "scaled x3": estimate_gamma2(3.0 * pts, 3.0 * rho).value,
            "shifted": estimate_gamma2(pts + np.array([40.0, -15.0, 7.5]), rho).value,
        }
        for name, value in variants.items():
            assert abs(value - base) <= 1e-9, (name, value, base)

    def test_default_estimate_converges_on_a_walk(self):
        """Restarted 1/sqrt(t) subgradient descent (2000 x 5) stopped at 1.7029 here."""
        pts, rho = _walk_and_rho()
        est = estimate_gamma2(pts, rho)
        assert est.method == "subgradient"
        assert est.value <= 1.65, est.value

    # Figure-1 cells at seed 2024, per arm and replicate: the values that plain
    # gradient steps (no momentum) reached at 50 float32 iterations, the study
    # budget before the accelerated descent.
    PLAIN_DESCENT_50 = {
        "stable": (1.6415174899739555, 1.6699408294399323),
        "gaussian": (1.8966466070619181, 1.6116658458589184),
    }

    def test_figure1_cells_beat_plain_descent_at_half_the_budget(self):
        spec = experiments.StudySpec("figure1_ordering")
        params = spec.params
        assert params["ft_iterations"] <= 25
        for gi, arm in enumerate(spec.grid):
            for rep, plain in enumerate(self.PLAIN_DESCENT_50[arm]):
                value = experiments._cell_figure1_ordering(arm, Seed(2024).spawn(gi, rep), params)["gamma2"]
                assert value <= plain, (arm, rep, value, plain)

    # Appendix-C cells at seed 2024, per grid index and replicate: the values that
    # plain gradient steps (no momentum) reached at 300 float64 iterations, the
    # study budget before the accelerated descent.
    PLAIN_DESCENT_300 = {
        0: (1.2802227559004449, 1.3063812768454375, 1.272200110301203),
        3: (1.566936984623531, 1.549476239461525, 1.663514750384299),
        6: (1.8417718237181768, 1.7367483801698538, 1.7532203659408356),
        9: (1.989110870311857, 1.931954025915343, 1.996116427142116),
    }

    def test_appendix_c_cells_beat_plain_descent_at_a_third_of_the_budget(self):
        spec = experiments.StudySpec("appendix_c_curve")
        params = spec.params
        assert params["ft_iterations"] <= 100
        for gi, plains in self.PLAIN_DESCENT_300.items():
            for rep, plain in enumerate(plains):
                value = experiments._cell_appendix_c_curve(spec.grid[gi], Seed(2024).spawn(gi, rep), params)["gamma2"]
                assert value <= plain, (gi, rep, value, plain)


class TestBruteForce:
    def test_singleton(self):
        est = brute_force_gamma2(np.zeros((1, 2)), 1.0)
        assert est.value == 0.0 and est.method == "oracle"
        np.testing.assert_array_equal(est.weights.weights, [1.0])
        np.testing.assert_array_equal(est.objective_trace, [0.0])

    def test_symmetric_pair_exact_on_grid(self):
        est = brute_force_gamma2(np.array([[0.0], [2.0]]), 1.0, grid_resolution=100)
        assert est.value == pytest.approx(SQRT_LOG2, abs=1e-12)
        np.testing.assert_array_equal(est.weights.weights, [0.5, 0.5])

    def test_refuses_large_sets(self):
        with pytest.raises(ValueError):
            brute_force_gamma2(np.zeros((7, 2)), 1.0)

    def test_estimate_close_to_oracle(self, rng):
        q = 150
        for _ in range(5):
            n = int(rng.integers(2, 5))
            pts = random_points(rng, n)
            oracle = brute_force_gamma2(pts, 1.0, grid_resolution=q)
            est = estimate_gamma2(pts, 1.0)
            assert abs(est.value - oracle.value) <= max(0.02 * oracle.value, 1.0 / q)
            assert est.value <= oracle.value + max(1e-9, 1.0 / q)


@pytest.mark.parametrize("estimator", [estimate_gamma2, brute_force_gamma2])
@pytest.mark.parametrize("rho", [0.0, -1.0, np.nan])
def test_single_point_rejects_nonpositive_rho(estimator, rho):
    with pytest.raises(ValueError, match=f"rho must be positive, got {rho}"):
        estimator(np.zeros((1, 2)), rho)
