import numpy as np
import pytest

from trajtail.core import DataError, RadiusGrid, Seed, Trajectory
from trajtail.spatial import (
    CoveringProfile,
    covering_numbers,
    k_function,
    k_function_slope,
)


def poisson_square(seed, n=500):
    return Trajectory(Seed(seed).generator().uniform(0.0, 1.0, (n, 2)))


class TestKFunction:
    def test_single_point_is_zero(self):
        curve = k_function(Trajectory(np.zeros((1, 2))), RadiusGrid([0.5, 1.0]))
        np.testing.assert_array_equal(curve.values, [0.0, 0.0])

    def test_two_point_formula(self):
        t = Trajectory(np.array([[0.0, 0.0], [0.5, 0.0]]))
        curve = k_function(t, RadiusGrid([0.25, 1.0]))
        assert curve.values[0] == 0.0
        assert curve.values[1] == pytest.approx(0.5)

    def test_saturates_at_diameter(self, rng):
        t = Trajectory(rng.uniform(size=(20, 2)))
        curve = k_function(t, RadiusGrid([5.0]))
        assert curve.values[-1] == pytest.approx(curve.diameter * (curve.n - 1))

    def test_rigid_motion_invariance(self, rng):
        pts = rng.uniform(size=(40, 2))
        theta = 1.1
        rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        grid = RadiusGrid(np.geomspace(0.05, 1.0, 12))
        a = k_function(Trajectory(pts), grid)
        b = k_function(Trajectory(pts @ rot.T + 3.0), grid)
        np.testing.assert_allclose(a.values, b.values, atol=1e-9)

    def test_scaling_equivariance(self, rng):
        pts = rng.uniform(size=(30, 2))
        grid = RadiusGrid(np.geomspace(0.05, 1.0, 8))
        a = k_function(Trajectory(pts), grid)
        b = k_function(Trajectory(2.0 * pts), RadiusGrid(2.0 * grid.radii))
        np.testing.assert_allclose(b.values, 2.0 * a.values, rtol=1e-12)

    def test_poisson_growth_exponent(self):
        t = poisson_square(0)
        from scipy.spatial.distance import pdist

        grid = RadiusGrid.from_quantiles(pdist(t.points), np.geomspace(0.002, 0.3, 32))
        slope = k_function_slope(k_function(t, grid))
        assert 1.7 <= slope <= 2.3

    def test_slope_needs_points_in_window(self):
        t = Trajectory(np.array([[0.0, 0.0], [1.0, 0.0]]))
        with pytest.raises(DataError, match=r"only 0 grid points with pair fraction in"):
            k_function_slope(k_function(t, RadiusGrid([0.5, 2.0])))


class TestCoveringNumbers:
    def test_single_point(self):
        profile = covering_numbers(Trajectory(np.zeros((1, 2))), RadiusGrid([0.5, 1.0]), 1.0)
        np.testing.assert_array_equal(profile.counts, [1, 1])
        assert profile.dudley_value == 0.0

    def test_two_points_forced_geometry(self):
        t = Trajectory(np.array([[0.0], [1.0]]))
        profile = covering_numbers(t, RadiusGrid([0.4, 1.1]), 1.5)
        np.testing.assert_array_equal(profile.counts, [2, 1])

    def test_grid_cover_within_packing_factor(self):
        t = Trajectory(np.linspace(0.0, 1.0, 100)[:, None])
        profile = covering_numbers(t, RadiusGrid([0.05]), 1.0)
        packing = int(np.ceil(1.0 / (2 * 0.05)))
        assert packing <= profile.counts[0] <= 3 * packing

    def test_counts_nonincreasing_and_saturate(self, rng):
        pts = rng.uniform(size=(50, 3))
        t = Trajectory(pts)
        diam = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1).max()
        grid = RadiusGrid(np.geomspace(0.01, diam * 1.5, 20))
        profile = covering_numbers(t, grid, diam * 1.5)
        assert np.all(np.diff(profile.counts) <= 0)
        assert profile.counts[-1] == 1
        assert profile.counts[0] <= 50

    def test_coincident_points_zero_dudley(self):
        profile = covering_numbers(Trajectory(np.ones((6, 2))), RadiusGrid([0.1, 1.0]), 1.0)
        assert profile.dudley_value == 0.0

    def test_rho_must_be_positive(self):
        with pytest.raises(ValueError, match="rho must be positive"):
            covering_numbers(Trajectory(np.zeros((2, 1))), RadiusGrid([0.1]), 0.0)

    def test_distinct_points_positive_dudley(self):
        t = Trajectory(np.array([[0.0], [1.0], [2.0]]))
        profile = covering_numbers(t, RadiusGrid(np.geomspace(0.01, 2.0, 16)), 2.0)
        assert profile.dudley_value > 0.0


    def test_profile_checks_counts(self):
        for counts in ([[2, 1]], [0, 0], [1, 2]):
            with pytest.raises(ValueError, match="counts must be"):
                CoveringProfile(np.asarray(counts), 0.0)
