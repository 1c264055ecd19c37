import numpy as np
import pytest
from scipy import stats

from trajtail.core import DataError, RadiusGrid, Seed, Trajectory, increments
from trajtail.exponents import (
    ball_mass_curve,
    exponent_from_ball_mass,
    fit_power_law,
    layerwise_stable_index,
    lower_tail_exponent_reciprocal,
    stable_index,
)
from trajtail.simulate import ProcessSpec, simulate, stable_sample


def pareto_samples(seed, n, survival_exponent=1.5, x_min=1.0):
    # inverse-CDF route, independent of the fitting code
    u = Seed(seed).generator().uniform(size=n)
    return x_min * u ** (-1.0 / survival_exponent)


class TestFitPowerLaw:
    def test_two_sample_closed_form(self):
        fit = fit_power_law([1.0, np.e], x_min=1.0)
        assert fit.alpha_density == pytest.approx(3.0, abs=1e-12)
        assert fit.alpha_survival == pytest.approx(2.0, abs=1e-12)
        assert fit.n_tail == 2
        assert any("low sample" in note for note in fit.notes)

    def test_pareto_recovery(self):
        fit = fit_power_law(pareto_samples(0, 10_000))
        assert 1.35 <= fit.alpha_survival <= 1.65

    def test_all_equal_is_degenerate(self):
        with pytest.raises(DataError, match="all samples equal: zero log-spread"):
            fit_power_law(np.full(100, 5.0))

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            fit_power_law([1.0, -2.0, 3.0])

    @pytest.mark.parametrize("x_min, left", [(10.0, 0), (3.0, 1)])
    def test_forced_cutoff_leaving_under_two_samples(self, x_min, left):
        with pytest.raises(DataError, match=f"x_min {x_min} leaves {left} of 3 samples at or above it"):
            fit_power_law([1.0, 2.0, 3.0], x_min=x_min)

    def test_too_few_samples(self):
        with pytest.raises(DataError, match="power-law fit needs >= 2 samples, got 1"):
            fit_power_law([1.0])

    def test_scale_equivariance(self):
        x = pareto_samples(3, 2000)
        base = fit_power_law(x)
        for c in (2.0, 0.001, 730.0):
            scaled = fit_power_law(c * x)
            assert scaled.alpha_density == pytest.approx(base.alpha_density, abs=1e-9)
            assert scaled.x_min == pytest.approx(c * base.x_min, rel=1e-9)

    def test_ks_distance_in_unit_interval(self):
        fit = fit_power_law(pareto_samples(5, 500))
        assert 0.0 <= fit.ks_distance <= 1.0


class TestLowerTailReciprocal:
    def test_beta_prime_walk_recovers_shape(self):
        walk = simulate(ProcessSpec("beta_prime_walk", dim=2, steps=10_000, seed=1, bp_alpha=0.5, bp_beta=3.5))
        fit = lower_tail_exponent_reciprocal(walk)
        assert 0.4 <= fit.alpha_survival <= 0.6

    def test_gaussian_walk_recovers_dimension(self):
        walk = simulate(ProcessSpec("gaussian_walk", dim=2, steps=10_000, seed=2))
        fit = lower_tail_exponent_reciprocal(walk)
        assert 1.6 <= fit.alpha_survival <= 2.4

    def test_constant_trajectory_insufficient(self):
        with pytest.raises(DataError, match=r"only 0 nonzero steps"):
            lower_tail_exponent_reciprocal(Trajectory(np.zeros((120, 2))))

    def test_short_trajectory_insufficient(self):
        with pytest.raises(DataError, match="iterates, got 30"):
            lower_tail_exponent_reciprocal(Trajectory(np.random.default_rng(0).normal(size=(30, 2))))

    def test_overflowed_step_norms_are_data_error(self):
        pts = np.full((300, 2), 1.7e308)
        pts[1::2] *= -1.0
        with pytest.raises(DataError, match=r"299 of 299 step norms are non-finite \(overflowed float64\)"):
            lower_tail_exponent_reciprocal(Trajectory(pts))

    def test_zero_steps_counted_in_notes(self):
        rng = np.random.default_rng(1)
        pts = np.cumsum(rng.lognormal(size=(80, 1)), axis=0)
        pts[10] = pts[9]  # one zero-length step
        fit = lower_tail_exponent_reciprocal(Trajectory(pts))
        assert fit.n_samples == 78
        assert any("dropped 1" in note for note in fit.notes)


class TestBallMassCurve:
    def test_constant_trajectory_all_mass(self):
        curve = ball_mass_curve(Trajectory(np.zeros((10, 2))), (1,), RadiusGrid([0.1, 1.0]))
        np.testing.assert_array_equal(curve.masses, [1.0, 1.0])

    def test_single_unit_step(self):
        t = Trajectory(np.array([[0.0], [1.0]]))
        curve = ball_mass_curve(t, (1,), RadiusGrid([0.5, 2.0]))
        np.testing.assert_array_equal(curve.masses, [0.0, 1.0])

    def test_gaussian_masses_match_chi_square_law(self):
        walk = simulate(ProcessSpec("gaussian_walk", dim=3, steps=20_000, seed=4))
        grid = RadiusGrid(np.geomspace(0.2, 2.0, 12))
        curve = ball_mass_curve(walk, (1,), grid)
        expected = stats.chi2.cdf(grid.radii**2, df=3)
        np.testing.assert_allclose(curve.masses, expected, atol=0.015)

    def test_empty_lags_rejected(self):
        with pytest.raises(ValueError):
            ball_mass_curve(Trajectory(np.zeros((5, 1))), (), RadiusGrid([1.0]))

    def test_lag_below_one_rejected(self):
        with pytest.raises(ValueError, match="lag must be a positive integer, got 0"):
            ball_mass_curve(Trajectory(np.zeros((5, 1))), (0, 1), RadiusGrid([1.0]))

    def test_lag_exceeding_length_rejected(self):
        with pytest.raises(DataError, match="^lag 5 must be smaller than trajectory length 5"):
            ball_mass_curve(Trajectory(np.zeros((5, 1))), (5,), RadiusGrid([1.0]))

    def test_masses_nondecreasing_and_rigid_motion_invariant(self):
        walk = simulate(ProcessSpec("gaussian_walk", dim=2, steps=500, seed=5))
        grid = RadiusGrid(np.geomspace(0.05, 3.0, 16))
        base = ball_mass_curve(walk, (1, 2), grid)
        assert np.all(np.diff(base.masses) >= 0)
        theta = 0.7
        rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        moved = Trajectory(walk.points @ rot.T + np.array([5.0, -3.0]))
        np.testing.assert_allclose(ball_mass_curve(moved, (1, 2), grid).masses, base.masses, atol=1e-12)


class TestExponentFromBallMass:
    def test_analytic_square_law(self):
        from trajtail.exponents import BallMassCurve

        radii = np.linspace(0.01, 0.2, 96)
        curve = BallMassCurve(RadiusGrid(radii), radii**2)
        slope = exponent_from_ball_mass(curve)
        assert slope == pytest.approx(2.0, abs=1e-9)

    def test_gaussian_walk_r3(self):
        walk = simulate(ProcessSpec("gaussian_walk", dim=3, steps=10_000, seed=7))
        norms = np.linalg.norm(increments(walk, 1), axis=1)
        grid = RadiusGrid.from_quantiles(norms, np.geomspace(0.004, 0.4, 48))
        slope = exponent_from_ball_mass(ball_mass_curve(walk, (1,), grid))
        assert 2.7 <= slope <= 3.3

    def test_saturated_curve_insufficient(self):
        from trajtail.exponents import BallMassCurve

        curve = BallMassCurve(RadiusGrid([0.1, 0.2, 0.4]), np.ones(3))
        with pytest.raises(DataError, match=r"only 0 grid points with mass in"):
            exponent_from_ball_mass(curve)

    def test_window_validation(self):
        from trajtail.exponents import BallMassCurve

        curve = BallMassCurve(RadiusGrid([0.1]), [0.05])
        with pytest.raises(ValueError):
            exponent_from_ball_mass(curve, window=(0.5, 0.1))

    def test_two_routes_agree_on_beta_prime(self):
        walk = simulate(ProcessSpec("beta_prime_walk", dim=2, steps=10_000, seed=8, bp_alpha=0.5, bp_beta=3.5))
        fit = lower_tail_exponent_reciprocal(walk).alpha_survival
        norms = np.linalg.norm(increments(walk, 1), axis=1)
        grid = RadiusGrid.from_quantiles(norms, np.geomspace(0.002, 0.5, 48))
        slope = exponent_from_ball_mass(ball_mass_curve(walk, (1,), grid))
        assert abs(fit - slope) <= 0.25


class TestStableIndex:
    def test_gaussian_hits_two(self):
        x = Seed(11).generator().standard_normal(100_000)
        res = stable_index(x, 10)
        assert 1.9 <= res.alpha_hat <= 2.0

    def test_cauchy_hits_one(self):
        x = Seed(12).generator().standard_cauchy(100_000)
        res = stable_index(x, 10)
        assert 0.9 <= res.alpha_hat <= 1.1

    def test_scale_invariance(self):
        x = stable_sample(1.5, Seed(13).generator(), 5000)
        base = stable_index(x, 10).alpha_hat
        for c in (2.0, 1e-3, 977.0):
            assert stable_index(c * x, 10).alpha_hat == pytest.approx(base, abs=1e-9)

    def test_negation_invariance_exact(self):
        x = stable_sample(1.5, Seed(14).generator(), 5000)
        assert stable_index(-x, 10).alpha_hat == stable_index(x, 10).alpha_hat

    def test_all_zero_degenerate(self):
        with pytest.raises(DataError, match=r"all samples \(or all block sums\) are zero"):
            stable_index(np.zeros(500), 10)

    def test_non_finite_sample_is_data_error(self):
        x = np.ones(200)
        x[7] = np.inf
        with pytest.raises(DataError, match=r"1 of 20 block sums are non-finite \(overflowed float64\)"):
            stable_index(x, 10)

    def test_overflowed_block_sums_are_data_error(self):
        with pytest.raises(DataError, match=r"20 of 20 block sums are non-finite \(overflowed float64\)"):
            stable_index(np.full(200, 1e308), 10)

    def test_needs_enough_samples(self):
        with pytest.raises(DataError, match="need at least 100 samples, got 50"):
            stable_index(np.ones(50), 10)

    def test_block_size_validation(self):
        with pytest.raises(ValueError):
            stable_index(np.ones(500), 1)

    def test_clipped_to_two(self):
        # anti-persistent data pushes the raw estimate above 2; result clips
        x = np.tile([1.0, -1.0], 5000) + Seed(16).generator().normal(0, 1e-6, 10_000)
        assert stable_index(x, 10).alpha_hat == 2.0


class TestLayerwiseStableIndex:
    def _mixed_walk(self, steps=40_000):
        rng = Seed(15).generator()
        gauss = rng.standard_normal((steps, 2))
        cauchy = rng.standard_cauchy((steps, 2))
        deltas = np.hstack([gauss, cauchy])
        return Trajectory(np.vstack([np.zeros(4), np.cumsum(deltas, axis=0)]))

    def test_single_block_matches_pooled(self):
        walk = self._mixed_walk(2000)
        pooled = stable_index(increments(walk, 1).ravel(), 10)
        layered = layerwise_stable_index(walk, (4,), 10)
        assert layered == pooled

    def test_two_blocks_median_is_midpoint(self):
        walk = self._mixed_walk()
        res = layerwise_stable_index(walk, (2, 2), 10)
        assert res.per_block[0] == pytest.approx(2.0, abs=0.1)
        assert res.per_block[1] == pytest.approx(1.0, abs=0.1)
        assert res.alpha_hat == pytest.approx(np.mean(res.per_block), abs=1e-12)

    def test_partition_must_cover(self):
        walk = self._mixed_walk(500)
        with pytest.raises(ValueError, match="summing to dimension 4"):
            layerwise_stable_index(walk, (2,), 10)

    def test_empty_block_rejected(self):
        walk = self._mixed_walk(500)
        with pytest.raises(ValueError):
            layerwise_stable_index(walk, (4, 0), 10)

    def test_overlapping_blocks_rejected(self):
        """Widths past the dimension, as layers sharing a coordinate would need."""
        walk = self._mixed_walk(500)
        with pytest.raises(ValueError):
            layerwise_stable_index(walk, (3, 2), 10)
