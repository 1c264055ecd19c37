import warnings

import numpy as np
import pytest
from scipy import special, stats

from trajtail.core import DataError, Seed, increments
from trajtail.simulate import (
    ProcessSpec,
    beta_prime_sample,
    simulate,
    stable_sample,
    stable_transform,
)


class TestReproducibility:
    @pytest.mark.parametrize(
        "kind,extra",
        [
            ("gaussian_walk", {}),
            ("stable_levy_walk", {"stable_alpha": 1.3}),
            ("beta_prime_walk", {"bp_alpha": 0.4}),
            ("perturbed_gd_quadratic", {"gd_step": 0.05}),
        ],
    )
    def test_same_spec_same_path(self, kind, extra):
        spec = ProcessSpec(kind, dim=2, steps=100, seed=99, **extra)
        np.testing.assert_array_equal(simulate(spec).points, simulate(spec).points)

    def test_seed_changes_path(self):
        a = simulate(ProcessSpec("gaussian_walk", dim=2, steps=50, seed=1))
        b = simulate(ProcessSpec("gaussian_walk", dim=2, steps=50, seed=2))
        assert not np.array_equal(a.points, b.points)

    def test_two_step_walk_shape(self):
        t = simulate(ProcessSpec("gaussian_walk", dim=2, steps=2, seed=5))
        assert len(t) == 3 and t.dim == 2
        np.testing.assert_array_equal(t.points[0], [0.0, 0.0])
        assert np.all(np.linalg.norm(increments(t, 1), axis=1) > 0)


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            ProcessSpec("brownian_bridge", dim=2, steps=10, seed=0)

    def test_beta_prime_needs_dim_two(self):
        with pytest.raises(ValueError):
            ProcessSpec("beta_prime_walk", dim=3, steps=10, seed=0)

    def test_stable_alpha_range(self):
        with pytest.raises(ValueError):
            ProcessSpec("stable_levy_walk", dim=2, steps=10, seed=0, stable_alpha=2.5)
        with pytest.raises(ValueError):
            ProcessSpec("stable_levy_walk", dim=2, steps=10, seed=0, stable_alpha=0.0)

    def test_beta_prime_shapes_positive(self):
        with pytest.raises(ValueError):
            ProcessSpec("beta_prime_walk", dim=2, steps=10, seed=0, bp_alpha=0.0)

    def test_gd_step_positive(self):
        with pytest.raises(ValueError):
            ProcessSpec("perturbed_gd_quadratic", dim=2, steps=10, seed=0, gd_step=0.0)

    @pytest.mark.parametrize(
        "kind, field, value",
        [
            ("gaussian_walk", "sigma", (1.0, np.nan)),
            ("stable_levy_walk", "sigma", np.inf),
            ("beta_prime_walk", "bp_beta", np.inf),
            ("perturbed_gd_quadratic", "gd_step", np.inf),
            ("perturbed_gd_quadratic", "curvature", (np.nan,)),
        ],
    )
    def test_read_numbers_finite(self, kind, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            ProcessSpec(kind, dim=2, steps=10, seed=0, **{field: value})

    def test_unread_numbers_not_checked(self):
        ProcessSpec("beta_prime_walk", dim=2, steps=10, seed=0, sigma=np.nan, gd_step=np.inf)
        ProcessSpec("gaussian_walk", dim=2, steps=10, seed=0, curvature=-1.0, start=(1.0,))

    @pytest.mark.parametrize("field", ["sigma", "curvature"])
    def test_per_coordinate_values_match_dim(self, field):
        ProcessSpec("perturbed_gd_quadratic", dim=3, steps=10, seed=0, **{field: (1.0, 2.0, 3.0)})
        with pytest.raises(ValueError, match=f"^{field} needs 1 or dim = 3 values, got 2"):
            ProcessSpec("perturbed_gd_quadratic", dim=3, steps=10, seed=0, **{field: (1.0, 2.0)})

    @pytest.mark.parametrize(
        "kind, fields, message",
        [
            ("gaussian_walk", {"sigma": -1.0}, "sigma must be nonnegative"),
            ("stable_levy_walk", {"sigma": (1.0, -0.5)}, "sigma must be nonnegative"),
            ("perturbed_gd_quadratic", {"curvature": 0.0}, "curvature must be positive"),
            ("perturbed_gd_quadratic", {"curvature": (1.0, -2.0)}, "curvature must be positive"),
            ("perturbed_gd_quadratic", {"start": (1.0, 2.0, 3.0)}, "start must have dimension 2"),
        ],
    )
    def test_signs_and_start_checked_at_construction(self, kind, fields, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            ProcessSpec(kind, dim=2, steps=10, seed=0, **fields)

    @pytest.mark.parametrize(
        "spec",
        [
            ProcessSpec("stable_levy_walk", dim=2, steps=500, seed=0, stable_alpha=0.01),
            ProcessSpec("perturbed_gd_quadratic", dim=2, steps=1000, seed=0, gd_step=5.0),
        ],
    )
    def test_leaving_float64_is_data_error_without_warnings(self, spec):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match=f"^{spec.kind} trajectory leaves the float64 range at row"):
                simulate(spec)


class TestStableSampling:
    def test_alpha_two_variance(self):
        x = stable_sample(2.0, Seed(0).generator(), 100_000)
        assert 1.94 <= x.var() <= 2.06

    def test_alpha_one_cauchy_cdf(self):
        x = stable_sample(1.0, Seed(1).generator(), 100_000)
        assert abs((x <= 1.0).mean() - 0.75) <= 0.01

    def test_transform_is_odd(self):
        rng = Seed(2).generator()
        u = rng.uniform(-np.pi / 2, np.pi / 2, 1000)
        e = rng.standard_exponential(1000)
        for alpha in (0.7, 1.0, 1.5, 2.0):
            np.testing.assert_array_equal(stable_transform(alpha, -u, e), -stable_transform(alpha, u, e))

    def test_out_of_range_alpha(self):
        with pytest.raises(ValueError):
            stable_transform(2.2, np.zeros(1), np.ones(1))

    def test_alpha_two_matches_gaussian_walk(self):
        # matched scale: unit-scale stable with alpha=2 has per-coordinate variance 2
        stable = simulate(ProcessSpec("stable_levy_walk", dim=1, steps=10_000, seed=3, stable_alpha=2.0))
        gauss = simulate(ProcessSpec("gaussian_walk", dim=1, steps=10_000, seed=4, sigma=np.sqrt(2.0)))
        a = increments(stable, 1).ravel()
        b = increments(gauss, 1).ravel()
        d_crit = np.sqrt(-np.log(0.001 / 2.0) / 2.0 * (a.size + b.size) / (a.size * b.size))
        assert stats.ks_2samp(a, b).statistic < d_crit

    def test_heavier_upper_tail_than_gaussian(self):
        stable = simulate(ProcessSpec("stable_levy_walk", dim=1, steps=100_000, seed=5, stable_alpha=1.5))
        gauss = simulate(ProcessSpec("gaussian_walk", dim=1, steps=100_000, seed=6, sigma=np.sqrt(2.0)))
        a = np.abs(increments(stable, 1).ravel())
        b = np.abs(increments(gauss, 1).ravel())
        q = np.quantile(b, 0.999)
        assert (a > q).sum() > (b > q).sum()


class TestBetaPrimeSampling:
    def test_unit_shapes_median(self):
        x = beta_prime_sample(1.0, 1.0, Seed(7).generator(), 100_000)
        assert 0.97 <= np.median(x) <= 1.03

    def test_underflowing_shape_is_a_data_error(self):
        with pytest.raises(DataError, match=r"^gamma draws with shapes \(1e-300, 3.5\) kept underflowing to zero$"):
            beta_prime_sample(1e-300, 3.5, Seed(0).generator(), 4)

    def test_cdf_at_analytic_median(self):
        from scipy.optimize import brentq

        alpha, beta = 0.8, 2.5
        median = brentq(lambda x: special.betainc(alpha, beta, x / (1.0 + x)) - 0.5, 1e-9, 1e6)
        draws = beta_prime_sample(alpha, beta, Seed(8).generator(), 100_000)
        assert abs((draws <= median).mean() - 0.5) <= 0.01

    def test_density_integrates_to_betainc(self):
        from scipy import integrate

        alpha, beta = 0.5, 3.5
        density = lambda x: (
            special.gamma(alpha + beta) / (special.gamma(alpha) * special.gamma(beta))
            * x ** (alpha - 1.0) * (1.0 + x) ** (-alpha - beta)
        )
        mass, _ = integrate.quad(density, 0.0, 2.0)
        assert mass == pytest.approx(special.betainc(alpha, beta, 2.0 / 3.0), abs=1e-9)

    def test_positive_and_finite_at_tiny_shape(self):
        x = beta_prime_sample(0.01, 3.5, Seed(9).generator(), 20_000)
        assert np.all(x > 0) and np.all(np.isfinite(x))

    def test_invalid_shape(self):
        with pytest.raises(ValueError):
            beta_prime_sample(0.0, 1.0, Seed(0).generator())


class TestWalkLaws:
    def test_lag_k_variance_scaling(self):
        walk = simulate(ProcessSpec("gaussian_walk", dim=2, steps=50_000, seed=10))
        v1 = increments(walk, 1).var()
        v4 = increments(walk, 4).var()
        assert v4 / v1 == pytest.approx(4.0, rel=0.1)

    def test_beta_prime_walk_lower_tail(self):
        walk = simulate(ProcessSpec("beta_prime_walk", dim=2, steps=10_000, seed=11, bp_alpha=0.5, bp_beta=3.5))
        norms = np.linalg.norm(increments(walk, 1), axis=1)
        # analytic check at a small radius: P(Z <= r) ~ 2 r^(1/2) / B(0.5, 3.5)
        r = 1e-4
        expected = special.betainc(0.5, 3.5, r / (1.0 + r))
        assert (norms <= r).mean() == pytest.approx(expected, rel=0.35)

    def test_perturbed_gd_zero_noise_converges(self):
        spec = ProcessSpec(
            "perturbed_gd_quadratic",
            dim=3,
            steps=50,
            seed=0,
            sigma=0.0,
            gd_step=0.5,
            curvature=(1.0, 2.0, 3.0),
            start=(1.0, -1.0, 2.0),
        )
        t = simulate(spec)
        norms = np.linalg.norm(t.points, axis=1)
        assert np.all(np.diff(norms) <= 1e-15)
        assert norms[-1] < 1e-6

    def test_perturbed_gd_default_start_is_origin(self):
        t = simulate(ProcessSpec("perturbed_gd_quadratic", dim=2, steps=5, seed=1))
        np.testing.assert_array_equal(t.points[0], [0.0, 0.0])
