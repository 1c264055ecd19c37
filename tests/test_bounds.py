import itertools
import logging

import mpmath
import numpy as np
import pytest
from scipy import integrate
from scipy.special import exp1

from trajtail.bounds import (
    BoundInputs,
    corollary1_bound,
    gauss_radial_bounds_check,
    j_integral,
    kernel_functional,
    theorem1_expectation_bound,
    theorem1_high_prob_bound,
)
from trajtail.core import RadiusGrid
from trajtail.errors import DegenerateDataError
from trajtail.exponents import BallMassCurve


def make_inputs(**overrides):
    base = dict(loss_bound=1.0, lipschitz=1.0, rho=1.0, n=100, delta=np.exp(-1.0), gamma2=0.0)
    base.update(overrides)
    return BoundInputs(**base)


class TestTheorem1:
    def test_high_prob_reference_value(self):
        assert theorem1_high_prob_bound(make_inputs()) == pytest.approx(0.1, abs=1e-15)

    def test_high_prob_scales_as_inverse_sqrt_n(self):
        inp1 = make_inputs(gamma2=0.7, mutual_info_inf=2.0, n=100)
        inp2 = make_inputs(gamma2=0.7, mutual_info_inf=2.0, n=200)
        assert theorem1_high_prob_bound(inp2) == pytest.approx(
            theorem1_high_prob_bound(inp1) / np.sqrt(2.0), rel=1e-14
        )

    def test_l_rho_enters_linearly(self):
        a = theorem1_high_prob_bound(make_inputs(lipschitz=2.0))  # L_rho = 2
        b = theorem1_high_prob_bound(make_inputs(lipschitz=1.0))  # L_rho = 1
        assert a == pytest.approx(2.0 * b, rel=1e-15)

    def test_l_rho_is_max(self):
        assert make_inputs(loss_bound=3.0, lipschitz=1.0, rho=2.0).l_rho == 3.0
        assert make_inputs(loss_bound=1.0, lipschitz=3.0, rho=2.0).l_rho == 6.0

    def test_expectation_reference_values(self):
        assert theorem1_expectation_bound(make_inputs(gamma2=1.0, n=4)) == pytest.approx(0.5, abs=1e-15)
        inp = make_inputs(gamma2=0.0, mutual_info_1=4.0, n=16)
        assert theorem1_expectation_bound(inp) == pytest.approx(2.0 / 4.0, abs=1e-15)

    def test_k2_scales_linearly(self):
        a = theorem1_expectation_bound(make_inputs(gamma2=1.0, k2=3.0))
        b = theorem1_expectation_bound(make_inputs(gamma2=1.0, k2=1.0))
        assert a == pytest.approx(3.0 * b, rel=1e-15)

    def test_delta_validation(self):
        with pytest.raises(ValueError):
            make_inputs(delta=0.0)
        with pytest.raises(ValueError):
            make_inputs(delta=1.0)

    @pytest.mark.parametrize("name", ["loss_bound", "lipschitz", "rho", "gamma2", "delta", "mutual_info_inf",
                                      "mutual_info_1", "k1", "k2", "unbounded_loss_tail"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_inputs_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite, got {value}$"):
            make_inputs(**{name: value})

    def test_confidence_discounts_tail(self):
        inp = make_inputs(delta=0.05, unbounded_loss_tail=0.01)
        assert inp.confidence == pytest.approx(0.94)

    @pytest.mark.parametrize("delta, tail", [(0.9, 0.5), (0.9, 5.0), (0.5, 0.5)])
    def test_confidence_must_be_positive(self, delta, tail):
        with pytest.raises(ValueError, match="delta \\+ unbounded_loss_tail must be below 1"):
            make_inputs(delta=delta, unbounded_loss_tail=tail)


class TestCorollary1:
    def test_reference_value(self):
        assert corollary1_bound(1.0, 1.0, 1.0) == pytest.approx(np.sqrt(np.pi) / 2.0, abs=1e-15)

    def test_sqrt_alpha_homogeneity(self):
        assert corollary1_bound(4.0, 1.0, 1.0) == pytest.approx(2.0 * corollary1_bound(1.0, 1.0, 1.0), rel=1e-15)

    def test_constraint_violation(self):
        with pytest.raises(ValueError, match="<= 1"):
            corollary1_bound(1.0, 1.5, 1.0)

    @pytest.mark.parametrize("args, name", [((np.inf, 1.0, 1.0), "alpha"), ((1.0, np.nan, 1.0), "rho"),
                                            ((1.0, 0.5, -np.inf), "c_rho")])
    def test_non_finite_inputs_rejected(self, args, name):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            corollary1_bound(*args)


class TestKernelFunctional:
    def test_unit_masses_constant_integrand(self):
        grid = RadiusGrid(np.linspace(0.1, 1.0, 10))
        curve = BallMassCurve(grid, np.ones(10))
        for dim in (1, 2, 4):
            expected = np.sqrt((dim + 2) * np.log(3.0))
            assert kernel_functional(curve, 1.0, dim) == pytest.approx(expected, abs=1e-12)

    def test_power_law_masses_match_quadrature_oracle(self):
        alpha, dim = 1.7, 2
        radii = np.geomspace(1e-7, 1.0, 6000)
        curve = BallMassCurve(RadiusGrid(radii), radii**alpha)
        value = kernel_functional(curve, 1.0, dim)
        oracle, _ = integrate.quad(
            lambda r: np.sqrt(4.0 * np.log(3.0) + alpha * np.log(1.0 / r)), 0.0, 1.0, limit=200
        )
        assert value == pytest.approx(oracle, rel=1e-4)

    def test_halving_masses_increases_value(self):
        grid = RadiusGrid(np.linspace(0.1, 1.0, 20))
        m = np.linspace(0.05, 0.9, 20)
        lo = kernel_functional(BallMassCurve(grid, m), 1.0, 2)
        hi = kernel_functional(BallMassCurve(grid, m / 2.0), 1.0, 2)
        assert hi > lo

    def test_zero_masses_trimmed_with_warning(self, caplog):
        grid = RadiusGrid(np.linspace(0.1, 1.0, 5))
        curve = BallMassCurve(grid, np.array([0.0, 0.0, 0.5, 0.7, 1.0]))
        with caplog.at_level(logging.WARNING, logger="trajtail.bounds"):
            kernel_functional(curve, 1.0, 2)
        assert [r.getMessage() for r in caplog.records] == ["trimmed 2 zero-mass radii below rho"]

    def test_all_zero_masses_degenerate(self, caplog):
        grid = RadiusGrid(np.linspace(0.1, 1.0, 4))
        curve = BallMassCurve(grid, np.zeros(4))
        with caplog.at_level(logging.WARNING, logger="trajtail.bounds"), pytest.raises(DegenerateDataError):
            kernel_functional(curve, 1.0, 2)
        assert [r.levelname for r in caplog.records] == ["WARNING"]


class TestJIntegral:
    def test_closed_form_dim_two(self):
        # int_0^1 E1(v) dv = E1(1) + 1 - 1/e
        assert j_integral(1.0, 1.0, 1.0, 2) == pytest.approx(exp1(1.0) + 1.0 - np.exp(-1.0), rel=1e-9)

    def test_closed_form_dim_four(self):
        assert j_integral(1.0, 1.0, 1.0, 4) == pytest.approx(1.0 - np.exp(-1.0), rel=1e-9)

    def test_decreasing_in_a(self):
        for dim in (1, 2, 3):
            assert j_integral(2.0, 1.0, 1.0, dim) < j_integral(1.0, 1.0, 1.0, dim)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            j_integral(0.0, 1.0, 1.0, 2)
        with pytest.raises(ValueError):
            j_integral(1.0, 1.0, 1.0, 0)

    def test_matches_mpmath_on_grid(self, j_reference):
        grid = itertools.product(
            (0.01, 0.5, 1.0, 4.0, 100.0), (0.1, 1.0, 10.0, 1000.0), (0.1, 0.5, 1.0, 3.0), (1, 2, 3, 4, 7, 10, 33, 100)
        )
        for a, horizon, rho, dim in grid:
            value = j_integral(a, horizon, rho, dim)
            assert 0.0 < value < np.inf
            assert value == pytest.approx(j_reference(a, horizon, rho, dim), rel=1e-9), (a, horizon, rho, dim)

    def test_extreme_inputs_match_mpmath(self, j_reference):
        # c = a rho^2 / T and a rho^2 leave the float64 range at many of these corners
        corners = (1e-200, 1.0, 1e200)
        for a, horizon, rho, dim in itertools.product(corners, corners, corners, (1, 2, 3, 10)):
            reference = j_reference(a, horizon, rho, dim)
            try:
                value = j_integral(a, horizon, rho, dim)
            except DegenerateDataError:
                assert not 1e-300 <= reference <= 1e300, (a, horizon, rho, dim)
            else:
                assert value == pytest.approx(reference, rel=1e-9), (a, horizon, rho, dim)


class TestGaussRadialBounds:
    def test_small_a_limit_hits_upper_bound(self):
        check = gauss_radial_bounds_check(1e-12, 0.5, 1.0, 3)
        assert check.holds
        assert check.integral == pytest.approx(check.upper, rel=1e-9)

    def test_reference_point(self):
        check = gauss_radial_bounds_check(1.0, 0.5, 1.0, 2)
        assert check.holds
        assert check.lower <= check.integral <= check.upper

    def test_equality_at_r_equal_rho(self):
        for a, rho, dim in ((1.0, 1.0, 1), (2.0, 0.7, 3), (0.5, 1.3, 4)):
            check = gauss_radial_bounds_check(a, rho, rho, dim)
            assert abs(check.integral - check.lower) <= 1e-10

    def test_r_beyond_rho_rejected(self):
        with pytest.raises(ValueError):
            gauss_radial_bounds_check(1.0, 2.0, 1.0, 2)

    def test_extreme_inputs_match_dim_two_closed_form(self):
        # D = 2: the integral is (1 - exp(-a r^2)) / (2a), and I(1, x) = (1 - exp(-x)) / x
        corners = (1e-200, 1e-100, 1.0, 1e100, 1e200)
        for a, r, rho in itertools.product(corners, repeat=3):
            if r > rho:
                continue
            with mpmath.workdps(40):
                a_, r_, rho_ = mpmath.mpf(a), mpmath.mpf(r), mpmath.mpf(rho)
                integral = -mpmath.expm1(-a_ * r_**2) / (2 * a_)
                lower = r_**2 / 2 * -mpmath.expm1(-a_ * rho_**2) / (a_ * rho_**2)
                reference = [float(integral), float(lower), float(r_**2 / 2)]
            if all(np.finfo(np.float64).tiny <= x < np.inf for x in reference):
                check = gauss_radial_bounds_check(a, r, rho, 2)
                assert check.holds, (a, r, rho)
                assert [check.integral, check.lower, check.upper] == pytest.approx(reference, rel=1e-12), (a, r, rho)
            else:
                with pytest.raises(DegenerateDataError):
                    gauss_radial_bounds_check(a, r, rho, 2)

    def test_random_parameter_grid(self, rng):
        def radial(a, r, dim):  # (r^D / 2) gamma(s, a r^2) / (a r^2)^s, s = D/2
            with mpmath.workdps(40):
                x, s = mpmath.mpf(a) * mpmath.mpf(r) ** 2, mpmath.mpf(dim) / 2
                return float(mpmath.mpf(r) ** dim / 2 * mpmath.gammainc(s, 0, x) / x**s)

        for _ in range(300):
            a = 10.0 ** rng.uniform(-3, 3)
            rho = 10.0 ** rng.uniform(-1, 1)
            r = rho * rng.uniform(0.05, 1.0)
            dim = int(rng.integers(1, 61))
            check = gauss_radial_bounds_check(a, r, rho, dim)
            assert check.holds, (a, r, rho, dim)
            assert check.integral == pytest.approx(radial(a, r, dim), rel=1e-9)
            assert check.lower == pytest.approx(radial(a, rho, dim) * (r / rho) ** dim, rel=1e-9)
