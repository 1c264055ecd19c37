import numpy as np
import pytest

from trajtail.core import Trajectory, save_trajectory


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def write_trajectory(tmp_path):
    def _write(points, name="traj.csv"):
        path = tmp_path / name
        save_trajectory(Trajectory(np.asarray(points, dtype=float)), path)
        return path

    return _write


@pytest.fixture
def j_reference():
    """``J(a, T, rho, D)`` to 40 digits, from mpmath's incomplete gamma functions.

    With b = a rho^2, c = b/T and s = D/2, J = (b^(1-s)/T) * [gamma(s, c)/c + Gamma(s-1, c)].
    """
    import mpmath

    def reference(a, horizon, rho, dim):
        with mpmath.workdps(40):
            b = mpmath.mpf(a) * mpmath.mpf(rho) ** 2
            c = b / horizon
            s = mpmath.mpf(dim) / 2
            return float(b ** (1 - s) / horizon * (mpmath.gammainc(s, 0, c) / c + mpmath.gammainc(s - 1, c)))

    return reference
