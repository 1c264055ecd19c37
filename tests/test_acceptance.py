"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Criteria 4 and 5 execute the full bundled studies and dominate the
runtime (a few minutes on two cores).
"""

import json
import time

import numpy as np
import pytest

from trajtail.bounds import (
    BoundInputs,
    corollary1_bound,
    gauss_radial_bounds_check,
    j_integral,
    theorem1_expectation_bound,
    theorem1_high_prob_bound,
)
from trajtail.cli import main as cli_main
from trajtail.core import RadiusGrid, Seed, SimplexWeights, Trajectory
from trajtail.experiments import StudySpec, run_study
from trajtail.exponents import fit_power_law, stable_index
from trajtail.ft import SubgradientOptions, TruncatedGram, brute_force_gamma2, estimate_gamma2, ft_objective
from trajtail.simulate import stable_sample
from trajtail.spatial import k_function, k_function_slope

SQRT_LOG2 = np.sqrt(np.log(2.0))


def _criterion(num: int, name: str, ok: bool, detail: str = "") -> bool:
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    return ok


def test_c01_ft_oracle_equivalence():
    """estimate_gamma2 matches the simplex-grid oracle on small random sets."""
    start = time.perf_counter()
    q = 200
    rng = Seed(101).generator()
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 5))
        pts = rng.uniform(0.0, 1.0, (n, 2))
        oracle = brute_force_gamma2(pts, 1.0, grid_resolution=q)
        est = estimate_gamma2(pts, 1.0)
        excess = abs(est.value - oracle.value)
        tol = max(0.02 * oracle.value, 1.0 / q)
        worst = max(worst, excess / tol)
        assert excess <= tol, f"estimate {est.value} vs oracle {oracle.value}"
    elapsed = time.perf_counter() - start
    ok = worst <= 1.0 and elapsed < 30.0
    assert _criterion(1, "oracle equivalence on 20 random sets", ok, f"worst={worst:.2f}x tol, {elapsed:.1f}s")
    assert elapsed < 30.0


def test_c02_closed_forms_and_bounds():
    singleton = estimate_gamma2(np.zeros((1, 2)), 1.0)
    ok = singleton.value == 0.0
    two_far = estimate_gamma2(np.array([[0.0, 0.0], [5.0, 0.0]]), 1.0)
    ok &= abs(two_far.value - SQRT_LOG2) <= 1e-3
    rng = Seed(102).generator()
    opts = SubgradientOptions(iterations=200, restarts=2, seed=0)
    for _ in range(100):
        n = int(rng.integers(2, 40))
        pts = rng.uniform(0.0, 1.0, (n, 2)) * 10.0 ** rng.uniform(-2, 1)
        est = estimate_gamma2(pts, 1.0, options=opts)
        gram = TruncatedGram.from_points(pts, 1.0)
        uniform_val = ft_objective(gram, SimplexWeights.uniform(n))
        ok &= est.value <= uniform_val + 1e-9
        ok &= est.value <= np.sqrt(np.log(n)) + 1e-9
        ok &= est.value >= 0.0
    assert _criterion(2, "closed forms and upper bounds", ok, f"two-far dev={abs(two_far.value - SQRT_LOG2):.2e}")


def test_c03_exact_symmetries():
    # a deterministic zero start keeps the optimization equivariant under
    # relabeling; random restarts would not be permuted with the points
    rng = Seed(103).generator()
    opts = SubgradientOptions(iterations=300, restarts=1, seed=1)
    worst = 0.0
    for _ in range(10):
        n = int(rng.integers(2, 8))
        pts = rng.uniform(0.0, 1.0, (n, 2))
        base = estimate_gamma2(pts, 0.5, options=opts).value
        shifted = estimate_gamma2(pts + rng.uniform(-50, 50, 2), 0.5, options=opts).value
        worst = max(worst, abs(shifted - base))
        for c in (2.0, 3.0, 0.5):
            scaled = estimate_gamma2(c * pts, c * 0.5, options=opts).value
            worst = max(worst, abs(scaled - base))
        perm = rng.permutation(n)
        permuted = estimate_gamma2(pts[perm], 0.5, options=opts).value
        worst = max(worst, abs(permuted - base))
    ok = worst <= 1e-9
    assert _criterion(3, "translation/scaling/permutation symmetries", ok, f"worst dev={worst:.2e}")


def test_c04_figure1_ordering():
    start = time.perf_counter()
    result = run_study(StudySpec("figure1_ordering", seed=2024), threads=2)
    elapsed = time.perf_counter() - start
    g = result.stats["gamma2"]
    below = result.verdicts["stable_below_gaussian"]
    disjoint = result.verdicts["intervals_disjoint"]
    ok = below and disjoint and elapsed < 300.0
    detail = (
        f"stable={g.mean[0]:.4f} [{g.lo95[0]:.4f},{g.hi95[0]:.4f}] "
        f"gauss={g.mean[1]:.4f} [{g.lo95[1]:.4f},{g.hi95[1]:.4f}] {elapsed:.0f}s"
    )
    assert _criterion(4, "heavy-tail ordering with disjoint CIs", ok, detail)


def test_c05_alpha_monotonicity():
    start = time.perf_counter()
    result = run_study(StudySpec("appendix_c_curve", seed=2024), threads=2)
    elapsed = time.perf_counter() - start
    increasing = result.verdicts["strictly_increasing"]
    spearman = result.diagnostics["spearman"]
    ok = increasing and spearman == 1.0 and elapsed < 300.0
    mean = result.stats["gamma2"].mean
    assert _criterion(
        5, "functional grows with the tail shape", ok,
        f"spearman={spearman:.3f} range=[{mean[0]:.3f},{mean[-1]:.3f}] {elapsed:.0f}s",
    )


def test_c06_gaussian_walk_dimension():
    result = run_study(StudySpec("gaussian_dimension", seed=2024), threads=2)
    mean = result.stats["alpha_hat"].mean
    errors = np.abs(mean - np.asarray(result.spec.grid, dtype=float))
    ok = bool(np.all(errors <= 0.25))
    assert _criterion(6, "ball-mass exponent equals ambient dimension", ok,
                      f"means={np.round(mean, 3).tolist()}")


def test_c07_power_law_recovery():
    hits = 0
    for seed in range(20):
        u = Seed(seed).generator().uniform(size=10_000)
        samples = u ** (-1.0 / 1.5)
        fit = fit_power_law(samples)
        hits += 1.35 <= fit.alpha_survival <= 1.65
    closed = fit_power_law([1.0, np.e], x_min=1.0)
    exact = abs(closed.alpha_density - 3.0) <= 1e-12
    ok = hits >= 18 and exact
    assert _criterion(7, "power-law recovery", ok, f"{hits}/20 seeds in [1.35,1.65]")


def test_c08_stable_index_recovery():
    ok = True
    details = []
    for alpha in (1.0, 1.5, 2.0):
        hits = 0
        for seed in range(20):
            x = stable_sample(alpha, Seed(1000 + seed).generator(), 100_000)
            est = stable_index(x, 10)
            hits += abs(est.alpha_hat - alpha) <= 0.1
            scaled = stable_index(1000.0 * x, 10)
            ok &= abs(scaled.alpha_hat - est.alpha_hat) <= 1e-9
        details.append(f"alpha={alpha}: {hits}/20")
        ok &= hits >= 18
    assert _criterion(8, "stable-index recovery and scale invariance", ok, "; ".join(details))


def test_c09_k_function_growth():
    t = Trajectory(Seed(202).generator().uniform(0.0, 1.0, (500, 2)))
    from scipy.spatial.distance import pdist

    grid = RadiusGrid.from_quantiles(pdist(t.points), np.geomspace(0.002, 0.3, 32))
    slope = k_function_slope(k_function(t, grid))
    ok = 1.7 <= slope <= 2.3
    assert _criterion(9, "planar point-pattern growth exponent", ok, f"slope={slope:.3f}")


def test_c10_bound_arithmetic():
    inp = BoundInputs(loss_bound=1.0, lipschitz=1.0, rho=1.0, n=100, delta=np.exp(-1.0), gamma2=0.0)
    ok = theorem1_high_prob_bound(inp) == pytest.approx(0.1, abs=1e-15)
    inp_e = BoundInputs(loss_bound=1.0, lipschitz=1.0, rho=1.0, n=4, delta=0.5, gamma2=1.0)
    ok &= theorem1_expectation_bound(inp_e) == pytest.approx(0.5, abs=1e-15)
    ok &= corollary1_bound(1.0, 1.0, 1.0) == pytest.approx(np.sqrt(np.pi) / 2.0, abs=1e-15)
    ok &= corollary1_bound(4.0, 1.0, 1.0) == pytest.approx(2 * corollary1_bound(1.0, 1.0, 1.0), rel=1e-14)
    for n_factor in (2, 4):
        a = BoundInputs(loss_bound=1.0, lipschitz=1.0, rho=1.0, n=50, delta=0.1, gamma2=0.3)
        b = BoundInputs(loss_bound=1.0, lipschitz=1.0, rho=1.0, n=50 * n_factor, delta=0.1, gamma2=0.3)
        ok &= theorem1_high_prob_bound(b) == pytest.approx(
            theorem1_high_prob_bound(a) / np.sqrt(n_factor), rel=1e-14
        )
    with pytest.raises(ValueError):
        corollary1_bound(1.0, 1.5, 1.0)
    assert _criterion(10, "bound arithmetic", bool(ok))


def _riemann_j_oracle(a, horizon, rho, dim, nv=1000, ns=1000, v_eps=1e-12):
    """Independent brute-force double Riemann sum (log-spaced midpoints)."""
    b = a * rho * rho
    edges_v = np.exp(np.linspace(np.log(v_eps), 0.0, nv + 1))
    mids_v = 0.5 * (edges_v[1:] + edges_v[:-1])
    dv = np.diff(edges_v)
    total = 0.0
    for vm, dvi in zip(mids_v, dv):
        smax = 1.0 / horizon + 60.0 / (b * vm)
        edges_s = np.exp(np.linspace(np.log(1.0 / horizon), np.log(smax), ns + 1))
        mids_s = 0.5 * (edges_s[1:] + edges_s[:-1])
        inner = np.sum(mids_s ** (dim / 2.0 - 2.0) * np.exp(-b * mids_s * vm) * np.diff(edges_s))
        total += vm ** (dim / 2.0 - 1.0) * inner * dvi
    return total / horizon


def test_c11_special_functions(j_reference):
    value = j_integral(1.0, 1.0, 1.0, 2)
    oracle = _riemann_j_oracle(1.0, 1.0, 1.0, 2)
    riemann_ok = abs(value - oracle) <= 1e-4 * abs(oracle)
    print(f"[criterion 11a] {'PASS' if riemann_ok else 'FAIL'} Riemann-sum agreement "
          f"(value={value:.6f} oracle={oracle:.6f})")

    grid_a = (0.5, 1.0, 2.0, 4.0)
    grid_d = (1, 2, 3, 4)
    table = {
        (a, d, t, r): j_integral(a, t, r, d)
        for a in grid_a for d in grid_d for t in (1.0, 10.0) for r in (0.5, 1.0)
    }
    a_ok = all(
        table[(grid_a[i], d, t, r)] > table[(grid_a[i + 1], d, t, r)]
        for i in range(len(grid_a) - 1) for d in grid_d for t in (1.0, 10.0) for r in (0.5, 1.0)
    )
    print(f"[criterion 11b] {'PASS' if a_ok else 'FAIL'} monotone decreasing in a")

    rel_err = {
        (a, d, t, r): abs(v / j_reference(a, t, r, d) - 1.0)
        for (a, d, t, r), v in table.items()
    }
    worst_key = max(rel_err, key=rel_err.get)
    closed_ok = rel_err[worst_key] <= 1e-9
    # J is not monotone in D: at b = a rho^2 = 1 it falls with D, at b = 1/8
    # it rises from D = 2 on because the prefactor b^(1-D/2) grows with D.
    unit = [table[(1.0, d, 1.0, 1.0)] for d in grid_d]
    small_b = [table[(0.5, d, 1.0, 0.5)] for d in grid_d]
    unit_ok = np.allclose(unit, [1.6718, 0.8515, 0.6578, 0.6321], rtol=0.0, atol=5e-5)
    d_ok = bool(np.all(np.diff(unit) < 0) and np.all(np.diff(small_b[1:]) > 0))
    print(f"[criterion 11c] {'PASS' if closed_ok and unit_ok and d_ok else 'FAIL'} mpmath "
          f"reference on {len(table)} grid points (worst rel err {rel_err[worst_key]:.1e}); "
          f"not monotone in D: J(1,1,1,D)={np.round(unit, 4).tolist()}, "
          f"J(0.5,1,0.5,D)={np.round(small_b, 3).tolist()}")

    rng = Seed(404).generator()
    gauss_ok = True
    for _ in range(100):
        a = 10.0 ** rng.uniform(-2, 2)
        rho = 10.0 ** rng.uniform(-1, 1)
        r = rho * rng.uniform(0.05, 1.0)
        dim = int(rng.integers(1, 6))
        gauss_ok &= gauss_radial_bounds_check(a, r, rho, dim).holds
    print(f"[criterion 11d] {'PASS' if gauss_ok else 'FAIL'} radial Gaussian sandwich on 100 points")

    ok = riemann_ok and a_ok and closed_ok and unit_ok and d_ok and gauss_ok
    _criterion(11, "special functions", ok)
    assert riemann_ok and a_ok and gauss_ok
    assert closed_ok, f"J off the mpmath reference by {rel_err[worst_key]:.2e} (relative) at (a, D, T, rho)={worst_key}"
    assert unit_ok and d_ok, f"J(1,1,1,D)={unit}, J(0.5,1,0.5,D)={small_b}"


def test_c12_cli_determinism(tmp_path, capsys):
    walk = tmp_path / "walk.csv"
    sim_args = ["simulate", "--kind", "stable-levy-walk", "--dim", "2", "--steps", "150",
                "--seed", "3", "--out", str(walk)]
    assert cli_main(sim_args) == 0
    out1 = capsys.readouterr().out
    walk_bytes = walk.read_bytes()
    assert cli_main(sim_args) == 0
    out2 = capsys.readouterr().out
    same_sim = out1 == out2 and walk.read_bytes() == walk_bytes

    g_args = ["gamma2", "--input", str(walk), "--rho", "0.25", "--seed", "7",
              "--iterations", "150", "--restarts", "2"]
    assert cli_main(g_args) == 0
    g1 = capsys.readouterr().out
    assert cli_main(g_args) == 0
    g2 = capsys.readouterr().out
    same_gamma = g1 == g2

    out_dir = tmp_path / "study"
    s_args = ["study", "--name", "gaussian-dimension", "--replicates", "2", "--seed", "5",
              "--param", "steps=2000", "--out-dir", str(out_dir)]
    assert cli_main(s_args + ["--threads", "1"]) == 0
    s1 = capsys.readouterr().out
    files1 = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
    assert cli_main(s_args + ["--threads", "2"]) == 0
    s2 = capsys.readouterr().out
    files2 = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
    same_study = s1 == s2 and files1 == files2

    ok = same_sim and same_gamma and same_study
    assert _criterion(12, "byte-identical reruns, thread-invariant", ok,
                      f"sim={same_sim} gamma2={same_gamma} study={same_study}")
