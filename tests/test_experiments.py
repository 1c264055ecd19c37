import json
import logging
import tracemalloc

import numpy as np
import pytest
from scipy.stats import spearmanr

from trajtail import experiments
from trajtail.cli import main
from trajtail.core import Seed, normalize_by_running_std
from trajtail.experiments import StudySpec, emit_report, run_study
from trajtail.ft import SubgradientOptions, estimate_gamma2
from trajtail.simulate import ProcessSpec, simulate

TINY_GD = StudySpec("gaussian_dimension", replicates=3, seed=21, params={"steps": 3000, "dims": (1, 2)})
# One small spec per study, each a fraction of a second per run.
TINY = {
    "figure1_ordering": StudySpec("figure1_ordering", replicates=2, seed=3, params={"steps": 60, "ft_iterations": 5}),
    "appendix_c_curve": StudySpec(
        "appendix_c_curve", replicates=2, seed=5, params={"alpha_points": 3, "steps": 60, "ft_iterations": 20}
    ),
    "gaussian_dimension": TINY_GD,
    "exponent_comparison": StudySpec(
        "exponent_comparison", replicates=2, seed=4, params={"steps": 400, "stable_alphas": (1.2, 1.8)}
    ),
}


class TestStudySpec:
    def test_unknown_study(self):
        with pytest.raises(ValueError):
            StudySpec("figure2_ordering")

    def test_unknown_param(self):
        with pytest.raises(ValueError):
            StudySpec("gaussian_dimension", params={"stepss": 100})

    def test_replicates_positive(self):
        with pytest.raises(ValueError):
            StudySpec("gaussian_dimension", replicates=0)

    def test_overrides_take_the_default_type(self):
        params = StudySpec(
            "appendix_c_curve", params={"steps": "60", "beta": 3, "alpha_hi": "0.5", "normalization": "running"}
        ).params
        assert params["steps"] == 60 and isinstance(params["steps"], int)
        assert params["beta"] == 3.0 and isinstance(params["beta"], float)
        assert params["alpha_hi"] == 0.5 and params["normalization"] == "running"
        assert StudySpec("gaussian_dimension", params={"dims": "1, 2"}).params["dims"] == (1, 2)
        assert StudySpec("gaussian_dimension", params={"dims": 2}).params["dims"] == (2,)
        alphas = StudySpec("exponent_comparison", params={"stable_alphas": [1.2, "1.8"]}).params
        assert alphas["stable_alphas"] == (1.2, 1.8)

    @pytest.mark.parametrize(
        "study, key, value",
        [
            ("gaussian_dimension", "steps", "abc"),
            ("gaussian_dimension", "steps", 2.5),
            ("gaussian_dimension", "dims", "1,x"),
            ("gaussian_dimension", "dims", ()),
            ("figure1_ordering", "normalization", 1),
        ],
    )
    def test_unconvertible_override_names_key(self, study, key, value):
        with pytest.raises(ValueError, match=repr(key)):
            StudySpec(study, params={key: value})

    @pytest.mark.parametrize("study", experiments.STUDIES)
    def test_defaults_pass_the_parameter_rule_unchanged(self, study):
        for key, default in experiments._DEFAULT_PARAMS[study].items():
            typed = experiments._typed(key, default, default)
            assert typed == default and type(typed) is type(default), key

    @pytest.mark.parametrize(
        "key, value", [("rho", "nan"), ("rho", 0.0), ("steps", "-5"), ("ft_iterations", 0), ("alpha_hi", "inf")]
    )
    def test_numbers_must_be_positive_and_finite(self, key, value):
        with pytest.raises(ValueError, match=f"parameter {key!r} must be positive and finite"):
            StudySpec("appendix_c_curve", params={key: value})

    def test_appendix_c_needs_two_grid_points(self):
        with pytest.raises(ValueError, match="parameter 'alpha_points' must be >= 2, got 1"):
            StudySpec("appendix_c_curve", params={"alpha_points": 1})
        assert len(StudySpec("appendix_c_curve", params={"alpha_points": 2}).grid) == 2

    @pytest.mark.parametrize(
        "study, params",
        [
            ("appendix_c_curve", {"alpha_lo": 0.5, "alpha_hi": 0.51}),
            ("gaussian_dimension", {"mass_lo": 0.5, "mass_hi": 0.99, "level_lo": 0.5, "level_hi": 1.0}),
            ("figure1_ordering", {"stable_alpha": 2.0}),
            ("exponent_comparison", {"stable_alphas": (1.0, 2.0)}),
        ],
    )
    def test_edge_of_each_ordered_range_accepted(self, study, params):
        assert StudySpec(study, params=params).params.items() >= params.items()

    def test_grid_resolved(self):
        grids = {study: (StudySpec(study).grid, StudySpec(study).grid_label) for study in experiments.STUDIES}
        assert grids["figure1_ordering"] == (("stable", "gaussian"), "process")
        assert grids["appendix_c_curve"][0] == tuple(np.geomspace(1e-2, 1.0, 10))
        assert grids["appendix_c_curve"][1] == "bp_alpha"
        assert grids["gaussian_dimension"] == ((1, 2, 3), "dim")
        assert grids["exponent_comparison"] == ((1.1, 1.3, 1.5, 1.7, 1.9), "stable_alpha")

    def test_defaults_resolved(self):
        spec = StudySpec("appendix_c_curve")
        assert spec.replicates == 100
        assert spec.params["beta"] == 3.5
        assert spec.params == experiments._DEFAULT_PARAMS["appendix_c_curve"]
        assert StudySpec(spec.study, spec.replicates, spec.seed, spec.params) == spec


class TestRunStudy:
    @pytest.mark.parametrize("study", sorted(TINY))
    def test_deterministic_and_thread_invariant(self, study):
        a = run_study(TINY[study], threads=1)
        b = run_study(TINY[study], threads=2)
        assert sorted(a.raw) == sorted(b.raw)
        for name in a.raw:
            np.testing.assert_array_equal(a.raw[name], b.raw[name])
        assert a.verdicts == b.verdicts
        assert a.diagnostics == b.diagnostics

    def test_intervals_contain_means(self):
        res = run_study(TINY_GD)
        for s in res.stats.values():
            assert np.all(s.lo95 <= s.mean) and np.all(s.mean <= s.hi95)

    def test_figure1_smoke(self):
        spec = StudySpec(
            "figure1_ordering",
            replicates=2,
            seed=3,
            params={"steps": 60, "ft_iterations": 30},
        )
        res = run_study(spec)
        assert set(res.stats) == {"gamma2"}
        assert set(res.verdicts) == {"stable_below_gaussian", "intervals_disjoint"}
        assert res.spec.grid == ("stable", "gaussian")

    def test_exponent_comparison_smoke(self):
        spec = StudySpec(
            "exponent_comparison",
            replicates=2,
            seed=4,
            params={"steps": 400, "stable_alphas": (1.2, 1.8)},
        )
        res = run_study(spec)
        assert set(res.stats) == {"alpha_lower_tail", "alpha_stable"}
        assert "spearman" in res.diagnostics

    def test_appendix_c_smoke(self):
        spec = StudySpec(
            "appendix_c_curve",
            replicates=2,
            seed=5,
            params={"alpha_points": 3, "ft_iterations": 50},
        )
        res = run_study(spec)
        assert len(res.spec.grid) == 3
        assert "spearman" in res.diagnostics and "r2_log_alpha" in res.diagnostics

    def test_appendix_c_running_normalization(self, tmp_path):
        """``normalization=running`` runs each cell on the prefix-std normalized walk, at any thread count."""
        argv = ["study", "--name", "appendix-c-curve", "--replicates", "1", "--seed", "9"]
        argv += ["--param", "steps=60", "--param", "alpha_points=3", "--param", "normalization=running"]
        for threads in ("1", "2"):
            assert main([*argv, "--threads", threads, "--out-dir", str(tmp_path / threads)]) == 0
        # study.json is the command's report, which names the output directory
        files = ["appendix_c_curve.csv", "appendix_c_curve.json", "study.json"]
        assert sorted(p.name for p in (tmp_path / "1").iterdir()) == files
        for name in files[:2]:
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()

        params = {"steps": 60, "alpha_points": 3, "normalization": "running"}
        spec = StudySpec("appendix_c_curve", replicates=1, seed=9, params=params)
        res = run_study(spec)
        resolved = res.spec.params
        options = SubgradientOptions(iterations=resolved["ft_iterations"])
        rho = resolved["rho"]
        for gi, alpha in enumerate(res.spec.grid):
            seed = Seed(9).spawn(gi, 0)
            process = ProcessSpec(
                "beta_prime_walk", 2, resolved["steps"], seed.spawn(0).base, bp_alpha=alpha, bp_beta=resolved["beta"]
            )
            walk = simulate(process)
            running = estimate_gamma2(normalize_by_running_std(walk).trajectory, rho, options=options).value
            full = estimate_gamma2(experiments._normalize(walk, "full"), rho, options=options).value
            assert res.raw["gamma2"][gi, 0] == running != full


def test_each_cell_is_one_call_through_a_cell_attribute(monkeypatch):
    """The benchmark's span tracer wraps every ``experiments._cell_*`` module
    attribute and records one span per call; a study must look the cells up
    there at run time and make exactly one such call per cell."""
    calls = []
    for name in [a for a in vars(experiments) if a.startswith("_cell_")]:
        def counted(*args, _fn=getattr(experiments, name), _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(experiments, name, counted)
    specs = (
        StudySpec("figure1_ordering", replicates=2, seed=1, params={"steps": 40, "ft_iterations": 5}),
        StudySpec("appendix_c_curve", replicates=2, seed=1, params={"alpha_points": 3, "ft_iterations": 5}),
        StudySpec("gaussian_dimension", replicates=2, seed=1, params={"steps": 500, "dims": (1, 2)}),
        StudySpec("exponent_comparison", replicates=2, seed=1, params={"steps": 300, "stable_alphas": (1.2, 1.8)}),
    )
    assert {spec.study for spec in specs} == set(experiments.STUDIES)
    for spec in specs:
        calls.clear()
        run_study(spec, threads=2)
        assert calls == [f"_cell_{spec.study}"] * (len(spec.grid) * spec.replicates)


def test_functional_cell_keeps_no_distance_matrix_through_the_descent():
    """A figure-1 Gaussian cell (n = 1,001) peaks within 0.5 MB of the 16.81 MB it took when every Gram computed its own
    distances; keeping the (n, n) matrix alive through the descent would add 8 MB.

    The first call in a process also fills numpy's caches, so the second call is the one measured.
    """
    params = StudySpec("figure1_ordering").params
    process = ProcessSpec("gaussian_walk", params["dim"], params["steps"], Seed(2024).spawn(1, 2).spawn(0).base)
    experiments._gamma2(process, params)
    tracemalloc.start()
    try:
        experiments._gamma2(process, params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 16.81e6 + 0.5e6, f"cell peaked at {peak} bytes"


def test_spearman_ranks_ties_by_their_average():
    """Tied values share the mean of their positions, as ``scipy.stats.spearmanr`` ranks them."""
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(300):
        n = int(rng.integers(3, 12))
        x, y = rng.integers(0, 4, (2, n)).astype(np.float64)
        if np.ptp(x) == 0 or np.ptp(y) == 0:
            continue  # spearmanr warns on a constant side; checked below
        assert experiments._spearman(x, y) == pytest.approx(spearmanr(x, y)[0], abs=1e-12)
        checked += 1
    assert checked > 200
    assert experiments._spearman([1, 2, 3], [5, 5, 1]) == pytest.approx(-np.sqrt(0.75))
    # distinct values keep their ordinal ranks
    x, y = rng.standard_normal((2, 9))
    assert experiments._spearman(x, y) == pytest.approx(spearmanr(x, y)[0], abs=1e-12)


@pytest.mark.parametrize("x", [[1, 2, 3, 4], [4, 3, 2, 1], [2, 2, 2, 2]])
def test_spearman_of_a_constant_side_is_zero(x):
    assert experiments._spearman(x, [2, 2, 2, 2]) == 0.0
    assert experiments._spearman([2, 2, 2, 2], x) == 0.0


def test_json_hook_writes_numpy_values_as_python_values():
    report = {
        "f32": np.float32(0.1),
        "i64": np.int64(-3),
        "flag": np.bool_(True),
        "array": np.array([[0.5, 2.0]]),
        "nested": (1, (np.float64(0.25), "x")),
    }
    assert json.dumps(report, sort_keys=True, default=experiments._jsonable) == (
        '{"array": [[0.5, 2.0]], "f32": 0.10000000149011612, "flag": true, "i64": -3, "nested": [1, [0.25, "x"]]}'
    )


class TestEmitReport:
    def test_file_naming_and_determinism(self, tmp_path):
        res = run_study(TINY_GD)
        paths = emit_report(res, tmp_path / "out")
        names = sorted(p.name for p in paths)
        assert names == ["gaussian_dimension.csv", "gaussian_dimension.json"]
        first = {p.name: p.read_bytes() for p in paths}
        res2 = run_study(TINY_GD, threads=2)
        for p in emit_report(res2, tmp_path / "out2"):
            assert p.read_bytes() == first[p.name]

    def test_json_schema(self, tmp_path):
        res = run_study(TINY_GD)
        (path,) = [p for p in emit_report(res, tmp_path) if p.suffix == ".json"]
        doc = json.loads(path.read_text())
        assert set(doc) == {
            "study",
            "spec",
            "grid_label",
            "grid",
            "stats",
            "verdicts",
            "diagnostics",
            "seed",
        }
        assert doc["spec"]["params"]["steps"] == 3000
        assert list(doc["stats"]) == ["alpha_hat"]
        assert len(doc["stats"]["alpha_hat"]["mean"]) == len(doc["grid"])

    def test_multi_stat_csv_naming(self, tmp_path):
        spec = StudySpec(
            "exponent_comparison", replicates=2, seed=4, params={"steps": 400, "stable_alphas": (1.2, 1.8)}
        )
        paths = emit_report(run_study(spec), tmp_path)
        names = sorted(p.name for p in paths)
        assert names == [
            "exponent_comparison.json",
            "exponent_comparison_alpha_lower_tail.csv",
            "exponent_comparison_alpha_stable.csv",
        ]

    def test_runtime_logged(self, caplog):
        with caplog.at_level(logging.INFO, logger="trajtail"):
            run_study(TINY_GD)
        (record,) = caplog.records
        assert record.getMessage().startswith("study gaussian_dimension finished in ")
