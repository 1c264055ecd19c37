import json

import numpy as np
import pytest

from trajtail import experiments
from trajtail.cli import main
from trajtail.core import Seed, normalize_by_running_std
from trajtail.experiments import StudySpec, emit_report, run_study
from trajtail.ft import SubgradientOptions, estimate_gamma2
from trajtail.simulate import ProcessSpec, simulate

TINY_GD = StudySpec("gaussian_dimension", replicates=3, seed=21, params={"steps": 3000, "dims": (1, 2)})


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

    def test_defaults_resolved(self):
        spec = StudySpec("appendix_c_curve")
        assert spec.replicates == 100
        assert spec.params["beta"] == 3.5
        assert spec.params == experiments._DEFAULT_PARAMS["appendix_c_curve"]
        assert StudySpec(spec.study, spec.replicates, spec.seed, spec.params) == spec


class TestRunStudy:
    def test_deterministic_and_thread_invariant(self):
        a = run_study(TINY_GD, threads=1)
        b = run_study(TINY_GD, threads=2)
        for name in a.raw:
            np.testing.assert_array_equal(a.raw[name], b.raw[name])
        assert a.verdicts == b.verdicts

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
        assert res.grid == ("stable", "gaussian")

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
        assert len(res.grid) == 3
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
        for gi, alpha in enumerate(res.grid):
            seed = Seed(9).spawn(gi, 0)
            walk = simulate(ProcessSpec("beta_prime_walk", 2, 60, seed.spawn(0).base, bp_alpha=alpha, bp_beta=3.5))
            options = SubgradientOptions(iterations=300, restarts=1, dtype="float64", seed=seed.spawn(1).base)
            running = estimate_gamma2(normalize_by_running_std(walk).trajectory, 0.25, options=options).value
            full = estimate_gamma2(experiments._normalize(walk, "full"), 0.25, options=options).value
            assert res.raw["gamma2"][gi, 0] == running != full


def test_each_cell_is_one_call_through_a_cell_attribute(monkeypatch):
    """The benchmark's span tracer wraps every ``experiments._cell_*`` module
    attribute and records one span per call; a study must look the cells up
    there at run time and make exactly one such call per cell."""
    calls = []
    for name in [a for a in vars(experiments) if a.startswith("_cell_")]:
        def counted(*args, _fn=getattr(experiments, name), **kwargs):
            calls.append(1)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(experiments, name, counted)
    specs = (
        StudySpec("figure1_ordering", replicates=2, seed=1, params={"steps": 40, "ft_iterations": 5}),
        StudySpec("appendix_c_curve", replicates=2, seed=1, params={"alpha_points": 3, "ft_iterations": 5}),
    )
    for spec in specs:
        calls.clear()
        res = run_study(spec, threads=2)
        assert len(calls) == len(res.grid) * spec.replicates


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
            "runtime_seconds",
        }
        assert doc["runtime_seconds"] is None
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

    def test_runtime_measured_in_memory(self):
        res = run_study(TINY_GD)
        assert res.runtime_seconds > 0.0
