import contextlib
import dataclasses
import importlib
import io
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trajtail
from trajtail import core, experiments, ft
from trajtail.bounds import BoundInputs
from trajtail.cli import _BOUND_READS, _from_flags, build_parser, main
from trajtail.ft import SubgradientOptions
from trajtail.simulate import PROCESS_PARAMS, ProcessSpec, simulate


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse(out):
    return json.loads(out)


@pytest.fixture
def walk_csv(tmp_path, capsys):
    path = tmp_path / "walk.csv"
    code, _, _ = run_cli(
        capsys, "simulate", "--kind", "gaussian-walk", "--dim", "2", "--steps", "300",
        "--seed", "5", "--out", str(path),
    )
    assert code == 0
    return path


class TestExitCodes:
    def test_unknown_flag_is_argument_error(self, capsys):
        code, _, _ = run_cli(capsys, "gamma2", "--input", "x.csv", "--no-such-flag")
        assert code == 2

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == 2

    def test_missing_file_is_data_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "gamma2", "--input", str(tmp_path / "nope.csv"))
        assert code == 1

    def test_bad_value_is_argument_error(self, capsys, walk_csv):
        code, _, err = run_cli(capsys, "gamma2", "--input", str(walk_csv), "--rho", "-1")
        assert code == 2
        assert "argument --rho: expected a positive number" in err

    def test_window_with_three_values_rejected_at_parse(self, capsys, tmp_path):
        # the input is never read: a missing file would exit 1
        code, _, err = run_cli(
            capsys, "ballmass", "--input", str(tmp_path / "nope.csv"), "--window", "0.01,0.1,0.2"
        )
        assert code == 2
        assert "--window" in err

    @pytest.mark.parametrize("command", ["gamma2", "analyze"])
    def test_removed_ft_dtype_flag_rejected(self, capsys, walk_csv, tmp_path, command):
        """The descent's precision follows the point count; neither a flag nor an argument-file line sets it."""
        code, out, err = run_cli(capsys, command, "--input", str(walk_csv), "--ft-dtype", "float32")
        assert code == 2 and out == ""
        assert "unrecognized arguments: --ft-dtype float32" in err
        args_file = tmp_path / "run.args"
        args_file.write_text("--ft-dtype=float32\n")
        code, out, err = run_cli(capsys, command, "--input", str(walk_csv), f"@{args_file}")
        assert code == 2 and out == ""
        assert "unrecognized arguments: --ft-dtype=float32" in err

    def test_unread_radii_flags_not_accepted(self, capsys, walk_csv):
        assert run_cli(capsys, "analyze", "--input", str(walk_csv), "--radii-range", "0.1,1")[0] == 2
        assert run_cli(capsys, "cover", "--input", str(walk_csv), "--level-hi", "0.5")[0] == 2
        assert run_cli(capsys, "analyze", "--input", str(walk_csv), "--threads", "2")[0] == 2
        assert run_cli(capsys, "gamma2", "--input", str(walk_csv), "--threads", "2")[0] == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("ballmass", "--input", "nope.csv", "--radii-num", "0"),
            ("analyze", "--input", "nope.csv", "--radii-num", "0"),
            ("kfunction", "--input", "nope.csv", "--radii-num", "-3"),
            ("ballmass", "--input", "nope.csv", "--lags", "0,1"),
            ("stable-index", "--input", "nope.csv", "--layer-sizes", "2,0"),
            ("study", "--name", "gaussian-dimension", "--replicates", "1", "--param", "steps=300", "--threads", "0"),
            ("bound", "--form", "j-integral", "--dim", "0"),
        ],
    )
    def test_non_positive_count_rejected_at_parse(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)  # no nope.csv here: reading the input would exit 1
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert f"argument {argv[-2]}: expected a positive integer" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("stable-index", "--input", "nope.csv", "--block-size", "1"),
             "argument --block-size: expected an integer >= 2"),
            (("analyze", "--input", "nope.csv", "--window", "0", "--block-size", "0"),
             "argument --block-size: expected an integer >= 2"),
            (("analyze", "--input", "nope.csv", "--level-hi", "2"), "argument --level-hi: expected a level in (0, 1]"),
            (("ballmass", "--input", "nope.csv", "--level-hi", "1.5"),
             "argument --level-hi: expected a level in (0, 1]"),
            (("analyze", "--input", "nope.csv", "--level-lo", "0"), "argument --level-lo: expected a level in (0, 1]"),
            (("analyze", "--input", "nope.csv", "--mass-window", "0.5,0.1"),
             "argument --mass-window: expected 0 < lo < hi < 1"),
            (("kfunction", "--input", "nope.csv", "--window", "0.5,0.1"),
             "argument --window: expected 0 < lo < hi <= 1"),
            (("gamma2", "--input", "nope.csv", "--iterations", "0"),
             "argument --iterations: expected a positive integer, got '0'"),
            (("analyze", "--input", "nope.csv", "--restarts", "0"),
             "argument --restarts: expected a positive integer, got '0'"),
            (("simulate", "--kind", "gaussian-walk", "--steps", "0", "--out", "t.csv"),
             "argument --steps: expected a positive integer, got '0'"),
            (("simulate", "--kind", "gaussian-walk", "--dim", "0", "--out", "t.csv"),
             "argument --dim: expected a positive integer, got '0'"),
            (("study", "--name", "gaussian-dimension", "--replicates", "0"),
             "argument --replicates: expected a positive integer, got '0'"),
            (("gamma2", "--input", "nope.csv", "--rho", "-1"), "argument --rho: expected a positive number"),
            (("analyze", "--input", "nope.csv", "--rho", "0"), "argument --rho: expected a positive number"),
            (("cover", "--input", "nope.csv", "--rho", "inf"), "argument --rho: expected a positive number"),
            (("ballmass", "--input", "nope.csv", "--radii-range=-1,2"),
             "argument --radii-range: expected 0 < min < max < inf, got '-1,2'"),
            (("kfunction", "--input", "nope.csv", "--radii-range", "0.1,nan"),
             "argument --radii-range: expected 0 < min < max < inf, got '0.1,nan'"),
            (("cover", "--input", "nope.csv", "--radii-range", "3,1"),
             "argument --radii-range: expected 0 < min < max < inf, got '3,1'"),
            (("ballmass", "--input", "nope.csv", "--radii-range", "2,2"),
             "argument --radii-range: expected 0 < min < max < inf, got '2,2'"),
            (("ballmass", "--input", "nope.csv", "--window", "0.1,1"), "argument --window: expected 0 < lo < hi < 1"),
            (("analyze", "--input", "nope.csv", "--mass-window", "0.1,1"),
             "argument --mass-window: expected 0 < lo < hi < 1"),
            (("bound", "--form", "corollary1", "--rho", "0"), "argument --rho: expected a positive number"),
            (("bound", "--form", "j-integral", "--a", "-1"), "argument --a: expected a positive number"),
            (("bound", "--form", "j-integral", "--horizon", "0"), "argument --horizon: expected a positive number"),
            (("bound", "--form", "gauss-check", "--r", "nan"), "argument --r: expected a positive number"),
            *[
                (("tail-fit", "--input", "nope.csv", "--x-min", value), "argument --x-min: expected a positive number")
                for value in ("-1", "0", "nan", "inf")
            ],
            *[
                (("bound", "--form", "theorem1-prob", "--delta", "0.9", "--unbounded-loss-tail", tail),
                 f"delta + unbounded_loss_tail must be below 1, got {0.9 + float(tail)}")
                for tail in ("0.5", "5")
            ],
            (("bound", "--form", "theorem1-prob", "--gamma2", "nan"), "gamma2 must be finite, got nan"),
            (("bound", "--form", "theorem1-exp", "--mutual-info-1", "inf"), "mutual_info_1 must be finite, got inf"),
            (("bound", "--form", "theorem1-prob", "--loss-bound", "inf"), "loss_bound must be finite, got inf"),
            (("bound", "--form", "corollary1", "--alpha", "inf"), "alpha must be finite, got inf"),
            (("gamma2", "--input", "nope.csv", "--seed", "-1"), "seed must be a 64-bit unsigned integer"),
            (("analyze", "--input", "nope.csv", "--seed", "99999999999999999999999"),
             "seed must be a 64-bit unsigned integer"),
            (("simulate", "--kind", "gaussian-walk", "--sigma", "nan", "--out", "t.csv"), "sigma must be finite"),
            (("simulate", "--kind", "perturbed-gd-quadratic", "--curvature", "nan", "--out", "t.csv"),
             "curvature must be finite"),
            (("simulate", "--kind", "gaussian-walk", "--sigma", "1,2", "--dim", "3", "--out", "t.csv"),
             "sigma needs 1 or dim = 3 values, got 2"),
            (("gamma2", "--input", "nope.csv", "--loss-bound", "1", "--lipschitz", "4"),
             "unrecognized arguments: --loss-bound 1 --lipschitz 4"),
            (("ballmass", "--input", "nope.csv", "--mode", "worst"), "unrecognized arguments: --mode worst"),
            (("analyze", "--input", "nope.csv", "--level-lo", "nan"), "argument --level-lo: expected a level in (0, 1]"),
            (("ballmass", "--input", "nope.csv", "--level-hi", "inf"),
             "argument --level-hi: expected a level in (0, 1]"),
            (("analyze", "--input", "nope.csv", "--window", "nan"),
             "argument --window: invalid _nonnegative_int value: 'nan'"),
            (("analyze", "--input", "nope.csv", "--window", "-1"), "argument --window: expected a nonnegative integer"),
            (("kfunction", "--input", "nope.csv", "--radii-num", "inf"),
             "argument --radii-num: invalid _positive_int value: 'inf'"),
            (("stable-index", "--input", "nope.csv", "--block-size", "nan"),
             "argument --block-size: invalid _block_size value: 'nan'"),
            (("analyze", "--input", "nope.csv", "--rho", "abc"), "argument --rho: invalid _positive_float value: 'abc'"),
            (("simulate", "--kind", "gaussian-walk", "--sigma", "-1", "--out", "t.csv"), "sigma must be nonnegative"),
            (("simulate", "--kind", "perturbed-gd-quadratic", "--curvature", "1,0", "--dim", "2", "--out", "t.csv"),
             "curvature must be positive"),
            (("kfunction", "--input", "nope.csv", "--radii-range", "0.1,inf"),
             "argument --radii-range: expected 0 < min < max < inf, got '0.1,inf'"),
            (("cover", "--input", "nope.csv", "--radii-range", "0.1,x"),
             "argument --radii-range: invalid _radii_range value: '0.1,x'"),
            (("study", "--name", "gaussian-dimension", "--param", "steps"),
             "argument --param: expected KEY=VALUE, got 'steps'"),
        ],
    )
    def test_count_and_range_flags_rejected_before_any_work(self, capsys, tmp_path, monkeypatch, argv, message):
        monkeypatch.chdir(tmp_path)  # no nope.csv here: reading the input would exit 1
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert message in err
        assert out == "" and list(tmp_path.iterdir()) == []

    def test_kfunction_window_may_reach_one(self, capsys, walk_csv):
        # the K-function slope fits pair fractions up to 1; ball-mass fits stop below it
        code, out, _ = run_cli(capsys, "kfunction", "--input", str(walk_csv), "--window", "0.02,1")
        assert code == 0
        assert parse(out)["config"]["window"] == [0.02, 1.0]

    @pytest.mark.parametrize("argv", [("ballmass", "--radii-range", "0.5"), ("cover", "--radii-range", "3")])
    def test_half_given_radii_rejected(self, capsys, walk_csv, argv):
        """One flag holds both ends of the range, so one number alone is an argument error."""
        code, _, err = run_cli(capsys, *argv, "--input", str(walk_csv))
        assert code == 2
        assert f"argument --radii-range: expected 0 < min < max < inf, got '{argv[-1]}'" in err

    @pytest.mark.parametrize("command", ["gamma2", "tail-fit"])
    def test_non_finite_cell_is_data_error(self, capsys, tmp_path, command):
        path = tmp_path / "nan.csv"
        path.write_text("0,0\n1,nan\n2,2\n")
        code, _, err = run_cli(capsys, command, "--input", str(path))
        assert code == 1
        assert "line 2" in err and "argument error" not in err

    @pytest.mark.parametrize(
        "kind, flags", [("stable-levy-walk", ("--stable-alpha", "0.01")), ("perturbed-gd-quadratic", ("--gd-step", "5"))]
    )
    def test_overflowing_trajectory_is_data_error(self, capsys, tmp_path, kind, flags):
        code, out, err = run_cli(capsys, "simulate", "--kind", kind, *flags, "--out", str(tmp_path / "t.csv"))
        assert code == 1
        assert err.startswith(f"error: {kind.replace('-', '_')} trajectory leaves the float64 range at row ")
        assert err.count("\n") == 1 and "Warning" not in err
        assert out == "" and list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["analyze", "gamma2"])
    def test_non_utf8_byte_is_data_error(self, capsys, tmp_path, command):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"0,0\n1,1\n2,\xff2\n3,3\n")  # line 3 is inside analyze's window
        code, _, err = run_cli(capsys, command, "--input", str(path))
        assert code == 1
        assert "line 3: byte 0xff is not UTF-8" in err and "argument error" not in err

    def test_negative_window_rejected_at_parse(self, capsys, tmp_path):
        # the input is never read: a missing file would exit 1
        code, _, err = run_cli(capsys, "analyze", "--input", str(tmp_path / "nope.csv"), "--window", "-3")
        assert code == 2
        assert "--window" in err

    def test_unconvertible_study_param_names_key(self, capsys):
        code, _, err = run_cli(capsys, "study", "--name", "gaussian-dimension", "--param", "steps=abc")
        assert code == 2
        assert "'steps'" in err

    def test_insufficient_data_is_data_error(self, capsys, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("0,0\n1,1\n2,2\n")
        code, _, err = run_cli(capsys, "tail-fit", "--input", str(path))
        assert code == 1
        assert "error" in err


    @pytest.mark.parametrize("command", ["ballmass", "stable-index"])
    def test_one_row_is_data_error(self, capsys, tmp_path, command):
        path = tmp_path / "one.csv"
        path.write_text("1,2\n")
        code, _, err = run_cli(capsys, command, "--input", str(path))
        assert code == 1
        assert "trajectory length 1" in err and "argument error" not in err

    def test_lag_beyond_short_trajectory_is_data_error(self, capsys, tmp_path):
        path = tmp_path / "four.csv"
        path.write_text("0,0\n1,1\n2,3\n4,4\n")
        code, _, err = run_cli(capsys, "ballmass", "--input", str(path), "--lags", "1,5")
        assert code == 1
        assert "lag 5 must be smaller than trajectory length 4" in err and "argument error" not in err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("radius,mass\n0.1,0.5\n0.2,abc\n", "line 3"),
            ("radius,mass\n0.1,0.5\n0.2,0.4\n", "nondecreasing"),
            ("0.1,0.5\n0.2,0.6\n0.3,1\n", "expected the header line 'radius,mass', got '0.1,0.5'"),
        ],
    )
    def test_invalid_mass_curve_is_data_error(self, capsys, tmp_path, text, message):
        curve = tmp_path / "curve.csv"
        curve.write_text(text)
        code, _, err = run_cli(capsys, "bound", "--form", "kernel", "--curve", str(curve))
        assert code == 1
        assert message in err and "argument error" not in err

    def test_layer_sizes_off_width_is_data_error(self, capsys, walk_csv):
        # the same sizes fit a CSV of another width, so the mismatch is a property of the data
        code, _, err = run_cli(capsys, "stable-index", "--input", str(walk_csv), "--layer-sizes", "1")
        assert code == 1
        assert "sum to 1" in err and "has 2 columns" in err and "argument error" not in err

    @pytest.mark.parametrize(
        "argv", [("tail-fit",), ("stable-index",), ("ballmass",), ("analyze",), ("analyze", "--normalize")], ids=" ".join
    )
    @pytest.mark.parametrize("scale", ["1e-300", "1", "1e200", "+-1.7e308"])
    def test_extreme_scales_exit_without_warning(self, capsys, tmp_path, argv, scale):
        """Tiny, unit, huge and overflowing steps: a report or a data error, never an argument error or a warning."""
        walk = simulate(ProcessSpec("gaussian_walk", 2, 300, 5)).points
        if scale == "+-1.7e308":
            walk = np.where(np.arange(len(walk))[:, None] % 2 == 0, 1.7e308, -1.7e308) * np.ones_like(walk)
        else:
            walk = walk * float(scale)
        path = tmp_path / "walk.csv"
        np.savetxt(path, walk, fmt="%.17g", delimiter=",")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = run_cli(capsys, argv[0], "--input", str(path), *argv[1:])
        assert code in (0, 1), err
        assert [str(w.message) for w in caught] == [] and "Warning" not in err

    def test_overflowing_distances_are_reported_as_overflow(self, tmp_path):
        """Steps and pairwise distances past float64 range read as overflow, not as zero radii, and warn nothing."""
        path = tmp_path / "huge.csv"
        path.write_text("".join(f"{s!r},{-s!r},{s!r}\n" for s in [1e308, -1e308] * 5))
        out = _run_module("-m", "trajtail.cli", "analyze", "--input", str(path))
        assert out.returncode == 0 and out.stderr == ""
        report = json.loads(out.stdout)
        for key in ("ball_mass_exponent", "k_function_slope", "covering"):
            assert report[key] is None
            assert "non-finite (overflowed" in report[f"{key}_error"]


@pytest.mark.parametrize(
    "argv, cls, given",
    [
        (("simulate", "--kind", "perturbed-gd-quadratic", "--out", "t.csv", "--gd-step", "0.2", "--curvature", "2",
          "--sigma", "0.5"), ProcessSpec,
         {"kind": "perturbed_gd_quadratic", "start": None, "stable_alpha": 1.5, "bp_alpha": 0.5, "bp_beta": 3.5}),
        (("bound", "--form", "theorem1-prob", "--loss-bound", "2", "--lipschitz", "3", "--rho", "0.5", "--n", "10",
          "--gamma2", "0.4", "--delta", "0.1", "--mutual-info-inf", "0.2", "--k1", "2", "--unbounded-loss-tail", "0.01"),
         BoundInputs, {"mutual_info_1": 0.0, "k2": 1.0}),
        (("gamma2", "--input", "t.csv"), SubgradientOptions, {}),
        (("analyze", "--input", "t.csv"), SubgradientOptions, {}),
    ],
)
def test_every_built_field_is_a_flag_dest(argv, cls, given):
    """Each field of ``cls`` that a command (variant) reads is the dest of a flag, and the flag's value reaches it.

    ``given`` holds, for a ``simulate`` kind or a ``bound`` form, the fields the command passes itself and those
    the variant does not read, left at their library defaults; ``gamma2`` and ``analyze`` build every field
    through ``_from_flags``.
    """
    args = build_parser().parse_args(argv)
    names = {f.name for f in dataclasses.fields(cls)} - set(given)
    assert names <= set(vars(args))
    built = cls(**{name: getattr(args, name) for name in names}, **given)
    assert all(getattr(built, name) == getattr(args, name) for name in names)
    if not given:
        assert _from_flags(cls, args) == built


def _adversarial_csv(rows: int, cols: int, offset: float, scale: float, duplicate: bool, constant: int, seed: int):
    """CSV text of a walk: far from the origin, maybe repeated rows and constant leading columns."""
    points = offset + scale * np.cumsum(np.random.default_rng(seed).standard_normal((rows, cols)), axis=0)
    if duplicate:
        points = np.repeat(points, 2, axis=0)[:rows]
    points[:, :constant] = offset
    return "".join(",".join(repr(float(x)) for x in row) + "\n" for row in points)


@settings(max_examples=60, deadline=None)
@given(
    rows=st.integers(1, 30),
    cols=st.one_of(st.integers(1, 4), st.integers(5, 500)),
    offset=st.floats(-1e12, 1e12),
    scale=st.sampled_from([0.0, 1e-9, 1e-3, 1.0]),
    duplicate=st.booleans(),
    constant=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
    normalize=st.booleans(),
)
def test_analyze_fuzz_exits_with_data_error_or_json(
    tmp_path_factory, rows, cols, offset, scale, duplicate, constant, seed, normalize
):
    """Adversarial trajectories either analyze to a JSON report or exit 1; never 2 or an uncaught exception."""
    path = tmp_path_factory.mktemp("fuzz") / "walk.csv"
    path.write_text(_adversarial_csv(rows, cols, offset, scale, duplicate, constant, seed))
    argv = ["analyze", "--input", str(path), "--iterations", "5", "--window", "20"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv + ["--normalize"] * normalize)
    assert code in (0, 1), err.getvalue()
    if code == 0:
        json.loads(out.getvalue())


def _run_module(*argv: str, cwd: Path | None = None, blas_threads: str | None = None) -> subprocess.CompletedProcess:
    """Run ``python *argv`` in a fresh interpreter that imports this checkout's package.

    The child inherits no ``OPENBLAS_NUM_THREADS`` (importing the CLI here set it); it has one only at ``blas_threads``.
    """
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(Path(trajtail.__file__).resolve().parents[1])
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env, cwd=cwd)


_DATA_FILES = {
    "ragged.csv": "1,2\n3\n",
    "word.csv": "1,2\n3,x\n",
    "header.csv": "a,b\n",
    "constant.csv": "1,1\n" * 200,
    "zero-mass.csv": "radius,mass\n0.1,0\n0.2,0\n0.6,1\n",
    "falling-mass.csv": "radius,mass\n0.1,0.5\n0.2,0.1\n",
}


@pytest.mark.parametrize(
    "argv, last_line",
    [
        (("gamma2", "--input", "ragged.csv"), "ragged.csv: line 2: expected 2 columns, got 1"),
        (("gamma2", "--input", "word.csv"), "word.csv: line 2: could not convert string to float: 'x'"),
        (("gamma2", "--input", "header.csv", "--has-header"), "header.csv: no data rows"),
        (("tail-fit", "--input", "constant.csv"), "only 0 nonzero steps (need 50)"),
        (("stable-index", "--input", "constant.csv"), "all samples (or all block sums) are zero"),
        (("kfunction", "--input", "constant.csv"), "no positive values to take quantiles of"),
        (("bound", "--form", "kernel", "--curve", "zero-mass.csv", "--rho", "0.5"),
         "no positive masses at radii below rho"),
        (("bound", "--form", "kernel", "--curve", "falling-mass.csv", "--rho", "0.5"),
         "falling-mass.csv: masses must be nondecreasing in r"),
        (("simulate", "--kind", "stable-levy-walk", "--stable-alpha", "0.01", "--steps", "1000", "--out", "t.csv"),
         "stable_levy_walk trajectory leaves the float64 range at row"),
        (("simulate", "--kind", "beta-prime-walk", "--bp-alpha", "1e-300", "--steps", "10", "--out", "t.csv"),
         "gamma draws with shapes (1e-300, 3.5) kept underflowing to zero"),
        (("study", "--name", "appendix-c-curve", "--replicates", "1", "--param", "alpha_lo=1e-300",
          "--param", "alpha_hi=1e-299", "--param", "alpha_points=2", "--param", "steps=20",
          "--param", "ft_iterations=2"),
         "gamma draws with shapes (1e-300, 3.5) kept underflowing to zero"),
    ],
)
def test_data_failure_ends_in_one_error_line(tmp_path, argv, last_line):
    for name, text in _DATA_FILES.items():
        (tmp_path / name).write_text(text)
    out = _run_module("-m", "trajtail.cli", *argv, cwd=tmp_path)
    assert out.returncode == 1 and out.stdout == ""
    assert "Traceback" not in out.stderr
    lines = out.stderr.splitlines()
    assert lines[-1].startswith(f"error: {last_line}")
    if "zero-mass.csv" in argv:
        assert lines == ["WARNING trajtail.bounds: trimmed 2 zero-mass radii below rho", f"error: {last_line}"]
    else:
        assert len(lines) == 1


def _help_text(capsys, *argv) -> str:
    code, out, err = run_cli(capsys, *argv, "--help")
    assert code == 0, err
    return out


_FLAG = r"(?<![\w-])--\w[\w-]*"
_README = Path(__file__).resolve().parents[1] / "README.md"


def _help_flags(capsys) -> dict[str, set[str]]:
    """Each subcommand's flags, as its ``--help`` lists them."""
    subcommands = re.search(r"\{([\w,-]+)\}", _help_text(capsys)).group(1).split(",")
    return {sub: set(re.findall(_FLAG, _help_text(capsys, sub))) for sub in subcommands}


def test_every_help_flag_is_in_readme(capsys):
    """Each flag a subcommand's ``--help`` lists is documented in README.md."""
    readme = _README.read_text()
    flags = _help_flags(capsys)
    missing = [
        f"{sub} {flag}"
        for sub in flags
        for flag in sorted(flags[sub] - {"--help"})
        if not re.search(rf"{re.escape(flag)}(?![\w-])", readme)
    ]
    assert "ballmass" in flags and missing == []


def test_every_readme_flag_is_a_cli_flag(capsys):
    """Each ``--flag`` README.md names, apart from pip's and pytest's, is a flag of some subcommand, so no removed
    flag lingers in the text."""
    known = set().union(*_help_flags(capsys).values()) | {"--no-build-isolation", "--durations"}
    assert sorted(set(re.findall(_FLAG, _README.read_text())) - known) == []


def test_import_loads_no_scipy():
    """Only the bound calculators use scipy (``scipy.special``, on first use): importing the CLI loads none of it."""
    probe = "import sys, trajtail.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    out = _run_module("-c", probe)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_import_package_loads_no_numpy():
    """The package's names resolve on first use, so ``python -m trajtail.cli`` reaches the CLI before numpy loads."""
    probe = "import sys, trajtail; print(sorted(m for m in sys.modules if m.startswith(('numpy', 'trajtail.'))))"
    out = _run_module("-c", probe)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("given, seen", [(None, "1"), ("3", "3")])
def test_cli_import_sets_one_blas_thread_unless_given(given, seen):
    out = _run_module("-c", "import os, trajtail.cli; print(os.environ['OPENBLAS_NUM_THREADS'])", blas_threads=given)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == seen


# The names ``trajtail`` exported when it imported its submodules eagerly, by the submodule defining each.
_EXPORTED = {
    "core": ("DataError", "RadiusGrid", "Seed", "SimplexWeights", "Trajectory", "increments", "load_trajectory",
             "normalize_by_running_std", "save_trajectory"),
    "exponents": ("BallMassCurve", "StableIndexResult", "TailFitResult", "ball_mass_curve", "exponent_from_ball_mass",
                  "fit_power_law", "layerwise_stable_index", "lower_tail_exponent_reciprocal", "stable_index"),
    "ft": ("FtEstimate", "SubgradientOptions", "TruncatedGram", "brute_force_gamma2", "estimate_gamma2",
           "ft_objective"),
    "simulate": ("ProcessSpec", "beta_prime_sample", "simulate", "stable_sample"),
    "spatial": ("CoveringProfile", "KFunctionCurve", "covering_numbers", "k_function"),
}


@pytest.mark.parametrize("module", sorted(_EXPORTED))
def test_package_names_resolve_to_their_module_objects(module):
    """Each exported name is its module's object, and each submodule an attribute, but ``simulate`` the function.

    The submodule ``trajtail.simulate`` is loaded here (the CLI imports it), which binds the submodule as an
    attribute of the package; the eager imports then rebound ``simulate`` to the function.
    """
    defining = importlib.import_module(f"trajtail.{module}")
    for name in _EXPORTED[module]:
        assert getattr(trajtail, name) is getattr(defining, name), name
        assert name in dir(trajtail) and name in trajtail.__all__
    assert trajtail.simulate is defining.simulate if module == "simulate" else getattr(trajtail, module) is defining


def test_package_rejects_unknown_name():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        trajtail.no_such_name


class TestGamma2Command:
    def test_report_keys(self, capsys, walk_csv):
        code, out, _ = run_cli(
            capsys, "gamma2", "--input", str(walk_csv), "--rho", "0.25", "--seed", "7",
            "--iterations", "100", "--restarts", "1",
        )
        assert code == 0
        doc = parse(out)
        assert {"gamma2", "weights", "method", "n", "rho", "seed", "config"} <= set(doc)
        assert doc["n"] == 301 and doc["rho"] == 0.25 and doc["seed"] == 7
        assert len(doc["weights"]) == 301


class TestConfigFile:
    """A configuration is an argument file: ``@FILE`` expands in place to one argument per line."""

    def test_config_merged_under_flags(self, capsys, walk_csv, tmp_path):
        args_file = tmp_path / "run.args"
        args_file.write_text("--rho=0.5\n--iterations=40\n--restarts=1\n")
        code, out, _ = run_cli(capsys, "gamma2", "--input", str(walk_csv), f"@{args_file}")
        assert code == 0
        doc = parse(out)
        assert doc["rho"] == 0.5 and doc["config"]["iterations"] == 40

    def test_explicit_flag_wins(self, capsys, walk_csv, tmp_path):
        args_file = tmp_path / "run.args"
        args_file.write_text("--rho=0.5\n--iterations=40\n--restarts=1\n")
        code, out, _ = run_cli(capsys, "gamma2", "--input", str(walk_csv), f"@{args_file}", "--rho", "0.125")
        assert code == 0
        assert parse(out)["rho"] == 0.125

    def test_recorded_mode_line_rejected(self, capsys, walk_csv, tmp_path):
        args_file = tmp_path / "run.args"
        args_file.write_text(f"--input={walk_csv}\n--mode=average\n")
        code, out, err = run_cli(capsys, "ballmass", f"@{args_file}")
        assert code == 2 and out == ""
        assert "unrecognized arguments: --mode=average" in err

    def test_unknown_key_rejected(self, capsys, walk_csv, tmp_path):
        args_file = tmp_path / "run.args"
        args_file.write_text("--rhoo=0.5\n")
        code, _, err = run_cli(capsys, "gamma2", "--input", str(walk_csv), f"@{args_file}")
        assert code == 2
        assert "unrecognized arguments: --rhoo=0.5" in err

    def test_abbreviated_explicit_flag_wins(self, capsys, walk_csv, tmp_path):
        args_file = tmp_path / "run.args"
        args_file.write_text("--rho=0.5\n--iterations=40\n--restarts=1\n")
        code, out, _ = run_cli(capsys, "gamma2", "--input", str(walk_csv), f"@{args_file}", "--iter", "7")
        assert code == 0
        assert parse(out)["config"]["iterations"] == 7

    def test_param_lines_append_and_explicit_param_wins(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        args_file = tmp_path / "p.args"
        args_file.write_text("--replicates=1\n--param=steps=2000\n--param=dims=2\n")
        code, out, err = run_cli(
            capsys, "study", "--name", "gaussian-dimension", f"@{args_file}", "--param", "steps=300"
        )
        assert code == 0, err
        assert parse(out)["config"]["param"] == ["steps=2000", "dims=2", "steps=300"]
        params = json.loads((tmp_path / "gaussian_dimension.json").read_text())["spec"]["params"]
        assert params["steps"] == 300 and params["dims"] == [2]

    @pytest.mark.parametrize("text", ["--rho=0.5\n\n--iterations=40\n", "rho = 0.5\n"], ids=["blank-line", "key-value"])
    def test_line_that_is_not_an_argument_rejected(self, capsys, walk_csv, tmp_path, text):
        """A blank line is an empty argument, and a ``key = value`` line no flag."""
        args_file = tmp_path / "run.args"
        args_file.write_text(text)
        code, out, err = run_cli(capsys, "gamma2", "--input", str(walk_csv), f"@{args_file}")
        assert code == 2 and out == ""
        assert "unrecognized arguments: " in err

    def test_missing_file_is_argument_error(self, capsys, walk_csv, tmp_path):
        code, out, err = run_cli(capsys, "gamma2", "--input", str(walk_csv), f"@{tmp_path / 'nope.args'}")
        assert code == 2 and out == ""
        assert "No such file or directory" in err and "nope.args" in err

    @pytest.mark.parametrize(
        "flags",
        [("--config", "x"), ("--radii-min", "0.1", "--radii-max", "1")],
        ids=["config", "radii-min-max"],
    )
    def test_removed_flags_rejected(self, capsys, walk_csv, flags):
        code, out, err = run_cli(capsys, "ballmass", "--input", str(walk_csv), *flags)
        assert code == 2 and out == ""
        assert f"unrecognized arguments: {' '.join(flags)}" in err

    def test_path_starting_with_at_joins_its_flag(self, capsys, walk_csv, tmp_path, monkeypatch):
        """A separate argument that starts with ``@`` names an argument file; joined to its flag it is a value."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "@walk.csv").write_bytes(walk_csv.read_bytes())
        code, out, err = run_cli(capsys, "tail-fit", "--input=@walk.csv")
        assert code == 0, err
        assert parse(out)["config"]["input"] == "@walk.csv"
        code, out, err = run_cli(capsys, "tail-fit", "--input", "@walk.csv")
        assert code == 2 and out == ""


def _config_file_text(config: dict) -> str:
    """A reported config as an argument file, README's rule: one ``--flag=value`` line per key, unset (null)
    flags and false switches left out, a true switch as its bare flag, lists joined by commas and one line per
    ``param`` entry."""
    lines = []
    for key, value in config.items():
        flag = "--" + key.replace("_", "-")
        if value is None or value is False:
            continue
        if value is True:
            lines.append(flag)
        elif key == "param":
            lines += [f"{flag}={item}" for item in value]
        elif isinstance(value, list):
            lines.append(f"{flag}={','.join(str(x) for x in value)}")
        else:
            lines.append(f"{flag}={value}")
    return "\n".join(lines) + "\n"


_FT_SMALL = ("--iterations", "100", "--restarts", "1")
_EXPLICIT_RADII = ("--radii-range", "0.05,2", "--radii-num", "9")
_ROUND_TRIP = {
    "simulate": ("simulate", "--kind", "beta-prime-walk", "--steps", "120", "--seed", "3", "--bp-alpha", "0.7",
                 "--out", "sim.csv"),
    "simulate-gaussian-walk": ("simulate", "--kind", "gaussian-walk", "--dim", "3", "--steps", "50",
                               "--sigma", "1,0.5,2", "--out", "sim.csv"),
    "simulate-stable-levy-walk": ("simulate", "--kind", "stable-levy-walk", "--steps", "50", "--stable-alpha", "1.2",
                                  "--sigma", "1,0.5", "--out", "sim.csv"),
    "simulate-perturbed-gd-quadratic": ("simulate", "--kind", "perturbed-gd-quadratic", "--steps", "50",
                                        "--gd-step", "0.2", "--curvature", "1,3", "--out", "sim.csv"),
    "gamma2": ("gamma2", "--input", "{walk}", "--rho", "0.25", "--seed", "7", *_FT_SMALL),
    "tail-fit": ("tail-fit", "--input", "{walk}"),
    "stable-index": ("stable-index", "--input", "{walk}", "--block-size", "5", "--layer-sizes", "1,1"),
    "ballmass": ("ballmass", "--input", "{walk}", "--lags", "1,2"),
    "ballmass-radii-num": ("ballmass", "--input", "{walk}", "--radii-num", "16"),
    "kfunction": ("kfunction", "--input", "{walk}", "--level-lo", "0.01", "--window", "0.02,0.2"),
    "cover": ("cover", "--input", "{walk}", "--rho", "0.5", "--radii-num", "12"),
    "ballmass-radii": ("ballmass", "--input", "{walk}", *_EXPLICIT_RADII),
    "kfunction-radii": ("kfunction", "--input", "{walk}", *_EXPLICIT_RADII),
    "cover-radii": ("cover", "--input", "{walk}", "--rho", "0.5", *_EXPLICIT_RADII),
    "bound-theorem1-prob": ("bound", "--form", "theorem1-prob", "--n", "1000", "--gamma2", "0.8",
                            "--unbounded-loss-tail", "0.1"),
    "bound-theorem1-exp": ("bound", "--form", "theorem1-exp", "--gamma2", "0.8", "--mutual-info-1", "0.3"),
    "bound-corollary1": ("bound", "--form", "corollary1", "--alpha", "1", "--rho", "0.5", "--c-rho", "1"),
    "bound-kernel": ("bound", "--form", "kernel", "--curve", "{curve}", "--rho", "1", "--dim", "2"),
    "bound-j-integral": ("bound", "--form", "j-integral", "--a", "0.5", "--horizon", "1", "--rho", "0.5"),
    "bound-gauss-check": ("bound", "--form", "gauss-check", "--a", "1", "--r", "0.5", "--rho", "1"),
    "study": ("study", "--name", "gaussian-dimension", "--replicates", "1", "--seed", "4",
              "--param", "steps=300", "--param", "dims=2"),
    "analyze": ("analyze", "--input", "{walk}", "--rho", "0.25", "--normalize", *_FT_SMALL),
}


@pytest.mark.parametrize("case", sorted(_ROUND_TRIP))
def test_reported_config_reproduces_report(case, capsys, walk_csv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    curve = tmp_path / "curve.csv"
    curve.write_text("radius,mass\n" + "".join(f"{0.1 * k!r},1.0\n" for k in range(1, 11)))
    argv = [a.format(walk=walk_csv, curve=curve) for a in _ROUND_TRIP[case]]
    code, first, err = run_cli(capsys, *argv)
    assert code == 0, err
    args_file = tmp_path / "recorded.args"
    args_file.write_text(_config_file_text(parse(first)["config"]))
    code, second, err = run_cli(capsys, argv[0], f"@{args_file}")
    assert code == 0, err
    assert second == first
    if case in ("analyze", "study"):  # the same file with the subcommand as its first line
        args_file.write_text(f"{argv[0]}\n{args_file.read_text()}")
        code, third, err = run_cli(capsys, f"@{args_file}")
        assert code == 0, err
        assert third == first


def _variant_reads(argv) -> tuple[str, ...]:
    """The fields the ``bound`` form or ``simulate`` kind named in ``argv`` reads."""
    variant = argv[argv.index("--form" if argv[0] == "bound" else "--kind") + 1]
    return _BOUND_READS[variant] if argv[0] == "bound" else PROCESS_PARAMS[variant.replace("-", "_")]


@pytest.mark.parametrize("case", [c for c in sorted(_ROUND_TRIP) if c.startswith(("bound", "simulate"))])
def test_variant_config_holds_exactly_its_reads(case, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    curve = tmp_path / "curve.csv"
    curve.write_text("radius,mass\n0.5,0.25\n1,1\n")
    argv = [a.format(curve=curve) for a in _ROUND_TRIP[case]]
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    common = {"form"} if argv[0] == "bound" else {"kind", "dim", "steps", "seed", "out"}
    assert set(parse(out)["config"]) == common | set(_variant_reads(argv))


def _unread(table: dict) -> list[tuple[str, str]]:
    """Each (variant, flag dest) pair of a reads table where the variant does not read the flag."""
    every = set().union(*table.values())
    return [(variant, name) for variant, reads in table.items() for name in sorted(every - set(reads))]


_UNREAD_FLAGS = [
    *[(("bound", "--form", form, *(("--curve", "nope.csv") if form == "kernel" else ())), name)
      for form, name in _unread(_BOUND_READS)],
    *[(("simulate", "--kind", kind.replace("_", "-"), "--out", "t.csv"), name) for kind, name in _unread(PROCESS_PARAMS)],
]


@pytest.mark.parametrize("argv, name", _UNREAD_FLAGS, ids=[f"{argv[2]}-{name}" for argv, name in _UNREAD_FLAGS])
def test_variant_rejects_flag_it_does_not_read(argv, name, capsys, tmp_path, monkeypatch):
    """Before any input is read or output written: ``bound --form kernel --curve nope.csv`` would exit 1."""
    monkeypatch.chdir(tmp_path)
    flag = "--" + name.replace("_", "-")
    code, out, err = run_cli(capsys, *argv, flag, "1")
    assert code == 2
    variant = argv[2] if argv[0] == "bound" else argv[2].replace("-", "_")  # the kind as recorded
    assert f"{argv[1]} {variant} does not read {flag}" in err
    assert out == "" and list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["ballmass", "kfunction", "cover"])
def test_explicit_radii_written_as_geometric_grid(command, capsys, walk_csv, tmp_path):
    argv = [a.format(walk=walk_csv) for a in _ROUND_TRIP[f"{command}-radii"]]
    code, _, err = run_cli(capsys, *argv, "--out-dir", str(tmp_path / "out"))
    assert code == 0, err
    radii = np.loadtxt(tmp_path / "out" / f"{command}.csv", delimiter=",", skiprows=1)[:, 0]
    np.testing.assert_array_equal(radii, np.geomspace(0.05, 2.0, 9))


class TestEstimatorCommands:
    def test_tail_fit(self, capsys, walk_csv):
        code, out, _ = run_cli(capsys, "tail-fit", "--input", str(walk_csv))
        assert code == 0
        doc = parse(out)
        assert doc["alpha_density"] == pytest.approx(doc["alpha_survival"] + 1.0)

    @pytest.mark.parametrize("k", [40, -40, 600, -600, 1000, -1000])
    def test_tail_fit_at_power_of_two_scales(self, capsys, tmp_path, walk_csv, k):
        """A walk scaled by 2^k keeps its exponent and KS distance, and scales ``x_min`` by 2^-k."""
        path = tmp_path / "scaled.csv"
        np.savetxt(path, np.ldexp(np.loadtxt(walk_csv, delimiter=","), k), fmt="%.17g", delimiter=",")
        docs = []
        for csv in (walk_csv, path):
            code, out, err = run_cli(capsys, "tail-fit", "--input", str(csv))
            assert code == 0, err
            docs.append(parse(out))
        plain, scaled = docs
        assert scaled["x_min"] == np.ldexp(plain["x_min"], -k)
        assert (scaled["alpha_survival"], scaled["ks_distance"]) == (plain["alpha_survival"], plain["ks_distance"])

    def test_tail_fit_on_subnormal_steps_is_data_error(self, capsys, tmp_path, walk_csv):
        path = tmp_path / "subnormal.csv"
        np.savetxt(path, np.ldexp(np.loadtxt(walk_csv, delimiter=","), -1060), fmt="%.17g", delimiter=",")
        code, _, err = run_cli(capsys, "tail-fit", "--input", str(path))
        assert code == 1
        assert "reciprocal step norms are non-finite" in err and "argument error" not in err

    def test_stable_index_pooled_and_layered(self, capsys, walk_csv):
        code, out, _ = run_cli(capsys, "stable-index", "--input", str(walk_csv), "--block-size", "5")
        assert code == 0
        pooled = parse(out)
        assert 0.0 < pooled["alpha_hat"] <= 2.0
        code, out, _ = run_cli(
            capsys, "stable-index", "--input", str(walk_csv), "--block-size", "5", "--layer-sizes", "1,1"
        )
        assert code == 0
        assert len(parse(out)["per_block"]) == 2

    def test_stable_index_values_frozen(self, capsys, tmp_path):
        """``analyze`` and ``stable-index`` both take the one-layer path of ``layerwise_stable_index``.

        The values are those of the earlier paths, which passed coordinate-index
        blocks and called ``stable_index`` on the raveled steps directly.
        """
        path = tmp_path / "stable.csv"
        argv = ("--kind", "stable-levy-walk", "--dim", "3", "--steps", "400", "--seed", "11", "--out", str(path))
        assert run_cli(capsys, "simulate", *argv)[0] == 0
        code, out, _ = run_cli(capsys, "analyze", "--input", str(path), "--iterations", "5")
        assert code == 0 and parse(out)["stable_index"] == 1.4310929993486008
        code, out, _ = run_cli(capsys, "stable-index", "--input", str(path))
        assert code == 0 and parse(out)["per_block"] == [parse(out)["alpha_hat"]] == [1.4374841080105223]
        code, out, _ = run_cli(capsys, "stable-index", "--input", str(path), "--layer-sizes", "1,2")
        assert code == 0
        assert parse(out)["per_block"] == [1.5879584519455618, 1.6395912372541326]
        assert parse(out)["alpha_hat"] == 1.6137748445998472

    def test_ballmass_writes_curve(self, capsys, walk_csv, tmp_path):
        out_dir = tmp_path / "bm"
        code, out, _ = run_cli(
            capsys, "ballmass", "--input", str(walk_csv), "--lags", "1,2", "--out-dir", str(out_dir)
        )
        assert code == 0
        assert (out_dir / "ballmass.csv").exists()
        assert (out_dir / "ballmass.json").exists()

    def test_kfunction_and_cover(self, capsys, walk_csv, tmp_path):
        code, out, _ = run_cli(capsys, "kfunction", "--input", str(walk_csv), "--out-dir", str(tmp_path / "k"))
        assert code == 0 and (tmp_path / "k" / "kfunction.csv").exists()
        code, out, _ = run_cli(capsys, "cover", "--input", str(walk_csv), "--rho", "1.0")
        assert code == 0
        doc = parse(out)
        assert doc["dudley_value"] >= 0.0
        assert doc["counts"] == sorted(doc["counts"], reverse=True)

    def test_cover_single_point_uses_rho(self, capsys, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("0.5,0.5\n")
        code, out, _ = run_cli(capsys, "cover", "--input", str(path), "--rho", "0.5")
        assert code == 0
        doc = parse(out)
        assert doc["radii"] == [0.5] and doc["counts"] == [1] and doc["dudley_value"] == 0.0


class TestBoundCommand:
    def test_theorem1_reference(self, capsys):
        code, out, _ = run_cli(
            capsys, "bound", "--form", "theorem1-prob", "--loss-bound", "1", "--lipschitz", "1",
            "--rho", "1", "--n", "100", "--delta", str(np.exp(-1.0)), "--gamma2", "0",
        )
        assert code == 0
        assert parse(out)["value"] == pytest.approx(0.1)

    def test_huge_n(self, capsys):
        code, out, err = run_cli(capsys, "bound", "--form", "theorem1-exp", "--gamma2", "1", "--n", "1" + "0" * 33)
        assert code == 0 and err == ""
        assert parse(out)["value"] == pytest.approx(1.0 / np.sqrt(1e33), rel=1e-14)
        code, out, err = run_cli(capsys, "bound", "--form", "theorem1-exp", "--n", "1" + "0" * 400)
        assert code == 2 and out == "" and "n must fit in a float64" in err

    def test_corollary1(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--form", "corollary1", "--alpha", "1", "--rho", "1", "--c-rho", "1")
        assert code == 0
        assert parse(out)["value"] == pytest.approx(np.sqrt(np.pi) / 2.0)

    def test_corollary1_constraint_exit_code(self, capsys):
        code, _, _ = run_cli(capsys, "bound", "--form", "corollary1", "--alpha", "1", "--rho", "1.5", "--c-rho", "1")
        assert code == 2

    def test_j_integral_and_gauss(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--form", "j-integral", "--a", "1", "--horizon", "1", "--rho", "1", "--dim", "2")
        assert code == 0 and parse(out)["value"] > 0
        code, out, _ = run_cli(capsys, "bound", "--form", "gauss-check", "--a", "1", "--r", "0.5", "--rho", "1", "--dim", "2")
        assert code == 0 and parse(out)["holds"] is True

    @pytest.mark.parametrize(
        "a, horizon, rho, dim",
        [("100", "1", "1", "2"), ("100", "10", "3", "10"), ("0.01", "0.1", "0.1", "100"), ("0.01", "0.1", "0.1", "7")],
    )
    def test_j_integral_matches_mpmath(self, capsys, j_reference, a, horizon, rho, dim):
        # a nested quadrature once got these wrong, negative, overflowing and unconverged, in this order
        code, out, err = run_cli(
            capsys, "bound", "--form", "j-integral", "--a", a, "--horizon", horizon, "--rho", rho, "--dim", dim
        )
        assert code == 0 and err == ""
        expected = j_reference(float(a), float(horizon), float(rho), int(dim))
        assert parse(out)["value"] == pytest.approx(expected, rel=1e-9)

    def test_gauss_check_below_old_absolute_slack(self, capsys):
        code, out, err = run_cli(
            capsys, "bound", "--form", "gauss-check", "--a", "205.3", "--r", "9.506", "--rho", "9.963", "--dim", "24"
        )
        doc = parse(out)
        assert code == 0 and err == "" and doc["holds"] is True
        assert doc["integral"] == pytest.approx(3.560068299348808e-21, rel=1e-12)  # mpmath, 40 digits

    def test_j_beyond_float64_range_is_data_error(self, capsys):
        code, out, err = run_cli(
            capsys, "bound", "--form", "j-integral", "--a", "1e-10", "--horizon", "1", "--rho", "1e-3", "--dim", "100"
        )
        assert code == 1 and out == ""
        assert err.startswith("error: J = inf lies outside the float64 range")

    def test_kernel_from_curve_file(self, capsys, tmp_path):
        curve = tmp_path / "curve.csv"
        radii = np.linspace(0.1, 1.0, 10)
        lines = ["radius,mass"] + [f"{r:.17g},{1.0:.17g}" for r in radii]
        curve.write_text("\n".join(lines) + "\n")
        code, out, _ = run_cli(capsys, "bound", "--form", "kernel", "--curve", str(curve), "--rho", "1", "--dim", "2")
        assert code == 0
        assert parse(out)["value"] == pytest.approx(np.sqrt(4 * np.log(3.0)))


    def test_kernel_trim_logged_in_cli_terms(self, tmp_path):
        curve = tmp_path / "curve.csv"
        curve.write_text("radius,mass\n0.1,0\n0.2,0\n0.3,0.5\n0.6,1\n")
        out = _run_module("-m", "trajtail.cli", "bound", "--form", "kernel", "--curve", str(curve), "--rho", "0.5")
        assert out.returncode == 0
        assert out.stderr == "WARNING trajtail.bounds: trimmed 2 zero-mass radii below rho\n"


class TestStudyCommand:
    def test_study_files_and_overrides(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "study", "--name", "gaussian-dimension", "--replicates", "2", "--seed", "8",
            "--param", "steps=2000", "--param", "dims=2", "--out-dir", str(tmp_path),
        )
        assert code == 0
        assert "params" not in parse(out)["config"]
        summary = json.loads((tmp_path / "gaussian_dimension.json").read_text())
        assert summary["spec"]["params"]["steps"] == 2000

    @pytest.mark.parametrize(
        "name, param, recorded",
        [("exponent-comparison", "stable_alphas=1.2,1.8", [1.2, 1.8]), ("gaussian-dimension", "dims=1,2", [1, 2])],
    )
    def test_tuple_param_from_comma_list(self, capsys, tmp_path, name, param, recorded):
        code, out, err = run_cli(
            capsys, "study", "--name", name, "--replicates", "1", "--param", "steps=300", "--param", param,
            "--out-dir", str(tmp_path),
        )
        assert code == 0, err
        key = param.split("=")[0]
        summary = json.loads((tmp_path / f"{name.replace('-', '_')}.json").read_text())
        assert summary["spec"]["params"][key] == recorded
        assert summary["grid"] == recorded

    @pytest.mark.parametrize(
        "name, param, message",
        [
            ("appendix-c-curve", "alpha_points=0", "parameter 'alpha_points' must be positive and finite"),
            ("appendix-c-curve", "alpha_points=1", "parameter 'alpha_points' must be >= 2"),
            ("gaussian-dimension", "n_radii=0", "parameter 'n_radii' must be positive and finite"),
            ("figure1-ordering", "rho=nan", "parameter 'rho' must be positive and finite"),
            ("exponent-comparison", "stable_alphas=1.5,inf", "parameter 'stable_alphas' must be positive and finite"),
            ("figure1-ordering", "ft_restarts=2", "unknown parameters for figure1_ordering: ['ft_restarts']"),
            ("appendix-c-curve", "alpha_lo=1 alpha_hi=0.01", "alpha_lo < alpha_hi, got alpha_lo=1.0, alpha_hi=0.01"),
            ("appendix-c-curve", "alpha_lo=0.5 alpha_hi=0.5", "alpha_lo < alpha_hi, got alpha_lo=0.5, alpha_hi=0.5"),
            ("gaussian-dimension", "mass_lo=0.2 mass_hi=0.1", "mass_lo < mass_hi < 1, got mass_lo=0.2, mass_hi=0.1"),
            ("gaussian-dimension", "mass_hi=1", "mass_lo < mass_hi < 1, got mass_lo=0.005, mass_hi=1.0"),
            ("gaussian-dimension", "level_lo=0.5 level_hi=0.1",
             "level_lo < level_hi <= 1, got level_lo=0.5, level_hi=0.1"),
            ("gaussian-dimension", "level_hi=3", "level_lo < level_hi <= 1, got level_lo=0.002, level_hi=3.0"),
            ("figure1-ordering", "stable_alpha=3", "stable_alpha <= 2, got stable_alpha=3.0"),
            ("exponent-comparison", "stable_alphas=1.5,2.5",
             "every stable_alphas value <= 2, got stable_alphas=(1.5, 2.5)"),
            *[
                (name, param, message)
                for name in ("figure1-ordering", "appendix-c-curve")
                for param, message in (
                    ("normalization=fulll", "normalization in {full, running}, got normalization=fulll"),
                    ("ft_dtype=float32", f"unknown parameters for {name.replace('-', '_')}: ['ft_dtype']"),
                )
            ],
            ("exponent-comparison", "block_size=1", "block_size >= 2, got block_size=1"),
        ],
    )
    def test_bad_param_is_argument_error_before_any_cell(self, capsys, tmp_path, monkeypatch, name, param, message):
        for study in experiments.STUDIES:
            monkeypatch.setattr(experiments, f"_cell_{study}", lambda *args: pytest.fail("a cell ran"))
        params = [arg for item in param.split() for arg in ("--param", item)]
        code, out, err = run_cli(capsys, "study", "--name", name, *params, "--out-dir", str(tmp_path))
        assert code == 2
        assert err.startswith("argument error: ") and message in err
        assert "Traceback" not in err and "Warning" not in err
        assert out == "" and list(tmp_path.iterdir()) == []

    def test_written_files_end_lines_with_newline_only(self, capsys, tmp_path):
        walk = tmp_path / "walk.csv"
        runs = [
            ("simulate", "--kind", "gaussian-walk", "--steps", "300", "--out", str(walk)),
            ("ballmass", "--input", str(walk), "--out-dir", str(tmp_path / "ballmass")),
            ("study", "--name", "exponent-comparison", "--replicates", "1", "--param", "steps=300",
             "--param", "stable_alphas=1.2,1.8", "--out-dir", str(tmp_path / "study")),
        ]
        for argv in runs:
            code, _, err = run_cli(capsys, *argv)
            assert code == 0, err
        written = sorted(p for p in tmp_path.rglob("*") if p.is_file())
        assert {p.suffix for p in written} == {".csv", ".json"} and len(written) >= 6
        for path in written:
            assert b"\r" not in path.read_bytes(), path.name


_RADII_READS = {"level_lo": "--level-lo", "level_hi": "--level-hi", "radii_num": "--radii-num"}
# Each analyze entry: the subcommand that reproduces it, the analyze flags that subcommand reads (by config key,
# with the subcommand's flag name), the entry, and the same value read from the subcommand's report.
_ANALYZE_ENTRIES = {
    "gamma2": ("gamma2", {"rho": "--rho", "iterations": "--iterations", "restarts": "--restarts", "seed": "--seed"},
               lambda doc: (doc["gamma2"], doc["gamma2_method"]), lambda doc: (doc["gamma2"], doc["method"])),
    "reciprocal_power_law": ("tail-fit", {}, lambda doc: doc["reciprocal_power_law"],
                             lambda doc: {k: v for k, v in doc.items() if k not in ("command", "config")}),
    "stable_index": ("stable-index", {"block_size": "--block-size"}, lambda doc: doc["stable_index"],
                     lambda doc: doc["alpha_hat"]),
    "ball_mass_exponent": ("ballmass", {"mass_window": "--window", **_RADII_READS},
                           lambda doc: doc["ball_mass_exponent"], lambda doc: doc["exponent"]),
    "k_function_slope": ("kfunction", _RADII_READS, lambda doc: doc["k_function_slope"], lambda doc: doc["slope"]),
    "covering": ("cover", {"rho": "--rho", "level_lo": "--level-lo", "radii_num": "--radii-num"},
                 lambda doc: doc["covering"]["dudley_value"], lambda doc: doc["dudley_value"]),
}


class TestAnalyze:
    def test_bundled_report(self, capsys, walk_csv):
        code, out, _ = run_cli(
            capsys, "analyze", "--input", str(walk_csv), "--rho", "0.25",
            "--iterations", "100", "--restarts", "1",
        )
        assert code == 0
        doc = parse(out)
        for key in (
            "gamma2",
            "reciprocal_power_law",
            "ball_mass_exponent",
            "stable_index",
            "k_function_slope",
            "covering",
            "config",
        ):
            assert key in doc
        assert doc["n"] == 201  # trailing window of 200 steps
        assert doc["config"]["rho"] == 0.25

    def test_all_equal_points(self, capsys, tmp_path):
        path = tmp_path / "equal.csv"
        path.write_text("1,2\n1,2\n1,2\n")
        code, _, err = run_cli(capsys, "kfunction", "--input", str(path))
        assert code == 1 and "no positive values" in err
        code, out, _ = run_cli(capsys, "analyze", "--input", str(path), *_FT_SMALL)
        assert code == 0
        doc = parse(out)
        for key in ("ball_mass_exponent", "k_function_slope"):
            assert doc[key] is None
            assert "no positive values" in doc[f"{key}_error"]
        assert doc["covering"] == {"dudley_value": 0.0}

    @pytest.mark.parametrize(
        "flags",
        [("--rho", "3"), ("--rho", "20", "--level-lo", "0.01", "--level-hi", "0.4", "--radii-num", "24",
                          "--block-size", "5", "--mass-window", "0.02,0.5", "--iterations", "60")],
    )
    @pytest.mark.parametrize("entry", sorted(_ANALYZE_ENTRIES))
    def test_entry_matches_subcommand(self, capsys, tmp_path, entry, flags):
        """Without ``--normalize``, on a file no longer than the window, each entry is its subcommand's output."""
        walk = tmp_path / "levy.csv"
        sim = ("simulate", "--kind", "stable-levy-walk", "--steps", "200", "--seed", "3", "--out", str(walk))
        assert run_cli(capsys, *sim)[0] == 0
        code, out, _ = run_cli(capsys, "analyze", "--input", str(walk), *_FT_SMALL, *flags)
        assert code == 0
        doc = parse(out)
        command, reads, analyzed, reported = _ANALYZE_ENTRIES[entry]
        argv = [command, "--input", str(walk)]
        for key, flag in reads.items():  # analyze's recorded value of each flag the subcommand reads
            value = doc["config"][key]
            argv += [flag, ",".join(map(str, value)) if isinstance(value, list) else str(value)]
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        assert analyzed(doc) is not None
        assert analyzed(doc) == reported(parse(out))

    def test_one_row_reports_every_entry(self, capsys, tmp_path):
        """One row has no steps: ``gamma2`` and ``covering`` are 0, every other entry is null with its error."""
        path = tmp_path / "one.csv"
        path.write_text("1,2\n")
        code, out, err = run_cli(capsys, "analyze", "--input", str(path))
        assert code == 0, err
        doc = parse(out)
        assert doc["n"] == 1 and doc["gamma2"] == 0.0
        assert doc["covering"] == {"dudley_value": 0.0} and "covering_error" not in doc
        for key in ("reciprocal_power_law", "ball_mass_exponent", "stable_index", "k_function_slope"):
            assert doc[key] is None and doc[f"{key}_error"], key
        assert doc["stable_index_error"] == "lag 1 must be smaller than trajectory length 1"

    def test_normalize_one_row_reports_as_without(self, capsys, tmp_path):
        """One row is a constant trajectory: left unscaled, both axes degenerate, the rest of the report unchanged."""
        path = tmp_path / "one.csv"
        path.write_text("1,2\n")
        docs = []
        for flags in ((), ("--normalize",)):
            code, out, err = run_cli(capsys, "analyze", "--input", str(path), *flags)
            assert code == 0, err
            docs.append(parse(out))
        plain, normalized = docs
        assert normalized.pop("normalization") == {
            "first_scaled_index": 1, "degenerate_axes": [0, 1], "convention": "population"
        }
        assert normalized["config"].pop("normalize") is True and plain["config"].pop("normalize") is False
        assert normalized == plain

    def test_normalize_near_1e_minus_300_reports_the_unscaled_walk(self, capsys, tmp_path):
        """Prefix variances are summed in power-of-two units, so a walk scaled by 1e-300 normalizes as the unscaled one.

        1e-300 is not a power of two, so the scaled points round differently and ``gamma2`` agrees to rounding.
        """
        walk = simulate(ProcessSpec("gaussian_walk", 2, 300, 3))
        docs = []
        for scale in (1.0, 1e-300):
            path = tmp_path / f"walk-{scale}.csv"
            np.savetxt(path, walk.points * scale, fmt="%.17g", delimiter=",")
            code, out, err = run_cli(capsys, "analyze", "--input", str(path), "--normalize", *_FT_SMALL)
            assert code == 0, err
            docs.append(parse(out))
        plain, tiny = docs
        assert plain["normalization"] == {"first_scaled_index": 1, "degenerate_axes": [], "convention": "population"}
        assert (tiny["normalization"], tiny["gamma2_method"]) == (plain["normalization"], plain["gamma2_method"])
        assert tiny["gamma2"] == pytest.approx(plain["gamma2"], rel=1e-12)

    def test_normalize_is_exact_at_power_of_two_scales(self, capsys, tmp_path):
        """The whole normalized window, the iterates before ``first_scaled_index`` too, is the same at every 2^k."""
        walk = simulate(ProcessSpec("gaussian_walk", 3, 300, 3)).points
        reads = []
        for k in (0, 40, -600):
            path = tmp_path / f"walk{k}.csv"
            np.savetxt(path, np.ldexp(walk, k), fmt="%.17g", delimiter=",")
            code, out, err = run_cli(capsys, "analyze", "--input", str(path), "--normalize", *_FT_SMALL)
            assert code == 0, err
            doc = parse(out)
            reads.append((doc["gamma2"], doc["gamma2_method"], doc["covering"], doc["normalization"]))
        assert reads[1] == reads[0] and reads[2] == reads[0]
        assert reads[0][2] is not None and reads[0][3]["first_scaled_index"] == 1

    @pytest.mark.parametrize("flags, matrices", [((), 1), (("--normalize",), 2)])
    def test_one_distance_matrix_per_point_set(self, capsys, walk_csv, monkeypatch, flags, matrices):
        """The Gram, the K-function and the cover read one matrix; ``--normalize`` adds the normalized window's."""
        shapes = []
        compute = core.pairwise_distances

        def counting(points):
            shapes.append(points.shape)
            return compute(points)

        monkeypatch.setattr(core, "pairwise_distances", counting)
        monkeypatch.setattr(ft, "pairwise_distances", counting)
        code, _, err = run_cli(capsys, "analyze", "--input", str(walk_csv), *_FT_SMALL, *flags)
        assert code == 0, err
        assert shapes == [(201, 2)] * matrices

    def test_window_override(self, capsys, walk_csv):
        code, out, _ = run_cli(
            capsys, "analyze", "--input", str(walk_csv), "--window", "0",
            "--iterations", "50", "--restarts", "1",
        )
        assert code == 0
        assert parse(out)["n"] == 301

    def test_rows_before_the_window_are_not_read(self, capsys, tmp_path, walk_csv, monkeypatch):
        """Bad rows before the trailing window change nothing; ``--window 0`` reads them and names the first."""
        rows = walk_csv.read_text().splitlines(keepends=True)
        for name, before in (("clean", rows[50:53]), ("dirty", ["0,x\n", "nan,1\n", "1,2,3\n"])):
            (tmp_path / name).mkdir()
            (tmp_path / name / "t.csv").write_text("".join(rows[:50] + before + rows[53:]))
        outs = []
        for name in ("clean", "dirty"):
            monkeypatch.chdir(tmp_path / name)  # the report records the --input path
            code, out, _ = run_cli(capsys, "analyze", "--input", "t.csv", *_FT_SMALL)
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]
        code, _, err = run_cli(capsys, "analyze", "--input", "t.csv", "--window", "0", *_FT_SMALL)
        assert code == 1
        assert "t.csv: line 51:" in err


class TestDeterminism:
    def test_repeat_run_byte_identical(self, capsys, tmp_path):
        args = (
            "simulate", "--kind", "beta-prime-walk", "--dim", "2", "--steps", "120",
            "--seed", "11", "--out", str(tmp_path / "t.csv"),
        )
        _, out1, _ = run_cli(capsys, *args)
        data1 = (tmp_path / "t.csv").read_bytes()
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2
        assert (tmp_path / "t.csv").read_bytes() == data1
