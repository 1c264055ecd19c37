"""Command-line interface tying simulation, estimation and studies together.

Every subcommand prints a JSON report to stdout and optionally writes files
under ``--out-dir``.  The report's ``config`` holds every flag that shapes the
output, with resolved values where a command resolves one; written back as a
``--config`` file (see the README) it reproduces the report.
Exit codes: 0 success, 1 data/convergence error, 2 argument error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
from pathlib import Path

import numpy as np

from . import bounds as bounds_mod
from . import core, exponents, ft, spatial
from .core import DataError
from .experiments import STUDIES, StudySpec, _jsonable, emit_report, run_study
from .simulate import PROCESS_KINDS, PROCESS_PARAMS, ProcessSpec, simulate

_KIND_ALIASES = {k.replace("_", "-"): k for k in PROCESS_KINDS}
_STUDY_ALIASES = {s.replace("_", "-"): s for s in STUDIES}
# Parsed keys a report's config leaves out: parser bookkeeping, where files go,
# and settings that change no output value.
_UNRECORDED = ("func", "subcommand", "out_dir", "verbose", "threads", "config")
# The store_true flags: a config-file line sets one only with a true value.
_SWITCHES = ("has_header", "normalize", "verbose")
# The flags each ``bound --form`` reads, and the CLI defaults of those that are not ``BoundInputs`` defaults.
_THEOREM1 = ("loss_bound", "lipschitz", "rho", "n", "gamma2")
_BOUND_READS = {
    "theorem1-prob": (*_THEOREM1, "delta", "mutual_info_inf", "k1", "unbounded_loss_tail"),
    "theorem1-exp": (*_THEOREM1, "mutual_info_1", "k2"),
    "corollary1": ("alpha", "rho", "c_rho"),
    "kernel": ("curve", "rho", "dim"),
    "j-integral": ("a", "horizon", "rho", "dim"),
    "gauss-check": ("a", "r", "rho", "dim"),
}
_BOUND_DEFAULTS = dict(loss_bound=1.0, lipschitz=1.0, rho=1.0, n=100, gamma2=0.0, alpha=1.0, c_rho=1.0, curve=None,
                       dim=2, a=1.0, horizon=1.0, r=0.5)


def _out_file(args, name: str) -> Path | None:
    if args.out_dir is None:
        return None
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out / name


def _csv_floats(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in text.split(","))


def _float_pair(text: str, hi_below_one: bool = False) -> tuple[float, float]:
    """A ``lo,hi`` window of fractions: ``0 < lo < hi <= 1``, or ``hi < 1`` with ``hi_below_one``."""
    values = _csv_floats(text)
    if len(values) != 2:
        raise argparse.ArgumentTypeError(f"expected two comma-separated numbers, got {text!r}")
    lo, hi = values
    if not (0.0 < lo < hi and (hi < 1.0 if hi_below_one else hi <= 1.0)):
        raise argparse.ArgumentTypeError(f"expected 0 < lo < hi {'<' if hi_below_one else '<='} 1, got {text!r}")
    return values


def _mass_window(text: str) -> tuple[float, float]:
    """A ``lo,hi`` window of ball masses: ``0 < lo < hi < 1``, as ``exponent_from_ball_mass`` requires."""
    return _float_pair(text, hi_below_one=True)


def _bounded(name: str, convert, ok, what: str):
    """An argparse type, named for argparse's ``invalid <name> value``: ``convert(text)``, rejected unless ``ok``."""
    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
        return value

    parse.__name__ = name
    return parse


_positive_float = _bounded("_positive_float", float, lambda v: 0.0 < v < np.inf, "a positive number")
_level = _bounded("_level", float, lambda v: 0.0 < v <= 1.0, "a level in (0, 1]")
_nonnegative_int = _bounded("_nonnegative_int", int, lambda v: v >= 0, "a nonnegative integer")
_positive_int = _bounded("_positive_int", int, lambda v: v >= 1, "a positive integer")
_block_size = _bounded("_block_size", int, lambda v: v >= 2, "an integer >= 2")


def _csv_positive_ints(text: str) -> tuple[int, ...]:
    return tuple(_positive_int(x) for x in text.split(","))


def _common_flags(sub: argparse.ArgumentParser, needs_input: bool = False) -> None:
    if needs_input:
        sub.add_argument("--input", required=True, help="trajectory CSV (one iterate per row)")
        sub.add_argument("--has-header", action="store_true", help="skip a single header row")
    sub.add_argument("--out-dir", default=None, help="directory for JSON/CSV outputs")
    sub.add_argument("--config", default=None, help="key = value file merged under explicit flags")
    sub.add_argument("--verbose", action="store_true", default=False, help="log progress to stderr")


def _radius_grid(args, values: np.ndarray, lo: float, hi: float, rho: float | None = None) -> core.RadiusGrid:
    """``--radii-min``..``--radii-max`` when given, else quantiles of ``values`` at levels ``lo``..``hi``.

    With ``rho`` and no positive value (one point, or all points equal) the grid is ``[rho]``.
    """
    if getattr(args, "radii_min", None) is not None:
        return core.RadiusGrid.geometric(args.radii_min, args.radii_max, args.radii_num)
    if rho is not None and not np.any(values > 0):
        return core.RadiusGrid(np.array([rho]))
    return core.RadiusGrid.from_quantiles(values, np.geomspace(lo, hi, args.radii_num))


def _from_flags(cls, args, **given):
    """``cls`` built from the parsed flag of each field not in ``given``: a flag's dest is its field's name.

    A field without a flag raises ``AttributeError`` rather than taking its default.
    """
    return cls(**{f.name: getattr(args, f.name) for f in dataclasses.fields(cls) if f.name not in given}, **given)


def _field_defaults(cls) -> dict:
    return {f.name: f.default for f in dataclasses.fields(cls) if f.default is not dataclasses.MISSING}


def _variant_inputs(args, variant: str, reads: tuple[str, ...], defaults: dict) -> dict:
    """The flags in ``reads``, each given or at its default, left in ``args`` as the only ones of ``defaults``.

    ``defaults`` holds every variant flag of the command; one given that ``reads`` leaves out is an argument error.
    """
    unread = [f"--{name.replace('_', '-')}" for name in defaults if name not in reads and hasattr(args, name)]
    if unread:
        raise ValueError(f"{variant} does not read {', '.join(unread)}")
    return {name: vars(args).setdefault(name, defaults[name]) for name in reads}


def cmd_simulate(args) -> dict:
    kind = _KIND_ALIASES.get(args.kind, args.kind)
    params = _variant_inputs(args, f"--kind {args.kind}", PROCESS_PARAMS[kind], _field_defaults(ProcessSpec))
    trajectory = simulate(ProcessSpec(kind, args.dim, args.steps, args.seed, **params))
    core.save_trajectory(trajectory, args.out)
    return {
        "command": "simulate",
        "config": {"kind": kind},
        "out": str(args.out),
        "n_points": len(trajectory),
        "dim": trajectory.dim,
        "seed": args.seed,
    }


def cmd_gamma2(args) -> dict:
    options = _from_flags(ft.SubgradientOptions, args, dtype=args.ft_dtype)
    rho = ft.resolve_rho(args.rho, args.loss_bound, args.lipschitz)
    trajectory = core.load_trajectory(args.input, args.has_header)
    est = ft.estimate_gamma2(trajectory, rho, options=options)
    return {
        "command": "gamma2",
        "gamma2": est.value,
        "weights": est.weights.weights,
        "method": est.method,
        "n": len(trajectory),
        "rho": rho,
        "seed": args.seed,
        # a rho derived from --loss-bound/--lipschitz stays unrecorded: a config may not give all three
        "config": {"rho": rho} if args.loss_bound is None else {},
    }


def cmd_tail_fit(args) -> dict:
    trajectory = core.load_trajectory(args.input, args.has_header)
    fit = exponents.lower_tail_exponent_reciprocal(trajectory, x_min=args.x_min)
    return {"command": "tail-fit", **dataclasses.asdict(fit)}


def cmd_stable_index(args) -> dict:
    trajectory = core.load_trajectory(args.input, args.has_header)
    if args.layer_sizes is not None:
        sizes = list(args.layer_sizes)
        if sum(sizes) != trajectory.dim:
            raise DataError(f"--layer-sizes sum to {sum(sizes)}, but {args.input} has {trajectory.dim} columns")
        blocks, start = [], 0
        for s in sizes:
            blocks.append(list(range(start, start + s)))
            start += s
        result = exponents.layerwise_stable_index(trajectory, blocks, args.block_size)
    else:
        result = exponents.stable_index(core.increments(trajectory, 1).ravel(), args.block_size)
    return {"command": "stable-index", **dataclasses.asdict(result)}


def _write_curve(args, name: str, xs, ys, header: str) -> None:
    path = _out_file(args, f"{name}.csv")
    if path is None:
        return
    with path.open("w", newline="") as handle:
        np.savetxt(handle, np.column_stack((xs, ys)), fmt="%.17g", delimiter=",", header=header, comments="")


def _attempt(report: dict, key: str, fn) -> None:
    """Store ``fn()`` under ``key``; a data failure stores null there and its message under ``key_error``."""
    try:
        report[key] = fn()
    except DataError as exc:
        report[key] = None
        report[f"{key}_error"] = str(exc)


def _ball_mass(args, trajectory, lags=(1,)):
    """The ball-mass curve on a grid at quantiles of the step norms at lag ``min(lags)``."""
    norms = np.linalg.norm(core.increments(trajectory, min(lags)), axis=1)
    grid = _radius_grid(args, norms, args.level_lo, args.level_hi)
    return exponents.ball_mass_curve(trajectory, lags, grid)


def _k_function(args, trajectory):
    """The K-function on a grid at quantiles of the pair distances."""
    grid = _radius_grid(args, trajectory.pair_distances(), args.level_lo, args.level_hi)
    return spatial.k_function(trajectory, grid)


def _cover(args, trajectory, rho: float):
    """The grid (pair-distance quantiles at levels ``--level-lo``..1) and the covering profile on it."""
    grid = _radius_grid(args, trajectory.pair_distances(), args.level_lo, 1.0, rho)
    return grid, spatial.covering_numbers(trajectory, grid, rho)


def cmd_ballmass(args) -> dict:
    trajectory = core.load_trajectory(args.input, args.has_header)
    curve = _ball_mass(args, trajectory, args.lags)
    report: dict = {"command": "ballmass", "lags": args.lags, "n_radii": len(curve.radii)}
    _attempt(report, "exponent", lambda: exponents.exponent_from_ball_mass(curve, window=args.window))
    _write_curve(args, "ballmass", curve.radii.radii, curve.masses, "radius,mass")
    return report


def cmd_kfunction(args) -> dict:
    trajectory = core.load_trajectory(args.input, args.has_header)
    curve = _k_function(args, trajectory)
    report: dict = {"command": "kfunction", "n": curve.n, "diameter": curve.diameter, "n_radii": len(curve.radii)}
    _attempt(report, "slope", lambda: spatial.k_function_slope(curve, window=args.window))
    _write_curve(args, "kfunction", curve.radii.radii, curve.values, "radius,k_value")
    return report


def cmd_cover(args) -> dict:
    trajectory = core.load_trajectory(args.input, args.has_header)
    grid, profile = _cover(args, trajectory, args.rho)
    _write_curve(args, "cover", grid.radii, profile.counts, "radius,count")
    return {
        "command": "cover",
        "dudley_value": profile.dudley_value,
        "rho": args.rho,
        "counts": profile.counts,
        "radii": grid.radii,
    }


def _load_mass_curve(path: str) -> exponents.BallMassCurve:
    """The curve in a CSV under the ``radius,mass`` header ``ballmass`` writes; any other file is a data error."""
    with open(path, encoding="utf-8", errors="replace", newline="") as handle:
        header = handle.readline().rstrip("\r\n")
    if header != "radius,mass":
        raise DataError(f"{path}: expected the header line 'radius,mass', got {header!r}")
    rows = core.load_trajectory(path, has_header=True).points
    if rows.shape[1] != 2:
        raise DataError(f"{path}: expected 2 columns (radius,mass), got {rows.shape[1]}")
    try:
        return exponents.BallMassCurve(core.RadiusGrid(rows[:, 0]), rows[:, 1])
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None


def cmd_bound(args) -> dict:
    defaults = {**_BOUND_DEFAULTS, **_field_defaults(bounds_mod.BoundInputs)}
    inputs = _variant_inputs(args, f"--form {args.form}", _BOUND_READS[args.form], defaults)
    report: dict = {"command": "bound", "form": args.form}
    if args.form in ("theorem1-prob", "theorem1-exp"):
        inp = bounds_mod.BoundInputs(**inputs)
        if args.form == "theorem1-prob":
            report["value"] = bounds_mod.theorem1_high_prob_bound(inp)
            report["confidence"] = inp.confidence
        else:
            report["value"] = bounds_mod.theorem1_expectation_bound(inp)
        report["l_rho"] = inp.l_rho
        report["note"] = "up to the universal constant"
    elif args.form == "corollary1":
        report["value"] = bounds_mod.corollary1_bound(**inputs)
    elif args.form == "kernel":
        if args.curve is None:
            raise ValueError("--curve is required for the kernel functional")
        report["value"] = bounds_mod.kernel_functional(_load_mass_curve(args.curve), args.rho, args.dim)
    elif args.form == "j-integral":
        report["value"] = bounds_mod.j_integral(**inputs)
    else:  # gauss-check
        report.update(dataclasses.asdict(bounds_mod.gauss_radial_bounds_check(**inputs)))
    return report


def cmd_study(args) -> dict:
    name = _STUDY_ALIASES.get(args.name, args.name)
    params = {}
    for item in args.param or []:
        if "=" not in item:
            raise ValueError(f"--param expects KEY=VALUE, got {item!r}")
        key, raw = item.split("=", 1)
        params[key.strip()] = raw.strip()
    spec = StudySpec(name, replicates=args.replicates, seed=args.seed, params=params)
    result = run_study(spec, threads=args.threads)
    out_dir = Path(args.out_dir) if args.out_dir is not None else Path(".")
    paths = emit_report(result, out_dir)
    return {
        "command": "study",
        "study": name,
        "files": [str(p) for p in paths],
        "verdicts": result.verdicts,
        "diagnostics": result.diagnostics,
        "seed": args.seed,
        "config": {"name": name, "replicates": spec.replicates},
    }


def cmd_analyze(args) -> dict:
    options = _from_flags(ft.SubgradientOptions, args, dtype=args.ft_dtype)
    trajectory = core.load_trajectory(args.input, args.has_header, args.window + 1 if args.window else None)
    rho = ft.resolve_rho(args.rho)
    report: dict = {
        "command": "analyze",
        "n": len(trajectory),
        "dim": trajectory.dim,
        "rho": rho,
        "seed": args.seed,
        "config": {"rho": rho},
    }

    ft_input = trajectory
    if args.normalize:
        norm = core.normalize_by_running_std(trajectory)
        ft_input = norm.trajectory
        report["normalization"] = {
            "first_scaled_index": norm.first_scaled_index,
            "degenerate_axes": norm.degenerate_axes,
            "convention": "population",
        }
    est = ft.estimate_gamma2(ft_input, rho, options=options)
    report["gamma2"] = est.value
    report["gamma2_method"] = est.method

    _attempt(
        report,
        "reciprocal_power_law",
        lambda: dataclasses.asdict(exponents.lower_tail_exponent_reciprocal(trajectory)),
    )

    _attempt(
        report,
        "ball_mass_exponent",
        lambda: exponents.exponent_from_ball_mass(_ball_mass(args, trajectory), window=args.mass_window),
    )
    steps = core.increments(trajectory, 1)
    _attempt(report, "stable_index", lambda: exponents.stable_index(steps.ravel(), args.block_size).alpha_hat)
    _attempt(report, "k_function_slope", lambda: spatial.k_function_slope(_k_function(args, trajectory)))
    _attempt(report, "covering", lambda: {"dudley_value": _cover(args, ft_input, rho)[1].dudley_value})
    return report


def _with_config_file(argv: list[str]) -> list[str]:
    """Insert a ``--config`` file's ``key = value`` lines as flags before the explicit ones.

    argparse then resolves them with the explicit flags, so the last value wins
    and a repeated ``param`` line appends.
    """
    pre = argparse.ArgumentParser(prog="trajtail", add_help=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv[1:])[0].config
    if path is None:
        return argv
    flags: list[str] = []
    for line_no, line in enumerate(Path(path).read_text().splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError(f"{path}: line {line_no}: expected 'key = value'")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        flag = "--" + key.replace("_", "-")
        if key.replace("-", "_") not in _SWITCHES:
            flags.append(f"{flag}={raw}")
        elif raw.lower() in ("1", "true", "yes", "on"):
            flags.append(flag)
    return [argv[0], *flags, *argv[1:]]


_RADII_FLAGS = {
    "--radii-min": {"type": _positive_float, "default": None},
    "--radii-max": {"type": _positive_float, "default": None},
    "--radii-num": {"type": _positive_int, "default": 48},
    "--level-lo": {"type": _level, "default": 0.002},
    "--level-hi": {"type": _level, "default": 0.5},
}


def _add_radii_flags(sub: argparse.ArgumentParser, flags: tuple[str, ...] = tuple(_RADII_FLAGS)) -> None:
    for flag in flags:
        sub.add_argument(flag, **_RADII_FLAGS[flag])


def _add_ft_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--iterations", type=int, default=ft.DEFAULT_OPTIONS.iterations)
    sub.add_argument("--restarts", type=int, default=ft.DEFAULT_OPTIONS.restarts)
    sub.add_argument("--ft-dtype", choices=("float64", "float32"), default=ft.DEFAULT_OPTIONS.dtype)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="trajtail", description=__doc__)
    subs = parser.add_subparsers(dest="subcommand", required=True)

    sub = subs.add_parser("simulate", help="generate a process trajectory", argument_default=argparse.SUPPRESS)
    sub.add_argument("--kind", required=True, choices=sorted(_KIND_ALIASES) + sorted(PROCESS_KINDS))
    sub.add_argument("--dim", type=int, default=2)
    sub.add_argument("--steps", type=int, default=1000)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--out", required=True, help="output trajectory CSV")
    sub.add_argument("--sigma", type=_csv_floats)
    sub.add_argument("--stable-alpha", type=float)
    sub.add_argument("--bp-alpha", type=float)
    sub.add_argument("--bp-beta", type=float)
    sub.add_argument("--gd-step", type=float)
    sub.add_argument("--curvature", type=_csv_floats)
    _common_flags(sub)
    sub.set_defaults(func=cmd_simulate)

    sub = subs.add_parser("gamma2", help="estimate the normalized functional")
    sub.add_argument("--rho", type=_positive_float, default=None)
    sub.add_argument("--loss-bound", type=_positive_float, default=None)
    sub.add_argument("--lipschitz", type=_positive_float, default=None)
    sub.add_argument("--seed", type=int, default=0)
    _add_ft_flags(sub)
    _common_flags(sub, needs_input=True)
    sub.set_defaults(func=cmd_gamma2)

    sub = subs.add_parser("tail-fit", help="power-law fit of reciprocal step norms")
    sub.add_argument("--x-min", type=_positive_float, default=None)
    _common_flags(sub, needs_input=True)
    sub.set_defaults(func=cmd_tail_fit)

    sub = subs.add_parser("stable-index", help="block log-moment stable index")
    sub.add_argument("--block-size", type=_block_size, default=10)
    sub.add_argument("--layer-sizes", type=_csv_positive_ints, default=None)
    _common_flags(sub, needs_input=True)
    sub.set_defaults(func=cmd_stable_index)

    sub = subs.add_parser("ballmass", help="empirical kernel ball-mass curve")
    sub.add_argument("--lags", type=_csv_positive_ints, default=(1,))
    sub.add_argument("--window", type=_mass_window, default=exponents.DEFAULT_MASS_WINDOW)
    _add_radii_flags(sub)
    _common_flags(sub, needs_input=True)
    sub.set_defaults(func=cmd_ballmass)

    sub = subs.add_parser("kfunction", help="spatial K-function curve and slope")
    sub.add_argument("--window", type=_float_pair, default=spatial.DEFAULT_PAIR_WINDOW)
    _add_radii_flags(sub)
    _common_flags(sub, needs_input=True)
    sub.set_defaults(func=cmd_kfunction)

    sub = subs.add_parser("cover", help="greedy covering numbers and entropy integral")
    sub.add_argument("--rho", type=_positive_float, default=1.0)
    _add_radii_flags(sub, ("--radii-min", "--radii-max", "--radii-num", "--level-lo"))
    _common_flags(sub, needs_input=True)
    sub.set_defaults(func=cmd_cover)

    sub = subs.add_parser("bound", help="closed-form bound calculators", argument_default=argparse.SUPPRESS)
    sub.add_argument("--form", required=True, choices=tuple(_BOUND_READS))
    sub.add_argument("--loss-bound", type=float)
    sub.add_argument("--lipschitz", type=float)
    sub.add_argument("--rho", type=_positive_float)
    sub.add_argument("--n", type=int)
    sub.add_argument("--delta", type=float)
    sub.add_argument("--gamma2", type=float)
    sub.add_argument("--mutual-info-inf", type=float)
    sub.add_argument("--mutual-info-1", type=float)
    sub.add_argument("--k1", type=float)
    sub.add_argument("--k2", type=float)
    sub.add_argument("--unbounded-loss-tail", type=float)
    sub.add_argument("--alpha", type=float)
    sub.add_argument("--c-rho", type=float)
    sub.add_argument("--curve", help="CSV with radius,mass columns")
    sub.add_argument("--dim", type=_positive_int)
    sub.add_argument("--a", type=_positive_float)
    sub.add_argument("--horizon", type=_positive_float)
    sub.add_argument("--r", type=_positive_float)
    _common_flags(sub)
    sub.set_defaults(func=cmd_bound)

    sub = subs.add_parser("study", help="run a bundled simulation study")
    sub.add_argument("--name", required=True, choices=sorted(_STUDY_ALIASES) + sorted(STUDIES))
    sub.add_argument("--replicates", type=int, default=None)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--param", action="append", help="override a study parameter, KEY=VALUE")
    sub.add_argument("--threads", type=_positive_int, default=1, help="worker threads for the study cells")
    _common_flags(sub)
    sub.set_defaults(func=cmd_study)

    sub = subs.add_parser("analyze", help="bundled trajectory report")
    sub.add_argument("--rho", type=_positive_float, default=0.25)
    sub.add_argument("--window", type=_nonnegative_int, default=200, help="reads only the last window + 1 rows (0 all)")
    sub.add_argument("--normalize", action="store_true")
    sub.add_argument("--block-size", type=_block_size, default=10)
    sub.add_argument("--mass-window", type=_mass_window, default=exponents.DEFAULT_MASS_WINDOW)
    sub.add_argument("--seed", type=int, default=0)
    _add_ft_flags(sub)
    _add_radii_flags(sub, ("--radii-num", "--level-lo", "--level-hi"))
    _common_flags(sub, needs_input=True)
    sub.set_defaults(func=cmd_analyze)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(_with_config_file(argv))
        if (getattr(args, "radii_min", None) is None) != (getattr(args, "radii_max", None) is None):
            parser.error("--radii-min and --radii-max must be given together")
        if getattr(args, "radii_min", None) is not None and not args.radii_min < args.radii_max:
            parser.error("--radii-min must be below --radii-max")
        logging.basicConfig(
            level=logging.INFO if args.verbose else logging.WARNING,
            stream=sys.stderr,
            format="%(levelname)s %(name)s: %(message)s",
        )
        report = args.func(args)
        recorded = {k: v for k, v in vars(args).items() if k not in _UNRECORDED}
        report["config"] = {**recorded, **report.get("config", {})}
        text = json.dumps(report, indent=2, sort_keys=True, default=_jsonable) + "\n"
        path = _out_file(args, f"{report['command']}.json")
        if path is not None:
            path.write_text(text)
        sys.stdout.write(text)
    except SystemExit as exc:
        return int(exc.code or 0)
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"argument error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
