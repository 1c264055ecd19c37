"""Orchestrated simulation studies with seeded, thread-invariant aggregation.

Each study cell (grid point x replicate) derives its own seed from the base
seed and the cell indices, and aggregates are reduced in fixed index order,
so results are byte-identical regardless of how many workers execute the
cells.
"""

from __future__ import annotations

import csv
import json
import logging
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from .core import RadiusGrid, Seed, Trajectory, increments, normalize_by_running_std
from .exponents import (
    ball_mass_curve,
    exponent_from_ball_mass,
    lower_tail_exponent_reciprocal,
    stable_index,
)
from .ft import SubgradientOptions, estimate_gamma2
from .simulate import ProcessSpec, simulate

__all__ = ["STUDIES", "StudySpec", "CurveStats", "StudyResult", "run_study", "emit_report"]

log = logging.getLogger(__name__)

_DEFAULT_REPLICATES = {
    "figure1_ordering": 100,
    "appendix_c_curve": 100,
    "gaussian_dimension": 20,
    "exponent_comparison": 20,
}

_DEFAULT_PARAMS: dict[str, dict[str, Any]] = {
    "figure1_ordering": {
        "steps": 1000,
        "dim": 2,
        "stable_alpha": 1.5,
        "rho": 1.0,
        "normalization": "full",
        "ft_iterations": 25,
        "ft_dtype": "float32",
    },
    "appendix_c_curve": {
        "alpha_lo": 1e-2,
        "alpha_hi": 1.0,
        "alpha_points": 10,
        "beta": 3.5,
        "steps": 100,
        "rho": 0.25,
        "normalization": "full",
        "ft_iterations": 300,
        "ft_dtype": "float64",
    },
    "gaussian_dimension": {
        "dims": (1, 2, 3),
        "steps": 10_000,
        "mass_lo": 0.005,
        "mass_hi": 0.1,
        "level_lo": 0.002,
        "level_hi": 0.3,
        "n_radii": 48,
    },
    "exponent_comparison": {
        "stable_alphas": (1.1, 1.3, 1.5, 1.7, 1.9),
        "dim": 2,
        "steps": 2000,
        "block_size": 10,
    },
}

STUDIES = tuple(_DEFAULT_PARAMS)


def _typed(key: str, value: Any, default: Any) -> Any:
    """``value`` as the type of the study default it overrides.

    Strings are parsed; other values must convert without change (no float
    truncates into an int).  A tuple default takes a comma-separated string,
    a sequence or one value, converted element by element.  Every number
    must be finite and above zero.
    """
    if isinstance(default, tuple):
        if isinstance(value, str):
            value = value.split(",")
        elif np.ndim(value) == 0:
            value = (value,)
        if len(value) == 0:
            raise ValueError(f"parameter {key!r} needs at least one value")
        return tuple(_typed(key, item, default[0]) for item in value)
    try:
        typed = type(default)(value)
        converted = isinstance(value, str) or typed == value
    except (TypeError, ValueError):
        converted = False
    if not converted:
        raise ValueError(f"parameter {key!r} expects {type(default).__name__}, got {value!r}")
    if isinstance(typed, (int, float)) and not 0 < typed < np.inf:
        raise ValueError(f"parameter {key!r} must be positive and finite, got {value!r}")
    return typed


def _require(ok: bool, params: Mapping[str, Any], rule: str) -> None:
    """Raise ``ValueError`` naming ``rule`` and the values of the parameters it names unless ``ok``."""
    if not ok:
        keys = [word for word in rule.split() if word in params]
        got = ", ".join(f"{key}={params[key]}" for key in keys)
        raise ValueError(f"parameters must satisfy {rule}, got {got}")


@dataclass(frozen=True)
class StudySpec:
    """One study configuration, resolved on construction.

    ``replicates`` left as None becomes the study's default count.  ``params``
    becomes every study parameter: the defaults, with each given override
    converted once to the type of the default it replaces.  ``grid`` holds
    the values the study sweeps, in cell order, and ``grid_label`` names them.
    """

    study: str
    replicates: int | None = None
    seed: int = 0
    params: Mapping[str, Any] = field(default_factory=dict)
    grid: tuple = field(init=False)
    grid_label: str = field(init=False)

    def __post_init__(self):
        if self.study not in STUDIES:
            raise ValueError(f"unknown study {self.study!r}; choose from {STUDIES}")
        defaults = _DEFAULT_PARAMS[self.study]
        unknown = set(self.params) - set(defaults)
        if unknown:
            raise ValueError(f"unknown parameters for {self.study}: {sorted(unknown)}")
        if self.replicates is None:
            object.__setattr__(self, "replicates", _DEFAULT_REPLICATES[self.study])
        elif self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        typed = {key: _typed(key, value, defaults[key]) for key, value in self.params.items()}
        p = {**defaults, **typed}
        object.__setattr__(self, "params", p)
        if self.study in ("figure1_ordering", "appendix_c_curve"):
            _require(p["normalization"] in ("full", "running"), p, "normalization in {full, running}")
            _require(p["ft_dtype"] in ("float64", "float32"), p, "ft_dtype in {float64, float32}")
        if self.study == "figure1_ordering":
            _require(p["stable_alpha"] <= 2, p, "stable_alpha <= 2")
            grid, label = ("stable", "gaussian"), "process"
        elif self.study == "appendix_c_curve":
            # the verdict and the regressions compare neighbouring grid points, in increasing order
            if p["alpha_points"] < 2:
                raise ValueError(f"parameter 'alpha_points' must be >= 2, got {p['alpha_points']}")
            _require(p["alpha_lo"] < p["alpha_hi"], p, "alpha_lo < alpha_hi")
            grid, label = tuple(np.geomspace(p["alpha_lo"], p["alpha_hi"], p["alpha_points"])), "bp_alpha"
        elif self.study == "gaussian_dimension":
            _require(p["mass_lo"] < p["mass_hi"] < 1, p, "mass_lo < mass_hi < 1")
            _require(p["level_lo"] < p["level_hi"] <= 1, p, "level_lo < level_hi <= 1")
            grid, label = p["dims"], "dim"
        else:
            _require(max(p["stable_alphas"]) <= 2, p, "every stable_alphas value <= 2")
            _require(p["block_size"] >= 2, p, "block_size >= 2")
            grid, label = p["stable_alphas"], "stable_alpha"
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "grid_label", label)


@dataclass(frozen=True)
class CurveStats:
    mean: np.ndarray
    lo95: np.ndarray
    hi95: np.ndarray

    def __post_init__(self):
        if np.any(self.lo95 > self.mean) or np.any(self.mean > self.hi95):
            raise ValueError("confidence intervals must contain their means")


@dataclass(frozen=True)
class StudyResult:
    spec: StudySpec
    stats: dict[str, CurveStats]
    raw: dict[str, np.ndarray]
    verdicts: dict[str, bool]
    diagnostics: dict[str, float]


def _pairwise_sum(values: np.ndarray) -> float:
    """Deterministic pairwise reduction over replicate index order."""
    v = np.asarray(values, dtype=np.float64)
    n = v.size
    if n == 0:
        return 0.0
    while n > 1:
        half = n // 2
        v = np.concatenate([v[:half] + v[half : 2 * half], v[2 * half : n]])
        n = v.size
    return float(v[0])


def _curve_stats(raw: np.ndarray) -> CurveStats:
    """Mean and normal-approximation 95% interval per grid point."""
    g, reps = raw.shape
    mean = np.array([_pairwise_sum(raw[i]) / reps for i in range(g)])
    if reps > 1:
        sd = np.array([np.sqrt(_pairwise_sum((raw[i] - mean[i]) ** 2) / (reps - 1)) for i in range(g)])
        half = 1.96 * sd / np.sqrt(reps)
    else:
        half = np.zeros(g)
    return CurveStats(mean, mean - half, mean + half)


def _ranks(x: np.ndarray) -> np.ndarray:
    """Ranks from 0, each group of tied values given the mean of its positions."""
    _, group, counts = np.unique(x, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts + 1) / 2.0)[group]


def _spearman(x: np.ndarray, y: np.ndarray) -> float:
    """Rank correlation with average ranks for ties; 0.0 when either side is constant."""
    rx, ry = _ranks(x), _ranks(y)
    rx -= rx.mean()
    ry -= ry.mean()
    denom = np.sqrt((rx**2).sum() * (ry**2).sum())
    return float((rx * ry).sum() / denom) if denom > 0 else 0.0


def _r_squared(x: np.ndarray, y: np.ndarray) -> float:
    coef = np.polyfit(x, y, 1)
    resid = y - np.polyval(coef, x)
    total = ((y - y.mean()) ** 2).sum()
    return float(1.0 - (resid**2).sum() / total) if total > 0 else 1.0


def _normalize(trajectory, mode: str):
    """Variance normalization for the functional studies.

    ``full`` divides every point by the coordinate-wise std of the whole
    iterate set (one scale per coordinate); ``running`` uses the prefix-std
    normalization.  Full is the default: it removes the scale difference
    between processes while preserving the clustering structure the
    functional measures, which the prefix variant distorts for very heavy
    tails (see the monotonicity study).  ``StudySpec`` admits no other mode.
    """
    if mode == "running":
        return normalize_by_running_std(trajectory).trajectory
    sd = trajectory.points.std(axis=0)
    return Trajectory(trajectory.points / np.where(sd > 0, sd, 1.0))


def _gamma2(process: ProcessSpec, params: Mapping[str, Any]) -> dict[str, float]:
    """Functional of one normalized simulated walk: the body of both functional cells."""
    walk = _normalize(simulate(process), params["normalization"])
    options = SubgradientOptions(iterations=params["ft_iterations"], dtype=params["ft_dtype"])
    return {"gamma2": estimate_gamma2(walk, rho=params["rho"], options=options).value}


def _cell_figure1_ordering(arm: str, seed: Seed, params: Mapping[str, Any]) -> dict[str, float]:
    kind = "stable_levy_walk" if arm == "stable" else "gaussian_walk"
    process = ProcessSpec(kind, params["dim"], params["steps"], seed.spawn(0).base, stable_alpha=params["stable_alpha"])
    return _gamma2(process, params)


def _cell_appendix_c_curve(alpha: float, seed: Seed, params: Mapping[str, Any]) -> dict[str, float]:
    process = ProcessSpec(
        "beta_prime_walk", 2, params["steps"], seed.spawn(0).base, bp_alpha=alpha, bp_beta=params["beta"]
    )
    return _gamma2(process, params)


def _cell_gaussian_dimension(dim: int, seed: Seed, params: Mapping[str, Any]) -> dict[str, float]:
    walk = simulate(ProcessSpec("gaussian_walk", dim, params["steps"], seed.spawn(0).base))
    norms = np.linalg.norm(increments(walk, 1), axis=1)
    levels = np.geomspace(params["level_lo"], params["level_hi"], params["n_radii"])
    grid = RadiusGrid.from_quantiles(norms, levels)
    curve = ball_mass_curve(walk, (1,), grid)
    return {"alpha_hat": exponent_from_ball_mass(curve, window=(params["mass_lo"], params["mass_hi"]))}


def _cell_exponent_comparison(alpha_s: float, seed: Seed, params: Mapping[str, Any]) -> dict[str, float]:
    walk = simulate(
        ProcessSpec("stable_levy_walk", params["dim"], params["steps"], seed.spawn(0).base, stable_alpha=alpha_s)
    )
    lower = lower_tail_exponent_reciprocal(walk).alpha_survival
    stable = stable_index(increments(walk, 1).ravel(), params["block_size"]).alpha_hat
    return {"alpha_lower_tail": lower, "alpha_stable": stable}


def _verdicts(study: str, grid, stats: dict[str, CurveStats]):
    verdicts: dict[str, bool] = {}
    diagnostics: dict[str, float] = {}
    if study == "figure1_ordering":
        g = stats["gamma2"]
        stable, gaussian = 0, 1
        verdicts["stable_below_gaussian"] = bool(g.mean[stable] < g.mean[gaussian])
        verdicts["intervals_disjoint"] = bool(g.hi95[stable] < g.lo95[gaussian])
        diagnostics["gamma2_gap"] = float(g.mean[gaussian] - g.mean[stable])
    elif study == "appendix_c_curve":
        mean = stats["gamma2"].mean
        alphas = np.asarray(grid, dtype=np.float64)
        verdicts["strictly_increasing"] = bool(np.all(np.diff(mean) > 0))
        diagnostics["spearman"] = _spearman(alphas, mean)
        diagnostics["r2_log_alpha"] = _r_squared(np.log(alphas), mean)
        diagnostics["r2_sqrt_alpha"] = _r_squared(np.sqrt(alphas), mean)
    elif study == "gaussian_dimension":
        mean = stats["alpha_hat"].mean
        dims = np.asarray(grid, dtype=np.float64)
        errors = np.abs(mean - dims)
        verdicts["within_quarter_of_dim"] = bool(np.all(errors <= 0.25))
        diagnostics["max_abs_error"] = float(errors.max())
    else:
        lower = stats["alpha_lower_tail"].mean
        stable = stats["alpha_stable"].mean
        rho = _spearman(lower, stable)
        verdicts["rank_correlation_positive"] = bool(rho > 0)
        diagnostics["spearman"] = rho
    return verdicts, diagnostics


def run_study(spec: StudySpec, threads: int = 1) -> StudyResult:
    """Execute every (grid point, replicate) cell and aggregate.

    Cell seeds derive from (base seed, grid index, replicate index), and the
    reduction order is fixed, so the result does not depend on ``threads``.
    The cell function is the module attribute ``_cell_<study>``, looked up
    per call, so a wrapper set on it (as the span tracer does) sees every cell.
    """
    start = time.perf_counter()
    grid, reps, base = spec.grid, spec.replicates, Seed(spec.seed)
    cell_fn = globals()[f"_cell_{spec.study}"]
    cells = [(gi, ri) for gi in range(len(grid)) for ri in range(reps)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        outputs = list(pool.map(lambda c: cell_fn(grid[c[0]], base.spawn(*c), spec.params), cells))
    raw = {name: np.reshape([out[name] for out in outputs], (len(grid), reps)) for name in sorted(outputs[0])}
    stats = {name: _curve_stats(values) for name, values in raw.items()}
    verdicts, diagnostics = _verdicts(spec.study, grid, stats)
    runtime = time.perf_counter() - start
    log.info("study %s finished in %.1fs; verdicts=%s", spec.study, runtime, verdicts)
    return StudyResult(spec, stats, raw, verdicts, diagnostics)


def _fmt(x) -> str:
    return x if isinstance(x, str) else f"{float(x):.17g}"


def emit_report(result: StudyResult, out_dir: str | Path) -> list[Path]:
    """Write one JSON summary plus one CSV per statistic curve.

    A single-statistic study writes ``<study>.csv``; multi-statistic studies
    write ``<study>_<stat>.csv``.  The wall-clock runtime is not written, so
    re-runs are byte-identical; ``run_study`` logs it.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    spec = result.spec
    summary = {
        "study": spec.study,
        "spec": {
            "study": spec.study,
            "replicates": spec.replicates,
            "seed": spec.seed,
            "params": spec.params,
        },
        "grid_label": spec.grid_label,
        "grid": spec.grid,
        "stats": {name: asdict(s) for name, s in result.stats.items()},
        "verdicts": result.verdicts,
        "diagnostics": result.diagnostics,
        "seed": spec.seed,
    }
    paths = []
    json_path = out_dir / f"{spec.study}.json"
    json_path.write_text(json.dumps(summary, indent=2, sort_keys=True, default=_jsonable) + "\n")
    paths.append(json_path)
    single = len(result.stats) == 1
    for name, s in sorted(result.stats.items()):
        csv_path = out_dir / (f"{spec.study}.csv" if single else f"{spec.study}_{name}.csv")
        with csv_path.open("w", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(["grid_value", "mean", "lo95", "hi95"])
            for g, m, lo, hi in zip(spec.grid, s.mean, s.lo95, s.hi95):
                writer.writerow([_fmt(g), _fmt(m), _fmt(lo), _fmt(hi)])
        paths.append(csv_path)
    return paths


def _jsonable(obj):
    """``json.dumps`` hook: numpy scalars and arrays as Python values."""
    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")
