"""trajtail benchmark: CLI workloads, end-to-end metrics and a traced per-layer run.

Run from the repository root::

    python3 perfbench/run.py --workload analyze-wide --seed 1 --seconds 40 --trace 0

``--trace 0`` runs the workload's invocations as ``python -m trajtail.cli``
child processes, one at a time (one client, closed loop), for ``--seconds``
seconds and prints the end-to-end metrics.  ``--trace 1`` runs the
workload's first invocation untraced, then again in a traced child
(``perfbench/spans.py``) that records spans around every layer, and for the
studies once more at one thread; it prints the per-layer metrics.  Every
output is checked.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Metric names and units
come from ``BENCHMARK.json``; spans and the run record are written under
``.perfbench/<workload>/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
THREADS = len(os.sched_getaffinity(0))
# Set-up is repeated this many times in a run; setup_s is the median.
SETUP_REPEATS = 3
# Every run must end within 180 s; no child may outlive this budget.
RUN_BUDGET_S = 165.0
# Relative slack when comparing a returned functional with the uniform objective
# recomputed here (the two sides sum in different orders).
REL_TOL = 1e-9


class CheckError(Exception):
    """An invocation's output failed a correctness or determinism check."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


@dataclass
class Invocation:
    """One finished child process of the program."""

    tag: str
    argv: list[str]
    code: int
    wall_s: float
    rss_mb: float
    stdout: bytes
    files: dict[str, bytes]
    spans_record: dict | None = None
    error: str | None = None
    cells: int = 0


@dataclass
class Plan:
    """Inputs made from one workload seed: K invocations plus a reduced warm-up."""

    specs: list[list[str]]
    warmup: list[str]
    expect: list[dict]
    cache: dict = field(default_factory=dict)


def with_threads(argv: list[str], threads: int) -> list[str]:
    out = list(argv)
    out[out.index("--threads") + 1] = str(threads)
    return out


def derived_seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**31, size=count)]


def uniform_objective(points: np.ndarray, rho: float) -> float:
    """The functional at uniform weights, through the package's public API."""
    from trajtail import SimplexWeights, TruncatedGram, ft_objective

    gram = TruncatedGram.from_points(points, rho)
    return ft_objective(gram, SimplexWeights.uniform(gram.n))


class StudyWorkload:
    """``trajtail study`` at a reduced replicate count, at two derived seeds per pass."""

    count = 2

    def __init__(self, study: str, replicates: int, params: tuple[str, ...] = ()):
        self.study = study
        self.replicates = replicates
        self.params = params

    @property
    def key(self) -> str:
        return self.study.replace("-", "_")

    def argv(self, seed: int, replicates: int, extra: tuple[str, ...] = ()) -> list[str]:
        argv = ["study", "--name", self.study, "--replicates", str(replicates), "--seed", str(seed)]
        for item in self.params + extra:
            argv += ["--param", item]
        return argv + ["--threads", str(THREADS), "--out-dir", "out"]

    def prepare(self, seed: int, inputs: Path) -> Plan:
        seeds = derived_seeds(seed, self.count)
        return Plan(
            specs=[self.argv(s, self.replicates) for s in seeds],
            warmup=self.argv(seeds[0], 1, ("ft_iterations=1",)),
            expect=[{"seed": s} for s in seeds],
        )

    def check(self, plan: Plan, k: int, inv: Invocation) -> tuple[float, int]:
        """Objective (mean of the per-grid means) and cell count of one study run."""
        report = json.loads(inv.stdout)
        require(report.get("command") == "study" and report.get("study") == self.key, "not a study report")
        name = f"{self.key}.json"
        require(name in inv.files and f"{self.key}.csv" in inv.files, "study files missing")
        summary = json.loads(inv.files[name])
        spec = summary["spec"]
        require(summary["seed"] == plan.expect[k]["seed"], "study ran with another seed")
        require(spec["replicates"] == self.replicates, "study ran with another replicate count")
        grid = summary["grid"]
        stats = summary["stats"]["gamma2"]
        mean, lo, hi = (np.asarray(stats[key], dtype=np.float64) for key in ("mean", "lo95", "hi95"))
        require(mean.shape == (len(grid),) and np.all(np.isfinite(mean)), "per-grid means malformed")
        require(bool(np.all(lo <= mean) and np.all(mean <= hi)), "interval does not contain its mean")
        rows = inv.files[f"{self.key}.csv"].decode().splitlines()[1:]
        csv_means = [float(r.split(",")[1]) for r in rows]
        require(csv_means == mean.tolist(), "CSV means differ from the JSON summary")
        if k not in plan.cache:
            plan.cache[k] = self.uniform_table(summary)
        uniform, bound = plan.cache[k]
        require(bool(np.all(mean >= 0.0)), "negative functional estimate")
        require(bool(np.all(mean <= uniform.mean(axis=1) * (1 + REL_TOL))), "estimate exceeds uniform objective")
        require(float(uniform.max()) <= bound * (1 + REL_TOL), "uniform objective exceeds sqrt(log n)")
        return float(mean.mean()), len(grid) * spec["replicates"]

    def uniform_table(self, summary: dict) -> tuple[np.ndarray, float]:
        """Uniform-weights objective of every cell, regenerating each cell's
        points from the documented seed derivation (base, grid index, replicate)."""
        from trajtail.core import Seed
        from trajtail.simulate import ProcessSpec, simulate

        params = summary["spec"]["params"]
        require(self.key == "figure1_ordering", "benchmark regenerates figure1-ordering cells only")
        require(params["normalization"] == "full", "benchmark checks the full normalization only")
        steps = int(params["steps"])
        base = Seed(summary["seed"])
        table = np.empty((len(summary["grid"]), summary["spec"]["replicates"]))
        for gi, value in enumerate(summary["grid"]):
            for ri in range(table.shape[1]):
                sim_seed = base.spawn(gi, ri).spawn(0).base
                if value == "stable":
                    spec = ProcessSpec("stable_levy_walk", int(params["dim"]), steps, sim_seed,
                                       stable_alpha=float(params["stable_alpha"]))
                else:
                    spec = ProcessSpec("gaussian_walk", int(params["dim"]), steps, sim_seed)
                pts = simulate(spec).points
                sd = pts.std(axis=0)
                table[gi, ri] = uniform_objective(pts / np.where(sd > 0, sd, 1.0), float(params["rho"]))
        return table, math.sqrt(math.log(steps + 1))


class AnalyzeWorkload:
    """``trajtail analyze`` with default flags on generated gradient-descent trajectories."""

    window = 200  # analyze's default --window
    # rho is this quantile of the window's pairwise distances, so that a
    # nontrivial share of pairs lies within rho (beyond it, uniform is optimal).
    rho_quantile = 0.35
    diagnostics = ("reciprocal_power_law", "ball_mass_exponent", "stable_index", "k_function_slope", "covering")

    def __init__(self, dim: int = 1000, steps: int = 1000, count: int = 2, extra: tuple[str, ...] = ()):
        self.dim = dim
        self.steps = steps
        self.count = count
        self.extra = extra

    def prepare(self, seed: int, inputs: Path) -> Plan:
        from scipy.spatial.distance import pdist
        from trajtail.simulate import ProcessSpec, simulate

        inputs.mkdir(parents=True, exist_ok=True)
        seeds = derived_seeds(seed, 2 * self.count)
        curvature = tuple(np.geomspace(0.01, 1.0, self.dim))
        specs, expect = [], []
        for k in range(self.count):
            points = simulate(ProcessSpec("perturbed_gd_quadratic", self.dim, self.steps, seeds[2 * k],
                                          curvature=curvature)).points
            np.savetxt(inputs / f"traj{k}.csv", points, fmt="%.17g", delimiter=",")
            window = points[-(self.window + 1):]
            rho = float(np.quantile(pdist(window), self.rho_quantile))
            specs.append(["analyze", "--input", f"../../inputs/traj{k}.csv", "--rho", repr(rho),
                          "--seed", str(seeds[2 * k + 1]), *self.extra])
            expect.append({"window": window, "rho": rho})
        warmup = specs[0] + ["--window", "20", "--iterations", "1", "--restarts", "1"]
        return Plan(specs, warmup, expect)

    def check(self, plan: Plan, k: int, inv: Invocation) -> tuple[float, int]:
        report = json.loads(inv.stdout)
        window, rho = plan.expect[k]["window"], plan.expect[k]["rho"]
        n = window.shape[0]
        require(report.get("command") == "analyze", "not an analyze report")
        require(report["n"] == n and report["dim"] == self.dim and report["rho"] == rho, "report shape differs")
        require(report["gamma2_method"] in ("subgradient", "uniform"), "unknown estimate method")
        for key in self.diagnostics:
            require(report.get(key) is not None, f"{key} failed: {report.get(key + '_error')}")
        if k not in plan.cache:
            plan.cache[k] = uniform_objective(window, rho)
        uniform = plan.cache[k]
        gamma2 = report["gamma2"]
        require(0.0 <= gamma2 <= uniform * (1 + REL_TOL), "estimate outside [0, uniform objective]")
        require(uniform <= math.sqrt(math.log(n)) * (1 + REL_TOL), "uniform objective exceeds sqrt(log n)")
        return float(gamma2), 1


# Why each workload is here is recorded in BENCHMARK.json and perfbench/README.md.
WORKLOADS = {
    "study-figure1": StudyWorkload("figure1-ordering", replicates=4),
    "analyze-wide": AnalyzeWorkload(),
}


class Runner:
    """Launches the program's child processes inside one run's directory and time budget."""

    def __init__(self, work: Path, budget_s: float):
        self.work = work
        self.deadline = time.perf_counter() + budget_s
        self.invocations: list[Invocation] = []

    def launch(self, tag: str, argv: list[str], traced: bool = False) -> Invocation:
        cwd = self.work / "runs" / tag
        cwd.mkdir(parents=True)
        if traced:
            cmd = [sys.executable, str(HERE / "spans.py"), "--spans-out", "../spans-" + tag + ".json",
                   "--invocation", tag, "--", *argv]
        else:
            cmd = [sys.executable, "-m", "trajtail.cli", *argv]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        timeout = max(1.0, self.deadline - time.perf_counter())
        with open(cwd / "stdout.txt", "wb") as out, open(cwd / "stderr.txt", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=cwd, stdout=out, stderr=err, env=env)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out_dir = cwd / "out"
        files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())} if out_dir.is_dir() else {}
        inv = Invocation(tag, argv, proc.returncode, wall, usage.ru_maxrss / 1024.0,
                         (cwd / "stdout.txt").read_bytes(), files)
        if proc.returncode != 0:
            stderr = (cwd / "stderr.txt").read_text(errors="replace").strip().splitlines()
            inv.error = f"exit code {proc.returncode}: {stderr[-1] if stderr else ''}"
        elif traced:
            inv.spans_record = json.loads((self.work / "runs" / f"spans-{tag}.json").read_text())
        self.invocations.append(inv)
        return inv

    def out_of_time(self) -> bool:
        return time.perf_counter() >= self.deadline


def check_all(workload, plan: Plan, runs: list[tuple[int, Invocation]]) -> dict[int, float]:
    """Check every invocation; the first good run of each spec is the reference
    its repeats must match byte for byte.  Returns objective per spec."""
    reference: dict[int, Invocation] = {}
    objective: dict[int, float] = {}
    for k, inv in runs:
        if inv.error is not None:
            continue
        try:
            value, inv.cells = workload.check(plan, k, inv)
            if k in reference:
                ref = reference[k]
                require(inv.stdout == ref.stdout, f"stdout differs from {ref.tag}")
                require(inv.files == ref.files, f"output files differ from {ref.tag}")
            else:
                reference[k], objective[k] = inv, value
        except (CheckError, KeyError, TypeError, ValueError) as exc:
            inv.error = f"check failed: {exc!r}"
    return objective


def check_warmup(inv: Invocation) -> None:
    """A warm-up runs at reduced work, so only its exit code and JSON are checked."""
    if inv.error is None:
        try:
            json.loads(inv.stdout)
        except ValueError as exc:
            inv.error = f"warm-up output is not JSON: {exc}"


def run_plain(workload, seed: int, seconds: float, runner: Runner) -> dict[str, float]:
    inputs = runner.work / "inputs"
    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        plan = workload.prepare(seed, inputs)
        check_warmup(runner.launch(f"warmup{len(setup_times)}", plan.warmup))
        setup_times.append(time.perf_counter() - start)
    runs: list[tuple[int, Invocation]] = []
    loop_start = time.perf_counter()
    count = len(plan.specs)
    # After one full pass, launch another invocation only while half of a
    # typical one still fits in the window, so that a run measures `seconds`
    # on average instead of overshooting it by half an invocation.
    while not runner.out_of_time() and (
        len(runs) < count
        or time.perf_counter() - loop_start + statistics.median(inv.wall_s for _, inv in runs) / 2 < seconds
    ):
        k = len(runs) % count
        runs.append((k, runner.launch(f"m{len(runs)}", plan.specs[k])))
    objective = check_all(workload, plan, runs)
    walls = [inv.wall_s for _, inv in runs]
    passes = [sum(walls[i:i + count]) for i in range(0, len(walls) - count + 1, count)]
    cells = sum(inv.cells for _, inv in runs if inv.error is None)
    good = sum(inv.error is None for _, inv in runs)
    print(f"invocations measured: {len(runs)}; op wall samples (s): {' '.join(f'{w:.4f}' for w in walls)}")
    tail = highest_tail(walls)
    print(f"op tail: {tail[0]} = {tail[1]:.4f} s" if tail else
          "op tail: fewer than 20 samples, no percentile has 10 samples beyond it")
    return {
        "op_p50_s": statistics.median(walls),
        "cells_per_s": cells / sum(walls),
        "peak_rss_mb": statistics.median(inv.rss_mb for _, inv in runs),
        "setup_s": statistics.median(setup_times),
        "objective_mean": statistics.fmean(objective.values()) if objective else 0.0,
        "ok_ratio": good / len(runs),
        "wall_s": statistics.median(passes) if passes else sum(walls),
    }


def highest_tail(samples: list[float]) -> tuple[str, float] | None:
    """Highest whole percentile with at least ten samples above it, if any."""
    n = len(samples)
    pct = math.floor(100 * (1 - 10 / n)) if n else 0
    if pct < 50:
        return None
    return f"p{pct}", statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


def run_traced(workload, seed: int, runner: Runner) -> dict[str, float]:
    plan = workload.prepare(seed, runner.work / "inputs")
    check_warmup(runner.launch("warmup", plan.warmup))
    plain = runner.launch("plain", plan.specs[0])
    traced = runner.launch("traced", plan.specs[0], traced=True)
    runs = [(0, plain), (0, traced)]
    study = isinstance(workload, StudyWorkload)
    if study and not runner.out_of_time():
        runs.append((0, runner.launch("traced-t1", with_threads(plan.specs[0], 1), traced=True)))
    check_all(workload, plan, runs)
    record = traced.spans_record or {"import_s": 0.0, "spans": [], "counts": {}, "missing": []}
    metrics = spans.layer_metrics(record)
    if record["missing"]:
        print(f"not instrumented (metrics read 0): {', '.join(record['missing'])}")
    scaling = 0.0
    if study and len(runs) == 3 and runs[2][1].spans_record and spans.study_wall(record):
        scaling = spans.study_wall(runs[2][1].spans_record) / spans.study_wall(record)
    metrics["experiments.thread_scaling"] = scaling
    metrics["trace.overhead_s"] = traced.wall_s - plain.wall_s
    print(f"tracing overhead: traced {traced.wall_s:.4f} s - untraced {plain.wall_s:.4f} s")
    with open(runner.work / "spans.jsonl", "w") as handle:
        for _, inv in runs:
            for span in (inv.spans_record or {}).get("spans", []):
                handle.write(json.dumps(span) + "\n")
    return metrics


def run_context() -> dict:
    import scipy

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                             timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {"git_sha": sha, "nproc": THREADS, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__}


def run_workload(name: str, seed: int, seconds: float, trace: bool, workload=None, work: Path | None = None,
                 budget_s: float = RUN_BUDGET_S) -> dict:
    """Run one workload; returns the run record, whose ``result`` is printed as the last line."""
    workload = workload or WORKLOADS[name]
    work = work or WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(work, budget_s)
    metrics = run_traced(workload, seed, runner) if trace else run_plain(workload, seed, seconds, runner)
    failed = [inv for inv in runner.invocations if inv.error is not None]
    for inv in failed:
        print(f"FAILED {inv.tag}: {inv.error}")
    result = {
        "correct": not failed,
        "attempted": len(runner.invocations),
        "failed": len(failed),
        "metrics": metrics,
    }
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace, "context": run_context(),
              "invocations": [{"tag": i.tag, "argv": i.argv, "wall_s": i.wall_s, "rss_mb": i.rss_mb,
                               "error": i.error} for i in runner.invocations], "result": result}
    (work / "result.json").write_text(json.dumps(record, indent=2) + "\n")
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "trajtail" / "cli.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: no trajtail sources under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["end_to_end" if not args.trace else "per_layer"]}

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print("context: " + json.dumps(record["context"], sort_keys=True))
    result = record["result"]
    measured = result["metrics"]
    missing = sorted(set(units) - set(measured))
    if missing:
        print(f"error: metrics not computed: {missing}", file=sys.stderr)
        return 1
    result["metrics"] = {name: {"value": float(measured[name]), "unit": unit} for name, unit in units.items()}
    for name, entry in result["metrics"].items():
        print(f"{name} {entry['value']!r} {entry['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
