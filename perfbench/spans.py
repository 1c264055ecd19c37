"""Span recording around trajtail's layers, and the per-layer metrics built from the spans.

The recorder wraps the public functions of each package module (and a few
private boundaries listed in ``EXTRA_POINTS``) and patches every name under
which a caller looks the function up, so no file of the package changes.

Run as a script it is the traced child of the benchmark: it times the import
of ``trajtail.cli``, installs the wrappers, calls ``trajtail.cli.main(argv)``
in-process and writes the spans as JSON when the invocation ends::

    python perfbench/spans.py --spans-out spans.json --invocation traced -- analyze --input walk.csv

Standard output is exactly the program's, so it can be compared byte for byte
with an untraced ``python -m trajtail.cli`` run.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import itertools
import json
import statistics
import sys
import threading
import time
from collections import defaultdict

LAYERS = ("cli", "core", "simulate", "ft", "exponents", "spatial", "experiments", "bounds")

# Boundaries below the public API that a layer metric needs: study cells (one
# span each), subgradient restarts (iteration count only) and greedy cover
# centres (count only).  A name that is missing is skipped and reported.
EXTRA_POINTS = (
    ("experiments", "_cell_*", "experiments.cell"),
    ("ft", "_minimize_restart", None),
    ("spatial", "_farthest_point_radii", None),
)

# Span-name groups; a group's time is the inclusive time of its outermost spans.
GROUPS = {
    "core.load_s": ("core.load_trajectory",),
    "simulate.s": ("simulate.simulate",),
    "ft.gram_s": ("ft.TruncatedGram.from_points",),
    "exponents.tail_fit_s": ("exponents.lower_tail_exponent_reciprocal", "exponents.fit_power_law"),
    "exponents.ball_mass_s": ("exponents.ball_mass_curve", "exponents.exponent_from_ball_mass"),
    "exponents.stable_index_s": ("exponents.stable_index", "exponents.layerwise_stable_index"),
    "spatial.k_function_s": ("spatial.k_function", "spatial.k_function_slope"),
    "spatial.cover_s": ("spatial.covering_numbers", "spatial.dudley_dominates"),
}


class Tracer:
    """In-memory spans and counters for one invocation.

    A span records name, start, end, parent, thread and invocation id.  The
    parent is the innermost open span on the same thread; the first span on a
    worker thread takes the innermost open span of the thread that created the
    tracer, which is the call that handed out the work.
    """

    def __init__(self, invocation: str):
        self.invocation = invocation
        self.spans: list[dict] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> dict:
        stack = self._stack()
        if stack:
            parent = stack[-1]["id"]
        else:
            try:
                parent = self._main_stack[-1]["id"]
            except IndexError:
                parent = None
        span = {
            "id": next(self._ids),
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": parent,
            "thread": threading.get_ident(),
            "inv": self.invocation,
        }
        stack.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def count(self, key: str, value: float = 1.0) -> None:
        with self._lock:
            self.counts[key] += value

    def wrap(self, fn, name: str | None, after=None):
        """Wrap ``fn`` in a span called ``name`` (none when ``name`` is None);
        ``after(tracer, span, args, kwargs, result)`` runs once the span is closed."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.open(name) if name else None
            try:
                result = fn(*args, **kwargs)
            finally:
                if span is not None:
                    tracer.close(span)
            if after is not None:
                after(tracer, span, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every layer's public functions and patch all references to them."""
        import importlib

        modules = {layer: importlib.import_module(f"trajtail.{layer}") for layer in LAYERS}
        replaced: dict[int, object] = {}
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    replaced[id(obj)] = self.wrap(obj, f"{layer}.{attr}", _HOOKS.get(f"{layer}.{attr}"))
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    self._wrap_classmethods(layer, obj)
        for layer, pattern, name in EXTRA_POINTS:
            module = modules[layer]
            attrs = [a for a in vars(module) if a == pattern or (pattern.endswith("*") and a.startswith(pattern[:-1]))]
            if not attrs:
                self.missing.append(f"{layer}.{pattern}")
            for attr in attrs:
                obj = getattr(module, attr)
                replaced[id(obj)] = self.wrap(obj, name, _HOOKS.get(f"{layer}.{attr}"))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "trajtail" and not mod_name.startswith("trajtail."):
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in replaced and inspect.isfunction(obj):
                    setattr(module, attr, replaced[id(obj)])

    def _wrap_classmethods(self, layer: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if isinstance(raw, classmethod) and not attr.startswith("_"):
                name = f"{layer}.{cls.__name__}.{attr}"
                setattr(cls, attr, classmethod(self.wrap(raw.__func__, name, _HOOKS.get(name))))


def _gram_hook(tracer, span, args, kwargs, gram):
    points = args[1] if len(args) > 1 else kwargs["points"]
    n = gram.n
    dim = len(points[0]) if n else 0
    arrays = (gram.entries, gram.sorted_entries, gram.order, gram.segments)
    # Returned arrays plus the n*n*D float64 difference tensor the build makes.
    tracer.count("ft.gram_bytes_computed", sum(a.nbytes for a in arrays) + n * n * dim * 8)
    tracer.count("ft.pairs", n * (n - 1))
    tracer.count("ft.pairs_within_rho", int((gram.entries < gram.rho).sum()) - n)


def _estimate_hook(tracer, span, args, kwargs, est):
    tracer.count("ft.estimates")
    tracer.count("ft.subgradient_wins", est.method == "subgradient")


def _restart_hook(tracer, span, args, kwargs, result):
    tracer.count("ft.iterations", len(result[2]) - 1)


def _cover_hook(tracer, span, args, kwargs, radii):
    tracer.count("spatial.cover_centers", len(radii))


def _study_hook(tracer, span, args, kwargs, result):
    span["threads"] = kwargs.get("threads", args[1] if len(args) > 1 else 1)


_HOOKS = {
    "ft.TruncatedGram.from_points": _gram_hook,
    "ft.estimate_gamma2": _estimate_hook,
    "ft._minimize_restart": _restart_hook,
    "spatial._farthest_point_radii": _cover_hook,
    "experiments.run_study": _study_hook,
}


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part of its interval its child spans cover.

    Children on several threads may overlap; the union of their intervals is
    what is subtracted.
    """
    children: dict[int, list[dict]] = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append(s)
    out = {}
    for s in spans:
        covered = union_length(
            (max(c["start"], s["start"]), min(c["end"], s["end"])) for c in children[s["id"]]
        )
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def group_time(spans: list[dict], names) -> float:
    """Inclusive time of the spans named in ``names`` whose parent is not also in the group."""
    names = set(names)
    by_id = {s["id"]: s for s in spans}
    total = 0.0
    for s in spans:
        if s["name"] in names:
            parent = by_id.get(s["parent"])
            if parent is None or parent["name"] not in names:
                total += s["end"] - s["start"]
    return total


def _quantile(values, q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return float(statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1])


def layer_metrics(record: dict) -> dict[str, float]:
    """Per-layer metrics of one traced invocation (the JSON this script writes).

    A layer that the invocation does not reach reads 0.
    """
    spans, counts = record["spans"], record["counts"]
    out = {"cli.import_s": record["import_s"]}
    for metric, names in GROUPS.items():
        out[metric] = group_time(spans, names)
    out["simulate.calls"] = float(sum(s["name"] == "simulate.simulate" for s in spans))
    out["ft.gram_calls"] = float(sum(s["name"] == "ft.TruncatedGram.from_points" for s in spans))
    out["ft.gram_bytes_computed"] = counts.get("ft.gram_bytes_computed", 0.0)
    pairs = counts.get("ft.pairs", 0.0)
    out["ft.within_rho_frac"] = counts.get("ft.pairs_within_rho", 0.0) / pairs if pairs else 0.0
    selfs = self_times(spans)
    out["ft.estimate_self_s"] = sum(selfs[s["id"]] for s in spans if s["name"] == "ft.estimate_gamma2")
    out["ft.iterations"] = counts.get("ft.iterations", 0.0)
    its = out["ft.iterations"]
    out["ft.iter_us"] = out["ft.estimate_self_s"] / its * 1e6 if its else 0.0
    estimates = counts.get("ft.estimates", 0.0)
    out["ft.subgradient_win_ratio"] = counts.get("ft.subgradient_wins", 0.0) / estimates if estimates else 0.0
    out["spatial.cover_centers"] = counts.get("spatial.cover_centers", 0.0)
    cells = sorted(s["end"] - s["start"] for s in spans if s["name"] == "experiments.cell")
    out["experiments.cell_p50_s"] = _quantile(cells, 0.5)
    out["experiments.cell_p90_s"] = _quantile(cells, 0.9)
    capacity = sum((s["end"] - s["start"]) * s["threads"] for s in spans if s["name"] == "experiments.run_study")
    out["experiments.busy_frac"] = sum(cells) / capacity if capacity else 0.0
    return out


def study_wall(record: dict) -> float:
    """Wall time of the invocation's ``run_study`` calls."""
    return sum(s["end"] - s["start"] for s in record["spans"] if s["name"] == "experiments.run_study")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans-out", required=True, help="file the spans are written to")
    parser.add_argument("--invocation", required=True, help="invocation id recorded on every span")
    parser.add_argument("argv", nargs=argparse.REMAINDER, help="trajtail arguments after --")
    args = parser.parse_args(argv)
    program_argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    start = time.perf_counter()
    import trajtail.cli

    import_s = time.perf_counter() - start
    tracer = Tracer(args.invocation)
    tracer.install()
    try:
        code = trajtail.cli.main(program_argv)
    finally:
        sys.stdout.flush()
        record = {
            "invocation": args.invocation,
            "import_s": import_s,
            "spans": tracer.spans,
            "counts": dict(tracer.counts),
            "missing": tracer.missing,
        }
        with open(args.spans_out, "w") as handle:
            json.dump(record, handle)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
