"""Smoke tests of the benchmark's own code: span arithmetic and tiny workloads.

Run from the repository root with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import spans  # noqa: E402


def _span(id_, name, start, end, parent=None, thread=0):
    return {"id": id_, "name": name, "start": start, "end": end, "parent": parent, "thread": thread, "inv": "t"}


def test_union_length_merges_overlaps():
    assert spans.union_length([]) == 0.0
    assert spans.union_length([(1, 3), (2, 5), (7, 8), (4, 4)]) == 5.0
    assert spans.union_length([(0, 10), (2, 3)]) == 10.0


def test_self_time_subtracts_union_of_children():
    tree = [
        _span(0, "root", 0.0, 10.0),
        _span(1, "a", 1.0, 3.0, parent=0, thread=1),
        _span(2, "b", 2.0, 5.0, parent=0, thread=2),  # overlaps a on another thread
        _span(3, "c", 7.0, 8.0, parent=0),
        _span(4, "a.child", 1.5, 2.5, parent=1, thread=1),
    ]
    selfs = spans.self_times(tree)
    assert selfs == {0: 5.0, 1: 1.0, 2: 3.0, 3: 1.0, 4: 1.0}
    assert sum(selfs.values()) == pytest.approx(11.0)  # busy time across threads, not wall
    assert spans.group_time(tree, ("a", "a.child")) == 2.0  # nested spans of a group count once


def test_worker_spans_attach_to_the_call_that_handed_out_work():
    tracer = spans.Tracer("inv0")
    leaf = tracer.wrap(lambda x: x * 2, "layer.leaf")
    fan_out = tracer.wrap(lambda: list(ThreadPoolExecutor(2).map(leaf, range(4))), "layer.fan_out")
    assert fan_out() == [0, 2, 4, 6]
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s["name"], []).append(s)
    (root,) = by_name["layer.fan_out"]
    assert root["parent"] is None and root["thread"] == threading.get_ident()
    assert [s["parent"] for s in by_name["layer.leaf"]] == [root["id"]] * 4
    assert all(s["inv"] == "inv0" and s["end"] >= s["start"] for s in tracer.spans)


TINY = {
    "study-figure1": run.StudyWorkload("figure1-ordering", 2, params=("steps=60", "ft_iterations=5")),
    "analyze-wide": run.AnalyzeWorkload(dim=4, steps=150, count=1, extra=("--iterations", "20", "--restarts", "2")),
}
DECLARED = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_runs_checks_and_reports_every_metric(tmp_path, name, trace):
    record = run.run_workload(name, seed=3, seconds=0, trace=trace, workload=TINY[name], work=tmp_path / name)
    result = record["result"]
    assert result["correct"], [i["error"] for i in record["invocations"]]
    assert result["failed"] == 0 and result["attempted"] >= 2
    declared = {m["name"] for m in DECLARED["per_layer" if trace else "end_to_end"]}
    assert declared <= set(result["metrics"])
    assert all(isinstance(v, float) for v in result["metrics"].values())
    if trace:
        assert result["metrics"]["ft.gram_calls"] >= 1
        assert (tmp_path / name / "spans.jsonl").read_text().count("\n") >= 5
    else:
        assert result["metrics"]["ok_ratio"] == 1.0 and result["metrics"]["objective_mean"] > 0


def test_mismatched_repeat_counts_as_failure(tmp_path):
    workload = TINY["analyze-wide"]
    plan = workload.prepare(5, tmp_path / "inputs")
    runner = run.Runner(tmp_path, budget_s=60)
    first = runner.launch("a", plan.specs[0])
    second = runner.launch("b", plan.specs[0])
    second.stdout = second.stdout.replace(b'"seed"', b'"seed" ', 1)
    run.check_all(workload, plan, [(0, first), (0, second)])
    assert first.error is None
    assert second.error is not None and "differs" in second.error
