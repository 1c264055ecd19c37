"""The benchmark's span tracer still finds every private hook point of the package.

``perfbench/spans.py`` wraps ``experiments._cell_*``, ``ft._minimize_restart``
and ``spatial._farthest_point_radii`` by name.  A name that no longer exists
is skipped and listed under ``missing``, and the metrics built on it read 0,
so a rename would silently empty them.  This runs the tracer as the benchmark
does, in a child process, on a tiny figure-1 study.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_finds_every_hook_point_and_one_span_per_cell(tmp_path):
    replicates, iterations = 2, 3
    argv = ["study", "--name", "figure1-ordering", "--replicates", str(replicates), "--seed", "3",
            "--param", "steps=60", "--param", f"ft_iterations={iterations}", "--threads", "2", "--out-dir", "out"]
    spans_out = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "spans.py"), "--spans-out", str(spans_out), "--invocation", "t",
         "--", *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(spans_out.read_text())
    assert record["missing"] == []
    cells = 2 * replicates  # two arms
    assert sum(s["name"] == "experiments.cell" for s in record["spans"]) == cells
    assert record["counts"]["ft.iterations"] == cells * iterations
