"""Smoke test of the benchmark on its tiny workload; no timing gate.

Run from the repository root: python3 -m pytest -q perfbench
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

sys.path.insert(0, str(HERE))
from tracing import summarize  # noqa: E402


def run(root: Path, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tiny",
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"),
                                            (1, "per_layer")])
def test_reports_every_named_metric_with_its_unit(trace, section):
    proc = run(ROOT, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1 + trace
    units = {name: metric["unit"]
             for name, metric in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in SPEC[section]}
    assert all(math.isfinite(metric["value"])
               for metric in result["metrics"].values())


def test_fails_without_printing_a_result_when_the_library_is_missing(
        tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run(tmp_path, 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_time_excludes_children_and_coverage_counts_nested_spans():
    spans = [["stage.phase1", 0.0, 10.0, -1],
             ["backbone.fwd_bwd", 1.0, 5.0, 0],
             ["optim.scatter", 2.0, 3.0, 1],
             ["stage.setup", 10.0, 12.0, -1],
             ["corpus.load", 10.0, 11.0, 3]]
    stats, nested_self = summarize(spans, {"stage.phase1"})
    assert stats["backbone.fwd_bwd"].self_time == 3.0
    assert stats["stage.phase1"].self_time == 6.0
    assert nested_self == 4.0
