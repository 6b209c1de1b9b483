"""Smoke test of the benchmark: every workload briefly, both trace modes.

Checks the plumbing, not the numbers: each run exits 0, its answers
verify, and its last line reports every metric ``BENCHMARK.json`` names,
each with that unit.  Results go to a temporary directory, so a run
leaves the working tree unchanged.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
#: Long enough for ten requests per caller (one round, one update) in
#: each slice of a server workload's window, traced runs' half included.
SECONDS = {"rpq_sets_cold": 2}


def _run(command_root: Path, workload: str, trace: int, out: Path):
    return subprocess.run(
        [sys.executable, str(command_root / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "3",
         "--seconds", str(SECONDS.get(workload, 5)), "--trace", str(trace),
         "--smoke", "--out", str(out)],
        cwd=str(command_root), capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [entry["name"] for entry in SPEC["workloads"]])
def test_workload_reports_every_metric_verified(workload, trace, tmp_path):
    completed = _run(ROOT, workload, trace, tmp_path)
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {entry["name"] for entry in declared}
    for entry in declared:
        metric = result["metrics"][entry["name"]]
        assert metric["unit"] == entry["unit"]
        assert isinstance(metric["value"], (int, float))
    assert "verification: passed" in completed.stdout
    assert list((tmp_path / "results").glob(f"{workload}-seed3-trace{trace}.json"))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    completed = _run(tmp_path, "serve_read", 0, tmp_path / "out")
    assert completed.returncode != 0
    assert not completed.stdout.strip()
