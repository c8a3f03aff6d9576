"""Smoke test of the benchmark at tiny sizes.

Checks that every metric ``BENCHMARK.json`` names is emitted with its unit,
that counts the program computes repeat exactly between two traced runs,
and that the benchmark fails without printing a result when the package
source is missing.  Run from the repository root::

    python3 -m pytest -q perfbench/test_smoke.py
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
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNT_UNITS = ("count", "B", "flop")
NOT_REPEATABLE = {"harness.replicate_s.samples"}  # grows with the number of trials


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    argv = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
            "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    return result


def assert_metrics(result: dict, spec: list[dict]) -> None:
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in spec}
    for m in spec:
        assert metrics[m["name"]]["unit"] == m["unit"], m["name"]
        assert isinstance(metrics[m["name"]]["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    assert_metrics(result_of(bench(workload, 0)), SPEC["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_and_repeatable_counts(workload):
    first = result_of(bench(workload, 1))
    second = result_of(bench(workload, 1))
    assert_metrics(first, SPEC["per_layer"])
    counts = [m["name"] for m in SPEC["per_layer"]
              if m["unit"] in COUNT_UNITS and m["name"] not in NOT_REPEATABLE]
    assert counts
    for name in counts:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_fails_without_package_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
