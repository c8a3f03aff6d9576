"""Every CLI option at its edges: exit 0, or exit 2 with one JSON line on stderr.

The cases are generated from ``cli._OPTIONS``: each option of each command,
at the edge values of its type, on a tiny shape with one seed and one worker.
"""

import csv
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from lowrank_bandits import cli
from lowrank_bandits.baselines import independent_exploration_budget
from lowrank_bandits.harness import MAX_COUNT, WORKERS_ENV_VAR
from lowrank_bandits.mtrl import resolve_budgets

# Each command's options besides SHAPE; "lll" runs in both modes.
COMMANDS = {
    "mtrl": ("mtrl", {}),
    "e2tc": ("e2tc", {}),
    "independent": ("independent", {}),
    "lll-regret": ("lll", {"--mode": "regret"}),
    "lll-pure": ("lll", {"--mode": "pure_exploration", "--epsilon": "0.3"}),
    "compare": ("compare", {}),
}
SHAPE = {"--d": "3", "--k": "1", "--M": "2", "--T": "300", "--seeds": "1", "--out-dir": "out"}
EDGES = {
    int: ["0", "1", "-1", str(2**63)],
    float: ["0", "-1", "0.5", "1e-308", "1e308", "nan", "inf", "-inf"],
    str: [],
}


def edge_arguments(flag: str, keywords: dict) -> list[list[str]]:
    """The flag at each edge of its type, or with each choice, and with ``x``."""
    if "choices" in keywords:
        values = [[flag, choice] for choice in keywords["choices"]]
    elif keywords.get("action") == "store_true":
        values = [[flag]]
    else:
        values = [[flag, value] for value in EDGES[keywords["type"]]]
    return values + [[flag, "x"]]


def cases():
    for name, (command, options) in COMMANDS.items():
        for flag, _, keywords, _ in cli._OPTIONS:
            base = {**SHAPE, **options}
            base.pop(flag, None)
            for edge in edge_arguments(flag, keywords):
                argv = [command, *(part for item in base.items() for part in item), *edge]
                yield pytest.param(argv, id=f"{name} {' '.join(edge)}")


@pytest.mark.parametrize("argv", cases())
def test_option_edge_exits_0_or_2_with_one_json_line(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)  # --out-dir values are relative paths
    monkeypatch.setenv(WORKERS_ENV_VAR, "1")
    code = cli.main(argv)
    lines = capsys.readouterr().err.splitlines()
    if code == 0:
        assert lines == []
    else:
        assert code == 2
        assert len(lines) == 1
        assert set(json.loads(lines[0])) == {"error", "message"}


def run_limited(args: list[str]) -> subprocess.CompletedProcess:
    """``python -m lowrank_bandits *args`` in a subprocess under an address-space
    limit and a timeout, so a run that allocates or loops by a count it was
    given fails the test instead of the host."""
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, WORKERS_ENV_VAR: "1", "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    limit = 4 * 2**30
    return subprocess.run(
        [sys.executable, "-m", "lowrank_bandits", *args],
        env=env, capture_output=True, text=True, timeout=20,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )


def assert_config_error(done: subprocess.CompletedProcess, message: str) -> None:
    assert done.returncode == 2, done.stderr
    assert done.stdout == ""
    lines = done.stderr.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {"error": "ConfigError", "message": message}


def test_largest_accepted_task_count_exits_2():
    # --M 2**63 - 1 passes validation; its task weights fit in no array.
    done = run_limited(["mtrl", "--M", str(MAX_COUNT), "--seeds", "1"])
    assert_config_error(done, f"num_tasks: {MAX_COUNT} task weights do not fit in one array")


def test_largest_accepted_dimension_exits_2():
    # --d 2**63 - 1 passes validation; its (d, d) Gaussian draw fits in no array.
    done = run_limited(["mtrl", "--d", str(MAX_COUNT), "--k", "1", "--M", "2", "--T", "300", "--seeds", "1"])
    assert_config_error(done, f"dim: a {MAX_COUNT} x {MAX_COUNT} matrix does not fit in one array")


def test_seed_count_no_list_holds_exits_2():
    # --seeds 2**62 passes validation; its replicates fit in no list.
    seeds = 2**62
    done = run_limited(["mtrl", "--seeds", str(seeds), "--d", "3", "--k", "1", "--M", "2", "--T", "300"])
    assert_config_error(done, f"num_seeds: {seeds} replicates do not fit in one list")


def test_deeply_nested_config_exits_2(tmp_path):
    # json.load recurses once per level; 1e5 levels pass Python's recursion limit.
    config = tmp_path / "deep.json"
    config.write_text("[" * 100_000 + "]" * 100_000)
    done = run_limited(["mtrl", "--config", str(config), "--seeds", "1"])
    assert_config_error(done, f"config: {config} is nested too deeply to parse")


def command_args(name: str, shape: dict) -> list[str]:
    command, options = COMMANDS[name]
    return [command, *(part for item in {**shape, **options}.items() for part in item)]


@pytest.mark.parametrize("name", [name for name in COMMANDS if name != "compare"])
def test_largest_accepted_horizon(name):
    # --T 2**63 - 1 passes validation.  The explore-then-commit runners' Stage-1
    # (M, t1) regrets fit in no array; lll draws task by task and runs.
    shape = {"--d": "3", "--k": "1", "--M": "2", "--seeds": "1", "--T": str(MAX_COUNT)}
    done = run_limited(command_args(name, shape))
    if name.startswith("lll"):
        assert (done.returncode, done.stderr) == (0, "")
        return
    assert done.returncode == 2
    lines = done.stderr.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])
    assert error["error"] == "MemoryError"
    t1 = (independent_exploration_budget(3, MAX_COUNT) if name == "independent"
          else resolve_budgets(3, 1, 2, MAX_COUNT)[0])
    assert f"with shape (2, {t1}) and" in error["message"]


@pytest.mark.parametrize("name", COMMANDS)
def test_largest_accepted_trace_stride_keeps_each_final_point(tmp_path, name):
    # --trace-stride 2**63 - 1 passes validation.  No pull count is a multiple
    # of it, so each replicate's one curves row is its final pull count.
    done = run_limited(command_args(name, {**SHAPE, "--seeds": "2", "--out-dir": str(tmp_path),
                                           "--trace-stride": str(MAX_COUNT)}))
    assert (done.returncode, done.stderr) == (0, "")
    final = {"0": 2 * 300, "1": 2 * 300}  # M·T
    if name == "lll-pure":  # the samples its pure exploration drew
        final = {"0": 0, "1": 0}
        for task in csv_rows(tmp_path / "per_task.csv"):
            final[task["seed"]] += int(task["samples_used"])
    curves = sorted(tmp_path.glob("curves*.csv"))
    assert len(curves) == (3 if name == "compare" else 1)
    for path in curves:
        rows = csv_rows(path)
        assert len(rows) == 2
        assert {row["seed"]: int(row["t"]) for row in rows} == final


def csv_rows(path: Path) -> list[dict]:
    with path.open(newline="") as handle:
        return list(csv.DictReader(handle))
