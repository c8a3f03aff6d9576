"""Every CLI option at its edges: exit 0, or exit 2 with one JSON line on stderr.

The cases are generated from ``cli._OPTIONS``: each option of each command,
at the edge values of its type, on a tiny shape with one seed and one worker.
"""

import json

import pytest

from lowrank_bandits import cli
from lowrank_bandits.harness import WORKERS_ENV_VAR

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
