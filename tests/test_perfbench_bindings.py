"""The names the benchmark wraps from outside the package must stay bound.

``perfbench/tracer.py`` replaces each ``TARGETS`` attribute in its consumer
module with a timing wrapper; ``perfbench/trial.py`` and
``perfbench/workloads.py`` call and wrap the harness entry points and read
``RunRecord`` fields and properties.  A rename or a deleted import under ``src/`` would
otherwise only show in the slow benchmark smoke test.
"""

import dataclasses
import importlib
import importlib.util
from pathlib import Path

import pytest

from lowrank_bandits import harness

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


TARGETS = load_targets()


@pytest.mark.parametrize(
    "owner_path,attr", [(owner, attr) for owner, attr, _, _ in TARGETS]
)
def test_tracer_target_resolves(owner_path, attr):
    module_name, _, class_name = owner_path.partition(".")
    owner = importlib.import_module(f"lowrank_bandits.{module_name}")
    if class_name:
        owner = getattr(owner, class_name)
    assert callable(getattr(owner, attr, None)), f"{owner_path}.{attr} is not bound"


@pytest.mark.parametrize(
    "attr", ["_run_single", "run_experiment", "compare", "replicate_seed_sequences"]
)
def test_harness_entry_point_resolves(attr):
    assert callable(getattr(harness, attr, None))


def test_run_record_fields_read_by_trials():
    names = {f.name for f in dataclasses.fields(harness.RunRecord)} | {
        name for name, value in vars(harness.RunRecord).items() if isinstance(value, property)
    }
    read = {"final_regret", "seed_index", "trace_t", "sample_total", "width_final"}
    assert read | {"entered_stage2", "wall_seconds"} <= names
