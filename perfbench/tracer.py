"""Spans around the calls into each ``lowrank_bandits`` module, installed from outside.

The tracer replaces module attributes with timing wrappers; it changes no
code under ``src/``.  Because ``from .env import pull_many`` copies the
binding into the importing module, each function is wrapped where its
*consumer* looks it up (``mtrl.pull_many``, ``lll.pull_block_mean``, ...),
and ``RegretLedger`` methods are wrapped on the class.  File emission has
no public entry point, so the private harness helpers are wrapped.

A span holds its name, start, end, parent span and replicate id.  Spans
stay in memory and are written when the trial ends.  A span's self time is
its duration minus the time its child spans cover.  Tracing is only valid
with one worker: spans recorded in forked pool workers would be lost.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

import numpy as np


def _rows(args, result):
    return {"rows": args[1]}


def _one_row(args, result):
    return {"rows": 1}


def _batch_pulls(args, result):
    return {"pulls": np.shape(result)[0]}


def _block_pulls(args, result):
    return {"pulls": args[3]}


def _ledger_entries(args, result):
    entries = int(np.size(args[1]))
    return {"entries": entries, "bytes": 8 * entries}


def _e2tc_flops(args, result):
    num_tasks, n, dim = np.shape(args[0])
    return {"flops": 2 * num_tasks * n * dim * dim}


def _csv_rows(args, result):
    return {"rows": result.count("\n") - 1}


def _written_bytes(args, result):
    return {"bytes": len(args[1].encode())}


# (module, attribute, span name, counter).  The module is the consumer whose
# binding is looked up at call time.
TARGETS = [
    ("mtrl", "sample_unit_sphere_many", "linalg.sphere", _rows),
    ("env", "sample_unit_sphere", "linalg.sphere", _one_row),
    ("mtrl", "least_squares_on_subspace", "linalg.lstsq", None),
    ("mtrl", "top_k_left_singular_vectors", "linalg.svd", None),
    ("mtrl", "subspace_distance", "linalg.svd", None),
    ("linalg", "require_orthonormal", "linalg.validate", None),
    ("lll", "require_orthonormal", "linalg.validate", None),
    ("harness", "generate_instance", "env.instance", None),
    ("mtrl", "pull_many", "env.oracle", _batch_pulls),
    ("lll", "pull_block_mean", "env.oracle", _block_pulls),
    ("mtrl", "instant_regret", "env.regret", None),
    ("mtrl", "instant_regret_many", "env.regret", None),
    ("baselines", "instant_regret", "env.regret", None),
    ("lll", "instant_regret", "env.regret", None),
    ("env.RegretLedger", "record_interleaved", "env.ledger.interleaved", _ledger_entries),
    ("env.RegretLedger", "record_block", "env.ledger.block", None),
    ("mtrl", "collect_stage1_samples", "mtrl.stage1", None),
    ("mtrl", "stage2_per_task", "mtrl.stage2", None),
    ("mtrl", "stage3_commit", "mtrl.stage3", None),
    ("mtrl", "moment_theta_matrix", "mtrl.moment", None),
    ("baselines", "moment_estimate_theta", "mtrl.moment", None),
    ("baselines", "e2tc_squared_estimator", "baselines.e2tc", _e2tc_flops),
    ("harness", "run_independent_etc", "baselines.independent", None),
    ("baselines", "collect_stage1_samples", "baselines.independent.explore", None),
    ("lll", "task_specific_exploration", "lll.explore", None),
    ("lll", "reestimate_theta_coordinatewise", "lll.reestimate", None),
    ("lll", "extend_basis", "lll.extend", None),
    ("harness", "_curves_csv_text", "harness.serialize", _csv_rows),
    ("harness", "_summary_json_text", "harness.serialize", None),
    ("harness", "_atomic_write", "harness.serialize", _written_bytes),
]


class Tracer:
    """Records spans in memory and sums self time, inclusive time and counts by name."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, str | None]] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.inclusive_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.replicate: str | None = None
        self._stack: list[list] = []  # [span index, time covered by children]
        self._depth: dict[str, int] = defaultdict(int)

    def wrap(self, owner, attr: str, name: str, counter=None) -> None:
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1][0] if stack else -1
            index = len(tracer.spans)
            tracer.spans.append(None)
            stack.append([index, 0.0])
            tracer._depth[name] += 1
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._depth[name] -= 1
                _, child_s = stack.pop()
                duration = end - start
                tracer.spans[index] = (name, start, end, parent, tracer.replicate)
                tracer.self_s[name] += duration - child_s
                if tracer._depth[name] == 0:  # nested same-name spans count once
                    tracer.inclusive_s[name] += duration
                tracer.calls[name] += 1
                if stack:
                    stack[-1][1] += duration
            if counter is not None:
                for key, value in counter(args, result).items():
                    tracer.counts[f"{name}.{key}"] += int(value)
            return result

        setattr(owner, attr, traced)

    def wrap_replicates(self, harness) -> None:
        """Tag spans with the replicate that ``harness._run_single`` is running."""
        original = harness._run_single
        tracer = self

        @functools.wraps(original)
        def run_single(config, index):
            tracer.replicate = f"{config.algorithm}/{config.mode}/{index}"
            try:
                return original(config, index)
            finally:
                tracer.replicate = None

        harness._run_single = run_single

    def install(self) -> None:
        import importlib

        for owner_path, attr, name, counter in TARGETS:
            module_name, _, class_name = owner_path.partition(".")
            owner = importlib.import_module(f"lowrank_bandits.{module_name}")
            if class_name:
                owner = getattr(owner, class_name)
            self.wrap(owner, attr, name, counter)
        self.wrap_replicates(importlib.import_module("lowrank_bandits.harness"))

    def write_spans(self, path, origin: float) -> None:
        """Write every span as CSV, times in seconds from ``origin``."""
        with open(path, "w") as handle:
            handle.write("name,start_s,end_s,parent,replicate\n")
            for name, start, end, parent, replicate in self.spans:
                handle.write(
                    f"{name},{start - origin:.9f},{end - origin:.9f},{parent},{replicate or ''}\n"
                )

    def summary(self) -> dict:
        return {
            "self_s": dict(self.self_s),
            "inclusive_s": dict(self.inclusive_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
        }
