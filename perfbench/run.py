"""Benchmark of lowrank-bandits: one workload per call, end-to-end or per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload desk --seed 0 --seconds 33 --trace 0

``--trace 0`` alternates trials at nproc pool workers and at 1 worker, each
a fresh interpreter that runs the workload a fixed number of times, until
``--seconds`` are spent.  It reports the end-to-end times rescaled to a
reference machine speed, which a calibration kernel measures between the
runs (``calibration.py``), and prints the raw times beside them.
``--trace 1`` adds a traced 1-worker trial to every round and reports the
per-layer metrics.  Every run's outputs pass the correctness gate: exact identity
across runs and worker counts, replicate accounting, and, at the default
seed, the reference values in ``reference.json``.  The last line of
standard output is one JSON object; the exit code is 1 when the gate fails
and 2 when the package cannot be found.  ``README.md`` explains the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibration import REFERENCE_S  # this script's directory is on sys.path
from workloads import WORKLOADS, get_workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference.json"

DEFAULT_SEED = 0  # the seed whose outputs reference.json stores
REFERENCE_RTOL = 1e-12  # final regrets vs reference; everything else is exact
DEADLINE_S = 165  # a run stops starting trials and fails past this
MIN_ROUNDS = 2  # trials per worker count, at the least
TAIL_BEYOND = 10  # the tail percentile keeps this many samples beyond it

SELF_LAYERS = [
    "linalg.sphere", "linalg.lstsq", "linalg.svd", "linalg.validate",
    "env.instance", "env.oracle", "env.regret", "env.ledger.interleaved",
    "env.ledger.block", "mtrl.stage1", "mtrl.stage2", "mtrl.stage3",
    "mtrl.moment", "baselines.e2tc", "harness.serialize",
]
INCLUSIVE_LAYERS = [
    "mtrl.stage1", "mtrl.stage2", "mtrl.stage3", "baselines.independent",
    "lll.explore", "lll.reestimate", "lll.extend",
]
CALL_LAYERS = ["linalg.lstsq", "linalg.validate", "env.oracle", "env.regret", "env.ledger.block"]
COUNTS = {
    "linalg.sphere.rows": "count",
    "env.oracle.pulls": "count",
    "env.ledger.interleaved.entries": "count",
    "env.ledger.interleaved.bytes": "B",
    "baselines.e2tc.flops": "flop",
    "harness.serialize.rows": "count",
    "harness.serialize.bytes": "B",
}
SHARE_LAYERS = [
    "linalg.sphere", "baselines.e2tc", "env.oracle", "env.regret",
    "env.ledger.block", "env.ledger.interleaved", "harness.serialize",
]


class TrialError(RuntimeError):
    pass


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(nproc: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # the build report's form varies by numpy release
        blas_version = "unknown"
    return {
        "nproc": nproc,
        "workers": nproc,
        "blas_threads": 1,
        "numpy": np.__version__,
        "blas": blas_version,
        "python": platform.python_version(),
        "cpu": cpu_model(),
    }


def run_trial(name: str, seed: int, kind: str, workers: int, tiny: bool, deadline: float,
              cpu: int | None = None) -> dict:
    """Start ``trial.py`` in a fresh interpreter and return its report plus ``setup_s``.

    ``kind`` is ``pooled`` (nproc workers), ``serial`` or ``traced`` (1 worker).
    A trial given a ``cpu`` pins its own process to it, so that its
    calibration measures the CPU that process uses (see ``trial.py``).
    """
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        LOWRANK_BANDITS_WORKERS=str(workers),
    )
    out_dir = OUT / f"{name}-{seed}-{os.getpid()}-{time.monotonic_ns()}"
    argv = [sys.executable, str(HERE / "trial.py"), "--workload", name,
            "--seed", str(seed), "--out-dir", str(out_dir)]
    argv += ["--traced"] * (kind == "traced") + ["--tiny"] * tiny
    argv += [] if cpu is None else ["--cpu", str(cpu)]
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except BaseException as exc:  # timed out or interrupted: stop the trial first
        kill_group(proc.pid)
        proc.communicate()
        shutil.rmtree(out_dir, ignore_errors=True)
        if isinstance(exc, subprocess.TimeoutExpired):
            raise TrialError(f"{name}: trial timed out") from None
        raise
    if proc.returncode != 0:
        kill_group(proc.pid)  # pool workers a failed trial may have left
        shutil.rmtree(out_dir, ignore_errors=True)
        tail = err.strip().splitlines()[-1:] or ["no output"]
        raise TrialError(f"{name}: trial exited with {proc.returncode}: {tail[0]}")
    report = json.loads(out.strip().splitlines()[-1])
    report["setup_s"] = report["ready"] - spawned
    report.update(kind=kind, workers=workers, cpu=cpu)
    for rep in report["reps"]:
        rep.update(kind=kind, workers=workers)
    return report


def kill_group(pgid: int) -> None:
    """Kill a trial's process group: the trial and its pool workers."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def median(values):
    return statistics.median(values) if values else 0.0


def mean(values):
    return statistics.fmean(values) if values else 0.0


# ---------------------------------------------------------------------------
# correctness gate


def _replicate_failures(outputs: dict, expected: dict, rtol: float) -> set:
    """``(key, index)`` of each replicate whose outputs differ from ``expected``."""
    failed = set()
    for key, values in expected["finals"].items():
        got = outputs["finals"].get(key, [])
        for i, want in enumerate(values):
            if i >= len(got):
                failed.add((key, i))
                continue
            a, b = float.fromhex(got[i]), float.fromhex(want)
            if not (math.isfinite(a) and a >= 0 and abs(a - b) <= rtol * abs(b)):
                failed.add((key, i))
    for key, columns in expected["lll"].items():
        for column, values in columns.items():
            got = outputs["lll"].get(key, {}).get(column, [])
            failed |= {(key, i) for i, v in enumerate(values) if i >= len(got) or got[i] != v}
    for filename, digest in expected["files"].items():
        if outputs["files"].get(filename) != digest:
            # curves_<idx>_<algo>.csv holds one algorithm; other files hold all.
            algo = filename.rsplit("_", 1)[-1].removesuffix(".csv")
            keys = [algo] if algo in expected["finals"] else list(expected["finals"])
            failed |= {(k, i) for k in keys for i in range(len(expected["finals"][k]))}
    return failed


def check(runs: list[dict], reference: dict | None) -> tuple[set, list[str]]:
    """Failed ``(run, key, index)`` triples and a message per kind of failure."""
    failed: set = set()
    problems = []
    baseline = runs[0]["outputs"]
    for number, run in enumerate(runs):
        outputs = run["outputs"]
        bad = _replicate_failures(outputs, baseline, 0.0)
        if bad:
            problems.append(f"run {number} at {run['workers']} workers differs from run 0")
        if reference is not None:
            off = _replicate_failures(outputs, reference, REFERENCE_RTOL)
            if off:
                problems.append(f"run {number} differs from reference.json")
            bad |= off
        for key, index in outputs["accounting_errors"]:
            problems.append(f"run {number}: {key}[{index}] accounted the wrong pull count")
            bad.add((key, index))
        failed |= {(number, key, index) for key, index in bad}
    return failed, problems


# ---------------------------------------------------------------------------
# metrics


def split(items: list[dict]) -> tuple[list[dict], list[dict], list[dict]]:
    """Trials or runs at nproc workers, at 1 worker, and traced."""
    return tuple([t for t in items if t["kind"] == kind] for kind in ("pooled", "serial", "traced"))


def at_reference_speed(trials: list[dict], field: str) -> float:
    """Mean over trials of a time rescaled to the reference speed.

    A trial's time (its mean run wall time, or its set-up time) is rescaled
    by ``REFERENCE_S`` over the mean of the calibration kernel times taken
    in the same trial (``calibration.py``).  Per trial, because a CPU of
    this host stays fast or slow for seconds at a time, and ~1.5x apart:
    a trial's process, pinned to one CPU, and its calibration see the same
    state.  Means, not medians, because the speed flips between the two
    states: the median of a handful of samples jumps between them, while
    the means of the workload's and the kernel's times both grow with the
    share of time spent in the slow state, and their ratio cancels it.
    """
    values = []
    for trial in trials:
        time_s = trial["setup_s"] if field == "setup_s" else mean([r["wall_s"] for r in trial["reps"]])
        values.append(time_s * REFERENCE_S / mean(trial["cal_s"]))
    return mean(values)


def end_to_end(trials: list[dict], runs: list[dict]) -> tuple[dict, dict]:
    """The metrics at the reference speed, and the same as measured (raw means)."""
    pooled, serial, _ = split(trials)
    pulls = runs[0]["outputs"]["pulls"]
    wall = at_reference_speed(pooled, "wall_s")
    metrics = {
        "wall_s": (wall, "s"),
        "pulls_per_s": (pulls / wall, "1/s"),
        "serial_wall_s": (at_reference_speed(serial, "wall_s"), "s"),
        "peak_rss_mb": (median([t["peak_rss_mb"] for t in pooled]), "MB"),
        "setup_s": (at_reference_speed(pooled + serial, "setup_s"), "s"),
    }
    raw_wall = mean([r["wall_s"] for t in pooled for r in t["reps"]])
    raw = {
        "wall_s": (raw_wall, "s"),
        "pulls_per_s": (pulls / raw_wall, "1/s"),
        "serial_wall_s": (mean([r["wall_s"] for t in serial for r in t["reps"]]), "s"),
        "setup_s": (mean([t["setup_s"] for t in pooled + serial]), "s"),
        "calibration_s": (mean([c for t in pooled + serial for c in t["cal_s"]]), "s"),
    }
    return metrics, raw


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with ``TAIL_BEYOND`` samples beyond it, and that percentile.

    With too few samples for that, the maximum (percentile 100).
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def per_layer(trials: list[dict], runs: list[dict], workers: int) -> tuple[dict, list[str]]:
    pooled, serial, traced = split(runs)
    summaries = [t["trace"] for t in split(trials)[2]]
    problems = []
    counts = summaries[-1]["counts"]
    calls = summaries[-1]["calls"]
    if any(s["counts"] != counts or s["calls"] != calls for s in summaries):
        problems.append("traced counts differ between trials")

    def med(field, layer):
        return median([s[field].get(layer, 0.0) for s in summaries])

    m: dict[str, tuple[float, str]] = {}
    for layer in SELF_LAYERS:
        m[f"{layer}.self_s"] = (med("self_s", layer), "s")
    for layer in INCLUSIVE_LAYERS:
        m[f"{layer}.s"] = (med("inclusive_s", layer), "s")
    for layer in CALL_LAYERS:
        m[f"{layer}.calls"] = (calls.get(layer, 0), "count")
    for name, unit in COUNTS.items():
        m[name] = (counts.get(name, 0), unit)
    for layer in SHARE_LAYERS:
        shares = [s["self_s"].get(layer, 0.0) / t["wall_s"] for s, t in zip(summaries, traced)]
        m[f"{layer}.share"] = (median(shares), "ratio")
    e2tc_s = m["baselines.e2tc.self_s"][0]
    m["baselines.e2tc.gflop_per_s"] = (
        m["baselines.e2tc.flops"][0] / e2tc_s / 1e9 if e2tc_s > 0 else 0.0, "GFLOP/s")

    outputs = runs[0]["outputs"]
    m["env.ledger.trace_points"] = (runs[0]["trace_points"], "count")
    lll = outputs["lll"].values()
    for column, name in (("sample_total", "lll.samples"), ("stage2_tasks", "lll.stage2_tasks"),
                         ("width_final", "lll.width_final")):
        m[name] = (sum(sum(c[column]) for c in lll), "count")

    replicate_s = [s for t in serial for s in t["replicate_s"]]
    value, pct = tail(replicate_s)
    m["harness.replicate_s.p50"] = (median(replicate_s), "s")
    m["harness.replicate_s.tail"] = (value, "s")
    m["harness.replicate_s.tail_pct"] = (pct, "%")
    m["harness.replicate_s.samples"] = (len(replicate_s), "count")
    busy = [sum(t["replicate_s"]) for t in pooled]
    m["harness.pool.busy_s"] = (median(busy), "s")
    m["harness.pool.efficiency"] = (
        median([b / (workers * t["wall_s"]) for b, t in zip(busy, pooled)]), "ratio")
    m["harness.pool.result_bytes"] = (traced[0]["result_bytes"], "B")

    traced_wall = median([t["wall_s"] for t in traced])
    m["trace.wall_s"] = (traced_wall, "s")
    m["trace.overhead_s"] = (traced_wall - median([t["wall_s"] for t in serial]), "s")
    return m, problems


# ---------------------------------------------------------------------------


def measure(name: str, seed: int, seconds: float, traced: bool, tiny: bool, nproc: int) -> list[dict]:
    """Rounds of fresh-process trials while the next round fits in ``seconds``."""
    started = time.monotonic()
    deadline = started + DEADLINE_S
    untraced = [("pooled", nproc), ("serial", 1)]
    cpus = sorted(os.sched_getaffinity(0))
    trials = []
    rounds = 0
    while True:
        kinds = untraced[::-1] if rounds % 2 else untraced  # alternate which runs first
        for kind, workers in kinds + [("traced", 1)] * traced:
            # The trials take the CPUs in turn, so each is measured.
            cpu = None if kind == "traced" else cpus[(rounds + (kind == "pooled")) % len(cpus)]
            trials.append(run_trial(name, seed, kind, workers, tiny, deadline, cpu))
        rounds += 1
        spent = time.monotonic() - started
        if rounds >= (1 if tiny else MIN_ROUNDS) and spent * (rounds + 1) / rounds > seconds:
            return trials


def replicates_per_run(name: str, tiny: bool) -> int:
    workload = get_workload(name, tiny)
    return workload.replicates * (2 if workload.kind == "lifelong" else len(workload.algorithms))


def load_reference(name: str, seed: int, tiny: bool) -> dict | None:
    if seed != DEFAULT_SEED or tiny:
        return None  # other seeds: only identity across trials and worker counts
    return json.loads(REFERENCE.read_text())["workloads"][name]


def write_reference(nproc: int) -> int:
    """Store the default seed's outputs of every workload in ``reference.json``."""
    OUT.mkdir(exist_ok=True)
    workloads = {}
    for name in WORKLOADS:
        trial = run_trial(name, DEFAULT_SEED, "serial", 1, False, time.monotonic() + 600)
        outputs = trial["reps"][0]["outputs"]
        workloads[name] = {k: outputs[k] for k in ("finals", "lll", "files")}
    doc = {"seed": DEFAULT_SEED, "environment": environment(nproc), "workloads": workloads}
    REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="lowrank-bandits benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes; no reference check")
    parser.add_argument("--write-reference", action="store_true",
                        help="store the default seed's outputs in reference.json and exit")
    args = parser.parse_args(argv)

    if not (SRC / "lowrank_bandits" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    if args.write_reference:
        return write_reference(nproc)
    if args.workload is None:
        parser.error("--workload is required")

    OUT.mkdir(exist_ok=True)
    name, seed = args.workload, args.seed
    attempted_per_run = replicates_per_run(name, args.tiny)
    try:
        trials = measure(name, seed, args.seconds, bool(args.trace), args.tiny, nproc)
    except TrialError as exc:
        print(f"error: {exc}", file=sys.stderr)
        result = {"correct": False, "attempted": attempted_per_run,
                  "failed": attempted_per_run, "metrics": {}}
        print(json.dumps(result))
        return 1

    runs = [rep for t in trials for rep in t["reps"]]
    failed, problems = check(runs, load_reference(name, seed, args.tiny))
    raw = {}
    if args.trace:
        metrics, trace_problems = per_layer(trials, runs, nproc)
        problems += trace_problems
    else:
        metrics, raw = end_to_end(trials, runs)
    attempted = attempted_per_run * len(runs)
    correct = not failed and not problems

    env = environment(nproc)
    print(f"workload {name}  seed {seed}  trace {args.trace}  trials {len(trials)}  runs {len(runs)}")
    print("environment " + json.dumps(env, sort_keys=True))
    for metric, (value, unit) in metrics.items():
        print(f"  {metric:36s} {value:>16.6g} {unit}")
    for metric, (value, unit) in raw.items():
        print(f"  {'raw ' + metric:36s} {value:>16.6g} {unit}")
    print(f"  {'failed_ratio':36s} {len(failed) / attempted:>16.6g} ({len(failed)}/{attempted} replicates)")
    for problem in problems:
        print(f"  FAILED: {problem}")

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    detail = dict(result, workload=name, seed=seed, trace=args.trace, environment=env,
                  failed_ratio=len(failed) / attempted, problems=problems,
                  raw={k: {"value": v, "unit": u} for k, (v, u) in raw.items()},
                  trials=[{k: v for k, v in t.items() if k != "trace"} for t in trials])
    (OUT / f"result-{name}-{seed}-trace{args.trace}.json").write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
