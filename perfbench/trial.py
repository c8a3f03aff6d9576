"""One trial of a workload in a fresh interpreter; prints one JSON line.

``run.py`` starts this script once per measurement, so ``ru_maxrss`` and the
import cost belong to this trial alone.  The trial imports the package,
generates the workload's instances (set-up ends here), then runs the
workload ``reps_per_trial`` times and reports each run's wall time and
outputs, the calibration kernel's times before the first run and after
each run (taken in a helper process, see ``calibration.py``), and the peak
RSS.  ``--traced`` installs the tracer and runs the workload once.

Run from the repository root with ``src`` on ``PYTHONPATH``::

    PYTHONPATH=src python3 perfbench/trial.py --workload desk --seed 0 --out-dir .perfbench_out/t
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import pickle
import resource
import shutil
import time
from pathlib import Path

from calibration import Calibrator  # this script's directory is on sys.path
from workloads import get_workload


def capture_records(harness, store: list) -> None:
    """Keep what every ``run_experiment`` call returns; it is not a span."""
    original = harness.run_experiment

    @functools.wraps(original)
    def run_experiment(config):
        records, written = original(config)
        store.append((config, records))
        return records, written

    harness.run_experiment = run_experiment


def outputs_of(workload, captured: list, out_dir: Path) -> dict:
    """The run's outputs in the form the correctness gate compares."""
    finals: dict[str, list[str]] = {}
    lll: dict[str, dict[str, list[int]]] = {}
    accounting_errors: list[tuple[str, int]] = []
    pulls = 0
    for config, records in captured:
        key = config.algorithm if config.algorithm != "lll" else f"lll/{config.mode}"
        finals[key] = [float(r.final_regret).hex() for r in records]
        for r in records:
            expected = (
                r.sample_total
                if config.mode == "pure_exploration"
                else workload.num_tasks * workload.horizon
            )
            accounted = int(r.trace_t[-1])
            pulls += accounted
            if accounted != expected:
                accounting_errors.append((key, r.seed_index))
        if config.algorithm == "lll":
            lll[key] = {
                "sample_total": [int(r.sample_total) for r in records],
                "width_final": [int(r.width_final) for r in records],
                "stage2_tasks": [int(r.entered_stage2.sum()) for r in records],
            }
    files = {}
    if out_dir.is_dir():
        for path in sorted(out_dir.iterdir()):
            digest = hashlib.sha256()
            with open(path, "rb") as handle:
                while chunk := handle.read(1 << 20):  # in chunks, not to raise peak RSS
                    digest.update(chunk)
            files[path.name] = digest.hexdigest()
    return {
        "finals": finals,
        "lll": lll,
        "files": files,
        "pulls": pulls,
        "accounting_errors": accounting_errors,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--traced", action="store_true", help="trace one run of the workload")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--cpu", type=int, help="pin this process, not its pool workers, to a CPU")
    args = parser.parse_args(argv)

    if args.cpu is not None:
        pool_cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {args.cpu})
    # Fork the calibration helper while this interpreter holds numpy alone;
    # it inherits this process's CPU.
    calibrator = None if args.traced else Calibrator()
    if args.cpu is not None:
        os.register_at_fork(after_in_child=functools.partial(os.sched_setaffinity, 0, pool_cpus))
    import lowrank_bandits  # noqa: F401  (set-up: the import is part of setup_s)
    from lowrank_bandits import harness
    from tracer import Tracer

    workload = get_workload(args.workload, args.tiny)
    workload.generate_instances(args.seed)
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)

    out_dir = Path(args.out_dir)
    tracer = Tracer() if args.traced else None
    if tracer is not None:
        tracer.install()
    captured: list = []
    capture_records(harness, captured)

    reps = []
    # Calibration kernel times, before the first run and after each run.
    cal = [] if calibrator is None else calibrator()
    first = time.perf_counter()
    for _ in range(1 if tracer is not None else workload.reps_per_trial):
        captured.clear()
        started = time.perf_counter()
        workload.run(args.seed, out_dir)
        wall = time.perf_counter() - started
        records = [r for _, group in captured for r in group]
        reps.append({
            "wall_s": wall,
            "replicate_s": [r.wall_seconds for r in records],
            "trace_points": sum(int(r.trace_t.size) for r in records),
            "outputs": outputs_of(workload, captured, out_dir),
        })
        if tracer is not None:
            # What a pool sends back; the records do not depend on the worker
            # count.  Pickling them copies them, so untraced trials, whose peak
            # RSS is reported, skip this.
            reps[-1]["result_bytes"] = sum(len(pickle.dumps(r)) for r in records)
        shutil.rmtree(out_dir, ignore_errors=True)
        if calibrator is not None:
            cal += calibrator()

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss  # before the helper's
    if calibrator is not None:
        calibrator.close()
    result = {
        "ready": ready,
        # The largest single process, in MiB (ru_maxrss is in KiB on Linux);
        # concurrent pool workers are not summed.
        "peak_rss_mb": max(own, workers) / 1024,
        "reps": reps,
        "cal_s": cal,
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.write_spans(out_dir.parent / f"spans-{args.workload}-{args.seed}.csv", first)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
