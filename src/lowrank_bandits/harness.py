"""Experiment orchestration: seeded replication, parallel runs, file emission.

Seed derivation
---------------
Replicate ``i`` of an experiment with master seed ``s`` draws its random
streams from ``numpy.random.SeedSequence`` with entropy tuples: the
instance generator uses ``(s, i, 0)`` and the algorithm uses ``(s, i, 1)``.
The mixing is a pure function of ``(s, i)``, stable across releases, and
independent of the algorithm, so experiments that share a master seed run
their algorithms on identical instances replicate by replicate.

Output files (schemas fixed):

* curves: CSV header ``algo,d,k,M,T,noise_std,seed,t,cum_regret`` — one
  row per trace point per replicate.  In JSON, the same rows as objects
  keyed by the header, whose values are the CSV field strings.
* per-task (lifelong runs only): CSV header
  ``algo,d,k,M,T,seed,task,task_regret,entered_stage2,tau_after,samples_used``.
* summary: a structured JSON document.

``compare`` writes, to the ``out_dir`` its configs share,
``comparison.json`` instead of a summary, and each config's curves and
per-task files with the suffix ``_<i>_<algo>``.  The
text of ``summary.json`` and ``comparison.json`` is exactly
``json.dumps(doc, indent=2, sort_keys=True)`` plus a newline.

Floats are serialized with 17 significant digits so parsing a file
reconstructs the exact binary64 values.  Files are written atomically
(temp file + rename) and are byte-identical for identical configs
regardless of worker count.  The worker count sets both how many
processes run the replicates and how many write the files, one process
per file at most, once the files outside the largest one hold
``POOL_WRITE_MIN_POINTS`` rows and curve points; smaller outputs are
written in process.  When one file cannot be written the others still
are, and the first error in file order is raised.
"""

from __future__ import annotations

import csv
import itertools
import json
import multiprocessing as mp
import os
import re
import time
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .baselines import run_e2tc, run_independent_etc
from .env import InstanceSpec, RegretLedger, generate_instance
from .errors import ConfigError, require_finite, require_int
from .lll import check_options, run_lll
from .mtrl import run_mtrl

ALGORITHMS = ("mtrl", "e2tc", "independent", "lll")
OUTPUT_FORMATS = ("csv", "json")
WORKERS_ENV_VAR = "LOWRANK_BANDITS_WORKERS"

CURVES_HEADER = ["algo", "d", "k", "M", "T", "noise_std", "seed", "t", "cum_regret"]
PER_TASK_HEADER = [
    "algo",
    "d",
    "k",
    "M",
    "T",
    "seed",
    "task",
    "task_regret",
    "entered_stage2",
    "tau_after",
    "samples_used",
]


def fmt(x: float) -> str:
    """Serialize a float with 17 significant digits (lossless round trip)."""
    return format(float(x), ".17g")


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: an algorithm, an instance family, and replication."""

    algorithm: str = "mtrl"
    dim: int = 10
    rep_dim: int = 2
    num_tasks: int = 25
    horizon: int = 10_000
    noise_std: float = 1.0
    epsilon: float | None = None
    delta: float = 0.05
    mode: str = "regret"
    log_arg: str = "union"
    noiseless_oracle: bool = False
    num_seeds: int = 20
    master_seed: int = 0
    trace_stride: int = 10
    out_dir: str | None = None
    output_format: str = "csv"

    def instance_spec(self) -> InstanceSpec:
        return InstanceSpec(
            dim=self.dim,
            rep_dim=self.rep_dim,
            num_tasks=self.num_tasks,
            horizon=self.horizon,
            noise_std=self.noise_std,
            seed=None,
        )

    def validate(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(
                f"algorithm: must be one of {ALGORITHMS}, got {self.algorithm!r}"
            )
        self.instance_spec().validate()
        for name in ("num_seeds", "master_seed", "trace_stride"):
            require_int(name, getattr(self, name))
        require_finite("delta", self.delta)
        if self.epsilon is not None:
            require_finite("epsilon", self.epsilon)
        if not isinstance(self.noiseless_oracle, bool):
            raise ConfigError(
                f"noiseless_oracle: must be a boolean, got {self.noiseless_oracle!r}"
            )
        if self.out_dir is not None and not isinstance(self.out_dir, str):
            raise ConfigError(f"out_dir: must be a string, got {self.out_dir!r}")
        if self.num_seeds < 1:
            raise ConfigError(f"num_seeds: must be >= 1, got {self.num_seeds}")
        if self.master_seed < 0:
            raise ConfigError(f"master_seed: must be >= 0, got {self.master_seed}")
        if self.trace_stride < 0:
            raise ConfigError(f"trace_stride: must be >= 0, got {self.trace_stride}")
        if self.output_format not in OUTPUT_FORMATS:
            raise ConfigError(
                f"output_format: must be one of {OUTPUT_FORMATS}, "
                f"got {self.output_format!r}"
            )
        # summary.json echoes the lifelong options for every algorithm
        check_options(
            self.mode, self.log_arg, self.delta, self.epsilon, lifelong=self.algorithm == "lll"
        )
        if self.noiseless_oracle:
            if self.noise_std != 0:
                raise ConfigError("noiseless_oracle: requires noise_std == 0")
            if self.algorithm not in ("mtrl", "independent"):
                raise ConfigError(
                    f"noiseless_oracle: not supported for {self.algorithm!r}"
                )


def replicate_seed_sequences(
    master_seed: int, index: int
) -> tuple[np.random.SeedSequence, np.random.SeedSequence]:
    """split(master, i): entropy tuples (master, i, 0) and (master, i, 1).

    Stream 0 drives instance generation, stream 1 the algorithm.
    """
    return (
        np.random.SeedSequence((master_seed, index, 0)),
        np.random.SeedSequence((master_seed, index, 1)),
    )


@dataclass(eq=False)
class RunRecord:
    """Everything one replicate produced.

    ``wall_seconds`` is the time the replicate's algorithm ran, in its
    worker.  It is kept in memory only; it never enters output files (they
    must be byte-identical across reruns of the same config).
    """

    algorithm: str
    dim: int
    rep_dim: int
    num_tasks: int
    horizon: int
    noise_std: float
    seed_index: int
    final_regret: float
    trace_t: np.ndarray
    trace_regret: np.ndarray
    per_task_regret: np.ndarray | None = None
    entered_stage2: np.ndarray | None = None
    width_after: np.ndarray | None = None
    samples_used: np.ndarray | None = None
    width_final: int | None = None
    sample_total: int | None = None
    wall_seconds: float = 0.0


def _run_single(config: ExperimentConfig, index: int) -> tuple[RegretLedger, dict, float]:
    """Run replicate ``index``: its ledger, its lll fields and its wall seconds.

    This is what a pool worker sends back.  The ledger holds its trace as
    segments, so the result grows with the number of records, not with
    pulls ÷ ``trace_stride``; ``_record`` expands it in the parent.
    """
    instance_ss, policy_ss = replicate_seed_sequences(config.master_seed, index)
    instance = generate_instance(config.instance_spec(), np.random.default_rng(instance_ss))
    rng = np.random.default_rng(policy_ss)
    started = time.perf_counter()

    lll_fields = {}
    if config.algorithm == "mtrl":
        ledger, _ = run_mtrl(instance, rng, config.trace_stride, config.noiseless_oracle)
    elif config.algorithm == "e2tc":
        ledger, _ = run_e2tc(instance, rng, config.trace_stride)
    elif config.algorithm == "independent":
        ledger = run_independent_etc(
            instance, rng, config.trace_stride, config.noiseless_oracle
        )
    elif config.algorithm == "lll":
        state, ledger, sample_total = run_lll(
            instance, rng, config.trace_stride,
            mode=config.mode, epsilon=config.epsilon, delta=config.delta, log_arg=config.log_arg,
        )
        lll_fields = dict(
            per_task_regret=state.per_task_regret,
            entered_stage2=state.entered_stage2,
            width_after=state.width_after,
            samples_used=state.samples_used,
            width_final=state.width,
            sample_total=sample_total,
        )
    else:  # pragma: no cover - validate() rules this out
        raise ConfigError(f"algorithm: unknown {config.algorithm!r}")
    return ledger, lll_fields, time.perf_counter() - started


def _record(
    config: ExperimentConfig, index: int, result: tuple[RegretLedger, dict, float]
) -> RunRecord:
    """Build replicate ``index``'s record from what ``_run_single`` returned."""
    ledger, lll_fields, wall_seconds = result
    ts, cums = ledger.trace()
    if ts.size == 0:  # trace disabled: keep the final point so curves are never empty
        ts = np.array([ledger.num_pulls], dtype=int)
        cums = np.array([ledger.total])
    return RunRecord(
        algorithm=config.algorithm,
        dim=config.dim,
        rep_dim=config.rep_dim,
        num_tasks=config.num_tasks,
        horizon=config.horizon,
        noise_std=config.noise_std,
        seed_index=index,
        final_regret=float(ledger.total),
        trace_t=ts,
        trace_regret=cums,
        wall_seconds=wall_seconds,
        **lll_fields,
    )


@contextmanager
def _pool(workers: int):
    """Yield a ``map`` that runs on ``workers`` fork-started processes, or
    in process for one worker."""
    if workers == 1:
        yield map
        return
    with ProcessPoolExecutor(max_workers=workers, mp_context=mp.get_context("fork")) as executor:
        yield executor.map


def _worker_count(limit: int) -> int:
    """The worker count (``LOWRANK_BANDITS_WORKERS`` or the usable CPUs), at most ``limit``."""
    raw = os.environ.get(WORKERS_ENV_VAR, "").strip()
    if raw:
        try:
            workers = int(raw)
        except ValueError:
            raise ConfigError(
                f"{WORKERS_ENV_VAR}: must be an integer, got {raw!r}"
            ) from None
        if workers < 1:
            raise ConfigError(f"{WORKERS_ENV_VAR}: must be >= 1, got {workers}")
    elif hasattr(os, "sched_getaffinity"):
        workers = len(os.sched_getaffinity(0))  # the CPUs this process may run on
    else:
        workers = os.cpu_count() or 1
    return min(workers, limit)


def run_experiment(config: ExperimentConfig) -> tuple[list[RunRecord], list[Path]]:
    """Run all replicates (possibly in parallel) and emit files.

    Records are ordered by replicate index regardless of scheduling, so
    worker count never affects results or output bytes.
    """
    config.validate()
    indices = range(config.num_seeds)
    with _pool(_worker_count(config.num_seeds)) as run_all:
        results = run_all(_run_single, [config] * config.num_seeds, indices)
        records = [_record(config, i, result) for i, result in zip(indices, results)]

    written: list[Path] = []
    if config.out_dir is not None:
        out_dir = Path(config.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        jobs = _record_jobs(out_dir, "", config, records)
        points = _curve_points([records])
        jobs.append((out_dir / "summary.json", _summary_json_text, (config, records), points))
        written = _write_files(jobs)
    return records, written


def _shared_grid(records: list[RunRecord]) -> np.ndarray | None:
    """The trace grid every record shares, or None when the grids differ."""
    grids = [r.trace_t for r in records]
    if all(np.array_equal(g, grids[0]) for g in grids[1:]):
        return grids[0]
    return None


def summarize(records: list[RunRecord]) -> dict:
    """Aggregate statistics over replicates of one config.

    Final-regret mean, sample standard deviation (n-1), and standard
    error; the mean cumulative-regret curve when the replicates share a
    trace grid; per-task-index means for lifelong runs.
    """
    if not records:
        raise ValueError("summarize needs at least one record")
    key = lambda r: (r.algorithm, r.dim, r.rep_dim, r.num_tasks, r.horizon, r.noise_std)
    if len({key(r) for r in records}) != 1:
        raise ValueError("records mix heterogeneous configs")

    finals = np.array([r.final_regret for r in records])
    n = len(finals)
    sd = float(finals.std(ddof=1)) if n > 1 else 0.0
    out: dict = {
        "algorithm": records[0].algorithm,
        "n_runs": n,
        "final_regret": {
            "mean": float(finals.mean()),
            "sd": sd,
            "se": sd / np.sqrt(n),
        },
    }

    grid = _shared_grid(records)
    if grid is not None:
        stacked = np.vstack([r.trace_regret for r in records])
        out["mean_curve"] = {
            "t": grid.tolist(),
            "regret": stacked.mean(axis=0).tolist(),
        }
    else:
        out["mean_curve"] = None  # pure-exploration runs stop at varying pull counts

    if all(r.per_task_regret is not None for r in records):
        per_task = np.vstack([r.per_task_regret for r in records])
        out["lll"] = {
            "mean_per_task_curve": per_task.mean(axis=0).tolist(),
            "mean_per_task_regret": float(finals.mean()) / records[0].num_tasks,
            "mean_sample_total": float(np.mean([r.sample_total for r in records])),
            "width_final_max": int(max(r.width_final for r in records)),
        }
    return out


def compare(configs: list[ExperimentConfig]) -> tuple[dict, list[Path]]:
    """Run several algorithms on identical instance streams and tabulate gaps.

    All configs must agree on everything that shapes the instances and the
    replication, and on ``out_dir``, where the files go (they may differ in
    algorithm and algorithm-only options).
    Replicate ``i`` of every config sees the same instance, so pairwise
    differences are paired comparisons.
    """
    if not configs:
        raise ConfigError("configs: need at least one config")
    for cfg in configs:
        cfg.validate()
    anchor = configs[0]
    for cfg in configs[1:]:
        for fieldname in (
            "dim",
            "rep_dim",
            "num_tasks",
            "horizon",
            "noise_std",
            "num_seeds",
            "master_seed",
            "trace_stride",
            "out_dir",
        ):
            if getattr(cfg, fieldname) != getattr(anchor, fieldname):
                raise ConfigError(
                    f"{fieldname}: configs must match, got "
                    f"{getattr(cfg, fieldname)!r} vs {getattr(anchor, fieldname)!r}"
                )

    all_records = [run_experiment(replace(cfg, out_dir=None))[0] for cfg in configs]
    summaries = [summarize(records) for records in all_records]

    pairs = []
    n = anchor.num_seeds
    finals = [np.array([r.final_regret for r in records]) for records in all_records]
    for i, j in itertools.combinations(range(len(configs)), 2):
        diff = finals[i] - finals[j]
        se_a = summaries[i]["final_regret"]["se"]
        se_b = summaries[j]["final_regret"]["se"]
        pairs.append(
            {
                "a": configs[i].algorithm,
                "b": configs[j].algorithm,
                "mean_diff": float(diff.mean()),
                "pooled_se": float(np.hypot(se_a, se_b)),
                "paired_se": float(diff.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0,
            }
        )

    table = {
        "instance": {
            "d": anchor.dim,
            "k": anchor.rep_dim,
            "M": anchor.num_tasks,
            "T": anchor.horizon,
            "noise_std": float(anchor.noise_std),
        },
        "n_seeds": n,
        "master_seed": anchor.master_seed,
        "summaries": summaries,
        "pairs": pairs,
    }

    written: list[Path] = []
    if anchor.out_dir is not None:
        out = Path(anchor.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        jobs = [(out / "comparison.json", _json_text, (table,), _curve_points(all_records))]
        for idx, (cfg, records) in enumerate(zip(configs, all_records)):
            jobs += _record_jobs(out, f"_{idx}_{cfg.algorithm}", cfg, records)
        written = _write_files(jobs)
    return table, written


# ---------------------------------------------------------------------------
# serialization


def _atomic_write(path: Path, text: str) -> None:
    """Write ``text`` to a new temp file beside ``path``, then rename it over ``path``.

    The temp file is created with mode 0o666, so the process umask sets the
    final permissions, as it does for ``open``.
    """
    path = Path(path)
    tmp_path = path.with_name(f".{path.name}.{os.urandom(8).hex()}")
    fd = os.open(tmp_path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


# A write job is ``(path, builder, args, points)``: ``builder(*args)`` is the
# file's text, and ``points`` counts the rows or curve points it holds, which
# is what the text costs to build.
WriteJob = tuple[Path, Callable[..., str], tuple, int]

# The pool can only save the work outside the largest file.  A point's text
# takes ~1.5 us and forking the pool 15-40 ms; measured on 2 CPUs, the pool
# lost with 25k points outside the largest file and won with 50k.  Below
# this many, the files are written in process.
POOL_WRITE_MIN_POINTS = 40_000


def _curve_points(record_sets: list[list[RunRecord]]) -> int:
    """The points of the mean curves that ``summarize`` gives ``record_sets``."""
    return sum(grid.size for grid in map(_shared_grid, record_sets) if grid is not None)


def _record_jobs(
    out_dir: Path, suffix: str, config: ExperimentConfig, records: list[RunRecord]
) -> list[WriteJob]:
    """Write jobs for the curves in ``config.output_format`` and, for lll, the
    per-task CSV, whose job gets the records without their traces."""
    curves_text = _curves_csv_text if config.output_format == "csv" else _curves_json_text
    rows = sum(r.trace_t.size for r in records)
    jobs = [(out_dir / f"curves{suffix}.{config.output_format}", curves_text, (records,), rows)]
    if config.algorithm == "lll":
        untraced = [
            replace(r, trace_t=np.zeros(0, dtype=int), trace_regret=np.zeros(0))
            for r in records
        ]
        rows = sum(r.per_task_regret.size for r in records)
        jobs.append((out_dir / f"per_task{suffix}.csv", _per_task_csv_text, (untraced,), rows))
    return jobs


def _write_job(job: WriteJob) -> Path | OSError:
    """Build one file's text and write it: its path, or the error that stopped the write."""
    path, builder, args, _ = job
    try:
        _atomic_write(path, builder(*args))
    except OSError as error:  # _write_files raises it once every job has run
        return error
    return path


def _write_files(jobs: list[WriteJob]) -> list[Path]:
    """Run every write job, one file each, on up to one process per file.

    The pool is used only when the files outside the largest one hold at
    least ``POOL_WRITE_MIN_POINTS`` points.  Every job runs even when a
    write fails, so the files a failed run leaves do not depend on the
    worker count; the first ``OSError`` in job order is raised after.  The
    paths come back in job order.
    """
    points = sorted(job[3] for job in jobs)
    workers = _worker_count(len(jobs)) if sum(points[:-1]) >= POOL_WRITE_MIN_POINTS else 1
    with _pool(workers) as run_all:
        results = list(run_all(_write_job, jobs))
    for result in results:
        if isinstance(result, OSError):
            raise result
    return results


def _curve_fields(r: RunRecord) -> list[str]:
    """The fields every curves row of ``r`` repeats: ``CURVES_HEADER`` up to ``seed``."""
    return [r.algorithm, r.dim, r.rep_dim, r.num_tasks, r.horizon, fmt(r.noise_std), r.seed_index]


def _curves_csv_text(records: list[RunRecord]) -> str:
    chunks = [",".join(CURVES_HEADER) + "\n"]
    for r in records:
        prefix = "".join(f"{value}," for value in _curve_fields(r))
        # One string per record: its row strings are freed together, not
        # kept until the whole file is joined.
        chunks.append("".join([
            f"{prefix}{t},{c:.17g}\n"
            for t, c in zip(r.trace_t.tolist(), r.trace_regret.tolist())
        ]))
    return "".join(chunks)


def _curves_json_text(records: list[RunRecord]) -> str:
    """The curves CSV rows as objects of their field strings, laid out as
    ``json.dumps(rows, indent=2)`` lays them out, one record at a time.

    The fields are algorithm names, integers and ``.17g`` floats: none
    needs JSON escaping.  The pieces, separators included, are joined
    once: every further concatenation would copy the whole text again.
    """
    pieces = ["[\n"]
    for r in records:
        if r.trace_t.size == 0:
            continue
        prefix = "  {\n" + "".join(
            f'    "{name}": "{value}",\n' for name, value in zip(CURVES_HEADER, _curve_fields(r))
        )
        pieces += [",\n".join([
            f'{prefix}    "t": "{t}",\n    "cum_regret": "{c:.17g}"\n  }}'
            for t, c in zip(r.trace_t.tolist(), r.trace_regret.tolist())
        ]), ",\n"]
    if len(pieces) == 1:
        return "[]\n"
    pieces[-1] = "\n]\n"
    return "".join(pieces)


def _per_task_csv_text(records: list[RunRecord]) -> str:
    lines = [",".join(PER_TASK_HEADER) + "\n"]
    for r in records:
        prefix = f"{r.algorithm},{r.dim},{r.rep_dim},{r.num_tasks},{r.horizon},{r.seed_index},"
        columns = zip(
            r.per_task_regret.tolist(),
            r.entered_stage2.tolist(),
            r.width_after.tolist(),
            r.samples_used.tolist(),
        )
        lines += [  # ":d" writes the bool column as 0/1
            f"{prefix}{task},{regret:.17g},{entered:d},{width:d},{samples:d}\n"
            for task, (regret, entered, width, samples) in enumerate(columns)
        ]
    return "".join(lines)


def _summary_json_text(config: ExperimentConfig, records: list[RunRecord]) -> str:
    doc = {
        "config": {
            "algorithm": config.algorithm,
            "d": config.dim,
            "k": config.rep_dim,
            "M": config.num_tasks,
            "T": config.horizon,
            "noise_std": float(config.noise_std),
            "epsilon": config.epsilon,
            "delta": config.delta,
            "mode": config.mode,
            "log_arg": config.log_arg,
            "noiseless_oracle": config.noiseless_oracle,
            "n_seeds": config.num_seeds,
            "master_seed": config.master_seed,
            "trace_stride": config.trace_stride,
        },
        "summary": summarize(records),
    }
    return _json_text(doc)


def _json_text(doc) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True) + "\\n"``, byte for byte.

    With ``indent`` set, ``json`` encodes in pure Python, ~9 µs per number.
    So every non-empty list or tuple of plain ``int`` and ``float`` values is
    encoded by the C encoder and laid out one value per line, as ``indent=2``
    lays it out; ``json.dumps`` lays out the rest around a placeholder string
    for each such list.  A document whose text holds ``\\u0000`` other than
    in the placeholders is encoded by ``json.dumps`` alone.
    """
    lists: list[str] = []

    def swap(node, depth: int):
        if isinstance(node, dict):
            return {key: swap(value, depth + 1) for key, value in node.items()}
        if isinstance(node, (list, tuple)):
            if node and set(map(type, node)) <= {int, float}:
                pad = "\n" + "  " * (depth + 1)
                body = json.dumps(node)[1:-1].replace(", ", "," + pad)
                lists.append(f"[{pad}{body}\n{'  ' * depth}]")
                return f"\x00{len(lists) - 1}"  # json writes it as "\u0000<i>"
            return [swap(value, depth + 1) for value in node]
        return node

    text = json.dumps(swap(doc, 0), indent=2, sort_keys=True)
    if text.count("\\u0000") != len(lists):
        text = json.dumps(doc, indent=2, sort_keys=True)
    else:
        text = re.sub(r'"\\u0000(\d+)"', lambda m: lists[int(m[1])], text)
    return text + "\n"


def read_curves_csv(path: str | Path) -> list[RunRecord]:
    """Rebuild partial run records (config echo + trace) from a curves CSV."""
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames != CURVES_HEADER:
            raise ValueError(f"unexpected curves header: {reader.fieldnames}")
        rows: dict[tuple, list[tuple[int, float]]] = {}
        meta: dict[tuple, dict] = {}
        for row in reader:
            key = (row["algo"], int(row["seed"]))
            rows.setdefault(key, []).append((int(row["t"]), float(row["cum_regret"])))
            meta[key] = row
    records = []
    for key, points in rows.items():
        row = meta[key]
        ts = np.array([p[0] for p in points], dtype=int)
        cums = np.array([p[1] for p in points])
        records.append(
            RunRecord(
                algorithm=row["algo"],
                dim=int(row["d"]),
                rep_dim=int(row["k"]),
                num_tasks=int(row["M"]),
                horizon=int(row["T"]),
                noise_std=float(row["noise_std"]),
                seed_index=int(row["seed"]),
                final_regret=float(cums[-1]),
                trace_t=ts,
                trace_regret=cums,
            )
        )
    records.sort(key=lambda r: (r.algorithm, r.seed_index))
    return records


def read_per_task_csv(path: str | Path) -> list[RunRecord]:
    """Rebuild partial lifelong run records from a per-task CSV."""
    per_seed: dict[int, list[dict]] = {}
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames != PER_TASK_HEADER:
            raise ValueError(f"unexpected per-task header: {reader.fieldnames}")
        for row in reader:
            per_seed.setdefault(int(row["seed"]), []).append(row)
    records = []
    for seed_index in sorted(per_seed):
        group = sorted(per_seed[seed_index], key=lambda row: int(row["task"]))
        first = group[0]
        records.append(
            RunRecord(
                algorithm=first["algo"],
                dim=int(first["d"]),
                rep_dim=int(first["k"]),
                num_tasks=int(first["M"]),
                horizon=int(first["T"]),
                noise_std=float("nan"),
                seed_index=seed_index,
                final_regret=float(sum(float(row["task_regret"]) for row in group)),
                trace_t=np.zeros(0, dtype=int),
                trace_regret=np.zeros(0),
                per_task_regret=np.array([float(row["task_regret"]) for row in group]),
                entered_stage2=np.array([bool(int(row["entered_stage2"])) for row in group]),
                width_after=np.array([int(row["tau_after"]) for row in group]),
                samples_used=np.array([int(row["samples_used"]) for row in group]),
                width_final=int(group[-1]["tau_after"]),
            )
        )
    return records
