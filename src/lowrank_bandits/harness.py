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
  row per trace point per replicate.
* per-task (lifelong runs only): CSV header
  ``algo,d,k,M,T,seed,task,task_regret,entered_stage2,tau_after,samples_used``.
* summary: a structured JSON document.

``compare`` writes ``comparison.json`` instead of a summary, and each
config's curves and per-task files with the suffix ``_<i>_<algo>``.

Floats are serialized with 17 significant digits so parsing a file
reconstructs the exact binary64 values.  Files are written atomically
(temp file + rename) and are byte-identical for identical configs
regardless of worker count.
"""

from __future__ import annotations

import csv
import io
import json
import multiprocessing as mp
import os
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .baselines import run_e2tc, run_independent_etc
from .env import InstanceSpec, generate_instance
from .errors import ConfigError, require_finite, require_int
from .lll import LllConfig, check_options, run_lll
from .mtrl import MtrlConfig, run_mtrl

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

    def lll_config(self) -> LllConfig:
        return LllConfig(
            epsilon=self.epsilon,
            delta=self.delta,
            mode=self.mode,
            log_arg=self.log_arg,
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
        if self.algorithm == "lll":
            self.lll_config().validate()
        else:  # summary.json echoes the lifelong options for every algorithm
            check_options(self.mode, self.log_arg, self.delta, self.epsilon)
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

    ``wall_seconds`` is kept in memory only; it never enters output files
    (they must be byte-identical across reruns of the same config).
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


def _run_single(config: ExperimentConfig, index: int) -> RunRecord:
    instance_ss, policy_ss = replicate_seed_sequences(config.master_seed, index)
    instance = generate_instance(config.instance_spec(), np.random.default_rng(instance_ss))
    rng = np.random.default_rng(policy_ss)
    started = time.perf_counter()

    lll_fields = {}
    if config.algorithm == "mtrl":
        mtrl_config = MtrlConfig(noiseless_oracle=config.noiseless_oracle)
        ledger, _ = run_mtrl(instance, mtrl_config, rng, config.trace_stride)
    elif config.algorithm == "e2tc":
        ledger, _ = run_e2tc(instance, MtrlConfig(), rng, config.trace_stride)
    elif config.algorithm == "independent":
        ledger = run_independent_etc(
            instance,
            rng,
            noiseless_oracle=config.noiseless_oracle,
            trace_stride=config.trace_stride,
        )
    elif config.algorithm == "lll":
        state, ledger, sample_total = run_lll(
            instance, config.lll_config(), rng, config.trace_stride
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
        wall_seconds=time.perf_counter() - started,
        **lll_fields,
    )


def _worker_count(num_seeds: int) -> int:
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
    return min(workers, num_seeds)


def run_experiment(config: ExperimentConfig) -> tuple[list[RunRecord], list[Path]]:
    """Run all replicates (possibly in parallel) and emit files.

    Records are ordered by replicate index regardless of scheduling, so
    worker count never affects results or output bytes.
    """
    config.validate()
    workers = _worker_count(config.num_seeds)
    indices = range(config.num_seeds)
    if workers <= 1:
        records = [_run_single(config, i) for i in indices]
    else:
        with ProcessPoolExecutor(
            max_workers=workers, mp_context=mp.get_context("fork")
        ) as pool:
            records = list(pool.map(_run_single, [config] * config.num_seeds, indices))

    written: list[Path] = []
    if config.out_dir is not None:
        out_dir = Path(config.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        written = _write_records(out_dir, "", config, records)
        summary_path = out_dir / "summary.json"
        _atomic_write(summary_path, _summary_json_text(config, records))
        written.append(summary_path)
    return records, written


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

    grids = [r.trace_t for r in records]
    if all(np.array_equal(g, grids[0]) for g in grids[1:]):
        stacked = np.vstack([r.trace_regret for r in records])
        out["mean_curve"] = {
            "t": grids[0].tolist(),
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


def compare(
    configs: list[ExperimentConfig], out_dir: str | None = None
) -> tuple[dict, list[Path]]:
    """Run several algorithms on identical instance streams and tabulate gaps.

    All configs must agree on everything that shapes the instances and the
    replication (they may differ in algorithm and algorithm-only options).
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
        ):
            if getattr(cfg, fieldname) != getattr(anchor, fieldname):
                raise ConfigError(
                    f"{fieldname}: configs must match, got "
                    f"{getattr(cfg, fieldname)!r} vs {getattr(anchor, fieldname)!r}"
                )

    all_records: list[list[RunRecord]] = []
    summaries: list[dict] = []
    for cfg in configs:
        records, _ = run_experiment(replace(cfg, out_dir=None))
        all_records.append(records)
        summaries.append(summarize(records))

    pairs = []
    n = anchor.num_seeds
    for i in range(len(configs)):
        for j in range(i + 1, len(configs)):
            fa = np.array([r.final_regret for r in all_records[i]])
            fb = np.array([r.final_regret for r in all_records[j]])
            diff = fa - fb
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
            "noise_std": anchor.noise_std,
        },
        "n_seeds": n,
        "master_seed": anchor.master_seed,
        "summaries": summaries,
        "pairs": pairs,
    }

    written: list[Path] = []
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        path = out / "comparison.json"
        _atomic_write(path, json.dumps(table, indent=2, sort_keys=True) + "\n")
        written.append(path)
        for idx, (cfg, records) in enumerate(zip(configs, all_records)):
            written += _write_records(out, f"_{idx}_{cfg.algorithm}", cfg, records)
    return table, written


# ---------------------------------------------------------------------------
# serialization


def _atomic_write(path: Path, text: str) -> None:
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise


def _write_records(
    out_dir: Path, suffix: str, config: ExperimentConfig, records: list[RunRecord]
) -> list[Path]:
    """Write the curves in ``config.output_format`` and, for lll, the per-task CSV."""
    written = [out_dir / f"curves{suffix}.{config.output_format}"]
    curves_text = _curves_csv_text if config.output_format == "csv" else _curves_json_text
    _atomic_write(written[0], curves_text(records))
    if config.algorithm == "lll":
        written.append(out_dir / f"per_task{suffix}.csv")
        _atomic_write(written[1], _per_task_csv_text(records))
    return written


def _curves_rows(records: list[RunRecord]):
    for r in records:
        for t, cum in zip(r.trace_t, r.trace_regret):
            yield [
                r.algorithm,
                str(r.dim),
                str(r.rep_dim),
                str(r.num_tasks),
                str(r.horizon),
                fmt(r.noise_std),
                str(r.seed_index),
                str(int(t)),
                fmt(cum),
            ]


def _curves_csv_text(records: list[RunRecord]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CURVES_HEADER)
    writer.writerows(_curves_rows(records))
    return buf.getvalue()


def _curves_json_text(records: list[RunRecord]) -> str:
    rows = [dict(zip(CURVES_HEADER, row)) for row in _curves_rows(records)]
    return json.dumps(rows, indent=2) + "\n"


def _per_task_csv_text(records: list[RunRecord]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(PER_TASK_HEADER)
    for r in records:
        for task in range(r.num_tasks):
            writer.writerow(
                [
                    r.algorithm,
                    str(r.dim),
                    str(r.rep_dim),
                    str(r.num_tasks),
                    str(r.horizon),
                    str(r.seed_index),
                    str(task),
                    fmt(r.per_task_regret[task]),
                    str(int(r.entered_stage2[task])),
                    str(int(r.width_after[task])),
                    str(int(r.samples_used[task])),
                ]
            )
    return buf.getvalue()


def _summary_json_text(config: ExperimentConfig, records: list[RunRecord]) -> str:
    doc = {
        "config": {
            "algorithm": config.algorithm,
            "d": config.dim,
            "k": config.rep_dim,
            "M": config.num_tasks,
            "T": config.horizon,
            "noise_std": config.noise_std,
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
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


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
