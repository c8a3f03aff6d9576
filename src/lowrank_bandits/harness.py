"""Experiment orchestration: seeded replication, parallel runs, file emission.

Seed derivation
---------------
Replicate ``i`` of an experiment with master seed ``s`` draws its random
streams from ``numpy.random.SeedSequence`` with entropy tuples: the
instance generator uses ``(s, i, 0)`` and the algorithm uses ``(s, i, 1)``.
The mixing is a pure function of ``(s, i)``, stable across releases, and
independent of the algorithm, so experiments that share a master seed run
their algorithms on identical instances replicate by replicate.

Records
-------
``run_experiment`` returns one ``RunRecord`` per replicate, built by the
worker that ran it.  A record points at its config and its replicate's
``RegretLedger``, and copies neither: the ledger holds the final regret and
decides the trace points, kept as one segment per ledger record however
many pulls the record covers.  ``trace_t`` and ``trace_regret`` expand it
on every read, and only the code that reads points reads them: the curves
writers, inside their write jobs, and ``summarize``'s mean curve.  So a
record stays small in memory and across the process pool, and a run
without ``out_dir`` builds no trace point.

Output files (schemas fixed):

* curves: CSV header ``algo,d,k,M,T,noise_std,seed,t,cum_regret`` — one
  row per trace point per replicate.
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
regardless of worker count.  Each ``run_experiment`` or ``compare`` call
runs its replicates and writes its files on one pool, of at most the
worker count and sized by the larger of the two phases; ``compare``'s
``run_experiment`` calls share its pool.  The pool forks its workers
when it opens.  A replicate or write job crosses a worker's pipe as a
pickled ``(fn, args)``, its result or error comes back the same way, and
the results are kept in job order.  When one file cannot be written,
or its text does not fit in memory, the others still are, and the first
error in file order is raised.  A worker that dies (the OOM killer's
SIGKILL, say) ends the call with ``ChildProcessError``, naming its signal
or exit status, once the other workers are reaped.

A file's text is built as one string and then written.  A JSON builder
holds its number lists' texts and the joined text, at most about twice the
file; a write adds one slice of ``WRITE_SLICE`` (2**20) characters and its
encoding, not an encoded copy of the file.
"""

from __future__ import annotations

import itertools
import json
import os
import pickle
import re
import select
import signal
import time
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .baselines import run_e2tc, run_independent_etc
from .env import InstanceSpec, RegretLedger, generate_instance
from .errors import MAX_COUNT, ConfigError, require_finite, require_int
from .lll import check_options, run_lll
from .mtrl import run_mtrl

# The table of algorithms: name -> (its runner's binding here, looked up per
# call so that a wrapper set on it runs; the ExperimentConfig fields the runner
# takes as keywords).  Every runner returns (ledger, details).
ALGORITHMS = {
    "mtrl": ("run_mtrl", ("noiseless_oracle",)),
    "e2tc": ("run_e2tc", ()),
    "independent": ("run_independent_etc", ("noiseless_oracle",)),
    "lll": ("run_lll", ("mode", "epsilon", "delta")),
}
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
# The RunRecord fields that fill the per-task CSV: all a record keeps of details.
PER_TASK_COLUMNS = ("per_task_regret", "entered_stage2", "width_after", "samples_used")


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
    noiseless_oracle: bool = False
    num_seeds: int = 20
    master_seed: int = 0
    trace_stride: int = 10
    out_dir: str | None = None

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
        row = ALGORITHMS.get(self.algorithm) if isinstance(self.algorithm, str) else None
        if row is None:
            raise ConfigError(
                f"algorithm: must be one of {tuple(ALGORITHMS)}, got {self.algorithm!r}"
            )
        options = row[1]
        self.instance_spec().validate()
        for name in ("num_seeds", "master_seed", "trace_stride"):
            require_int(name, getattr(self, name))
        # numpy holds these counts in int64 (rep_dim <= dim), and M * T, a regret
        # run's pull count and last trace point; master_seed only seeds
        # SeedSequence, which takes any non-negative int
        names = ("dim", "num_tasks", "horizon", "num_seeds", "trace_stride")
        counts = {name: getattr(self, name) for name in names}
        counts["num_tasks * horizon"] = self.num_tasks * self.horizon
        for name, count in counts.items():
            if count > MAX_COUNT:
                raise ConfigError(f"{name}: must be <= 2**63 - 1, got {count}")
        require_finite("delta", self.delta)
        if self.epsilon is not None:
            require_finite("epsilon", self.epsilon)
        if not isinstance(self.noiseless_oracle, bool):
            raise ConfigError(
                f"noiseless_oracle: must be a boolean, got {self.noiseless_oracle!r}"
            )
        if self.out_dir is not None and not isinstance(self.out_dir, str):
            raise ConfigError(f"out_dir: must be a string, got {self.out_dir!r}")
        if self.out_dir == "":  # Path("") is the current directory
            raise ConfigError("out_dir: must be a non-empty path, got ''")
        if self.num_seeds < 1:
            raise ConfigError(f"num_seeds: must be >= 1, got {self.num_seeds}")
        if self.master_seed < 0:
            raise ConfigError(f"master_seed: must be >= 0, got {self.master_seed}")
        if self.trace_stride < 0:
            raise ConfigError(f"trace_stride: must be >= 0, got {self.trace_stride}")
        # summary.json echoes the lifelong options for every algorithm
        check_options(
            self.mode, self.delta, self.epsilon, self.dim, self.num_tasks,
            lifelong="epsilon" in options,
        )
        # mtrl._stage1_theta_hat checks noise_std == 0 and t1 >= dim before the first draw.
        if self.noiseless_oracle and "noiseless_oracle" not in options:
            raise ConfigError(f"noiseless_oracle: not supported for {self.algorithm!r}")


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
    """One replicate's ``config``, ``ledger`` and per-task columns (module docstring: Records).

    ``wall_seconds`` is the time the replicate's algorithm ran, in its
    worker.  It is kept in memory only; it never enters output files (they
    must be byte-identical across reruns of the same config).
    """

    config: ExperimentConfig
    seed_index: int
    ledger: RegretLedger
    # PER_TASK_COLUMNS, taken from a lifelong runner's details; None otherwise.
    per_task_regret: np.ndarray | None = None
    entered_stage2: np.ndarray | None = None
    width_after: np.ndarray | None = None
    samples_used: np.ndarray | None = None
    wall_seconds: float = 0.0

    @property
    def final_regret(self) -> float:
        return self.ledger.total

    @property
    def width_final(self) -> int | None:  # the basis width after the last task
        return None if self.width_after is None else int(self.width_after[-1])

    @property
    def sample_total(self) -> int | None:  # the exploration pulls of all tasks
        return None if self.samples_used is None else int(self.samples_used.sum())

    @property
    def trace_t(self) -> np.ndarray:  # the pull counts of the trace points
        return self.ledger.trace_grid()

    @property
    def trace_regret(self) -> np.ndarray:  # the cumulative regret at each of them
        return self.ledger.trace()[1]


def _run_single(config: ExperimentConfig, index: int) -> RunRecord:
    """Run replicate ``index`` with its table row's runner; return its record,
    which is what a pool worker sends back.  Its ledger holds the trace as
    segments, so the record grows with the ledger's records, not with pulls."""
    instance_ss, policy_ss = replicate_seed_sequences(config.master_seed, index)
    instance = generate_instance(config.instance_spec(), np.random.default_rng(instance_ss))
    rng = np.random.default_rng(policy_ss)
    runner, options = ALGORITHMS[config.algorithm]
    started = time.perf_counter()
    ledger, details = globals()[runner](
        instance, rng, config.trace_stride, **{name: getattr(config, name) for name in options}
    )
    return RunRecord(
        config=config,
        seed_index=index,
        ledger=ledger,
        wall_seconds=time.perf_counter() - started,
        **{name: getattr(details, name, None) for name in PER_TASK_COLUMNS},
    )


def _send(fd: int, payload: bytes) -> None:
    """Write one message to a pipe: its 8-byte length, then ``payload``."""
    for data in (len(payload).to_bytes(8, "little"), payload):
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view) :]


def _read_exactly(fd: int, size: int) -> bytearray | None:
    """Read ``size`` bytes from a pipe, or None if it ends first."""
    buffer = bytearray(size)
    view, done = memoryview(buffer), 0
    while done < size:
        read = os.readv(fd, [view[done:]])
        if read == 0:
            return None
        done += read
    return buffer


def _receive(fd: int) -> bytearray | None:
    """Read one ``_send`` message from a pipe, or None at end of file."""
    header = _read_exactly(fd, 8)
    return None if header is None else _read_exactly(fd, int.from_bytes(header, "little"))


def _serve(task_fd: int, result_fd: int) -> None:
    """A pool worker's loop: run each item it reads and send back its outcome,
    until the task pipe is closed.  An item's result is freed once sent, so
    it does not sit beside the next item's run."""
    while (message := _receive(task_fd)) is not None:
        _send(result_fd, _run_item(message))


def _run_item(message: bytearray) -> bytes:
    """Run one pickled ``(fn, args)``; return the pickled ``(True, fn(*args))``,
    or ``(False, error)`` for an ``Exception``.  Empties ``message`` before
    the run, which then holds the arguments only once."""
    try:
        fn, args = pickle.loads(message)
        message.clear()
        outcome = (True, fn(*args))
    except Exception as error:
        outcome = (False, error)
    try:
        return pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL)
    except Exception as error:  # a result or error that does not pickle
        return pickle.dumps((False, error), pickle.HIGHEST_PROTOCOL)


class _ForkPool:
    """``workers`` processes forked when the pool opens, each with a task pipe
    and a result pipe; no thread, no manager process.

    ``map`` hands the next item to whichever worker is free and returns the
    results in item order.  Every item runs; then the first item that raised
    is raised.  A worker that dies mid-map stops the hand-out; once the items
    in flight are back, ``map`` raises ``ChildProcessError`` with its exit
    status or signal.  ``close`` closes the pipes, interrupts (SIGINT) the
    workers of a map that did not finish, and reaps every worker.
    """

    def __init__(self, workers: int):
        self._pids: dict[int, int] = {}  # result fd -> worker pid
        self._tasks: dict[int, int] = {}  # result fd -> task fd
        self._busy: dict[int, int] = {}  # result fd -> index of the item in flight
        self._poller = select.poll()
        try:
            for _ in range(workers):
                self._fork()
        except BaseException:
            self.close()
            raise

    def _fork(self) -> None:
        task_read, task_write = os.pipe()
        result_read, result_write = os.pipe()
        try:
            pid = os.fork()
        except BaseException:
            for fd in (task_read, task_write, result_read, result_write):
                os.close(fd)
            raise
        if pid == 0:  # the worker: it never returns to the caller's code
            code = 1
            try:
                for fd in (task_write, result_read, *self._pids, *self._tasks.values()):
                    os.close(fd)  # so each pipe closes when its own ends do
                signal.signal(signal.SIGINT, signal.default_int_handler)
                _serve(task_read, result_write)
                code = 0
            finally:
                os._exit(code)
        os.close(task_read)
        os.close(result_write)
        self._pids[result_read] = pid
        self._tasks[result_read] = task_write
        self._poller.register(result_read, select.POLLIN)

    def map(self, fn, *iterables) -> list:
        items = enumerate(zip(*iterables))
        outcomes: list = []
        lost = None  # how the first worker found dead went

        def hand_out(fd: int) -> None:  # the next item, if any, to the worker behind fd
            item = next(items, None)
            if item is None:
                return
            index, args = item
            outcomes.append(None)
            self._busy[fd] = index
            try:
                _send(self._tasks[fd], pickle.dumps((fn, args), pickle.HIGHEST_PROTOCOL))
            except BrokenPipeError:
                pass  # the worker is gone; its result pipe reads end of file

        for fd in list(self._pids):
            hand_out(fd)
        while self._busy:
            for fd, _ in self._poller.poll():
                index = self._busy.pop(fd, None)
                message = _receive(fd)
                if message is None:
                    ended = self._reap_lost(fd)
                    lost = lost or ended
                    continue
                outcomes[index] = pickle.loads(message)
                if lost is None:
                    hand_out(fd)
        if lost is not None:
            raise ChildProcessError(lost)
        for ok, value in outcomes:
            if not ok:
                raise value
        return [value for _, value in outcomes]

    def _reap_lost(self, fd: int) -> str:
        """Reap the dead worker behind result pipe ``fd``; say how it ended."""
        pid = self._pids.pop(fd)
        self._poller.unregister(fd)
        os.close(fd)
        os.close(self._tasks.pop(fd))
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        if code < 0:
            return f"pool worker {pid} was killed by signal {-code} ({signal.strsignal(-code)})"
        return f"pool worker {pid} exited with status {code}"

    def close(self) -> None:
        for task_fd in self._tasks.values():
            os.close(task_fd)  # a free worker reads end of file and exits
        for fd in self._busy:  # a map that did not finish: stop its items in flight
            os.kill(self._pids[fd], signal.SIGINT)
        for fd, pid in self._pids.items():
            os.close(fd)
            os.waitpid(pid, 0)
        self._pids, self._tasks, self._busy = {}, {}, {}


# The map of the pool that the outermost ``_pool`` call holds open, or None.
# Module state, not an argument: ``compare`` reaches ``run_experiment`` through
# its module binding, which callers may wrap.
_open_map = None


@contextmanager
def _pool(workers: int):
    """Yield a ``map`` that runs on a ``_ForkPool`` of ``workers`` processes,
    or in process for one worker.  Inside another ``_pool`` call's ``with``,
    yield that call's map: one pool serves a whole call, and is closed when
    the outermost ``with`` ends."""
    global _open_map
    if _open_map is not None:
        yield _open_map
        return
    pool = _ForkPool(workers) if workers > 1 else None
    _open_map = map if pool is None else pool.map
    try:
        yield _open_map
    finally:
        _open_map = None
        if pool is not None:
            pool.close()


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
    files = 0 if config.out_dir is None else 1 + _record_file_count(config)
    try:  # before the first replicate, so a count no list can hold fails at once
        replicates = [config] * config.num_seeds
    except MemoryError:
        raise ConfigError(
            f"num_seeds: {config.num_seeds} replicates do not fit in one list"
        ) from None
    with _pool(_worker_count(max(config.num_seeds, files))) as run_all:
        records = list(run_all(_run_single, replicates, range(config.num_seeds)))
        written: list[Path] = []
        if config.out_dir is not None:
            out_dir = Path(config.out_dir)
            out_dir.mkdir(parents=True, exist_ok=True)
            jobs = _record_jobs(out_dir, "", records)
            jobs.append((out_dir / "summary.json", _summary_json_text, (config, records)))
            written = _write_files(run_all, jobs)
    return records, written


def _shares_grid(records: list[RunRecord]) -> bool:
    """Whether every record has the same trace grid, which ``(trace_stride,
    num_pulls)`` sets."""
    return len({(r.ledger.trace_stride, r.ledger.num_pulls) for r in records}) == 1


def summarize(records: list[RunRecord]) -> dict:
    """Aggregate statistics over replicates of one config.

    Final-regret mean, sample standard deviation (n-1), and standard
    error; the mean cumulative-regret curve when the replicates share a
    trace grid; per-task-index means for lifelong runs.
    """
    if not records:
        raise ValueError("summarize needs at least one record")
    if len({(r.config.algorithm, r.config.instance_spec()) for r in records}) != 1:
        raise ValueError("records mix heterogeneous configs")

    finals = np.array([r.final_regret for r in records])
    n = len(finals)
    sd = float(finals.std(ddof=1)) if n > 1 else 0.0
    out: dict = {
        "algorithm": records[0].config.algorithm,
        "n_runs": n,
        "final_regret": {
            "mean": float(finals.mean()),
            "sd": sd,
            "se": sd / np.sqrt(n),
        },
    }

    if _shares_grid(records):
        stacked = np.vstack([r.trace_regret for r in records])
        out["mean_curve"] = {
            "t": records[0].trace_t.tolist(),
            "regret": stacked.mean(axis=0).tolist(),
        }
    else:
        out["mean_curve"] = None  # pure-exploration runs stop at varying pull counts

    if all(r.per_task_regret is not None for r in records):
        per_task = np.vstack([r.per_task_regret for r in records])
        out["lll"] = {
            "mean_per_task_curve": per_task.mean(axis=0).tolist(),
            "mean_per_task_regret": float(finals.mean()) / records[0].config.num_tasks,
            "mean_sample_total": float(np.mean([r.sample_total for r in records])),
            "width_final_max": int(max(r.width_final for r in records)),
        }
    return out


def compare(configs: list[ExperimentConfig]) -> tuple[dict, list[Path]]:
    """Run several algorithms on identical instance streams and tabulate gaps.

    All configs must agree on every field but ``algorithm`` and the options
    of ``ALGORITHMS``: on what shapes the instances and the replication, and
    on ``out_dir``, where the files go.
    Replicate ``i`` of every config sees the same instance, so pairwise
    differences are paired comparisons.
    """
    if not configs:
        raise ConfigError("configs: need at least one config")
    for cfg in configs:
        cfg.validate()
    anchor = configs[0]
    options = {name for _, names in ALGORITHMS.values() for name in names}
    shared = [f.name for f in fields(ExperimentConfig) if f.name not in {"algorithm", *options}]
    for cfg in configs[1:]:
        for fieldname in shared:
            if getattr(cfg, fieldname) != getattr(anchor, fieldname):
                raise ConfigError(
                    f"{fieldname}: configs must match, got "
                    f"{getattr(cfg, fieldname)!r} vs {getattr(anchor, fieldname)!r}"
                )

    files = 0 if anchor.out_dir is None else 1 + sum(map(_record_file_count, configs))
    with _pool(_worker_count(max(anchor.num_seeds, files))) as run_all:
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
            jobs = [(out / "comparison.json", _json_text, (table,))]
            for idx, (cfg, records) in enumerate(zip(configs, all_records)):
                jobs += _record_jobs(out, f"_{idx}_{cfg.algorithm}", records)
            written = _write_files(run_all, jobs)
    return table, written


# ---------------------------------------------------------------------------
# serialization


# The characters ``_atomic_write`` hands to the file at a time.
WRITE_SLICE = 2**20


def _atomic_write(path: Path, text: str) -> None:
    """Write ``text`` to a new temp file beside ``path``, then rename it over ``path``.

    The text goes out in slices of ``WRITE_SLICE`` characters, so a write
    holds one slice and its encoding on top of ``text``, never an encoded
    copy of the whole file.  The temp file is created with mode 0o666, so
    the process umask sets the final permissions, as it does for ``open``.
    """
    path = Path(path)
    tmp_path = path.with_name(f".{path.name}.{os.urandom(8).hex()}")
    fd = os.open(tmp_path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as handle:
            for start in range(0, len(text), WRITE_SLICE):
                handle.write(text[start : start + WRITE_SLICE])
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


# A write job is ``(path, builder, args)``: ``builder(*args)`` is the file's text.
WriteJob = tuple[Path, Callable[..., str], tuple]


def _record_jobs(out_dir: Path, suffix: str, records: list[RunRecord]) -> list[WriteJob]:
    """Write jobs for the curves CSV and, for records whose config's
    ``_record_file_count`` counts it, the per-task CSV."""
    jobs = [(out_dir / f"curves{suffix}.csv", _curves_csv_text, (records,))]
    if _record_file_count(records[0].config) > 1:
        jobs.append((out_dir / f"per_task{suffix}.csv", _per_task_csv_text, (records,)))
    return jobs


def _record_file_count(config: ExperimentConfig) -> int:
    """How many files ``_record_jobs`` makes of a config's records: the curves
    CSV, and the per-task CSV for lll, whose details fill ``PER_TASK_COLUMNS``."""
    return 1 + (config.algorithm == "lll")


def _write_job(job: WriteJob) -> Path | OSError | MemoryError:
    """Build one file's text and write it: its path, or the error that stopped the write."""
    path, builder, args = job
    try:
        _atomic_write(path, builder(*args))
    except (OSError, MemoryError) as error:  # _write_files raises it once every job has run
        return error
    return path


def _write_files(run_all, jobs: list[WriteJob]) -> list[Path]:
    """Run every write job, one file each, on the caller's pool map ``run_all``.

    Every job runs even when a write fails, so the files a failed run leaves
    do not depend on the worker count; the first error in job order is
    raised after.  The paths come back in job order.
    """
    results = list(run_all(_write_job, jobs))
    for result in results:
        if isinstance(result, Exception):
            raise result
    return results


def _curves_csv_text(records: list[RunRecord]) -> str:
    chunks = [",".join(CURVES_HEADER) + "\n"]
    for r in records:
        c = r.config
        prefix = (
            f"{c.algorithm},{c.dim},{c.rep_dim},{c.num_tasks},{c.horizon},"
            f"{fmt(c.noise_std)},{r.seed_index},"
        )
        # One string per record, made by one ``%`` call: the row template
        # repeated once per point, filled with the points' (t, regret) pairs.
        ts, cums = r.trace_t.tolist(), r.trace_regret.tolist()
        row = prefix.replace("%", "%%") + "%d,%.17g\n"
        chunks.append(row * len(ts) % tuple(itertools.chain.from_iterable(zip(ts, cums))))
    return "".join(chunks)


def _per_task_csv_text(records: list[RunRecord]) -> str:
    lines = [",".join(PER_TASK_HEADER) + "\n"]
    for r in records:
        c = r.config
        prefix = f"{c.algorithm},{c.dim},{c.rep_dim},{c.num_tasks},{c.horizon},{r.seed_index},"
        columns = zip(*(getattr(r, name).tolist() for name in PER_TASK_COLUMNS))
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

    The result is one join of the text split at the placeholders, the list
    texts and the newline, so the builder holds the list texts and the
    result at once, at most about twice the file, and no third copy.
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
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    # [skeleton, index, skeleton, ..., skeleton]: each index becomes its list's text
    pieces = re.split(r'"\\u0000(\d+)"', text)
    pieces[1::2] = [lists[int(index)] for index in pieces[1::2]]
    pieces.append("\n")
    return "".join(pieces)
