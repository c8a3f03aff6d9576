import csv
import io
import json
import os
import pickle
import resource
import signal
import stat
import subprocess
import sys
import time
import tracemalloc
import warnings
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from lowrank_bandits import harness
from lowrank_bandits import cli
from lowrank_bandits.cli import main
from lowrank_bandits.env import MAX_NOISE_STD, RegretLedger
from lowrank_bandits.errors import ConfigError
from lowrank_bandits.harness import (
    WORKERS_ENV_VAR,
    ExperimentConfig,
    RunRecord,
    compare,
    fmt,
    replicate_seed_sequences,
    run_experiment,
    summarize,
)

SMALL = dict(dim=6, rep_dim=2, num_tasks=5, horizon=400, num_seeds=2, trace_stride=25)


def small_config(**overrides):
    merged = {**SMALL, **overrides}
    return ExperimentConfig(**merged)


def csv_rows(path, header) -> list[dict]:
    """The rows of a written CSV file, parsed with the stdlib reader."""
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        assert reader.fieldnames == header
        return list(reader)


class FakeLedger:
    """A ledger whose trace is the points it is given, bit for bit: its stride
    is the first point's t, and the last point is its final pull and total."""

    def __init__(self, ts, cums):
        self.ts = np.asarray(ts, dtype=int)
        self.cums = np.asarray(cums, dtype=float)
        self.trace_stride = int(self.ts[0])
        self.num_pulls = int(self.ts[-1])
        self.total = float(self.cums[-1])

    def trace_grid(self) -> np.ndarray:
        return self.ts

    def trace(self) -> tuple[np.ndarray, np.ndarray]:
        return self.ts, self.cums


def count_pools(monkeypatch) -> list:
    """The worker count of every process pool the harness creates from now on."""
    created = []

    class CountedPool(harness._ForkPool):
        def __init__(self, workers):
            created.append(workers)
            super().__init__(workers)

    monkeypatch.setattr(harness, "_ForkPool", CountedPool)
    return created


def assert_no_child_left() -> None:
    """This process has no child, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestSeedDerivation:
    def test_pure_and_stable(self):
        a_inst, a_pol = replicate_seed_sequences(12345, 3)
        b_inst, b_pol = replicate_seed_sequences(12345, 3)
        assert np.array_equal(a_inst.generate_state(4), b_inst.generate_state(4))
        assert np.array_equal(a_pol.generate_state(4), b_pol.generate_state(4))

    def test_streams_distinct(self):
        inst, pol = replicate_seed_sequences(0, 0)
        other_inst, _ = replicate_seed_sequences(0, 1)
        assert not np.array_equal(inst.generate_state(4), pol.generate_state(4))
        assert not np.array_equal(inst.generate_state(4), other_inst.generate_state(4))


class TestRunExperiment:
    def test_identical_configs_identical_bytes(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        run_experiment(small_config(algorithm="mtrl", out_dir=str(out_a)))
        run_experiment(small_config(algorithm="mtrl", out_dir=str(out_b)))
        assert (out_a / "curves.csv").read_bytes() == (out_b / "curves.csv").read_bytes()
        assert (out_a / "summary.json").read_bytes() == (out_b / "summary.json").read_bytes()

    @pytest.mark.parametrize("algorithm", list(harness.ALGORITHMS))
    def test_worker_count_does_not_change_output(self, tmp_path, monkeypatch, algorithm):
        # Each worker builds its records, so every table row is checked.
        files = {}
        for workers in ("1", "4"):
            monkeypatch.setenv(WORKERS_ENV_VAR, workers)
            out = tmp_path / f"w{workers}"
            config = small_config(algorithm=algorithm, mode="regret", num_seeds=4, out_dir=str(out))
            run_experiment(config)
            files[workers] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        per_task = ["per_task.csv"] if algorithm == "lll" else []
        assert list(files["1"]) == ["curves.csv", *per_task, "summary.json"]
        assert files["1"] == files["4"]

    def test_worker_count_does_not_change_pure_exploration(self, tmp_path, monkeypatch):
        runs = {}
        for workers in ("1", "2"):
            monkeypatch.setenv(WORKERS_ENV_VAR, workers)
            out = tmp_path / f"w{workers}"
            config = small_config(
                algorithm="lll", mode="pure_exploration", epsilon=0.3, num_seeds=3,
                out_dir=str(out),
            )
            records, _ = run_experiment(config)
            files = {name: (out / name).read_bytes() for name in (
                "curves.csv", "per_task.csv", "summary.json",
            )}
            runs[workers] = records, files
        (serial, serial_files), (pooled, pooled_files) = runs["1"], runs["2"]
        assert serial_files == pooled_files
        for a, b in zip(serial, pooled, strict=True):
            assert float(a.final_regret).hex() == float(b.final_regret).hex()
            for name in ("trace_t", "trace_regret", "per_task_regret", "entered_stage2",
                         "width_after", "samples_used"):
                assert np.array_equal(getattr(a, name), getattr(b, name)), name
            assert (a.width_final, a.sample_total) == (b.width_final, b.sample_total)

    def test_worker_result_does_not_grow_with_pulls(self):
        """A pool worker sends back its record, which keeps the ledger's
        segments, not its expanded trace."""
        sizes, totals = [], []
        for horizon, epsilon in ((400, 0.3), (4000, 0.3), (400, 0.15)):
            config = small_config(
                algorithm="lll", mode="pure_exploration", epsilon=epsilon, horizon=horizon
            )
            record = harness._run_single(config, 0)
            sizes.append(len(pickle.dumps(record)))
            totals.append(record.sample_total)
        assert totals[2] > 3 * totals[0]  # a smaller epsilon: about 4x the pulls
        # At stride 25, the expanded trace of these runs is 60-240 KB.
        assert max(sizes) < 8 * 2**10, sizes

    def test_runners_are_called_through_their_module_bindings(self, monkeypatch):
        # The benchmark tracer times a runner by replacing its harness binding.
        monkeypatch.setenv(WORKERS_ENV_VAR, "1")
        calls = []
        for algorithm, name in (("independent", "run_independent_etc"), ("mtrl", "run_mtrl")):
            def counted(*args, _runner=getattr(harness, name), _name=name, **kwargs):
                calls.append(_name)
                return _runner(*args, **kwargs)

            monkeypatch.setattr(harness, name, counted)
            run_experiment(small_config(algorithm=algorithm, num_seeds=1))
        assert calls == ["run_independent_etc", "run_mtrl"]

    def test_trace_ends_at_total_pulls(self):
        records, _ = run_experiment(small_config(algorithm="mtrl"))
        for record in records:
            assert record.trace_t[-1] == SMALL["num_tasks"] * SMALL["horizon"]
            assert np.all(np.diff(record.trace_regret) >= -1e-12)

    def test_disabled_trace_keeps_the_final_point(self):
        records, _ = run_experiment(small_config(algorithm="mtrl", trace_stride=0))
        for record in records:
            assert record.ledger.trace_size() == 1
            assert record.trace_t.tolist() == [SMALL["num_tasks"] * SMALL["horizon"]]
            assert record.trace_regret.tolist() == [record.final_regret]

    def test_lll_outputs(self, tmp_path):
        out = tmp_path / "lll"
        config = small_config(
            algorithm="lll", mode="pure_exploration", epsilon=0.3, out_dir=str(out)
        )
        records, written = run_experiment(config)
        assert (out / "per_task.csv").exists()
        for record in records:
            assert record.per_task_regret.shape == (SMALL["num_tasks"],)
            assert record.sample_total == record.samples_used.sum()
            assert record.width_final == record.width_after[-1]

    def test_no_stray_temp_files(self, tmp_path):
        out = tmp_path / "clean"
        run_experiment(small_config(algorithm="mtrl", out_dir=str(out)))
        leftovers = [p for p in out.iterdir() if p.name.startswith(".")]
        assert leftovers == []

    @pytest.mark.parametrize("umask", [0o022, 0o027], ids=oct)
    def test_written_files_follow_the_umask(self, tmp_path, umask):
        lll = dict(algorithm="lll", mode="pure_exploration", epsilon=0.3)
        previous = os.umask(umask)
        try:
            _, written = run_experiment(small_config(**lll, out_dir=str(tmp_path / "run")))
            cmp_dir = str(tmp_path / "cmp")
            _, compared = compare(
                [
                    small_config(algorithm="mtrl", out_dir=cmp_dir),
                    small_config(**lll, out_dir=cmp_dir),
                ]
            )
        finally:
            os.umask(previous)
        paths = written + compared
        assert len(paths) == 7
        assert sorted(paths) == sorted(tmp_path.glob("*/*"))
        assert {stat.S_IMODE(p.stat().st_mode) for p in paths} == {0o666 & ~umask}

    def test_worker_count_follows_cpu_affinity(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV_VAR, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        assert harness._worker_count(limit=20) == 3
        assert harness._worker_count(limit=2) == 2
        monkeypatch.delattr(os, "sched_getaffinity")
        assert harness._worker_count(limit=20) == 20
        monkeypatch.setenv(WORKERS_ENV_VAR, "5")
        assert harness._worker_count(limit=20) == 5
        monkeypatch.setenv(WORKERS_ENV_VAR, "five")
        with pytest.raises(ConfigError, match=WORKERS_ENV_VAR):
            harness._worker_count(limit=20)

    def test_files_outnumbering_the_seeds_size_the_one_pool(self, tmp_path, monkeypatch):
        # one seed, two files: the pool that runs the replicate writes them too
        monkeypatch.setenv(WORKERS_ENV_VAR, "3")
        created = count_pools(monkeypatch)
        _, written = run_experiment(small_config(num_seeds=1, out_dir=str(tmp_path / "run")))
        assert [p.name for p in written] == ["curves.csv", "summary.json"]
        assert created == [max(1, 2)]
        assert_no_child_left()

    def test_one_pool_runs_the_replicates_and_writes_the_files(self, tmp_path, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "2")
        created = count_pools(monkeypatch)
        _, written = run_experiment(small_config(out_dir=str(tmp_path / "run")))
        assert [p.name for p in written] == ["curves.csv", "summary.json"]
        assert created == [2]
        assert_no_child_left()

    def test_per_task_job_sends_small_args(self, tmp_path):
        # At stride 1 the expanded traces of these records take ~3 MB.
        config = small_config(
            algorithm="lll", mode="pure_exploration", epsilon=0.3, trace_stride=1
        )
        records, _ = run_experiment(config)
        (_, _, (curves,)), (_, builder, args) = harness._record_jobs(tmp_path, "", records)
        assert curves is records and sum(r.trace_t.size for r in records) > 100_000
        assert builder is harness._per_task_csv_text
        sent = pickle.dumps(args)
        assert len(sent) < 16 * 2**10, len(sent)
        assert builder(*pickle.loads(sent)) == harness._per_task_csv_text(records)

    def test_unknown_algorithm_message(self):
        with pytest.raises(ConfigError) as error:
            ExperimentConfig(algorithm="x").validate()
        assert str(error.value) == (
            "algorithm: must be one of ('mtrl', 'e2tc', 'independent', 'lll'), got 'x'"
        )

    def test_invalid_config_names_field(self):
        with pytest.raises(ConfigError, match="algorithm"):
            run_experiment(small_config(algorithm="ucb"))
        with pytest.raises(ConfigError, match="num_seeds"):
            run_experiment(small_config(num_seeds=0))
        with pytest.raises(ConfigError, match="epsilon"):
            run_experiment(small_config(algorithm="lll", mode="pure_exploration"))

    # rep_dim <= dim bounds rep_dim too
    @pytest.mark.parametrize("name", ["dim", "num_tasks", "horizon", "num_seeds", "trace_stride"])
    def test_counts_past_int64_are_rejected(self, name):
        with pytest.raises(ConfigError) as error:
            small_config(**{name: 2**63}).validate()
        assert str(error.value) == f"{name}: must be <= 2**63 - 1, got {2**63}"

    def test_master_seed_has_no_upper_bound(self):
        small_config(master_seed=2**63).validate()

    def test_log_arg_is_not_a_field(self):
        with pytest.raises(TypeError, match="log_arg"):
            ExperimentConfig(log_arg="union")

    @pytest.mark.parametrize("algorithm", ["mtrl", "e2tc", "independent"])
    def test_epsilon_only_required_for_lll(self, algorithm):
        small_config(algorithm=algorithm, mode="pure_exploration").validate()


class TestRoundTrip:
    def test_curves_round_trip(self, tmp_path):
        out = tmp_path / "rt"
        config = small_config(algorithm="e2tc", out_dir=str(out))
        records, _ = run_experiment(config)
        rows = csv_rows(out / "curves.csv", harness.CURVES_HEADER)
        assert len(rows) == sum(r.ledger.trace_size() for r in records)
        for r in records:
            assert r.config == config
            mine = [row for row in rows if int(row["seed"]) == r.seed_index]
            for row in mine:
                assert row["algo"] == config.algorithm
                assert (int(row["d"]), int(row["k"])) == (config.dim, config.rep_dim)
                assert (int(row["M"]), int(row["T"])) == (config.num_tasks, config.horizon)
                assert float(row["noise_std"]) == config.noise_std
            ts = np.array([int(row["t"]) for row in mine])
            cums = np.array([float(row["cum_regret"]) for row in mine])
            assert np.array_equal(ts, r.trace_t)
            assert cums.tobytes() == r.trace_regret.tobytes()
            assert cums[-1] == r.final_regret

    def test_per_task_round_trip(self, tmp_path):
        out = tmp_path / "rt2"
        config = small_config(
            algorithm="lll", mode="pure_exploration", epsilon=0.3, out_dir=str(out)
        )
        records, _ = run_experiment(config)
        rows = csv_rows(out / "per_task.csv", harness.PER_TASK_HEADER)
        assert len(rows) == sum(r.config.num_tasks for r in records)
        for r in records:
            mine = [row for row in rows if int(row["seed"]) == r.seed_index]
            assert [int(row["task"]) for row in mine] == list(range(r.config.num_tasks))
            regrets = np.array([float(row["task_regret"]) for row in mine])
            assert regrets.tobytes() == r.per_task_regret.tobytes()
            entered = np.array([bool(int(row["entered_stage2"])) for row in mine])
            assert np.array_equal(entered, r.entered_stage2)
            assert np.array_equal([int(row["tau_after"]) for row in mine], r.width_after)
            assert np.array_equal([int(row["samples_used"]) for row in mine], r.samples_used)

    def test_float_formatting_is_lossless(self):
        rng = np.random.default_rng(0)
        for value in rng.uniform(-1e6, 1e6, size=200):
            assert float(fmt(value)) == value

    def test_texts_match_the_csv_writer_bytes(self):
        # The reference renders the rows the way the csv module does.
        def csv_text(header, rows):
            buf = io.StringIO()
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
            return buf.getvalue()

        def prefix(r):
            c = r.config
            return [c.algorithm, str(c.dim), str(c.rep_dim), str(c.num_tasks), str(c.horizon)]

        def config(algorithm, noise_std):
            return ExperimentConfig(
                algorithm=algorithm, dim=10, rep_dim=2, num_tasks=3, horizon=1000,
                noise_std=noise_std,
            )

        def record(algorithm, noise_std, seed, ts, regrets, **lll_fields):
            return RunRecord(
                config=config(algorithm, noise_std), seed_index=seed,
                ledger=FakeLedger(ts, regrets), **lll_fields,
            )

        def f_string_text(records):
            # The writer's former per-row f-string, the reference for its one `%` call.
            chunks = [",".join(harness.CURVES_HEADER) + "\n"]
            for r in records:
                c = r.config
                prefix = (
                    f"{c.algorithm},{c.dim},{c.rep_dim},{c.num_tasks},{c.horizon},"
                    f"{fmt(c.noise_std)},{r.seed_index},"
                )
                chunks.append("".join([
                    f"{prefix}{t},{c:.17g}\n"
                    for t, c in zip(r.trace_t.tolist(), r.trace_regret.tolist())
                ]))
            return "".join(chunks)

        def stride_0_record():
            ledger = RegretLedger(3, trace_stride=0)
            ledger.record_block(0.1 + 0.2, 7)
            return RunRecord(config=config("e2tc", 1e-300), seed_index=5, ledger=ledger)

        def lll_record(seed, noise_std):
            return record(
                "lll", noise_std, seed, [1500, 3000], [1e-300, 0.1 + 0.2],
                per_task_regret=np.array([0.1 + 0.2, -0.0, 1e-300]),
                entered_stage2=np.array([True, False, True]),
                width_after=np.array([1, 1, 2]),
                samples_used=np.array([40, 0, 1234]),
            )

        curves_cases = [
            [
                record("mtrl", 1.0, 0, [800, 1600, 2400, 3000],
                       [0.1 + 0.2, -0.0, 1e-300, 2.5e7 / 3]),
                record("mtrl", 1.0, 1, [3000], [123.456]),
            ],
            [record("independent", 0.0, 0, [3000], [0.0])],
            [
                record("mtrl", float("inf"), 2, [1000 * t for t in range(1, 8)],
                       [-0.0, float("nan"), float("inf"), -float("inf"), 5e-324, 1e308, 0.1]),
                record("independent", float("nan"), 3, [1], [5e-324]),  # one point
                stride_0_record(),
                record("x%s%%d%", 1e308, 4, [2, 3], [1e308, -0.0]),  # "%" in the prefix
            ],
            [lll_record(0, 1.0), lll_record(1, 0.0)],
        ]
        for records in curves_cases:
            rows = [
                prefix(r) + [fmt(r.config.noise_std), str(r.seed_index), str(int(t)), fmt(c)]
                for r in records
                for t, c in zip(r.trace_t, r.trace_regret)
            ]
            curves_csv = csv_text(harness.CURVES_HEADER, rows)
            assert harness._curves_csv_text(records) == curves_csv == f_string_text(records)

        records = curves_cases[-1]
        rows = [
            prefix(r) + [
                str(r.seed_index), str(task), fmt(r.per_task_regret[task]),
                str(int(r.entered_stage2[task])), str(int(r.width_after[task])),
                str(int(r.samples_used[task])),
            ]
            for r in records
            for task in range(r.config.num_tasks)
        ]
        assert harness._per_task_csv_text(records) == csv_text(harness.PER_TASK_HEADER, rows)


    @pytest.mark.parametrize(
        "doc",
        [
            {},
            [],
            {"a": [], "b": [[]], "c": ()},
            [[1, 2], [3.5, [4, [5.0]]], []],
            {"grid": [[0.5, 1.5], [2, 3]], "outer": {"inner": {"deep": [1, 2, 3]}}},
            {"bools": [True, 1, 2.0], "none": [None, 2.0], "only_bools": [False, True]},
            [float("nan"), float("inf"), -float("inf"), -0.0, 1e-07, 1e16, 2**63 + 1, -(2**70)],
            (1, 2.5, (3, 4.0)),
            {"tuple": (0.1, 0.2), "np": [np.float64(0.1), 0.2], "np_only": [np.float64(3.0)]},
            {"s": "\x001"},
            {"s": "\x000", "l": [1, 2]},
            {"\x000": [1.5]},
            {"s": "\\u0000", "l": [1.0, 2.0]},
            {1: [0.25], 2: "x"},
            [1, 2],
            2.5,
            "text",
            None,
        ],
    )
    def test_json_text_is_the_json_dumps_bytes(self, doc):
        assert harness._json_text(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def test_json_text_of_a_summary(self):
        records, _ = run_experiment(small_config(algorithm="lll", mode="regret"))
        doc = summarize(records)
        assert isinstance(doc["lll"]["mean_per_task_curve"][0], float)
        assert harness._json_text(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    @staticmethod
    def traced_peak(call) -> tuple[object, int]:
        """``call()``'s result and the bytes tracemalloc saw allocated above
        the start at its peak."""
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            result = call()
            return result, tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()

    @staticmethod
    def curves_doc() -> dict:
        """A comparison-shaped document: three 50,000-point mean curves (~7 MB of JSON)."""
        t = np.arange(10, 500_001, 10)
        regret = np.cumsum(np.random.default_rng(0).random(t.size))
        return {
            "summaries": [
                {"algorithm": name, "mean_curve": {"t": t.tolist(), "regret": (regret * i).tolist()}}
                for i, name in enumerate(["mtrl", "e2tc", "independent"], 1)
            ],
            "pairs": [],
        }

    def test_json_text_holds_at_most_twice_its_text(self):
        # The number lists' texts and the joined result; no third copy of the file.
        doc = self.curves_doc()
        text, peak = self.traced_peak(lambda: harness._json_text(doc))
        assert text == json.dumps(doc, indent=2, sort_keys=True) + "\n"
        assert peak < 2.2 * len(text)

    def test_atomic_write_does_not_encode_the_whole_text(self, tmp_path):
        # One slice and its encoding on top of the text, whatever the file's size.
        text = harness._json_text(self.curves_doc())
        assert len(text) >= 7_000_000
        path = tmp_path / "comparison.json"
        _, peak = self.traced_peak(lambda: harness._atomic_write(path, text))
        assert peak < 3 * 2**20
        assert path.read_text() == text


class TestSummarize:
    def fake_record(self, final, seed):
        return RunRecord(
            config=small_config(algorithm="mtrl"),
            seed_index=seed,
            ledger=FakeLedger([1, 2], [final / 2, final]),
        )

    def test_single_record(self):
        out = summarize([self.fake_record(100.0, 0)])
        assert out["final_regret"]["mean"] == 100.0
        assert out["final_regret"]["se"] == 0.0

    def test_two_records_hand_arithmetic(self):
        out = summarize([self.fake_record(100.0, 0), self.fake_record(300.0, 1)])
        assert out["final_regret"]["mean"] == pytest.approx(200.0)
        assert out["final_regret"]["sd"] == pytest.approx(141.4213562373095)

    def test_mean_curve_non_decreasing(self):
        records, _ = run_experiment(small_config(algorithm="mtrl", num_seeds=3))
        curve = summarize(records)["mean_curve"]["regret"]
        assert np.all(np.diff(curve) >= -1e-12)

    def test_rejects_heterogeneous(self):
        a = self.fake_record(1.0, 0)
        b = self.fake_record(1.0, 1)
        b.config = small_config(algorithm="e2tc")
        with pytest.raises(ValueError):
            summarize([a, b])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            summarize([])


class TestCompare:
    def test_self_comparison_is_exactly_zero(self):
        configs = [small_config(algorithm="mtrl"), small_config(algorithm="mtrl")]
        table, _ = compare(configs)
        assert table["pairs"][0]["mean_diff"] == 0.0
        assert table["pairs"][0]["paired_se"] == 0.0

    def test_paired_instances_shared(self):
        table, _ = compare(
            [small_config(algorithm="mtrl"), small_config(algorithm="independent")]
        )
        assert {s["algorithm"] for s in table["summaries"]} == {"mtrl", "independent"}

    def test_mismatched_specs_rejected(self):
        with pytest.raises(ConfigError, match="num_tasks"):
            compare(
                [small_config(algorithm="mtrl"), small_config(algorithm="e2tc", num_tasks=6)]
            )

    def test_first_mismatched_field_is_named(self):
        # every field but algorithm and the ALGORITHMS options, in field order
        other = small_config(
            algorithm="lll", mode="pure_exploration", epsilon=0.3, delta=0.1,
            noise_std=0.5, num_seeds=3, trace_stride=5,
        )
        with pytest.raises(ConfigError) as error:
            compare([small_config(algorithm="mtrl"), other])
        assert str(error.value) == "noise_std: configs must match, got 0.5 vs 1.0"

    def test_algorithm_options_may_differ(self):
        table, _ = compare(
            [
                small_config(algorithm="mtrl", noiseless_oracle=True, noise_std=0.0),
                small_config(algorithm="lll", mode="pure_exploration", epsilon=0.3, noise_std=0.0),
            ]
        )
        assert [s["algorithm"] for s in table["summaries"]] == ["mtrl", "lll"]

    def test_mismatched_out_dir_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="out_dir"):
            compare(
                [
                    small_config(algorithm="mtrl", out_dir=str(tmp_path / "a")),
                    small_config(algorithm="e2tc", out_dir=str(tmp_path / "b")),
                ]
            )
        assert list(tmp_path.iterdir()) == []

    def test_one_pool_serves_every_config_and_every_file(self, tmp_path, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "2")
        created = count_pools(monkeypatch)
        out = str(tmp_path / "cmp")
        _, written = compare(
            [small_config(algorithm=a, out_dir=out) for a in ("mtrl", "e2tc", "independent")]
        )
        assert len(written) == 4
        assert created == [2]
        assert_no_child_left()

    def test_writes_comparison_files(self, tmp_path):
        out = tmp_path / "cmp"
        table, written = compare(
            [
                small_config(algorithm="mtrl", out_dir=str(out)),
                small_config(algorithm="independent", out_dir=str(out)),
            ]
        )
        assert (out / "comparison.json").exists()
        loaded = json.loads((out / "comparison.json").read_text())
        assert loaded["n_seeds"] == SMALL["num_seeds"]


def finished_at(delay: float, value):
    """Sleep ``delay`` seconds; return ``value`` and when it finished."""
    time.sleep(delay)
    return value, time.monotonic()


def touched_or_raised(path: str, error: Exception | None):
    """Create ``path``, then raise ``error`` if there is one."""
    Path(path).touch()
    if error is not None:
        raise error
    return path


def doubled(array: np.ndarray) -> np.ndarray:
    return 2 * array


def killed_or_touched(path: str | None):
    """SIGKILL this process, or sleep a little and create ``path``."""
    if path is None:
        os.kill(os.getpid(), signal.SIGKILL)
    time.sleep(0.2)
    Path(path).touch()


class TestForkPool:
    def test_results_come_back_in_item_order(self):
        # three workers take the three items at once; the last finishes first
        with harness._pool(3) as run_all:
            results = run_all(finished_at, [0.4, 0.2, 0.0], ["a", "b", "c"])
        assert [value for value, _ in results] == ["a", "b", "c"]
        finished = [at for _, at in results]
        assert finished[2] < finished[1] < finished[0]
        assert_no_child_left()

    def test_a_raising_item_raises_after_every_item_ran(self, tmp_path):
        paths = [str(tmp_path / f"item{i}") for i in range(6)]
        errors = [None, ConfigError("x: second"), None, ConfigError("x: fourth"), None, None]
        with pytest.raises(ConfigError) as raised:
            with harness._pool(2) as run_all:
                run_all(touched_or_raised, paths, errors)
        # its own type and message: the first failure in item order
        assert type(raised.value) is ConfigError and str(raised.value) == "x: second"
        assert all(Path(path).exists() for path in paths)
        assert_no_child_left()

    def test_items_and_results_larger_than_a_pipe_buffer(self):
        arrays = [np.arange(2**17, dtype=float), np.ones(3)]  # 1 MiB and 24 B
        with harness._pool(2) as run_all:
            results = run_all(doubled, arrays)
        assert all(np.array_equal(got, 2 * sent) for got, sent in zip(results, arrays))
        assert_no_child_left()

    def test_a_killed_worker_raises_once_the_others_are_reaped(self, tmp_path):
        path = tmp_path / "other"
        with pytest.raises(ChildProcessError, match=r"killed by signal 9 \("):
            with harness._pool(2) as run_all:
                run_all(killed_or_touched, [None, str(path)])
        assert path.exists()  # the other worker's item in flight came back first
        assert_no_child_left()

    def test_keyboard_interrupt_in_the_parent_stops_the_workers(self):
        def interrupt(signum, frame):
            raise KeyboardInterrupt

        previous = signal.signal(signal.SIGALRM, interrupt)
        started = time.monotonic()
        try:
            signal.setitimer(signal.ITIMER_REAL, 0.3)  # forked workers inherit no timer
            with pytest.raises(KeyboardInterrupt):
                with harness._pool(2) as run_all:
                    run_all(time.sleep, [60, 60, 60])
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert time.monotonic() - started < 30
        assert_no_child_left()

    def test_importing_the_package_loads_no_multiprocessing(self):
        src = str(Path(harness.__file__).parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        code = (
            "import sys, lowrank_bandits; "
            "print([m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules])"
        )
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        assert done.stdout == "[]\n"


class TestCli:
    def run_cli(self, *args):
        return main(list(args))

    def test_run_subcommand(self, tmp_path, capsys):
        out = tmp_path / "cli"
        code = self.run_cli(
            "mtrl", "--d", "6", "--k", "2", "--M", "5", "--T", "400",
            "--seeds", "2", "--out-dir", str(out),
        )
        assert code == 0
        assert (out / "curves.csv").exists()
        assert "mean_final" in capsys.readouterr().out

    def test_compare_subcommand(self, tmp_path, capsys):
        out = tmp_path / "clicmp"
        code = self.run_cli(
            "compare", "--d", "6", "--k", "2", "--M", "5", "--T", "400",
            "--seeds", "2", "--algorithms", "mtrl,independent",
            "--out-dir", str(out),
        )
        assert code == 0
        assert (out / "comparison.json").exists()

    def test_compare_writes_a_curves_csv_per_config(self, tmp_path, capsys):
        out = tmp_path / "cmp"
        code = self.run_cli(
            "compare", "--algorithms", "mtrl,lll", "--d", "6", "--k", "2", "--M", "5",
            "--T", "400", "--seeds", "2", "--epsilon", "0.3", "--out-dir", str(out),
        )
        assert code == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "comparison.json", "curves_0_mtrl.csv", "curves_1_lll.csv", "per_task_1_lll.csv",
        ]
        rows = csv_rows(out / "per_task_1_lll.csv", harness.PER_TASK_HEADER)
        assert {int(row["seed"]) for row in rows} == {0, 1}

    def test_compare_files_do_not_depend_on_the_worker_count(
        self, tmp_path, capsys, monkeypatch
    ):
        # 3 workers leave some idle in the shared pool: 3 seeds, 4 files.
        runs = {}
        for workers in ("1", "2", "3"):
            monkeypatch.setenv(WORKERS_ENV_VAR, workers)
            out = tmp_path / f"w{workers}"
            code = self.run_cli(
                "compare", "--algorithms", "mtrl,lll", "--mode", "pure_exploration",
                "--epsilon", "0.3", "--d", "6", "--k", "2", "--M", "5", "--T", "400",
                "--seeds", "3", "--out-dir", str(out),
            )
            assert code == 0
            printed = capsys.readouterr().out.replace(str(out), "<out>")
            files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
            runs[workers] = printed, files
        serial_out, serial_files = runs["1"]
        names = ["comparison.json", "curves_0_mtrl.csv", "curves_1_lll.csv", "per_task_1_lll.csv"]
        assert list(serial_files) == names
        for pooled_out, pooled_files in (runs["2"], runs["3"]):
            assert serial_files == pooled_files
            assert serial_out == pooled_out
        wrote = [line for line in serial_out.splitlines() if line.startswith("wrote ")]
        assert wrote == [f"wrote <out>/{name}" for name in names]

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_failed_write_in_a_worker_exits_2(self, tmp_path, capsys, monkeypatch, workers):
        monkeypatch.setenv(WORKERS_ENV_VAR, workers)
        out = tmp_path / "cmp"
        (out / "comparison.json").mkdir(parents=True)
        code = self.run_cli(
            "compare", "--algorithms", "mtrl,independent", "--d", "6", "--k", "2",
            "--M", "5", "--T", "400", "--seeds", "2", "--out-dir", str(out),
        )
        assert code == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "IsADirectoryError"
        assert "comparison.json" in err["message"]
        assert [p.name for p in out.iterdir() if p.name.startswith(".")] == []
        assert (out / "comparison.json").is_dir()
        # every other job still ran, whatever the worker count
        assert sorted(p.name for p in out.iterdir()) == [
            "comparison.json", "curves_0_mtrl.csv", "curves_1_independent.csv"
        ]

    def test_failed_run_in_the_shared_pool_exits_2(self, tmp_path, capsys, monkeypatch):
        # independent runs; then mtrl's Stage 1 does not fit in T=100, in a worker.
        monkeypatch.setenv(WORKERS_ENV_VAR, "2")
        out = tmp_path / "D"
        code = self.run_cli(
            "compare", "--algorithms", "independent,mtrl", "--d", "10", "--k", "2",
            "--M", "2", "--T", "100", "--seeds", "2", "--out-dir", str(out),
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "HorizonTooShortError"
        assert not out.exists()
        assert_no_child_left()

    def test_killed_worker_exits_2(self, tmp_path, capsys, monkeypatch):
        # A worker killed mid-run, as the OOM killer kills: the run stops, with
        # one JSON line naming the signal, once the other worker is reaped.
        monkeypatch.setenv(WORKERS_ENV_VAR, "2")
        parent = os.getpid()

        def killed(*args, **kwargs):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)

        monkeypatch.setattr(harness, "run_mtrl", killed)
        out = tmp_path / "D"
        code = self.run_cli(
            "mtrl", "--d", "6", "--k", "2", "--M", "5", "--T", "400", "--seeds", "2",
            "--out-dir", str(out),
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "ChildProcessError"
        assert "killed by signal 9" in err["message"]
        assert not out.exists()
        assert_no_child_left()

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"d": 6, "k": 2, "M": 5, "T": 400, "seeds": 1}))
        out = tmp_path / "from_file"
        code = self.run_cli(
            "independent", "--config", str(config_path), "--seeds", "2",
            "--out-dir", str(out),
        )
        assert code == 0
        rows = csv_rows(out / "curves.csv", harness.CURVES_HEADER)
        assert {int(row["seed"]) for row in rows} == {0, 1}  # flag overrode the file

    @pytest.mark.parametrize(
        "command,written", [("mtrl", "summary.json"), ("compare", "comparison.json")]
    )
    def test_noise_std_spelling_does_not_change_the_bytes(
        self, tmp_path, capsys, command, written
    ):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"d": 6, "k": 2, "M": 5, "T": 400, "noise_std": 1}))
        from_file, from_flag = tmp_path / "from_file", tmp_path / "from_flag"
        assert self.run_cli(
            command, "--config", str(config_path), "--seeds", "2", "--out-dir", str(from_file)
        ) == 0
        assert self.run_cli(
            command, "--d", "6", "--k", "2", "--M", "5", "--T", "400", "--noise-std", "1",
            "--seeds", "2", "--out-dir", str(from_flag),
        ) == 0
        assert (from_file / written).read_bytes() == (from_flag / written).read_bytes()
        assert '"noise_std": 1.0' in (from_file / written).read_text()

    def test_pure_exploration_budget_beyond_int64_is_rejected(self, capsys):
        code = self.run_cli("lll", "--mode", "pure_exploration", "--epsilon", "1e-9")
        assert code == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "ConfigError"
        assert err["message"].startswith("epsilon: 1e-09 allows up to")

    def test_pure_exploration_past_the_horizon_runs_without_out_dir(self, capsys):
        # ~2.5e12 pulls: at stride 10, the trace grid alone would take 1.8 TiB.
        code = self.run_cli(
            "lll", "--mode", "pure_exploration", "--epsilon", "1e-4", "--M", "5", "--T", "100",
            "--seeds", "1",
        )
        assert code == 0
        assert capsys.readouterr().out.startswith("lll: n=1 mean_final=")

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_trace_past_memory_exits_2(self, tmp_path, workers):
        # The same run with --out-dir: its curves and mean curve need a 1.80 TiB
        # grid.  An address-space limit makes the allocation fail on any host.
        out = tmp_path / "out"
        args = ["lll", "--mode", "pure_exploration", "--epsilon", "1e-4", "--M", "5", "--T",
                "100", "--seeds", "1", "--out-dir", str(out)]
        src = str(Path(harness.__file__).parents[1])
        env = {**os.environ, WORKERS_ENV_VAR: workers, "OPENBLAS_NUM_THREADS": "1",
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        limit = 4 * 2**30
        done = subprocess.run(
            [sys.executable, "-m", "lowrank_bandits", *args], env=env, capture_output=True,
            text=True, timeout=120,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        )
        assert done.returncode == 2, done.stderr
        lines = done.stderr.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "MemoryError"
        assert err["message"].startswith("Unable to allocate 1.80 TiB")
        assert done.stdout == ""
        # the per-task file still gets written, whatever the worker count
        assert sorted(p.name for p in out.iterdir()) == ["per_task.csv"]

    @pytest.mark.parametrize("command", list(harness.ALGORITHMS))
    @pytest.mark.parametrize("noise_std,code", [("1e308", 2), (repr(MAX_NOISE_STD), 0)])
    def test_noise_std_bound(self, capsys, monkeypatch, command, noise_std, code):
        monkeypatch.setenv(WORKERS_ENV_VAR, "1")  # a warning in the run reaches this process
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert self.run_cli(
                command, "--d", "6", "--k", "2", "--M", "5", "--T", "400", "--seeds", "1",
                "--noise-std", noise_std,
            ) == code
        lines = capsys.readouterr().err.splitlines()
        if code == 0:
            assert lines == []
        else:
            assert len(lines) == 1
            assert json.loads(lines[0]) == {
                "error": "ConfigError",
                "message": "noise_std: must be in [0, 1e+100], got 1e+308",
            }

    def test_error_exit_code_and_message(self, capsys):
        code = self.run_cli("mtrl", "--d", "0")
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert "dim" in err["message"]

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        config_path = tmp_path / "bad.json"
        config_path.write_text(json.dumps({"bogus": 1}))
        assert self.run_cli("mtrl", "--config", str(config_path)) == 2

    @pytest.mark.parametrize(
        "command,text,message",
        [
            ("mtrl", '{"T": 1e4}', "horizon: must be an integer"),
            ("mtrl", '{"d": "10"}', "dim: must be an integer"),
            ("mtrl", '{"seeds": true}', "num_seeds: must be an integer"),
            ("mtrl", '{"noise_std": Infinity}', "noise_std: must be a finite"),
            ("mtrl", '{"delta": NaN}', "delta: must be a finite"),
            ("mtrl", '{"noiseless_oracle": "false"}', "noiseless_oracle: must be a boolean"),
            ("mtrl", '{"out_dir": 5}', "out_dir: must be a string"),
            ("compare", '{"noise_std": NaN}', "noise_std: must be a finite"),
            ("compare", '{"algorithms": 5}', "algorithms: must be a string"),
            ("mtrl", '{"mode": "bogus"}', "mode: must be one of"),
            ("independent", '{"delta": 5.0}', "delta: must be in (0, 1)"),
            ("mtrl", '{"epsilon": -3}', "epsilon: must be in (0, 1)"),
            ("compare", '{"mode": "bogus"}', "mode: must be one of"),
            ("mtrl", '{"algorithms": "lll"}', "config: unknown keys for mtrl: ['algorithms']"),
        ],
    )
    def test_config_file_types_checked(self, tmp_path, capsys, command, text, message):
        config_path = tmp_path / "bad.json"
        config_path.write_text(text)
        assert self.run_cli(command, "--config", str(config_path)) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "ConfigError"
        assert err["message"].startswith(message)

    # (config-file key, flag arguments, ExperimentConfig field, non-default value)
    KEY_FIELD_ROWS = [
        ("d", ["--d", "12"], "dim", 12),
        ("k", ["--k", "3"], "rep_dim", 3),
        ("M", ["--M", "30"], "num_tasks", 30),
        ("T", ["--T", "20000"], "horizon", 20_000),
        ("noise_std", ["--noise-std", "0.5"], "noise_std", 0.5),
        ("epsilon", ["--epsilon", "0.2"], "epsilon", 0.2),
        ("delta", ["--delta", "0.1"], "delta", 0.1),
        ("mode", ["--mode", "pure_exploration"], "mode", "pure_exploration"),
        # no upper bound: SeedSequence takes any non-negative int
        ("master_seed", ["--master-seed", str(2**64)], "master_seed", 2**64),
        ("noiseless_oracle", ["--noiseless-oracle"], "noiseless_oracle", True),
        ("seeds", ["--seeds", "3"], "num_seeds", 3),
        ("master_seed", ["--master-seed", "7"], "master_seed", 7),
        ("trace_stride", ["--trace-stride", "5"], "trace_stride", 5),
        ("out_dir", ["--out-dir", "some/dir"], "out_dir", "some/dir"),
    ]

    def captured_configs(self, monkeypatch, *args):
        """The configs ``main`` hands to the harness, without running them."""
        seen = []

        def fake_run(config):
            seen.append(config)
            return [SimpleNamespace(final_regret=0.0)], []

        def fake_compare(configs):
            seen.extend(configs)
            return {"summaries": [], "pairs": []}, []

        monkeypatch.setattr("lowrank_bandits.cli.run_experiment", fake_run)
        monkeypatch.setattr("lowrank_bandits.cli.compare", fake_compare)
        assert self.run_cli(*args) == 0
        return seen

    @pytest.mark.parametrize("key,flags,field,value", KEY_FIELD_ROWS)
    def test_config_key_reaches_its_field(self, tmp_path, monkeypatch, key, flags, field, value):
        assert getattr(ExperimentConfig(), field) != value  # the row tests a change
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({key: value}))
        expected = ExperimentConfig(algorithm="lll", **{field: value})
        assert self.captured_configs(monkeypatch, "lll", "--config", str(config_path)) == [expected]
        assert self.captured_configs(monkeypatch, "lll", *flags) == [expected]

    def test_option_table_covers_the_config(self):
        flags = [flag for flag, _, _, _ in cli._OPTIONS]
        option_fields = [field for _, field, _, _ in cli._OPTIONS]
        config_fields = [f.name for f in fields(ExperimentConfig) if f.name != "algorithm"]
        assert sorted(option_fields) == sorted(config_fields)  # one row per field
        assert len(set(flags)) == len(flags)
        assert len(cli._KEY_FIELDS) == len(flags)  # no key twice
        # Each key is its flag's argparse dest, which is where main reads it.
        assert set(cli._KEY_FIELDS) <= set(vars(cli.build_parser().parse_args(["mtrl"])))

    @pytest.mark.parametrize("command", harness.ALGORITHMS)
    def test_no_options_give_the_config_defaults(self, monkeypatch, command):
        assert self.captured_configs(monkeypatch, command) == [ExperimentConfig(algorithm=command)]

    def test_compare_defaults(self, monkeypatch):
        configs = self.captured_configs(monkeypatch, "compare")
        assert configs == [
            ExperimentConfig(algorithm=name) for name in ("mtrl", "e2tc", "independent")
        ]

    @pytest.mark.parametrize(
        "args,message",
        [
            (["mtrl", "--T", "1e4"], "argument --T: invalid int value"),
            (["mtrl", "--mode", "greedy"], "argument --mode: invalid choice"),
            (["mtrl", "--bogus", "1"], "unrecognized arguments"),
            (["bogus"], "argument command: invalid choice"),
            ([], "the following arguments are required: command"),
            (["e2tc", "--noiseless-oracle", "--noise-std", "0"],
             "noiseless_oracle: not supported for 'e2tc'"),
            (["lll", "--mode", "regret", "--noiseless-oracle", "--noise-std", "0"],
             "noiseless_oracle: not supported for 'lll'"),
            (["mtrl", "--noiseless-oracle"], "noiseless_oracle: requires noise_std == 0"),
        ],
    )
    def test_bad_flags_give_one_json_line(self, capsys, args, message):
        assert self.run_cli(*args) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "ConfigError"
        assert message in err["message"]
        assert captured.out == ""

    # Curves are CSV only and the lll log factor is always log(2dM/delta), so
    # neither a format nor a log-factor option exists: both are unknown.
    @pytest.mark.parametrize(
        "args,config,message",
        [
            (["mtrl", "--format", "json"], None, "unrecognized arguments: --format json"),
            (["mtrl", "--format", "csv"], None, "unrecognized arguments: --format csv"),
            (["compare", "--format", "csv"], None, "unrecognized arguments: --format csv"),
            (["mtrl"], {"format": "csv"}, "config: unknown keys for mtrl: ['format']"),
            (["mtrl", "--log-arg", "union"], None, "unrecognized arguments: --log-arg union"),
            (["e2tc"], {"log_arg": "union"}, "config: unknown keys for e2tc: ['log_arg']"),
            (["lll", "--log-arg", "plain"], None, "unrecognized arguments: --log-arg plain"),
        ],
    )
    def test_format_option_is_unknown(self, tmp_path, capsys, args, config, message):
        out = tmp_path / "out"
        shape = ["--d", "6", "--k", "2", "--M", "5", "--T", "400", "--seeds", "2"]
        if config is not None:
            config_path = tmp_path / "config.json"
            config_path.write_text(json.dumps(config))
            shape += ["--config", str(config_path)]
        assert self.run_cli(*args, *shape, "--out-dir", str(out)) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {"error": "ConfigError", "message": message}
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("args", [["--help"], ["mtrl", "--help"]])
    def test_help_exits_zero(self, capsys, args):
        with pytest.raises(SystemExit) as exc:
            self.run_cli(*args)
        assert exc.value.code == 0
        assert "usage: lowrank-bandits" in capsys.readouterr().out
