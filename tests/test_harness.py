import json
import os

import numpy as np
import pytest

from lowrank_bandits import harness
from lowrank_bandits.cli import main
from lowrank_bandits.errors import ConfigError
from lowrank_bandits.harness import (
    WORKERS_ENV_VAR,
    ExperimentConfig,
    RunRecord,
    compare,
    fmt,
    read_curves_csv,
    read_per_task_csv,
    replicate_seed_sequences,
    run_experiment,
    summarize,
)

SMALL = dict(dim=6, rep_dim=2, num_tasks=5, horizon=400, num_seeds=2, trace_stride=25)


def small_config(**overrides):
    merged = {**SMALL, **overrides}
    return ExperimentConfig(**merged)


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

    def test_worker_count_does_not_change_output(self, tmp_path, monkeypatch):
        out_a = tmp_path / "w1"
        out_b = tmp_path / "w4"
        monkeypatch.setenv(WORKERS_ENV_VAR, "1")
        run_experiment(small_config(algorithm="independent", num_seeds=4, out_dir=str(out_a)))
        monkeypatch.setenv(WORKERS_ENV_VAR, "4")
        run_experiment(small_config(algorithm="independent", num_seeds=4, out_dir=str(out_b)))
        assert (out_a / "curves.csv").read_bytes() == (out_b / "curves.csv").read_bytes()
        assert (out_a / "summary.json").read_bytes() == (out_b / "summary.json").read_bytes()

    def test_trace_ends_at_total_pulls(self):
        records, _ = run_experiment(small_config(algorithm="mtrl"))
        for record in records:
            assert record.trace_t[-1] == SMALL["num_tasks"] * SMALL["horizon"]
            assert np.all(np.diff(record.trace_regret) >= -1e-12)

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

    def test_json_output_format(self, tmp_path):
        out = tmp_path / "json"
        config = small_config(algorithm="mtrl", output_format="json", out_dir=str(out))
        run_experiment(config)
        rows = json.loads((out / "curves.json").read_text())
        assert rows and set(rows[0]) == {
            "algo", "d", "k", "M", "T", "noise_std", "seed", "t", "cum_regret",
        }

    def test_no_stray_temp_files(self, tmp_path):
        out = tmp_path / "clean"
        run_experiment(small_config(algorithm="mtrl", out_dir=str(out)))
        leftovers = [p for p in out.iterdir() if p.name.startswith(".")]
        assert leftovers == []

    def test_worker_count_follows_cpu_affinity(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV_VAR, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        assert harness._worker_count(num_seeds=20) == 3
        assert harness._worker_count(num_seeds=2) == 2
        monkeypatch.delattr(os, "sched_getaffinity")
        assert harness._worker_count(num_seeds=20) == 20
        monkeypatch.setenv(WORKERS_ENV_VAR, "5")
        assert harness._worker_count(num_seeds=20) == 5
        monkeypatch.setenv(WORKERS_ENV_VAR, "five")
        with pytest.raises(ConfigError, match=WORKERS_ENV_VAR):
            harness._worker_count(num_seeds=20)

    def test_invalid_config_names_field(self):
        with pytest.raises(ConfigError, match="algorithm"):
            run_experiment(small_config(algorithm="ucb"))
        with pytest.raises(ConfigError, match="num_seeds"):
            run_experiment(small_config(num_seeds=0))
        with pytest.raises(ConfigError, match="epsilon"):
            run_experiment(small_config(algorithm="lll", mode="pure_exploration"))


class TestRoundTrip:
    def test_curves_round_trip(self, tmp_path):
        out = tmp_path / "rt"
        config = small_config(algorithm="e2tc", out_dir=str(out))
        records, _ = run_experiment(config)
        parsed = read_curves_csv(out / "curves.csv")
        assert len(parsed) == len(records)
        for original, loaded in zip(records, parsed):
            assert loaded.algorithm == original.algorithm
            assert (loaded.dim, loaded.rep_dim) == (original.dim, original.rep_dim)
            assert (loaded.num_tasks, loaded.horizon) == (
                original.num_tasks,
                original.horizon,
            )
            assert loaded.noise_std == original.noise_std
            assert loaded.seed_index == original.seed_index
            assert np.array_equal(loaded.trace_t, original.trace_t)
            assert np.array_equal(loaded.trace_regret, original.trace_regret)
            assert loaded.final_regret == original.final_regret

    def test_per_task_round_trip(self, tmp_path):
        out = tmp_path / "rt2"
        config = small_config(
            algorithm="lll", mode="pure_exploration", epsilon=0.3, out_dir=str(out)
        )
        records, _ = run_experiment(config)
        parsed = read_per_task_csv(out / "per_task.csv")
        for original, loaded in zip(records, parsed):
            assert np.array_equal(loaded.per_task_regret, original.per_task_regret)
            assert np.array_equal(loaded.entered_stage2, original.entered_stage2)
            assert np.array_equal(loaded.width_after, original.width_after)
            assert np.array_equal(loaded.samples_used, original.samples_used)

    def test_float_formatting_is_lossless(self):
        rng = np.random.default_rng(0)
        for value in rng.uniform(-1e6, 1e6, size=200):
            assert float(fmt(value)) == value


class TestSummarize:
    def fake_record(self, final, seed):
        return RunRecord(
            algorithm="mtrl",
            dim=6,
            rep_dim=2,
            num_tasks=5,
            horizon=400,
            noise_std=1.0,
            seed_index=seed,
            final_regret=final,
            trace_t=np.array([1, 2]),
            trace_regret=np.array([final / 2, final]),
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
        b.algorithm = "e2tc"
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

    def test_writes_comparison_files(self, tmp_path):
        out = tmp_path / "cmp"
        table, written = compare(
            [small_config(algorithm="mtrl"), small_config(algorithm="independent")],
            out_dir=str(out),
        )
        assert (out / "comparison.json").exists()
        loaded = json.loads((out / "comparison.json").read_text())
        assert loaded["n_seeds"] == SMALL["num_seeds"]


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

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"d": 6, "k": 2, "M": 5, "T": 400, "seeds": 1}))
        out = tmp_path / "from_file"
        code = self.run_cli(
            "independent", "--config", str(config_path), "--seeds", "2",
            "--out-dir", str(out),
        )
        assert code == 0
        parsed = read_curves_csv(out / "curves.csv")
        assert {r.seed_index for r in parsed} == {0, 1}  # flag overrode the file

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
