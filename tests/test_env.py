import itertools
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from lowrank_bandits import env
from lowrank_bandits.env import (
    ACTION_NORM_ATOL,
    INTERLEAVED_CHUNK,
    BanditInstance,
    InstanceSpec,
    RegretLedger,
    generate_instance,
    instant_regret,
    instant_regret_many,
    pull_block_mean,
    pull_many,
)
from lowrank_bandits.errors import ConfigError, InfeasibleActionError
from lowrank_bandits.linalg import kth_singular_value, subspace_distance


def small_instance(noise_std=1.0, seed=0, **overrides):
    spec = InstanceSpec(
        dim=overrides.pop("dim", 6),
        rep_dim=overrides.pop("rep_dim", 2),
        num_tasks=overrides.pop("num_tasks", 5),
        horizon=overrides.pop("horizon", 100),
        noise_std=noise_std,
        seed=seed,
    )
    return generate_instance(spec)


class TestInstanceSpec:
    @pytest.mark.parametrize(
        "kwargs,field",
        [
            (dict(dim=0), "dim"),
            (dict(rep_dim=0), "rep_dim"),
            (dict(rep_dim=11), "rep_dim"),
            (dict(rep_dim=4, num_tasks=3), "num_tasks"),
            (dict(horizon=0), "horizon"),
            (dict(noise_std=-1.0), "noise_std"),
            (dict(horizon=1e4), "horizon"),
            (dict(dim="10"), "dim"),
            (dict(num_tasks=True, rep_dim=1), "num_tasks"),
            (dict(noise_std=float("inf")), "noise_std"),
            (dict(noise_std="1.0"), "noise_std"),
            (dict(seed=1.5), "seed"),
            (dict(seed=-1), "seed"),
        ],
    )
    def test_invalid_specs_name_the_field(self, kwargs, field):
        base = dict(dim=10, rep_dim=2, num_tasks=25, horizon=100, noise_std=1.0, seed=0)
        base.update(kwargs)
        with pytest.raises(ConfigError, match=field):
            InstanceSpec(**base).validate()


class TestGenerateInstance:
    def test_full_rank_basis_spans_everything(self):
        inst = generate_instance(InstanceSpec(4, 4, 6, 10, 1.0, seed=3))
        assert subspace_distance(inst.basis, np.eye(4)) <= 1e-8

    def test_invariants(self):
        inst = small_instance(seed=11)
        inst.check_invariants()
        assert np.max(np.abs(np.linalg.norm(inst.thetas, axis=0) - 1.0)) <= 1e-10
        assert kth_singular_value(inst.thetas, inst.rep_dim) > 1e-8
        assert np.allclose(inst.thetas, inst.basis @ inst.task_weights)

    def test_seed_reproducibility(self):
        a = small_instance(seed=21)
        b = small_instance(seed=21)
        assert np.array_equal(a.thetas, b.thetas)
        assert np.array_equal(a.basis, b.basis)

    def test_distinct_seeds_differ(self):
        a = generate_instance(InstanceSpec(10, 2, 25, 100, 1.0, seed=1))
        b = generate_instance(InstanceSpec(10, 2, 25, 100, 1.0, seed=2))
        assert np.max(np.abs(a.thetas - b.thetas)) > 1e-3

    def test_missing_seed_without_rng(self):
        with pytest.raises(ConfigError, match="seed"):
            generate_instance(InstanceSpec(4, 2, 4, 10, 1.0, seed=None))

    def test_kth_singular_value_scale(self):
        # sigma_k of the coefficient matrix concentrates near sqrt(M/k)
        hits = 0
        for seed in range(100):
            inst = generate_instance(InstanceSpec(10, 2, 25, 10, 1.0, seed=1000 + seed))
            if kth_singular_value(inst.thetas, 2) >= 0.5 * np.sqrt(25 / 2):
                hits += 1
        assert hits >= 90


class TestPull:
    def test_noiseless_aligned_action(self):
        inst = small_instance(noise_std=0.0)
        theta = inst.thetas[:, 0]
        assert pull_many(inst, 0, theta, np.random.default_rng(0))[0] == pytest.approx(1.0, abs=1e-12)

    def test_noiseless_orthogonal_action(self):
        inst = small_instance(noise_std=0.0)
        theta = inst.thetas[:, 1]
        probe = np.zeros(inst.dim)
        probe[0] = 1.0
        orth = probe - theta * (theta @ probe)
        orth /= np.linalg.norm(orth)
        assert pull_many(inst, 1, orth, np.random.default_rng(0))[0] == pytest.approx(0.0, abs=1e-12)

    def test_infeasible_action_rejected(self):
        inst = small_instance()
        with pytest.raises(InfeasibleActionError):
            pull_many(inst, 0, np.full(inst.dim, 1.0), np.random.default_rng(0))

    def test_bad_task_rejected(self):
        inst = small_instance()
        with pytest.raises(ValueError):
            pull_many(inst, inst.num_tasks, np.zeros(inst.dim), np.random.default_rng(0))
        with pytest.raises(ValueError):
            instant_regret(inst, -1, np.zeros(inst.dim))

    def test_noisy_mean_concentrates(self):
        inst = small_instance(noise_std=1.0, seed=5)
        action = inst.thetas[:, 2] * 0.7
        rewards = pull_many(
            inst, 2, np.tile(action, (100_000, 1)), np.random.default_rng(6)
        )
        assert abs(rewards.mean() - 0.7) <= 3 / np.sqrt(100_000) * 1.1

    @staticmethod
    def batch(inst, task):
        rng = np.random.default_rng(16)
        units = rng.standard_normal((40, inst.dim))
        units /= np.linalg.norm(units, axis=1, keepdims=True)
        theta = inst.thetas[:, task]
        return np.vstack([units, theta, -theta, 0.5 * theta, np.zeros(inst.dim)])

    @pytest.mark.parametrize("noise_std", [0.0, 0.7])
    def test_regrets_row_is_instant_regret_many_bit_for_bit(self, noise_std):
        inst = small_instance(noise_std=noise_std, seed=15)
        actions = self.batch(inst, 2)
        rng, twin = np.random.default_rng(3), np.random.default_rng(3)
        matrix = np.full((3, len(actions)), np.nan)
        rewards = pull_many(inst, 2, actions, rng, regrets=matrix[1])
        assert matrix[1].tobytes() == instant_regret_many(inst, 2, actions).tobytes()
        assert np.isnan(matrix[[0, 2]]).all()
        means = actions @ inst.thetas[:, 2]
        expected = means + inst.noise_std * twin.standard_normal(len(actions))
        assert rewards.tobytes() == expected.tobytes()
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_regrets_row_of_another_length_rejected(self):
        inst = small_instance()
        actions = self.batch(inst, 0)
        with pytest.raises(ValueError, match="regrets shape"):
            pull_many(inst, 0, actions, np.random.default_rng(0), regrets=np.empty(len(actions) - 1))

    def test_block_mean_matches_noiseless_mean(self):
        inst = small_instance(noise_std=0.0)
        action = inst.thetas[:, 3]
        value, _ = pull_block_mean(inst, 3, action, 17, np.random.default_rng(0))
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_block_mean_variance_scale(self):
        inst = small_instance(noise_std=1.0, seed=9)
        action = np.zeros(inst.dim)
        rng = np.random.default_rng(7)
        draws = np.array([pull_block_mean(inst, 0, action, 400, rng)[0] for _ in range(2000)])
        # sample mean of 400 unit-noise pulls has sd 0.05
        assert abs(draws.std(ddof=1) - 0.05) < 0.005


class TestBlockMeanPair:
    """``pull_block_mean`` returns ``(mean_reward, regret)`` from one evaluation."""

    def actions(self, inst, task):
        rng = np.random.default_rng(12)
        units = rng.standard_normal((6, inst.dim))
        units /= np.linalg.norm(units, axis=1, keepdims=True)
        theta = inst.thetas[:, task]
        return [*units, theta, -theta, 0.5 * theta, np.zeros(inst.dim)]

    @pytest.mark.parametrize("task", [0, 4])
    def test_regret_is_instant_regret_bit_for_bit(self, task):
        inst = small_instance(seed=13)
        rng = np.random.default_rng(0)
        for action in self.actions(inst, task):
            _, regret = pull_block_mean(inst, task, action, 9, rng)
            assert regret.hex() == instant_regret(inst, task, action).hex()

    @pytest.mark.parametrize("count", [1, 17, 400, 2**40])
    def test_reward_is_the_old_formula_with_one_normal(self, count):
        inst = small_instance(noise_std=0.7, seed=14)
        for action in self.actions(inst, 2):
            rng, twin = np.random.default_rng(count), np.random.default_rng(count)
            reward, _ = pull_block_mean(inst, 2, action, count, rng)
            mean = float(action @ inst.thetas[:, 2])
            expected = mean + inst.noise_std / np.sqrt(count) * float(twin.standard_normal())
            assert reward.hex() == float(expected).hex()
            assert rng.bit_generator.state == twin.bit_generator.state


class TestInstantRegret:
    def test_extremes(self):
        inst = small_instance(noise_std=0.0)
        theta = inst.thetas[:, 0]
        assert instant_regret(inst, 0, theta) == pytest.approx(0.0, abs=1e-12)
        assert instant_regret(inst, 0, -theta) == pytest.approx(2.0, abs=1e-12)
        assert instant_regret(inst, 0, np.zeros(inst.dim)) == pytest.approx(1.0)

    def test_noise_free_no_rng_needed(self):
        inst = small_instance(noise_std=100.0)
        values = {instant_regret(inst, 0, inst.thetas[:, 0] * 0.5) for _ in range(5)}
        assert len(values) == 1

    def test_vectorized_matches_scalar(self):
        inst = small_instance(seed=31)
        rng = np.random.default_rng(0)
        actions = rng.standard_normal((9, inst.dim))
        actions /= np.linalg.norm(actions, axis=1, keepdims=True)
        batch = instant_regret_many(inst, 1, actions)
        singles = [instant_regret(inst, 1, a) for a in actions]
        assert np.allclose(batch, singles, atol=1e-15)


ORACLES = {
    "pull_many": lambda inst, task, a: pull_many(inst, task, a, np.random.default_rng(0)),
    "pull_block_mean": lambda inst, task, a: pull_block_mean(
        inst, task, a, 3, np.random.default_rng(0)
    ),
    "instant_regret": instant_regret,
    "instant_regret_many": instant_regret_many,
}
BATCH_ORACLES = {"pull_many", "instant_regret_many"}


class TestOracleBoundary:
    """Every oracle checks the task index, the action dimension and the unit ball."""

    @pytest.mark.parametrize(
        "case,error",
        [
            ("task -1", ValueError),
            ("task num_tasks", ValueError),
            ("wrong dimension", ValueError),
            ("norm 1.5", InfeasibleActionError),
            ("nan", InfeasibleActionError),
        ],
    )
    @pytest.mark.parametrize("oracle", sorted(ORACLES))
    def test_bad_input_rejected(self, oracle, case, error):
        inst = small_instance()
        dim = inst.dim + 1 if case == "wrong dimension" else inst.dim
        action = np.eye(dim)[0] * {"norm 1.5": 1.5, "nan": np.nan}.get(case, 1.0)  # nan: all NaN
        task = {"task -1": -1, "task num_tasks": inst.num_tasks}.get(case, 0)
        if oracle in BATCH_ORACLES:  # the bad row behind a good one
            action = np.vstack([np.zeros(dim), action])
        with pytest.raises(error) as caught:
            ORACLES[oracle](inst, task, action)
        assert type(caught.value) is error
        ORACLES[oracle](inst, 0, np.eye(inst.dim)[0])  # the same call with good input passes

    @pytest.mark.parametrize("shape", ["(1, d)", "(d, 1)", "(2, d)"])
    @pytest.mark.parametrize("oracle", sorted(set(ORACLES) - BATCH_ORACLES))
    def test_one_action_oracles_reject_other_shapes(self, oracle, shape):
        inst = small_instance()
        rows = np.eye(inst.dim)[:2] / 2  # unit-ball rows: only the shape is wrong
        action = {"(1, d)": rows[:1], "(d, 1)": rows[:1].T, "(2, d)": rows}[shape]
        with pytest.raises(ValueError, match=re.escape(f"got shape {action.shape}")):
            ORACLES[oracle](inst, 0, action)
        ORACLES[oracle](inst, 0, rows[0])  # the same call with one action passes

    def test_strided_action_keeps_its_bits(self):
        # A basis column is a strided view; the oracle must give the bits of
        # its contiguous copy.  With one task, theta is contiguous too, and
        # the dot product's bits then depend on the action's layout.
        inst = small_instance(dim=13, seed=4, rep_dim=1, num_tasks=1)
        columns = np.linalg.qr(np.random.default_rng(6).standard_normal((13, 13)))[0]
        for j in range(13):
            column = columns[:, j]
            expected = instant_regret(inst, 0, column.copy())
            assert instant_regret(inst, 0, column).hex() == expected.hex()
            _, regret = pull_block_mean(inst, 0, column, 5, np.random.default_rng(j))
            assert regret.hex() == expected.hex()

    SHAPES = [(oracle, "one") for oracle in sorted(ORACLES)] + [
        (oracle, "batch") for oracle in sorted(BATCH_ORACLES)
    ]

    @staticmethod
    def shaped(inst, action, shape):
        if shape == "batch":  # the bad row behind a good one
            return np.vstack([np.eye(inst.dim)[1], action])
        return action

    @pytest.mark.parametrize("oracle,shape", SHAPES)
    def test_unit_ball_tolerance(self, oracle, shape):
        inst = small_instance()
        direction = np.full(inst.dim, 1.0 / np.sqrt(inst.dim))
        inside = direction * (1.0 + 0.5 * ACTION_NORM_ATOL)
        ORACLES[oracle](inst, 0, self.shaped(inst, inside, shape))
        outside = direction * (1.0 + 2.0 * ACTION_NORM_ATOL)
        with pytest.raises(InfeasibleActionError, match="exceeds the unit ball"):
            ORACLES[oracle](inst, 0, self.shaped(inst, outside, shape))

    @pytest.mark.filterwarnings("error")  # rejected with the error alone, no overflow warning
    @pytest.mark.parametrize("entry", [np.inf, -np.inf, 1e200])  # 1e200**2 overflows
    @pytest.mark.parametrize("oracle,shape", SHAPES)
    def test_huge_entries_rejected(self, oracle, shape, entry):
        inst = small_instance()
        action = np.zeros(inst.dim)
        action[-1] = entry
        with pytest.raises(InfeasibleActionError):
            ORACLES[oracle](inst, 0, self.shaped(inst, action, shape))


class TestRegretLedger:
    def brute_force(self, events, stride):
        """Oracle: replay events pull by pull and thin the cumulative sums."""
        flat = []
        for kind, payload in events:
            if kind == "block":
                value, count = payload
                flat.extend([value] * count)
            elif kind == "array":
                flat.extend(payload)
            else:  # interleaved matrix
                matrix = np.asarray(payload)
                flat.extend(matrix.T.ravel())
        cums = np.cumsum(flat)
        ts = np.arange(stride, len(flat) + 1, stride)
        trace_t = list(ts)
        trace_c = list(cums[ts - 1])
        if not trace_t or trace_t[-1] != len(flat):
            trace_t.append(len(flat))
            trace_c.append(cums[-1])
        return float(cums[-1]), np.array(trace_t), np.array(trace_c)

    def test_mixed_recording_matches_brute_force(self):
        rng = np.random.default_rng(40)
        events = [
            ("block", (0.5, 7)),
            ("array", list(rng.uniform(0, 2, size=13))),
            ("interleaved", rng.uniform(0, 2, size=(3, 9))),
            ("block", (1.25, 4)),
        ]
        ledger = RegretLedger(3, trace_stride=5)
        for kind, payload in events:
            if kind == "block":
                ledger.record_block(payload[0], payload[1])
            elif kind == "array":  # one task's per-step regrets
                for value in payload:
                    ledger.record_block(value, 1)
            else:
                ledger.record_interleaved(payload)
        total, ts, cums = self.brute_force(events, 5)
        assert ledger.total == pytest.approx(total, abs=1e-12)
        got_t, got_c = ledger.trace()
        assert np.array_equal(got_t, ts)
        assert np.allclose(got_c, cums, atol=1e-12)
        assert ledger.num_pulls == 7 + 13 + 27 + 4

    def test_trace_non_decreasing_and_bounded(self):
        rng = np.random.default_rng(41)
        ledger = RegretLedger(2, trace_stride=3)
        ledger.record_interleaved(rng.uniform(0, 2, size=(2, 50)))
        _, cums = ledger.trace()
        assert np.all(np.diff(cums) >= 0)
        assert ledger.total <= 2 * ledger.num_pulls

    def test_out_of_range_regret_rejected(self):
        ledger = RegretLedger(1, 0)
        with pytest.raises(ValueError):
            ledger.record_block(2.5, 3)
        with pytest.raises(ValueError):
            ledger.record_block(-0.2, 1)
        with pytest.raises(ValueError):
            ledger.record_interleaved(np.array([[0.5, 2.5]]))
        with pytest.raises(ValueError):
            ledger.record_block(np.nan, 5)
        with pytest.raises(ValueError):
            ledger.record_interleaved(np.array([[0.5, np.nan, 1.0]]))
        assert ledger.num_pulls == 0 and ledger.total == 0.0

    def test_roundoff_slack_clipped(self):
        ledger = RegretLedger(1, 0)
        ledger.record_block(-1e-12, 5)
        assert ledger.total == 0.0

    @pytest.mark.parametrize(
        "value", [0.0, -0.0, -1e-12, 0.5, 2.0, 2.0 + 1e-10, np.float64(0.7), np.float64(-0.0)]
    )
    def test_block_check_matches_the_array_check(self, value):
        ledger = RegretLedger(1, trace_stride=1)
        ledger.record_block(value, 3)
        recorded = ledger._segments[-1][3]
        assert type(recorded) is float
        assert recorded.hex() == float(RegretLedger._validated(np.array([value]))[0]).hex()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, -0.2, 2.5])
    @pytest.mark.parametrize("count", [0, 3])
    def test_block_rejects_out_of_range_at_any_count(self, value, count):
        ledger = RegretLedger(1, trace_stride=1)
        with pytest.raises(ValueError, match=r"outside \[0, 2\]"):
            ledger.record_block(value, count)
        assert ledger.num_pulls == 0 and ledger.total == 0.0 and not ledger._segments

    def test_zero_count_block_checks_value_and_count(self):
        ledger = RegretLedger(2, trace_stride=1)
        with pytest.raises(ValueError):
            ledger.record_block(np.nan, 0)
        with pytest.raises(TypeError):
            ledger.record_block(0.5, 2.5)
        with pytest.raises(ValueError, match="count"):
            ledger.record_block(0.5, -1)
        ledger.record_block(0.5, 0)
        ledger.record_block(0.5, np.int64(2))
        assert type(ledger.num_pulls) is int and ledger.num_pulls == 2
        assert ledger.total == 1.0 and len(ledger._segments) == 1

    def test_stride_zero_keeps_the_final_point_alone(self):
        ledger = RegretLedger(1, 0)
        assert [a.size for a in ledger.trace()] == [0, 0]  # no pulls: no point
        ledger.record_block(0.1 + 0.2, 10)
        ts, cums = ledger.trace()
        assert ts.tolist() == [10] and cums.tolist() == [ledger.total]
        assert cums[0].hex() == ledger.total.hex() == (10 * (0.1 + 0.2)).hex()

    def test_final_point_always_present(self):
        ledger = RegretLedger(1, trace_stride=4)
        ledger.record_block(1.0, 10)
        ts, cums = ledger.trace()
        assert ts[-1] == 10
        assert cums[-1] == pytest.approx(ledger.total)


class TestTraceSegments:
    """``trace`` expands the per-record segments to exactly today's points."""

    @staticmethod
    def reference(events, stride):
        """Each record's checkpoints and values by the record-time formulas."""
        pulls, total, ts, cums = 0, 0.0, [], []
        for kind, payload in events:
            if kind == "block":
                value, count = payload
                steps = np.arange((pulls // stride + 1) * stride, pulls + count + 1, stride)
                ts.append(steps)
                cums.append(total + (steps - pulls) * value)
                total += value * count
            else:
                regrets, repeat = payload
                sequence = np.repeat(regrets, repeat, axis=1).T.ravel()
                count = sequence.size
                if count == 0:
                    continue
                steps = np.arange((pulls // stride + 1) * stride, pulls + count + 1, stride)
                partial = np.cumsum(sequence)
                ts.append(steps)
                cums.append(total + partial[steps - pulls - 1])
                total += float(partial[-1])
            pulls += count
        ts = np.concatenate(ts) if ts else np.zeros(0, dtype=int)
        cums = np.concatenate(cums) if cums else np.zeros(0)
        if pulls and (ts.size == 0 or ts[-1] != pulls):
            ts, cums = np.append(ts, pulls), np.append(cums, total)
        return ts, cums, total

    EVENTS = {
        # blocks shorter than the stride: no grid point inside any of them
        "short_blocks": [("block", (0.3, 3)), ("block", (0.7, 4)), ("block", (1.9, 2))],
        "short_then_crossing": [
            ("block", (0.3, 3)),
            ("block", (0.7, 4)),
            ("block", (1.1, 5)),
            ("block", (0.45, 1)),
        ],
        # blocks that end on the grid, so num_pulls is a multiple of the stride
        "on_the_grid": [("block", (0.1 + 0.2, 10)), ("block", (1.5, 10)), ("block", (2.0, 30))],
        "one_long_block": [("block", (0.123456789, 1003))],
        "mixed": [
            ("block", (0.3, 7)),
            ("interleaved", ("uniform", 4, 1)),
            ("block", (0.9, 1)),
            ("interleaved", ("uniform", 1, 17)),
            ("block", (1e-300, 26)),
            ("interleaved", ("uniform", 0, 5)),
            ("interleaved", ("uniform", 3, 2)),
            ("block", (1.75, 11)),
        ],
        "interleaved_only": [("interleaved", ("uniform", 5, 3)), ("interleaved", ("uniform", 1, 10))],
    }

    @pytest.mark.parametrize("stride", [0, 1, 3, 10, 17, 1000])
    @pytest.mark.parametrize("name", sorted(EVENTS))
    def test_matches_the_record_time_formulas(self, name, stride):
        rng = np.random.default_rng(17)
        events = []
        for kind, payload in self.EVENTS[name]:
            if kind == "interleaved":
                _, columns, repeat = payload
                payload = (rng.uniform(0, 2, size=(3, columns)), repeat)
            events.append((kind, payload))
        ledger = RegretLedger(3, stride)
        for kind, payload in events:
            if kind == "block":
                ledger.record_block(*payload)
            else:
                ledger.record_interleaved(*payload)
        got_t, got_c = ledger.trace()
        assert np.array_equal(ledger.trace_grid(), got_t) and ledger.trace_size() == got_t.size
        if stride == 0:  # the final point alone
            assert got_t.tolist() == [ledger.num_pulls] and ledger.num_pulls > 0
            assert got_c.tobytes() == np.array([ledger.total]).tobytes()
            return
        ts, cums, total = self.reference(events, stride)
        assert ledger.total == total
        assert got_t.dtype == ts.dtype
        assert np.array_equal(got_t, ts)
        assert np.array_equal(got_c, cums)
        assert np.array_equal(ledger.trace_grid(), ts) and ledger.trace_size() == ts.size

    def test_grid_placement(self):
        ledger = RegretLedger(1, trace_stride=10)
        ledger.record_block(1.0, 3)
        ledger.record_block(1.0, 4)
        assert np.array_equal(ledger.trace()[0], [7])  # no grid point yet: the final pull only
        ledger.record_block(1.0, 13)
        assert np.array_equal(ledger.trace()[0], [10, 20])  # on the grid: no extra point
        ledger.record_block(1.0, 1)
        assert np.array_equal(ledger.trace()[0], [10, 20, 21])

    GRIDS = {
        # stride, pulls recorded, the pull counts trace() holds
        "off_the_grid": (3, 17, [3, 6, 9, 12, 15, 17]),
        "on_the_grid": (3, 18, [3, 6, 9, 12, 15, 18]),
        "every_pull": (1, 6, [1, 2, 3, 4, 5, 6]),
        "before_the_first_point": (10, 7, [7]),
        "on_the_first_point": (5, 5, [5]),
        "nothing_recorded": (10, 0, []),
        "stride_zero": (0, 25, [25]),
        "stride_zero_nothing_recorded": (0, 0, []),
        # at the int64 edge, where the next multiple of the stride would pass it
        "past_half_of_int64": (2**62, 2**62 + 2, [2**62, 2**62 + 2]),
        "near_the_largest_pulls": (2**62 + 1, 2**63 - 1, [2**62 + 1, 2**63 - 1]),
        "largest_stride_and_pulls": (2**63 - 1, 2**63 - 1, [2**63 - 1]),
        "long_off_the_grid": (7, 100, [*range(7, 99, 7), 100]),
    }

    @pytest.mark.parametrize("name", sorted(GRIDS))
    def test_trace_grid_from_stride_and_pulls(self, name):
        stride, pulls, expected = self.GRIDS[name]
        ledger = RegretLedger(1, stride)
        ledger.record_block(0.5, pulls)
        grid = ledger.trace_grid()
        assert grid.dtype == np.zeros(0, dtype=int).dtype
        assert np.array_equal(grid, expected) and ledger.trace_size() == len(expected)
        ts, cums = ledger.trace()
        assert np.array_equal(ts, expected) and cums.size == len(expected)
        assert cums[:-1].tolist() == [0.5 * t for t in expected[:-1]]  # the block's line

    @pytest.mark.parametrize(
        "stride, pulls, size",
        [(5, 10**15, 2 * 10**14), (3, 10**15, 333_333_333_333_334), (1, 2**62, 2**62)],
    )
    def test_trace_size_counts_without_building(self, stride, pulls, size):
        ledger = RegretLedger(1, stride)
        ledger.record_block(0.5, pulls)  # one segment: nothing trace-sized is built
        assert ledger.trace_size() == size

    def test_block_record_is_constant_size(self):
        ledger = RegretLedger(1, trace_stride=1)
        tracemalloc.start()
        try:
            ledger.record_block(0.5, 1 << 20)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**10  # the 2**20 trace points alone are 16 MB
        ts, cums = ledger.trace()
        assert ts.size == 1 << 20 and cums[-1] == ledger.total

    def test_matrix_record_copies_no_matrix(self):
        regrets = np.random.default_rng(8).uniform(0, 2, size=(400, 5000))  # 16 MB
        ledger = RegretLedger(400, trace_stride=0)
        tracemalloc.start()
        try:
            ledger.record_interleaved(regrets)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20  # a chunk buffer and one chunk's columns, ~0.5 MB each
        assert ledger.total == np.cumsum(regrets.T.ravel())[-1]

    def test_matrix_record_builds_one_offset_array(self):
        # 3M entries at stride 3, one pull already recorded: 1M trace points,
        # whose picked sums and offsets take 8 MB each.  A third trace-sized
        # array (the checkpoint pull counts) would push the peak past the bound.
        regrets = np.random.default_rng(9).uniform(0, 2, size=(100, 30_000))
        ledger = RegretLedger(100, trace_stride=3)
        ledger.record_block(0.25, 1)
        tracemalloc.start()
        try:
            ledger.record_interleaved(regrets)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        points = regrets.size // 3
        assert peak < 2 * 8 * points + 2 * 2**20
        partial = np.cumsum(regrets.T.ravel())
        ts, cums = ledger.trace()
        assert np.array_equal(ts[:points], np.arange(3, regrets.size + 2, 3))
        assert cums[:points].tobytes() == (0.25 + partial[1::3]).tobytes()

    def test_in_range_values_are_not_copied(self):
        values = np.random.default_rng(5).uniform(0, 2, size=(4, 6))
        assert RegretLedger._validated(values) is values
        slack = np.array([-1e-12, 0.5, 2.0 + 1e-12])
        assert np.array_equal(RegretLedger._validated(slack), [0.0, 0.5, 2.0])


class TestRecordInterleavedBlock:
    """``record_interleaved`` with ``repeat``: a matrix whose columns each repeat."""

    @staticmethod
    def record_both(num_tasks, steps, stride, prior):
        rng = np.random.default_rng(num_tasks * 1009 + steps)
        values = rng.uniform(0, 2, size=num_tasks)
        ledgers = (RegretLedger(num_tasks, stride), RegretLedger(num_tasks, stride))
        history = rng.uniform(0, 2, size=(num_tasks, 3))
        for ledger in ledgers:
            if prior:
                ledger.record_interleaved(history)
                ledger.record_block(0.3, 11)
        ledgers[0].record_interleaved(np.broadcast_to(values[:, None], (num_tasks, steps)))
        ledgers[1].record_interleaved(values[:, None], steps)
        for ledger in ledgers:
            ledger.record_block(0.7, 5)
        return ledgers

    @pytest.mark.parametrize("prior", [False, True])
    @pytest.mark.parametrize("stride", [0, 1, 7, "beyond"])
    @pytest.mark.parametrize(
        "num_tasks,steps",
        [
            (1, 0),
            (4, 0),
            (3, 1),
            (5, 1000),
            (200, 99),
            (1, INTERLEAVED_CHUNK - 1),
            (1, INTERLEAVED_CHUNK),
            (1, INTERLEAVED_CHUNK + 1),
            (7, INTERLEAVED_CHUNK // 7 * 3 + 2),
            (256, INTERLEAVED_CHUNK // 256),
            (256, INTERLEAVED_CHUNK // 256 + 1),
            (INTERLEAVED_CHUNK + 3, 2),
        ],
    )
    def test_bit_identical_to_broadcast(self, num_tasks, steps, stride, prior):
        """One column repeated ``steps`` times records what the broadcast matrix does."""
        if stride == "beyond":
            stride = num_tasks * steps + 50
        old, new = self.record_both(num_tasks, steps, stride, prior)
        assert new.total == old.total
        assert new.num_pulls == old.num_pulls
        old_t, old_c = old.trace()
        new_t, new_c = new.trace()
        assert np.array_equal(new_t, old_t)
        assert np.array_equal(new_c, old_c)

    @pytest.mark.parametrize("prior", [False, True])
    @pytest.mark.parametrize("stride", [0, 1, 7])
    @pytest.mark.parametrize(
        "num_tasks,columns,repeat",
        [
            (4, 0, 3),
            (4, 3, 0),
            (3, 50, 1),  # repeat 1: every column its own step
            (200, 634, 1),
            (7, 20_000, 1),  # three chunks of many columns
            (200, 1, 1000),  # one column, the commit phase
            (5, 1, 30_000),
            (1, 1, INTERLEAVED_CHUNK + 1),
            (3, 4, 5),  # several columns that repeat
            (256, 5, 100),  # chunks cross column boundaries
            (7, 3, INTERLEAVED_CHUNK // 7 + 3),
            (2, 3, INTERLEAVED_CHUNK // 2),  # chunks end on column boundaries
            (1, 3, INTERLEAVED_CHUNK),
            (INTERLEAVED_CHUNK + 3, 2, 2),  # more tasks than one chunk holds
        ],
    )
    def test_matches_the_materialised_sequence(self, num_tasks, columns, repeat, stride, prior):
        rng = np.random.default_rng(num_tasks * 7919 + columns * 31 + repeat)
        regrets = rng.uniform(0, 2, size=(num_tasks, columns))
        ledger = RegretLedger(num_tasks, stride)
        if prior:
            ledger.record_interleaved(rng.uniform(0, 2, size=(num_tasks, 3)))
            ledger.record_block(0.3, 11)
        total, pulls = ledger.total, ledger.num_pulls
        ledger.record_interleaved(regrets, repeat)

        materialised = np.repeat(regrets, repeat, axis=1)  # (num_tasks, steps)
        count = materialised.size
        cums = total + np.cumsum(materialised.T.ravel())  # step-major, unchunked
        assert ledger.num_pulls == pulls + count
        assert ledger.total == (cums[-1] if count else total)
        got_t, got_c = ledger.trace()
        if stride == 0:  # the final point alone, or none before the first pull
            assert got_t.tolist() == ([ledger.num_pulls] if ledger.num_pulls else [])
            assert got_c.tobytes() == np.array([ledger.total][: got_t.size]).tobytes()
            return
        ts = np.arange((pulls // stride + 1) * stride, pulls + count + 1, stride)
        expected_t, expected_c = list(ts), list(cums[ts - pulls - 1])
        if count and (not expected_t or expected_t[-1] != pulls + count):
            expected_t.append(pulls + count)
            expected_c.append(cums[-1])
        after = got_t > pulls
        assert np.array_equal(got_t[after], expected_t)
        assert np.array_equal(got_c[after], expected_c)

    def test_out_of_range_regret_rejected(self):
        ledger = RegretLedger(2, 0)
        with pytest.raises(ValueError, match=r"outside \[0, 2\]"):
            ledger.record_interleaved(np.array([[0.5], [2.5]]), 3)
        with pytest.raises(ValueError, match=r"outside \[0, 2\]"):
            ledger.record_interleaved(np.array([[-0.2], [0.5]]), 3)
        with pytest.raises(ValueError, match=r"outside \[0, 2\]"):
            ledger.record_interleaved(np.array([[0.5], [np.nan]]), 3)
        assert ledger.num_pulls == 0 and ledger.total == 0.0

    def test_wrong_shape_rejected(self):
        ledger = RegretLedger(3, 0)
        with pytest.raises(ValueError, match="expected shape"):
            ledger.record_interleaved(np.array([[0.5], [0.5]]), 3)
        with pytest.raises(ValueError, match="expected shape"):
            ledger.record_interleaved(np.full(3, 0.5), 3)

    def test_negative_steps_rejected(self):
        ledger = RegretLedger(2, 0)
        with pytest.raises(ValueError, match="repeat"):
            ledger.record_interleaved(np.array([[0.5], [0.5]]), -1)

    @pytest.mark.parametrize("stride", [0, 1, 3])
    def test_numpy_integer_repeat_keeps_python_int_counts(self, stride):
        # as record_block does with its count: the pull counter stays a Python int
        ledger = RegretLedger(2, stride)
        ledger.record_interleaved(np.full((2, 1), 0.5), np.int64(3))
        assert type(ledger.num_pulls) is int and ledger.num_pulls == 6
        assert type(ledger.trace_size()) is int

    def test_non_integer_repeat_rejected(self):
        ledger = RegretLedger(2, 3)
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            ledger.record_interleaved(np.full((2, 1), 0.5), 1.5)
        assert ledger.num_pulls == 0 and ledger.total == 0.0

    def test_memory_independent_of_steps(self):
        num_tasks, steps = 200, 100_000
        values = np.random.default_rng(3).uniform(0, 2, size=num_tasks)
        ledger = RegretLedger(num_tasks, trace_stride=1000)
        tracemalloc.start()
        try:
            ledger.record_interleaved(values[:, None], steps)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ledger.num_pulls == num_tasks * steps
        assert peak < 8 * 2**20  # one materialised (200, 1e5) matrix alone is 160 MB


class TestPeriodicPath:
    """A repeated column steps whole periods through each binade at once; its
    points and total must keep every bit of the materialised sequence's."""

    VALUES = {
        # 1 - mean, as instant_regret gives: multiples of 2**-53, ties from 1 up
        "one_minus_mean": lambda rng, n: 1.0 - rng.uniform(0.5, 1.0, n),
        # multiples of 2**-40: ties while the sum is in [2**12, 2**15) or so
        "short_mantissas": lambda rng, n: rng.integers(0, 2**41 + 1, n) * 2.0**-40,
        "specials": lambda rng, n: rng.choice([0.0, -0.0, 2.0, 5e-324, 1e-300, 0.5, 0.25], n),
        "zeros": lambda rng, n: rng.choice([0.0, -0.0], n),
        # past 1024 tasks, entries in ulps of a sum below the column's would overflow int64
        "near_two": lambda rng, n: 2.0 - rng.uniform(0.0, 1e-9, n),
        "uniform": lambda rng, n: rng.uniform(0.0, 2.0, n),
    }

    @pytest.mark.parametrize("prior", [False, True])
    @pytest.mark.parametrize("stride", [0, 1, 7, "beyond"])
    @pytest.mark.parametrize(
        "num_tasks,columns,repeat",
        [
            (1, 1, 20_000),
            (7, 1, 3_000),
            (300, 1, 500),
            (1100, 1, 40),
            (5, 3, 700),  # the sum carries from column to column
            (INTERLEAVED_CHUNK + 3, 1, 3),
        ],
    )
    @pytest.mark.parametrize("kind", sorted(VALUES))
    def test_bit_identical_to_the_materialised_cumsum(self, kind, num_tasks, columns, repeat, stride, prior):
        rng = np.random.default_rng([num_tasks, columns, repeat, len(kind)])
        regrets = self.VALUES[kind](rng, num_tasks * columns).reshape(num_tasks, columns)
        if stride == "beyond":
            stride = regrets.size * repeat + 50
        ledger = RegretLedger(num_tasks, stride)
        if prior:
            ledger.record_interleaved(rng.uniform(0, 2, size=(num_tasks, 3)))
            ledger.record_block(0.3, 11)
        total, pulls = ledger.total, ledger.num_pulls
        ledger.record_interleaved(regrets, repeat)

        materialised = np.repeat(regrets, repeat, axis=1)
        count = materialised.size
        cums = total + np.cumsum(materialised.T.ravel())
        assert ledger.num_pulls == pulls + count
        assert ledger.total == cums[-1]
        got_t, got_c = ledger.trace()
        if stride == 0:  # the final point alone
            assert got_t.tolist() == [ledger.num_pulls]
            assert got_c.tobytes() == np.array([ledger.total]).tobytes()
            return
        ts = np.arange((pulls // stride + 1) * stride, pulls + count + 1, stride)
        if ts.size == 0 or ts[-1] != pulls + count:
            ts = np.append(ts, pulls + count)
        after = got_t > pulls
        assert np.array_equal(got_t[after], ts)
        assert got_c[after].tobytes() == cums[ts - pulls - 1].tobytes()

    @pytest.mark.parametrize("start,periods", [(1.0, 17), (1.25, 247), (1.5, 2763), (1.75, 5)])
    def test_a_jump_stops_at_the_end_of_its_binade(self, start, periods):
        # The first column takes the sum to exactly `start`, A = start * 2**52
        # ulps of 2**-52.  The second adds P + 1/4 ulps per pull, where
        # A + periods * P = 2**53 + 1: whole periods fit up to 2**53 - P + 1
        # ulps, and the pull after them ends past 2**53, where the ulp doubles,
        # so it rounds to 2 + 2**-51, not to 2.0.
        repeat = 8192
        ulps = (2**53 + 1 - int(start * 2**52)) // periods
        regrets = np.array([[start / repeat, (ulps + 0.25) * 2.0**-52]])
        ledger = RegretLedger(1, trace_stride=1)
        ledger.record_interleaved(regrets, repeat)
        cums = np.cumsum(np.repeat(regrets, repeat, axis=1).ravel())
        assert cums[repeat - 1] == start and cums[repeat + periods - 1] == 2 + 2.0**-51
        assert ledger.trace()[1].tobytes() == cums.tobytes()

    def test_a_sum_below_the_column_sum_is_cumulated_serially(self):
        # The second column starts at a sum of 2 - 2**-52: at least each of its
        # entries, below their sum.  In ulps of that sum, 2**-52, its 1100
        # entries near 2 add up to about 1100 * 2**53, past int64.
        rng = np.random.default_rng(6)
        regrets = np.zeros((1100, 2))
        regrets[0, 0] = 1 - 2.0**-53
        regrets[:, 1] = 2.0 - rng.integers(1, 1000, 1100) * 2.0**-51
        ledger = RegretLedger(1100, trace_stride=1)
        ledger.record_interleaved(regrets, 2)
        cums = np.cumsum(np.repeat(regrets, 2, axis=1).T.ravel())
        assert cums[1100 * 2 - 1] == 2 - 2.0**-52 >= regrets[:, 1].max()
        assert ledger.trace()[1].tobytes() == cums.tobytes()

    def test_a_trillion_pull_commit_takes_seconds(self):
        # 1000 tasks for 10**9 steps: cumulating each pull would take about an
        # hour.  Every sum is a multiple of 1/4 below 2**51, so exact: the
        # point after pull g is (g // 1000) * 375 plus the prefix of its step.
        code = (
            "import json, numpy as np\n"
            "from lowrank_bandits.env import RegretLedger\n"
            "ledger = RegretLedger(1000, trace_stride=10**9 + 1)\n"
            "ledger.record_interleaved(np.tile([0.5, 0.25], 500)[:, None], 10**9)\n"
            "ts, cums = ledger.trace()\n"
            "print(json.dumps([ledger.total, ts.tolist(), cums.tolist()]))\n"
        )
        src = str(Path(env.__file__).parents[1])
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))},
        )
        assert done.returncode == 0, done.stderr
        total, ts, cums = json.loads(done.stdout)
        values = [0.5, 0.25] * 500
        prefix = [0.0, *itertools.accumulate(values)]
        assert total == 375 * 10**9
        assert ts == [*range(10**9 + 1, 10**12 + 1, 10**9 + 1), 10**12]
        assert cums == [(g // 1000) * 375 + prefix[g % 1000] for g in ts]
