import re
import tracemalloc

import numpy as np
import pytest

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
    def brute_force(self, events, num_tasks, stride):
        """Oracle: replay events pull by pull and thin the cumulative sums."""
        flat = []
        per_task = np.zeros(num_tasks)
        for kind, task, payload in events:
            if kind == "block":
                value, count = payload
                flat.extend([value] * count)
                per_task[task] += value * count
            elif kind == "array":
                flat.extend(payload)
                per_task[task] += sum(payload)
            else:  # interleaved matrix
                matrix = np.asarray(payload)
                flat.extend(matrix.T.ravel())
                per_task += matrix.sum(axis=1)
        cums = np.cumsum(flat)
        ts = np.arange(stride, len(flat) + 1, stride)
        trace_t = list(ts)
        trace_c = list(cums[ts - 1])
        if not trace_t or trace_t[-1] != len(flat):
            trace_t.append(len(flat))
            trace_c.append(cums[-1])
        return per_task, float(cums[-1]), np.array(trace_t), np.array(trace_c)

    def test_mixed_recording_matches_brute_force(self):
        rng = np.random.default_rng(40)
        events = [
            ("block", 1, (0.5, 7)),
            ("array", 0, list(rng.uniform(0, 2, size=13))),
            ("interleaved", None, rng.uniform(0, 2, size=(3, 9))),
            ("block", 2, (1.25, 4)),
        ]
        ledger = RegretLedger(3, trace_stride=5)
        for kind, task, payload in events:
            if kind == "block":
                ledger.record_block(task, payload[0], payload[1])
            elif kind == "array":  # one task's per-step regrets
                for value in payload:
                    ledger.record_block(task, value, 1)
            else:
                ledger.record_interleaved(payload)
        per_task, total, ts, cums = self.brute_force(events, 3, 5)
        assert np.allclose(ledger.per_task, per_task, atol=1e-12)
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
            ledger.record_block(0, 2.5, 3)
        with pytest.raises(ValueError):
            ledger.record_block(0, -0.2, 1)
        with pytest.raises(ValueError):
            ledger.record_interleaved(np.array([[0.5, 2.5]]))
        with pytest.raises(ValueError):
            ledger.record_block(0, np.nan, 5)
        with pytest.raises(ValueError):
            ledger.record_interleaved(np.array([[0.5, np.nan, 1.0]]))
        assert ledger.num_pulls == 0 and ledger.total == 0.0

    def test_roundoff_slack_clipped(self):
        ledger = RegretLedger(1, 0)
        ledger.record_block(0, -1e-12, 5)
        assert ledger.total == 0.0

    @pytest.mark.parametrize(
        "value", [0.0, -0.0, -1e-12, 0.5, 2.0, 2.0 + 1e-10, np.float64(0.7), np.float64(-0.0)]
    )
    def test_block_check_matches_the_array_check(self, value):
        ledger = RegretLedger(1, trace_stride=1)
        ledger.record_block(0, value, 3)
        recorded = ledger._segments[-1][3]
        assert type(recorded) is float
        assert recorded.hex() == float(RegretLedger._validated(np.array([value]))[0]).hex()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, -0.2, 2.5])
    @pytest.mark.parametrize("count", [0, 3])
    def test_block_rejects_out_of_range_at_any_count(self, value, count):
        ledger = RegretLedger(1, trace_stride=1)
        with pytest.raises(ValueError, match=r"outside \[0, 2\]"):
            ledger.record_block(0, value, count)
        assert ledger.num_pulls == 0 and ledger.total == 0.0 and not ledger._segments

    def test_zero_count_block_checks_task_and_count(self):
        ledger = RegretLedger(2, trace_stride=1)
        with pytest.raises(ValueError):
            ledger.record_block(-7, np.nan, 0)
        with pytest.raises(ValueError, match="task index"):
            ledger.record_block(2, 0.5, 0)
        with pytest.raises(TypeError):
            ledger.record_block(0, 0.5, 2.5)
        with pytest.raises(ValueError, match="count"):
            ledger.record_block(0, 0.5, -1)
        ledger.record_block(1, 0.5, 0)
        ledger.record_block(1, 0.5, np.int64(2))
        assert type(ledger.num_pulls) is int and ledger.num_pulls == 2
        assert ledger.total == 1.0 and len(ledger._segments) == 1

    def test_stride_zero_disables_trace(self):
        ledger = RegretLedger(1, 0)
        ledger.record_block(0, 1.0, 10)
        ts, cums = ledger.trace()
        assert ts.size == 0 and cums.size == 0
        assert ledger.total == 10.0

    def test_final_point_always_present(self):
        ledger = RegretLedger(1, trace_stride=4)
        ledger.record_block(0, 1.0, 10)
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
                _, value, count = payload
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
        "short_blocks": [("block", (0, 0.3, 3)), ("block", (1, 0.7, 4)), ("block", (2, 1.9, 2))],
        "short_then_crossing": [
            ("block", (0, 0.3, 3)),
            ("block", (1, 0.7, 4)),
            ("block", (2, 1.1, 5)),
            ("block", (0, 0.45, 1)),
        ],
        # blocks that end on the grid, so num_pulls is a multiple of the stride
        "on_the_grid": [("block", (0, 0.1 + 0.2, 10)), ("block", (1, 1.5, 10)), ("block", (2, 2.0, 30))],
        "one_long_block": [("block", (1, 0.123456789, 1003))],
        "mixed": [
            ("block", (2, 0.3, 7)),
            ("interleaved", ("uniform", 4, 1)),
            ("block", (0, 0.9, 1)),
            ("interleaved", ("uniform", 1, 17)),
            ("block", (1, 1e-300, 26)),
            ("interleaved", ("uniform", 0, 5)),
            ("interleaved", ("uniform", 3, 2)),
            ("block", (0, 1.75, 11)),
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
        if stride == 0:
            assert got_t.size == 0 and got_c.size == 0
            return
        ts, cums, total = self.reference(events, stride)
        assert ledger.total == total
        assert got_t.dtype == ts.dtype
        assert np.array_equal(got_t, ts)
        assert np.array_equal(got_c, cums)
        assert np.array_equal(ledger.trace_grid(), ts) and ledger.trace_size() == ts.size
        rebuilt_t, rebuilt_c = RegretLedger.from_trace(got_t, got_c).trace()
        assert np.array_equal(rebuilt_t, ts) and rebuilt_c.tobytes() == got_c.tobytes()

    @pytest.mark.parametrize(
        "ts", [[3, 6, 9, 12, 15, 17], [3, 6, 9, 12, 15, 18], [1, 2, 3, 4, 5, 6]]
    )
    def test_from_trace_keeps_every_bit(self, ts):
        cums = np.array([-0.0, 0.0, 1e-300, 0.1 + 0.2, np.nextafter(2.0, 3.0), -0.0])
        ledger = RegretLedger.from_trace(ts, cums)
        got_t, got_c = ledger.trace()
        assert np.array_equal(got_t, ts) and got_c.tobytes() == cums.tobytes()
        assert ledger.num_pulls == ts[-1] and ledger.total == cums[-1]

    @pytest.mark.parametrize(
        "ts", [[], [0], [[3, 6]], [3, 7], [3, 6, 10], [3, 6, 8, 9], [2, 3, 5], [5, 10**15]]
    )
    def test_from_trace_rejects_points_off_the_grid(self, ts):
        with pytest.raises(ValueError, match="trace points"):
            RegretLedger.from_trace(ts, np.ones(np.shape(ts)))

    def test_grid_placement(self):
        ledger = RegretLedger(1, trace_stride=10)
        ledger.record_block(0, 1.0, 3)
        ledger.record_block(0, 1.0, 4)
        assert np.array_equal(ledger.trace()[0], [7])  # no grid point yet: the final pull only
        ledger.record_block(0, 1.0, 13)
        assert np.array_equal(ledger.trace()[0], [10, 20])  # on the grid: no extra point
        ledger.record_block(0, 1.0, 1)
        assert np.array_equal(ledger.trace()[0], [10, 20, 21])

    def test_block_record_is_constant_size(self):
        ledger = RegretLedger(1, trace_stride=1)
        tracemalloc.start()
        try:
            ledger.record_block(0, 0.5, 1 << 20)
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
        ledger.record_block(7, 0.25, 1)
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
                ledger.record_block(num_tasks - 1, 0.3, 11)
        ledgers[0].record_interleaved(np.broadcast_to(values[:, None], (num_tasks, steps)))
        ledgers[1].record_interleaved(values[:, None], steps)
        for ledger in ledgers:
            ledger.record_block(0, 0.7, 5)
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
        assert np.array_equal(new.per_task, old.per_task)
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
            ledger.record_block(num_tasks - 1, 0.3, 11)
        total, pulls, per_task = ledger.total, ledger.num_pulls, ledger.per_task.copy()
        ledger.record_interleaved(regrets, repeat)

        materialised = np.repeat(regrets, repeat, axis=1)  # (num_tasks, steps)
        count = materialised.size
        cums = total + np.cumsum(materialised.T.ravel())  # step-major, unchunked
        assert ledger.num_pulls == pulls + count
        assert np.array_equal(ledger.per_task, per_task + materialised.sum(axis=1))
        assert ledger.total == (cums[-1] if count else total)
        if stride == 0:
            assert ledger.trace()[0].size == 0
            return
        ts = np.arange((pulls // stride + 1) * stride, pulls + count + 1, stride)
        expected_t, expected_c = list(ts), list(cums[ts - pulls - 1])
        if count and (not expected_t or expected_t[-1] != pulls + count):
            expected_t.append(pulls + count)
            expected_c.append(cums[-1])
        got_t, got_c = ledger.trace()
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
