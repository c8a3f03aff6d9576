import tracemalloc

import numpy as np
import pytest

from lowrank_bandits.env import (
    INTERLEAVED_CHUNK,
    BanditInstance,
    InstanceSpec,
    RegretLedger,
    generate_instance,
    instant_regret,
    instant_regret_many,
    pull,
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
        assert pull(inst, 0, theta, np.random.default_rng(0)) == pytest.approx(1.0, abs=1e-12)

    def test_noiseless_orthogonal_action(self):
        inst = small_instance(noise_std=0.0)
        theta = inst.thetas[:, 1]
        probe = np.zeros(inst.dim)
        probe[0] = 1.0
        orth = probe - theta * (theta @ probe)
        orth /= np.linalg.norm(orth)
        assert pull(inst, 1, orth, np.random.default_rng(0)) == pytest.approx(0.0, abs=1e-12)

    def test_infeasible_action_rejected(self):
        inst = small_instance()
        with pytest.raises(InfeasibleActionError):
            pull(inst, 0, np.full(inst.dim, 1.0), np.random.default_rng(0))

    def test_bad_task_rejected(self):
        inst = small_instance()
        with pytest.raises(ValueError):
            pull(inst, inst.num_tasks, np.zeros(inst.dim), np.random.default_rng(0))
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
        value = pull_block_mean(inst, 3, action, 17, np.random.default_rng(0))
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_block_mean_variance_scale(self):
        inst = small_instance(noise_std=1.0, seed=9)
        action = np.zeros(inst.dim)
        rng = np.random.default_rng(7)
        draws = np.array([pull_block_mean(inst, 0, action, 400, rng) for _ in range(2000)])
        # sample mean of 400 unit-noise pulls has sd 0.05
        assert abs(draws.std(ddof=1) - 0.05) < 0.005


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
            elif kind == "array":
                ledger.record_array(task, np.array(payload))
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
            ledger.record_array(0, np.array([-0.2]))

    def test_roundoff_slack_clipped(self):
        ledger = RegretLedger(1, 0)
        ledger.record_block(0, -1e-12, 5)
        assert ledger.total == 0.0

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


class TestRecordInterleavedBlock:
    """The constant-block record against the broadcast matrix it replaces."""

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
        ledgers[1].record_interleaved_block(values, steps)
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

    def test_out_of_range_regret_rejected(self):
        ledger = RegretLedger(2, 0)
        with pytest.raises(ValueError, match=r"outside \[0, 2\]"):
            ledger.record_interleaved_block(np.array([0.5, 2.5]), 3)
        with pytest.raises(ValueError, match=r"outside \[0, 2\]"):
            ledger.record_interleaved_block(np.array([-0.2, 0.5]), 3)
        assert ledger.num_pulls == 0

    def test_wrong_shape_rejected(self):
        ledger = RegretLedger(3, 0)
        with pytest.raises(ValueError, match="expected shape"):
            ledger.record_interleaved_block(np.array([0.5, 0.5]), 3)
        with pytest.raises(ValueError, match="expected shape"):
            ledger.record_interleaved_block(np.full((3, 1), 0.5), 3)

    def test_negative_steps_rejected(self):
        ledger = RegretLedger(2, 0)
        with pytest.raises(ValueError, match="steps"):
            ledger.record_interleaved_block(np.array([0.5, 0.5]), -1)

    def test_memory_independent_of_steps(self):
        num_tasks, steps = 200, 100_000
        values = np.random.default_rng(3).uniform(0, 2, size=num_tasks)
        ledger = RegretLedger(num_tasks, trace_stride=1000)
        tracemalloc.start()
        try:
            ledger.record_interleaved_block(values, steps)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ledger.num_pulls == num_tasks * steps
        assert peak < 8 * 2**20  # one materialised (200, 1e5) matrix alone is 160 MB
