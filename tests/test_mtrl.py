import tracemalloc

import numpy as np
import pytest

from lowrank_bandits import env, run_e2tc, run_independent_etc
from lowrank_bandits.env import InstanceSpec, RegretLedger, generate_instance
from lowrank_bandits.errors import ConfigError, HorizonTooShortError, SingularDesignError
from lowrank_bandits.linalg import subspace_distance, top_k_left_singular_vectors
from lowrank_bandits.mtrl import (
    collect_stage1_samples,
    moment_estimate_theta,
    moment_theta_matrix,
    resolve_budgets,
    run_mtrl,
    stage2_per_task,
    stage3_commit,
)


class TestResolveBudgets:
    def test_stage1_formula(self):
        t1, _, _ = resolve_budgets(10, 2, 25, 10_000)
        assert t1 == 283  # ceil(10 * sqrt(2 * 1e4 / 25)) = ceil(282.84...)

    def test_stage2_formula(self):
        _, t2, block = resolve_budgets(10, 2, 25, 10_000)
        assert block == 100 and t2 == 200

    def test_horizon_too_short(self):
        with pytest.raises(HorizonTooShortError):
            resolve_budgets(10, 2, 2, 10)


class TestMomentEstimate:
    def test_single_noiseless_sample(self):
        rng = np.random.default_rng(0)
        theta = rng.standard_normal(6)
        action = rng.standard_normal(6)
        action /= np.linalg.norm(action)
        reward = action @ theta
        est = moment_estimate_theta(action[None, :], np.array([reward]), 6)
        assert np.allclose(est, 6 * reward * action, atol=1e-14)

    def test_zero_rewards(self):
        actions = np.eye(4)[:3]
        assert np.array_equal(moment_estimate_theta(actions, np.zeros(3), 4), np.zeros(4))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            moment_estimate_theta(np.zeros((0, 3)), np.zeros(0), 3)


def make_instance(noise_std=1.0, seed=0, dim=10, rep_dim=2, num_tasks=25, horizon=10_000):
    spec = InstanceSpec(dim, rep_dim, num_tasks, horizon, noise_std, seed)
    return generate_instance(spec)


def stage1_basis(inst, t1, rng, ledger):
    """Stage 1 as ``run_mtrl`` runs it: stream each batch into its moment
    estimate column, then top-k SVD."""
    theta_hat = np.empty((inst.dim, inst.num_tasks))

    def per_task(task, acts, rewards):
        theta_hat[:, task] = moment_theta_matrix(acts[None], rewards[None])[:, 0]

    collect_stage1_samples(inst, t1, rng, ledger, per_task)
    return top_k_left_singular_vectors(theta_hat, inst.rep_dim)


class TestStage1:
    def test_accounting(self):
        inst = make_instance(horizon=500)
        ledger = RegretLedger(inst.num_tasks, 0)
        calls = []

        def per_task(task, acts, rewards):
            calls.append((task, acts.shape, rewards.shape))

        collect_stage1_samples(inst, 40, np.random.default_rng(1), ledger, per_task)
        assert ledger.num_pulls == inst.num_tasks * 40
        assert calls == [(task, (40, inst.dim), (40,)) for task in range(inst.num_tasks)]

    def test_heavy_noise_destroys_the_subspace(self):
        errors = []
        for seed in range(20):
            spec = InstanceSpec(10, 2, 25, 10_000, noise_std=100.0, seed=300 + seed)
            inst = generate_instance(spec)
            ledger = RegretLedger(25, 0)
            basis_hat = stage1_basis(inst, 50, np.random.default_rng(400 + seed), ledger)
            errors.append(subspace_distance(basis_hat, inst.basis))
        assert np.median(errors) > 0.5

    def test_moment_matrix_matches_per_task_estimates(self):
        inst = make_instance(seed=5, horizon=500)
        ledger = RegretLedger(inst.num_tasks, 0)
        batches = []
        collect_stage1_samples(
            inst, 30, np.random.default_rng(2), ledger, lambda task, *batch: batches.append(batch)
        )
        actions, rewards = (np.stack(parts) for parts in zip(*batches))
        stacked = moment_theta_matrix(actions, rewards)
        for task in range(inst.num_tasks):
            single = moment_estimate_theta(actions[task], rewards[task], inst.dim)
            assert np.allclose(stacked[:, task], single, atol=1e-12)
            # the column run_mtrl writes from one streamed batch: same bits
            streamed = moment_theta_matrix(actions[task][None], rewards[task][None])[:, 0]
            assert np.array_equal(streamed, stacked[:, task])


class TestStage2:
    def test_noiseless_recovery_on_true_basis(self):
        inst = make_instance(noise_std=0.0, seed=7)
        ledger = RegretLedger(inst.num_tasks, 0)
        weights = stage2_per_task(inst, inst.basis, 5, np.random.default_rng(3), ledger)
        assert np.max(np.abs(weights - inst.basis.T @ inst.thetas)) <= 1e-10
        assert ledger.num_pulls == inst.num_tasks * 10

    def test_reduces_to_per_column_means(self):
        # orthonormal design: the general solver must equal per-column reward means
        inst = make_instance(noise_std=1.0, seed=8)
        basis = inst.basis
        block = 6
        rng = np.random.default_rng(4)
        ledger = RegretLedger(inst.num_tasks, 0)
        weights = stage2_per_task(inst, basis, block, rng, ledger)
        rng2 = np.random.default_rng(4)
        from lowrank_bandits.env import pull_many

        actions = np.repeat(basis.T, block, axis=0)
        for task in range(inst.num_tasks):
            rewards = pull_many(inst, task, actions, rng2)
            means = rewards.reshape(inst.rep_dim, block).mean(axis=1)
            assert np.max(np.abs(weights[:, task] - means)) <= 1e-10

    def test_exact_chain_zero_stage3_regret(self):
        inst = make_instance(noise_std=0.0, seed=9)
        ledger = RegretLedger(inst.num_tasks, 0)
        weights = stage2_per_task(inst, inst.basis, 5, np.random.default_rng(5), ledger)
        before = ledger.total
        stage3_commit(inst, inst.basis @ weights, 100, ledger)
        assert ledger.total - before <= 1e-9

    def test_holds_one_regret_matrix(self):
        # scale's shape: d=10, k=2, M=200, T=1e5, so block = ceil(sqrt(T)) = 317
        inst = make_instance(num_tasks=200, horizon=100_000, seed=17)
        block = 317
        stage2_per_task(inst, inst.basis, block, np.random.default_rng(0), RegretLedger(200, 0))
        tracemalloc.start()
        try:
            stage2_per_task(inst, inst.basis, block, np.random.default_rng(1), RegretLedger(200, 0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        matrix = inst.num_tasks * inst.rep_dim * block * 8  # the (M, k * block) regrets
        assert peak < 2 * matrix  # a second (M, k * block) matrix would pass it

    def test_singular_design_raises_before_any_draw(self):
        inst = make_instance(seed=18)
        column = inst.basis[:, :1]
        ledger = RegretLedger(inst.num_tasks, 0)
        rng = np.random.default_rng(6)
        state = rng.bit_generator.state
        with pytest.raises(SingularDesignError):
            stage2_per_task(inst, np.hstack([column, column]), 6, rng, ledger)
        assert ledger.num_pulls == 0
        assert rng.bit_generator.state == state


class TestOnePassPerBatch:
    """Each exploration batch is evaluated once by the oracle, for its rewards
    and its regrets, and Stage 2's shared design is factored once per run."""

    SPEC = InstanceSpec(dim=10, rep_dim=2, num_tasks=20, horizon=2000, seed=0)

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"oracle": 0, "design": 0}
        mean_rewards, svd = env._mean_rewards, np.linalg.svd
        _, _, block = resolve_budgets(10, 2, 20, 2000)

        def counting_means(*args):
            counts["oracle"] += 1
            return mean_rewards(*args)

        def counting_svd(matrix, *args, **kwargs):
            if matrix.shape == (2 * block, 2):  # Stage 2's design
                counts["design"] += 1
            return svd(matrix, *args, **kwargs)

        monkeypatch.setattr(env, "_mean_rewards", counting_means)
        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        return counts

    @pytest.mark.parametrize("runner,oracle,design", [
        (run_mtrl, 3, 1),  # Stage 1 and Stage 2 batches, Stage 3's commit
        (run_e2tc, 3, 1),
        (run_independent_etc, 2, 0),  # exploration batch, commit
    ])
    def test_counts_per_run(self, counts, runner, oracle, design):
        runner(generate_instance(self.SPEC), np.random.default_rng(1))
        assert counts == {"oracle": oracle * self.SPEC.num_tasks, "design": design}


class TestStage3:
    def test_exact_estimates_add_nothing(self):
        inst = make_instance(noise_std=0.0, seed=10)
        ledger = RegretLedger(inst.num_tasks, 0)
        stage3_commit(inst, inst.thetas, 50, ledger)
        assert ledger.total <= 1e-10
        assert ledger.num_pulls == inst.num_tasks * 50

    def test_antipodal_estimates_pay_two_per_step(self):
        inst = make_instance(noise_std=0.0, seed=11)
        ledger = RegretLedger(inst.num_tasks, 0)
        stage3_commit(inst, -inst.thetas, 7, ledger)
        assert ledger.total == pytest.approx(2.0 * 7 * inst.num_tasks, abs=1e-9)

    def test_zero_remaining_is_noop(self):
        inst = make_instance(seed=12)
        ledger = RegretLedger(inst.num_tasks, 0)
        stage3_commit(inst, inst.thetas, 0, ledger)
        assert ledger.num_pulls == 0


class TestRunMtrl:
    def test_accounts_every_pull(self):
        inst = make_instance(seed=13, horizon=2000, num_tasks=8)
        ledger, _ = run_mtrl(inst, rng=np.random.default_rng(6))
        assert ledger.num_pulls == inst.num_tasks * inst.horizon

    def test_bit_identical_reruns(self):
        inst = make_instance(seed=14, horizon=2000, num_tasks=8)
        led_a, _ = run_mtrl(inst, rng=np.random.default_rng(7), trace_stride=13)
        led_b, _ = run_mtrl(inst, rng=np.random.default_rng(7), trace_stride=13)
        assert led_a.total == led_b.total
        ta, ca = led_a.trace()
        tb, cb = led_b.trace()
        assert np.array_equal(ta, tb) and np.array_equal(ca, cb)

    def test_noiseless_default_path_beats_random_commit(self):
        # the moment estimator is inexact at finite t1 even without noise, but
        # its commit must still be far better than a random direction's
        inst = make_instance(noise_std=0.0, seed=15, horizon=2000, num_tasks=8)
        ledger, diag = run_mtrl(inst, rng=np.random.default_rng(8))
        t1, t2, _ = resolve_budgets(inst.dim, inst.rep_dim, inst.num_tasks, inst.horizon)
        remaining = inst.horizon - t1 - t2
        rng = np.random.default_rng(9)
        from lowrank_bandits.env import instant_regret
        from lowrank_bandits.linalg import sample_unit_sphere

        random_commit = sum(
            instant_regret(inst, task, sample_unit_sphere(inst.dim, rng)) * remaining
            for task in range(inst.num_tasks)
        )
        assert diag.stage3_regret < random_commit

    def test_noiseless_oracle_mode_exact(self):
        inst = make_instance(noise_std=0.0, seed=16, horizon=2000, num_tasks=8)
        ledger, diag = run_mtrl(inst, np.random.default_rng(10), noiseless_oracle=True)
        assert diag.stage3_regret <= 1e-6
        assert diag.subspace_error <= 1e-8

    def test_oracle_mode_requires_noiseless(self):
        inst = make_instance(noise_std=1.0, seed=17, horizon=2000, num_tasks=8)
        with pytest.raises(ConfigError, match="noiseless_oracle"):
            run_mtrl(inst, np.random.default_rng(0), noiseless_oracle=True)

    def test_diagnostics_consistent(self):
        inst = make_instance(seed=18, horizon=2000, num_tasks=8)
        ledger, diag = run_mtrl(inst, rng=np.random.default_rng(11))
        assert 0.0 <= diag.subspace_error <= 1.0
        assert diag.per_task_theta_error.shape == (inst.num_tasks,)
        total = diag.stage1_regret + diag.stage2_regret + diag.stage3_regret
        assert total == pytest.approx(ledger.total, rel=1e-12)
        # instrumentation orthonormality
        gram = diag.basis_hat.T @ diag.basis_hat
        assert np.max(np.abs(gram - np.eye(inst.rep_dim))) < 1e-8

    def test_subspace_error_improves_with_bigger_stage1(self):
        medians = {}
        for t1 in (400, 1600):
            errs = []
            for seed in range(50):
                inst = make_instance(seed=500 + seed)
                ledger = RegretLedger(inst.num_tasks, 0)
                basis_hat = stage1_basis(inst, t1, np.random.default_rng(600 + seed), ledger)
                errs.append(subspace_distance(basis_hat, inst.basis))
            medians[t1] = float(np.median(errs))
        assert medians[1600] < medians[400]
