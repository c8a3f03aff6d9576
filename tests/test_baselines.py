import re

import numpy as np
import pytest

from lowrank_bandits import baselines, mtrl
from lowrank_bandits.baselines import (
    e2tc_squared_estimator,
    independent_exploration_budget,
    run_e2tc,
    run_independent_etc,
)
from lowrank_bandits.env import InstanceSpec, RegretLedger, generate_instance
from lowrank_bandits.errors import ConfigError
from lowrank_bandits.linalg import is_orthonormal, subspace_distance
from lowrank_bandits.mtrl import (
    collect_stage1_samples,
    resolve_budgets,
    run_mtrl,
)


def make_instance(noise_std=1.0, seed=0, dim=10, rep_dim=2, num_tasks=8, horizon=2000):
    spec = InstanceSpec(dim, rep_dim, num_tasks, horizon, noise_std, seed)
    return generate_instance(spec)


class TestSquaredEstimator:
    def test_rank_one_single_task(self):
        rng = np.random.default_rng(0)
        theta = rng.standard_normal(5)
        theta /= np.linalg.norm(theta)
        actions = np.tile(theta, (1, 12, 1))
        rewards = np.einsum("mtd,d->mt", actions, theta)  # noiseless: all ones
        basis = e2tc_squared_estimator(actions, rewards, 5, 1)
        assert min(
            np.linalg.norm(basis[:, 0] - theta), np.linalg.norm(basis[:, 0] + theta)
        ) <= 1e-10

    def test_reward_sign_invariance(self):
        rng = np.random.default_rng(1)
        actions = rng.standard_normal((3, 20, 6))
        actions /= np.linalg.norm(actions, axis=2, keepdims=True)
        rewards = rng.standard_normal((3, 20))
        a = e2tc_squared_estimator(actions, rewards, 6, 2)
        b = e2tc_squared_estimator(actions, -rewards, 6, 2)
        assert np.array_equal(a, b)

    def test_sample_permutation_invariance(self):
        rng = np.random.default_rng(2)
        actions = rng.standard_normal((2, 15, 4))
        rewards = rng.standard_normal((2, 15))
        perm = rng.permutation(15)
        a = e2tc_squared_estimator(actions, rewards, 4, 2)
        b = e2tc_squared_estimator(actions[:, perm], rewards[:, perm], 4, 2)
        assert np.allclose(a @ a.T, b @ b.T, atol=1e-10)  # same subspace

    def test_matrix_is_psd_and_basis_orthonormal(self):
        rng = np.random.default_rng(3)
        actions = rng.standard_normal((4, 25, 7))
        rewards = rng.standard_normal((4, 25))
        weighted = np.einsum("mtd,mte,mt->de", actions, actions, rewards**2) / 100
        eigvals = np.linalg.eigvalsh((weighted + weighted.T) / 2)
        assert eigvals.min() >= -1e-10
        basis = e2tc_squared_estimator(actions, rewards, 7, 3)
        assert is_orthonormal(basis)

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError):
            e2tc_squared_estimator(np.zeros((2, 0, 3)), np.zeros((2, 0)), 3, 1)

    def test_error_shrinks_at_root_n_rate(self):
        # The squared estimator is consistent, only slow (its eigen-gap is
        # 2 * lambda_k / (d (d + 2))): quadrupling t1 on noisy Stage-1
        # samples must shrink the median sin-theta error by the same band
        # acceptance criterion 3 applies to the rectangular estimator.
        medians = {}
        for t1 in (2000, 8000):
            errors = []
            for seed in range(20):
                inst = make_instance(seed=10_000 + seed, num_tasks=25, horizon=10_000)
                batches = []
                collect_stage1_samples(
                    inst, t1, np.random.default_rng(20_000 + seed), RegretLedger(25, 0),
                    lambda task, *batch: batches.append(batch),
                )
                actions, rewards = (np.stack(parts) for parts in zip(*batches))
                basis = e2tc_squared_estimator(actions, rewards, inst.dim, inst.rep_dim)
                errors.append(subspace_distance(basis, inst.basis))
            medians[t1] = float(np.median(errors))
        assert 1.4 <= medians[2000] / medians[8000] <= 2.8


class TestRunE2tc:
    def test_shared_stage1_with_mtrl(self):
        # same seed: the two algorithms see identical Stage-1 samples, so the
        # ledgers agree exactly up to the end of Stage 1
        inst = make_instance(seed=4)
        t1, _, _ = resolve_budgets(inst.dim, inst.rep_dim, inst.num_tasks, inst.horizon)
        led_m, _ = run_mtrl(inst, rng=np.random.default_rng(5), trace_stride=1)
        led_e, _ = run_e2tc(inst, rng=np.random.default_rng(5), trace_stride=1)
        boundary = inst.num_tasks * t1
        tm, cm = led_m.trace()
        te, ce = led_e.trace()
        assert np.array_equal(tm[:boundary], te[:boundary])
        assert np.array_equal(cm[:boundary], ce[:boundary])

    def test_accounts_every_pull(self):
        inst = make_instance(seed=6)
        ledger, diag = run_e2tc(inst, rng=np.random.default_rng(7))
        assert ledger.num_pulls == inst.num_tasks * inst.horizon
        assert diag.theta_hat_stage1 is None  # the squared path has no per-task estimates

    def test_noiseless_oracle_not_supported(self):
        inst = make_instance(noise_std=0.0, seed=8)
        with pytest.raises(TypeError):
            run_e2tc(inst, np.random.default_rng(0), noiseless_oracle=True)


class TestIndependentBaseline:
    def test_budget_formula(self):
        assert independent_exploration_budget(10, 10_000) == 1000
        assert independent_exploration_budget(10, 100) == 50  # clamped at T // 2

    def test_accounts_every_pull(self):
        inst = make_instance(seed=9)
        ledger, details = run_independent_etc(inst, np.random.default_rng(10))
        assert ledger.num_pulls == inst.num_tasks * inst.horizon
        assert details is None

    def test_noiseless_oracle_commit_is_near_zero(self):
        inst = make_instance(noise_std=0.0, seed=11, horizon=600)
        explore = independent_exploration_budget(inst.dim, inst.horizon)
        ledger, _ = run_independent_etc(
            inst, np.random.default_rng(12), noiseless_oracle=True, trace_stride=1
        )
        ts, cums = ledger.trace()
        boundary = inst.num_tasks * explore
        commit_regret = ledger.total - cums[boundary - 1]
        assert commit_regret <= 1e-9

    def test_commit_regret_geometry(self):
        # a direction error of angle alpha costs 1 - cos(alpha) per commit step
        inst = make_instance(noise_std=0.0, seed=13)
        from lowrank_bandits.env import instant_regret
        from lowrank_bandits.linalg import argmax_unit_ball

        theta = inst.thetas[:, 0]
        other = inst.thetas[:, 1]
        tilt = theta + 0.3 * (other - theta * (theta @ other))
        action = argmax_unit_ball(tilt)
        cos_angle = float(action @ theta)
        assert instant_regret(inst, 0, action) == pytest.approx(1 - cos_angle, abs=1e-12)
        assert instant_regret(inst, 0, action) >= 0.0

    def test_noiseless_oracle_requires_noiseless(self):
        inst = make_instance(noise_std=1.0, seed=14)
        with pytest.raises(ConfigError):
            run_independent_etc(inst, np.random.default_rng(0), noiseless_oracle=True)


class TestHorizonOne:
    """Independent at horizon 1 has no exploration budget and commits blind."""

    @pytest.mark.parametrize(
        "noise_std,options", [(1.0, {}), (0.0, {"noiseless_oracle": True})], ids=["moment", "oracle"]
    )
    def test_commits_blind_without_sampling(self, noise_std, options):
        inst = make_instance(noise_std=noise_std, seed=21, horizon=1)
        assert independent_exploration_budget(inst.dim, inst.horizon) == 0
        rng = np.random.default_rng(4)
        ledger, _ = run_independent_etc(inst, rng, 1, **options)
        assert rng.bit_generator.state == np.random.default_rng(4).bit_generator.state
        assert ledger.num_pulls == inst.num_tasks
        # the blind action is the first standard basis vector
        assert np.array_equal(ledger.trace()[1], np.cumsum(1.0 - inst.thetas[0]))


class TestNoiselessOracleRequiresNoiseless:
    """A noisy instance with the noiseless oracle raises before any pull or draw."""

    @pytest.mark.parametrize(
        "module,run,horizon",
        [(mtrl, run_mtrl, 2000), (baselines, run_independent_etc, 2000), (baselines, run_independent_etc, 1)],
        ids=["mtrl", "independent", "independent_horizon_1"],
    )
    def test_raises_before_sampling(self, monkeypatch, module, run, horizon):
        ledgers = []

        class Spy(RegretLedger):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                ledgers.append(self)

        monkeypatch.setattr(module, "RegretLedger", Spy)
        inst = make_instance(noise_std=1.0, seed=22, horizon=horizon)
        rng = np.random.default_rng(5)
        message = re.escape("noiseless_oracle: requires noise_std == 0")
        with pytest.raises(ConfigError, match=message):
            run(inst, rng, 0, noiseless_oracle=True)
        assert all(ledger.num_pulls == 0 for ledger in ledgers)
        assert rng.bit_generator.state == np.random.default_rng(5).bit_generator.state
