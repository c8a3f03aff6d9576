import numpy as np
import pytest

from lowrank_bandits.env import InstanceSpec, RegretLedger, generate_instance
from lowrank_bandits.errors import ConfigError, HorizonTooShortError
from lowrank_bandits.linalg import empty_basis, is_orthonormal
from lowrank_bandits.lll import (
    extend_basis,
    log_factor,
    needs_reestimation,
    reestimate_theta_coordinatewise,
    regret_mode_epsilon,
    run_lll,
    sample_budget_stage1,
    sample_budget_stage2,
    task_specific_exploration,
)


def make_instance(noise_std=1.0, seed=0, dim=10, rep_dim=2, num_tasks=50, horizon=10_000):
    spec = InstanceSpec(dim, rep_dim, num_tasks, horizon, noise_std, seed)
    return generate_instance(spec)


class TestBudgets:
    def test_empty_basis_skips_stage1(self):
        assert sample_budget_stage1(0, 0.1, 0.05, 10, 50) == 0

    def test_log_arithmetic(self):
        # ceil(4 * 2 * log(2 * 10 * 50 / 0.05) / 0.01) = ceil(7922.79...) = 7923
        assert sample_budget_stage1(2, 0.1, 0.05, 10, 50) == 7923

    def test_monotonicity(self):
        budgets_width = [sample_budget_stage1(w, 0.1, 0.05, 10, 50) for w in (1, 2, 5)]
        assert budgets_width == sorted(budgets_width)
        budgets_eps = [sample_budget_stage1(2, e, 0.05, 10, 50) for e in (0.2, 0.1, 0.05)]
        assert budgets_eps == sorted(budgets_eps)

    def test_stage2_formula(self):
        lf = log_factor(0.05, 10, 50)
        expected = int(np.ceil(16 * 10 * lf / 0.01))
        assert sample_budget_stage2(0.1, 0.05, 10, 50) == expected

    def test_regret_mode_epsilon_value(self):
        # ((100*2 + 4*50) / (50*1e4)) ** 0.25
        assert regret_mode_epsilon(10, 2, 50, 10_000) == pytest.approx(0.0008**0.25)


class TestNormTest:
    def test_zero_reconstruction_triggers(self):
        assert needs_reestimation(np.zeros(4), 0.1)

    def test_unit_norm_never_triggers(self):
        assert not needs_reestimation(np.array([1.0, 0.0]), 0.3)

    def test_boundary_inclusive(self):
        # 1 - 0.25 = 0.75 is exactly representable: the boundary uses <=
        assert needs_reestimation(np.array([0.75, 0.0]), 0.25)


class TestTaskSpecificExploration:
    def test_empty_basis_pulls_nothing(self):
        inst = make_instance(seed=1)
        ledger = RegretLedger(inst.num_tasks, 0)
        theta_tilde, w_tilde = task_specific_exploration(
            inst, 0, empty_basis(inst.dim), 0, np.random.default_rng(0), ledger
        )
        assert np.array_equal(theta_tilde, np.zeros(inst.dim))
        assert w_tilde.shape == (0,)
        assert ledger.num_pulls == 0

    def test_noiseless_in_span_exact(self):
        inst = make_instance(noise_std=0.0, seed=2)
        ledger = RegretLedger(inst.num_tasks, 0)
        theta_tilde, _ = task_specific_exploration(
            inst, 3, inst.basis, 5, np.random.default_rng(0), ledger
        )
        assert np.max(np.abs(theta_tilde - inst.thetas[:, 3])) <= 1e-10
        assert ledger.num_pulls == inst.rep_dim * 5

    def test_noiseless_orthogonal_span_vanishes(self):
        inst = make_instance(noise_std=0.0, seed=3)
        # build an orthonormal basis orthogonal to the true representation
        full = np.linalg.qr(
            np.hstack([inst.basis, np.random.default_rng(1).standard_normal((10, 8))])
        )[0]
        ortho = full[:, inst.rep_dim : inst.rep_dim + 3]
        ledger = RegretLedger(inst.num_tasks, 0)
        theta_tilde, _ = task_specific_exploration(
            inst, 0, ortho, 4, np.random.default_rng(2), ledger
        )
        assert np.max(np.abs(theta_tilde)) <= 1e-10

    def test_reconstruction_is_projection_noiseless(self):
        inst = make_instance(noise_std=0.0, seed=4)
        partial = inst.basis[:, :1]
        ledger = RegretLedger(inst.num_tasks, 0)
        theta_tilde, _ = task_specific_exploration(
            inst, 7, partial, 3, np.random.default_rng(3), ledger
        )
        projection = partial @ (partial.T @ inst.thetas[:, 7])
        assert np.max(np.abs(theta_tilde - projection)) <= 1e-10


class TestReestimate:
    def test_noiseless_exact(self):
        inst = make_instance(noise_std=0.0, seed=5)
        ledger = RegretLedger(inst.num_tasks, 0)
        theta_hat = reestimate_theta_coordinatewise(
            inst, 2, 4, np.random.default_rng(0), ledger
        )
        assert np.max(np.abs(theta_hat - inst.thetas[:, 2])) <= 1e-12
        assert ledger.num_pulls == inst.dim * 4

    def test_concentration_at_formula_budget(self):
        # with the stage-2 budget at eps=0.1, the estimate lands within eps
        # in at least 95% of seeds
        n2 = sample_budget_stage2(0.1, 0.05, 10, 50)
        hits = 0
        for seed in range(200):
            inst = make_instance(noise_std=1.0, seed=700 + seed)
            ledger = RegretLedger(inst.num_tasks, 0)
            theta_hat = reestimate_theta_coordinatewise(
                inst, 0, n2, np.random.default_rng(800 + seed), ledger
            )
            if np.linalg.norm(theta_hat - inst.thetas[:, 0]) <= 0.1:
                hits += 1
        assert hits >= 190


class TestExtendBasis:
    def test_empty_basis_takes_the_estimate(self):
        e1 = np.array([1.0, 0.0, 0.0])
        basis, extended = extend_basis(empty_basis(3), e1, 0.1)
        assert extended
        assert np.allclose(basis, e1[:, None], atol=1e-12)

    def test_in_span_estimate_declined(self):
        basis0 = np.eye(3)[:, :1]
        basis, extended = extend_basis(basis0, np.array([0.9, 0.0, 0.0]), 0.1)
        assert not extended
        assert basis is basis0

    def test_projection_arithmetic(self):
        basis0 = np.eye(3)[:, :1]
        theta = np.array([1.0, 1.0, 0.0]) / np.sqrt(2)
        basis, extended = extend_basis(basis0, theta, 0.1)
        assert extended
        assert np.allclose(basis[:, 1], [0.0, 1.0, 0.0], atol=1e-10)

    def test_full_width_basis_never_extends(self):
        basis0 = np.eye(2)
        theta = np.array([0.6, 0.8])
        basis, extended = extend_basis(basis0, theta, 0.1)
        assert not extended and basis.shape == (2, 2)

    def test_result_stays_orthonormal(self):
        rng = np.random.default_rng(6)
        basis = empty_basis(8)
        for _ in range(8):
            candidate = rng.standard_normal(8)
            basis, _ = extend_basis(basis, candidate, 0.01)
            assert is_orthonormal(basis)

    def test_checks_its_arguments(self):
        # the public boundary: extend_basis checks its basis; numpy rejects a wrong-length estimate
        with pytest.raises(ValueError, match="orthonormal"):
            extend_basis(np.full((3, 1), 0.9), np.ones(3), 0.1)
        with pytest.raises(ValueError):
            extend_basis(np.eye(3)[:, :1], np.ones(4), 0.1)


class TestRunLll:
    def test_noiseless_exact_chain(self):
        # frozen seed where every early task either lies in the learned span
        # or triggers re-estimation; the chain is then exact end to end
        inst = make_instance(noise_std=0.0, seed=101)
        _, state = run_lll(inst, np.random.default_rng(901), mode="regret")
        errs = np.linalg.norm(state.theta_hats - inst.thetas, axis=0)
        assert state.width == inst.rep_dim
        assert errs.max() <= 1e-9
        assert int(state.entered_stage2.sum()) == inst.rep_dim
        assert state.per_task_commit_regret.sum() <= 1e-6
        assert len(state.extension_tasks) == state.width

    def test_sample_accounting_identity(self):
        inst = make_instance(seed=7, num_tasks=20, horizon=10_000)
        ledger, state = run_lll(
            inst, np.random.default_rng(8), mode="pure_exploration", epsilon=0.2, delta=0.05
        )
        # rebuild the total from widths and stage-2 entries
        expected = 0
        width_before = 0
        for task in range(inst.num_tasks):
            n1 = sample_budget_stage1(width_before, 0.2, 0.05, inst.dim, inst.num_tasks)
            expected += width_before * n1
            if state.entered_stage2[task]:
                expected += inst.dim * sample_budget_stage2(
                    0.2, 0.05, inst.dim, inst.num_tasks
                )
            width_before = state.width_after[task]
        total = int(state.samples_used.sum())
        assert total == expected
        assert total == ledger.num_pulls  # pure exploration: every pull is exploration

    def test_pure_mode_trace_and_width_monotone(self):
        inst = make_instance(seed=9, num_tasks=30)
        ledger, state = run_lll(
            inst,
            np.random.default_rng(10),
            trace_stride=1000,
            mode="pure_exploration",
            epsilon=0.1,
            delta=0.05,
        )
        assert np.all(np.diff(state.width_after) >= 0)
        assert state.width <= inst.dim
        _, cums = ledger.trace()
        assert np.all(np.diff(cums) >= -1e-12)
        assert is_orthonormal(state.basis)

    def test_regret_mode_pull_counts(self):
        inst = make_instance(seed=11, num_tasks=12, horizon=5000)
        ledger, state = run_lll(
            inst, np.random.default_rng(12), mode="regret"
        )
        assert ledger.num_pulls == inst.num_tasks * inst.horizon
        # exploration total excludes commit pulls
        assert state.samples_used.sum() < ledger.num_pulls
        assert np.all(state.samples_used <= inst.horizon)

    def test_regret_mode_overflow_raises(self):
        inst = make_instance(seed=13, num_tasks=50, horizon=100)
        with pytest.raises(HorizonTooShortError):
            run_lll(inst, np.random.default_rng(14), mode="regret")

    def test_regret_mode_stage1_overrun_raises(self):
        # epsilon < 1, but the first task's stage-1 budget alone exceeds the horizon
        inst = generate_instance(InstanceSpec(2, 2, 4, 12, 1.0, 0))
        message = "task 3: stage-1 exploration needs 24 pulls, horizon is 12"
        with pytest.raises(HorizonTooShortError, match=message):
            run_lll(inst, np.random.default_rng(0), mode="regret")

    @pytest.mark.parametrize("horizon", [1, 5, 12])
    def test_regret_mode_epsilon_of_one_raises(self, horizon):
        # Derived epsilon >= 1: the norm test ||theta|| <= 1 - epsilon cannot
        # fire, so the learner would commit every task blind.
        inst = make_instance(seed=13, num_tasks=25, horizon=horizon)
        assert regret_mode_epsilon(inst.dim, inst.rep_dim, inst.num_tasks, horizon) >= 1
        with pytest.raises(HorizonTooShortError, match="epsilon"):
            run_lll(inst, np.random.default_rng(14), mode="regret")

    def test_epsilon_required_in_pure_mode(self):
        inst = make_instance(seed=15)
        with pytest.raises(ConfigError, match="epsilon"):
            run_lll(inst, np.random.default_rng(0), mode="pure_exploration")

    @pytest.mark.parametrize(
        "epsilon,delta,message",
        [
            (1e-308, 0.05, "epsilon: 1e-308 allows up to inf pulls"),  # epsilon**2 underflows
            (1e-160, 0.05, "epsilon: 1e-160 allows up to inf pulls"),  # the budget overflows
            (0.3, 1e-308, "delta: 1e-308 makes log(2 * dim * num_tasks / delta) infinite"),
        ],
    )
    def test_infinite_pure_exploration_budget_rejected(self, epsilon, delta, message):
        with pytest.raises(ConfigError) as error:
            run_lll(make_instance(seed=15), mode="pure_exploration", epsilon=epsilon, delta=delta)
        assert str(error.value).startswith(message)

    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigError, match="mode"):
            run_lll(make_instance(seed=15), mode="both", epsilon=0.1)

    def test_config_is_required(self):
        # No default objective: a run must say which mode it plays.
        with pytest.raises(TypeError, match="mode"):
            run_lll(make_instance(seed=15))

    def test_mode_is_required(self):
        with pytest.raises(TypeError, match="mode"):
            run_lll(make_instance(seed=15), np.random.default_rng(0), epsilon=0.1)

    def test_deterministic_given_seed(self):
        inst = make_instance(seed=16, num_tasks=15)
        options = dict(mode="pure_exploration", epsilon=0.1)
        a = run_lll(inst, np.random.default_rng(17), **options)
        b = run_lll(inst, np.random.default_rng(17), **options)
        assert np.array_equal(a[1].samples_used, b[1].samples_used)
        assert np.array_equal(a[1].theta_hats, b[1].theta_hats)
        assert a[0].total == b[0].total


class TestBasisGrowth:
    def test_noiseless_width_at_most_32(self):
        inst = make_instance(noise_std=0.0, seed=101)
        _, state = run_lll(
            inst, np.random.default_rng(901), mode="pure_exploration", epsilon=0.1
        )
        # 4 * k * ceil(log(k / epsilon) + 1) = 4 * 2 * ceil(log(20) + 1) = 32
        assert state.width <= 32

    def test_width_never_exceeds_dim(self):
        inst = make_instance(seed=19, num_tasks=40)
        _, state = run_lll(
            inst, np.random.default_rng(20), mode="pure_exploration", epsilon=0.3
        )
        assert state.width <= inst.dim


class TestGoldenRun:
    """``run_lll`` at a fixed shape and seed gives the values recorded before the
    lifelong hot path was optimised: final regret to the bit, budgets and widths."""

    GOLDEN = {
        "regret": (
            "0x1.9a675e8da1b2bp+13",
            [992, 1054, 248, 248, 1240] + [558] * 11,
        ),
        "pure_exploration": (
            "0x1.47f6576923ec6p+18",
            [97184, 97564, 1520, 1520, 98704] + [3417] * 11,
        ),
    }

    @pytest.mark.parametrize("mode", sorted(GOLDEN))
    def test_matches_recorded_values(self, mode):
        inst = make_instance(seed=7, dim=8, rep_dim=3, num_tasks=16, horizon=5000)
        epsilon = 0.3 if mode == "pure_exploration" else None
        ledger, state = run_lll(inst, np.random.default_rng(8), 10, mode=mode, epsilon=epsilon)
        total_hex, samples_used = self.GOLDEN[mode]
        assert ledger.total.hex() == total_hex
        assert state.samples_used.tolist() == samples_used
        assert state.width_after.tolist() == [1, 2, 2, 2] + [3] * 12
        assert np.flatnonzero(state.entered_stage2).tolist() == [0, 1, 4]
