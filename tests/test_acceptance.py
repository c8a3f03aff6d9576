"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance is fixed here; nothing is calibrated after the fact.  The
comparative criteria are Monte-Carlo checks at desk scale with frozen
seeds; the kernel criteria compare against independent oracles computed
inside the tests.
"""

import numpy as np
import pytest

from lowrank_bandits.baselines import e2tc_squared_estimator, run_independent_etc
from lowrank_bandits.env import InstanceSpec, RegretLedger, generate_instance
from lowrank_bandits.harness import (
    WORKERS_ENV_VAR,
    ExperimentConfig,
    compare,
    run_experiment,
)
from lowrank_bandits.linalg import (
    argmax_unit_ball,
    least_squares_on_subspace,
    sample_unit_sphere_many,
    subspace_distance,
    top_k_left_singular_vectors,
)
from lowrank_bandits.lll import run_lll
from lowrank_bandits.mtrl import (
    collect_stage1_samples,
    moment_estimate_theta,
    moment_theta_matrix,
    run_mtrl,
)


def report(number: int, name: str, passed: bool, details: str) -> None:
    print(f"ACCEPTANCE {number} ({name}): {'PASS' if passed else 'FAIL'} - {details}")


def fibonacci_sphere(count: int) -> np.ndarray:
    """Deterministic quasi-uniform grid on the unit sphere in 3d."""
    indices = np.arange(count) + 0.5
    phi = np.arccos(1 - 2 * indices / count)
    golden = np.pi * (1 + np.sqrt(5))
    theta = golden * indices
    return np.column_stack(
        [np.sin(phi) * np.cos(theta), np.sin(phi) * np.sin(theta), np.cos(phi)]
    )


def stage1_estimator_errors(t1, seed, dim=10, rep_dim=2, num_tasks=25):
    """Subspace errors of both Stage-1 estimators on one shared sample draw."""
    spec = InstanceSpec(dim, rep_dim, num_tasks, 10_000, 1.0, seed=10_000 + seed)
    instance = generate_instance(spec)
    ledger = RegretLedger(num_tasks, 0)
    batches = []
    collect_stage1_samples(
        instance, t1, np.random.default_rng(20_000 + seed), ledger,
        lambda task, *batch: batches.append(batch),
    )
    actions, rewards = (np.stack(parts) for parts in zip(*batches))
    rect = top_k_left_singular_vectors(moment_theta_matrix(actions, rewards), rep_dim)
    squared = e2tc_squared_estimator(actions, rewards, dim, rep_dim)
    return (
        subspace_distance(rect, instance.basis),
        subspace_distance(squared, instance.basis),
    )


def test_criterion_1_kernel_oracles():
    rng = np.random.default_rng(2024)
    # top-k SVD vs a dense eigendecomposition of A A^T
    worst_svd = 0.0
    for _ in range(50):
        d = int(rng.integers(3, 13))
        m = int(rng.integers(3, 13))
        k = int(rng.integers(1, min(d, m) + 1))
        a = rng.standard_normal((d, m))
        basis = top_k_left_singular_vectors(a, k)
        vals, vecs = np.linalg.eigh(a @ a.T)
        oracle = vecs[:, np.argsort(vals)[::-1][:k]]
        worst_svd = max(worst_svd, subspace_distance(basis, oracle))
    # least squares vs the pseudo-inverse of the reduced design
    worst_ls = 0.0
    for _ in range(50):
        d = int(rng.integers(3, 10))
        k = int(rng.integers(1, d))
        n = int(rng.integers(k + 2, 30))
        basis = top_k_left_singular_vectors(rng.standard_normal((d, d)), k)
        actions = rng.standard_normal((n, d)) / np.sqrt(d)
        rewards = rng.standard_normal(n)
        w = least_squares_on_subspace(actions, basis)(rewards)
        oracle = np.linalg.pinv(actions @ basis) @ rewards
        worst_ls = max(worst_ls, float(np.max(np.abs(w - oracle))))
    # greedy unit-ball action vs a 1e5-point sphere-grid brute force in 3d
    grid = fibonacci_sphere(100_000)
    worst_gap = 0.0
    for _ in range(10):
        theta = rng.standard_normal(3) * rng.uniform(0.5, 2.0)
        achieved = float(argmax_unit_ball(theta) @ theta)
        brute = float(np.max(grid @ theta))
        worst_gap = max(worst_gap, abs(achieved - brute))
    passed = worst_svd <= 1e-8 and worst_ls <= 1e-8 and worst_gap <= 1e-3
    report(
        1,
        "kernel oracles",
        passed,
        f"svd={worst_svd:.2e} ls={worst_ls:.2e} argmax={worst_gap:.2e}",
    )
    assert worst_svd <= 1e-8
    assert worst_ls <= 1e-8
    assert worst_gap <= 1e-3


def test_criterion_2_moment_estimator_unbiased():
    rng = np.random.default_rng(7)
    theta = rng.standard_normal(10)
    theta /= np.linalg.norm(theta)
    actions = sample_unit_sphere_many(10, 100_000, rng)
    rewards = actions @ theta + rng.standard_normal(100_000)
    estimate = moment_estimate_theta(actions, rewards, 10)
    worst = float(np.max(np.abs(estimate - theta)))
    passed = worst <= 0.05
    report(2, "moment estimator unbiasedness", passed, f"max coordinate error {worst:.4f}")
    assert worst <= 0.05


def test_criterion_3_subspace_error_rate():
    medians = {}
    for t1 in (400, 1600):
        errors = [stage1_estimator_errors(t1, seed)[0] for seed in range(50)]
        medians[t1] = float(np.median(errors))
    ratio = medians[400] / medians[1600]
    passed = 1.4 <= ratio <= 2.8
    report(
        3,
        "subspace error rate in stage-1 budget",
        passed,
        f"median@400={medians[400]:.4f} median@1600={medians[1600]:.4f} ratio={ratio:.2f}",
    )
    assert 1.4 <= ratio <= 2.8
    assert medians[1600] < medians[400]


def test_criterion_4_estimator_comparison():
    rect, squared = zip(*(stage1_estimator_errors(283, seed) for seed in range(50)))
    med_rect = float(np.median(rect))
    med_squared = float(np.median(squared))
    passed = med_rect < med_squared
    report(
        4,
        "rectangular vs squared estimator",
        passed,
        f"median rect={med_rect:.4f} squared={med_squared:.4f} over 50 paired seeds",
    )
    assert med_rect < med_squared


@pytest.mark.parametrize("rep_dim", [2, 3, 4])
def test_criterion_5_multitask_regret_ordering(rep_dim):
    configs = [
        ExperimentConfig(
            algorithm=algo,
            dim=10,
            rep_dim=rep_dim,
            num_tasks=50,
            horizon=10_000,
            noise_std=1.0,
            num_seeds=20,
            master_seed=31_000 + rep_dim,
            trace_stride=0,
        )
        for algo in ("mtrl", "e2tc", "independent")
    ]
    table, _ = compare(configs)
    means = {
        s["algorithm"]: s["final_regret"]["mean"] for s in table["summaries"]
    }
    pooled = {
        (p["a"], p["b"]): p["pooled_se"] for p in table["pairs"]
    }
    gap_e2tc = means["e2tc"] - means["mtrl"]
    se_e2tc = pooled[("mtrl", "e2tc")]
    gap_independent = means["independent"] - means["mtrl"]
    se_independent = pooled[("mtrl", "independent")]
    # Reported, not asserted: at M=50 the squared estimator's eigen-gap
    # 2*lambda_k/(d(d+2)) is too small for e2tc to beat independent; it
    # does so only for M in the hundreds (README, "Note on the acceptance
    # suite").
    gap_regime = means["e2tc"] - means["independent"]
    se_regime = pooled[("e2tc", "independent")]
    passed = gap_e2tc > 2 * se_e2tc and gap_independent > 2 * se_independent
    report(
        5,
        f"multitask regret ordering k={rep_dim}",
        passed,
        f"mtrl={means['mtrl']:.0f} e2tc={means['e2tc']:.0f} "
        f"independent={means['independent']:.0f} "
        f"mtrl-vs-e2tc gap={gap_e2tc:.0f} pooled_se={se_e2tc:.0f} "
        f"mtrl-vs-independent gap={gap_independent:.0f} pooled_se={se_independent:.0f} "
        f"e2tc-minus-independent={gap_regime:.0f} pooled_se={se_regime:.0f}",
    )
    assert gap_e2tc > 2 * se_e2tc, (
        "mtrl must beat the squared-estimator variant by > 2 pooled SEs"
    )
    assert gap_independent > 2 * se_independent, (
        "mtrl must beat independent by > 2 pooled SEs"
    )


def test_criterion_6_pure_exploration_guarantees():
    results = {}
    for epsilon in (0.1, 0.05):
        hits = total_pairs = 0
        max_width = 0
        sample_totals = []
        for seed in range(20):
            spec = InstanceSpec(10, 2, 50, 10_000, 1.0, seed=40_000 + seed)
            instance = generate_instance(spec)
            _, state = run_lll(
                instance,
                np.random.default_rng(50_000 + seed),
                mode="pure_exploration",
                epsilon=epsilon,
                delta=0.05,
            )
            errors = np.linalg.norm(state.theta_hats - instance.thetas, axis=0)
            hits += int((errors <= epsilon).sum())
            total_pairs += instance.num_tasks
            max_width = max(max_width, state.width)
            sample_totals.append(state.samples_used.sum())
        results[epsilon] = (hits / total_pairs, max_width, float(np.mean(sample_totals)))
    accuracy, width_01, samples_01 = results[0.1]
    accuracy_05, width_005, samples_005 = results[0.05]
    ratio = samples_005 / samples_01
    passed = (
        accuracy >= 0.95
        and accuracy_05 >= 0.95
        and max(width_01, width_005) <= 8
        and 2.8 <= ratio <= 5.2
    )
    report(
        6,
        "pure-exploration accuracy and sample scaling",
        passed,
        f"accuracy@0.1={accuracy:.3f} accuracy@0.05={accuracy_05:.3f} "
        f"max_width={max(width_01, width_005)} sample_ratio={ratio:.2f}",
    )
    assert accuracy >= 0.95
    assert accuracy_05 >= 0.95
    assert max(width_01, width_005) <= 8
    assert 2.8 <= ratio <= 5.2


def test_criterion_7_lifelong_regret_profile():
    early, late, lll_totals, independent_totals = [], [], [], []
    for seed in range(20):
        spec = InstanceSpec(10, 2, 50, 10_000, 1.0, seed=60_000 + seed)
        instance = generate_instance(spec)
        ledger, state = run_lll(
            instance, np.random.default_rng(61_000 + seed), mode="regret", delta=0.05
        )
        early.append(state.per_task_regret[:25].mean())
        late.append(state.per_task_regret[25:].mean())
        lll_totals.append(ledger.total)
        baseline, _ = run_independent_etc(instance, np.random.default_rng(61_000 + seed))
        independent_totals.append(baseline.total)
    mean_early = float(np.mean(early))
    mean_late = float(np.mean(late))
    mean_lll = float(np.mean(lll_totals))
    mean_independent = float(np.mean(independent_totals))
    passed = mean_late < mean_early and mean_lll < mean_independent
    report(
        7,
        "lifelong per-task profile",
        passed,
        f"tasks 1-25 mean={mean_early:.0f} tasks 26-50 mean={mean_late:.0f} "
        f"lll total={mean_lll:.0f} independent total={mean_independent:.0f}",
    )
    assert mean_late < mean_early
    assert mean_lll < mean_independent


def test_criterion_8_noiseless_exactness():
    # lifelong: frozen seed with the exact-recovery chain
    spec = InstanceSpec(10, 2, 50, 10_000, 0.0, seed=101)
    instance = generate_instance(spec)
    _, state = run_lll(
        instance, np.random.default_rng(901), mode="regret", delta=0.05
    )
    errors = np.linalg.norm(state.theta_hats - instance.thetas, axis=0)
    commit = float(state.per_task_commit_regret.sum())
    lll_ok = (
        state.width == instance.rep_dim
        and float(errors.max()) <= 1e-9
        and commit <= 1e-6
    )
    # multi-task: exact least-squares oracle over stage-1 actions
    spec_m = InstanceSpec(10, 2, 25, 10_000, 0.0, seed=7)
    instance_m = generate_instance(spec_m)
    _, diagnostics = run_mtrl(instance_m, np.random.default_rng(3), noiseless_oracle=True)
    mtrl_ok = diagnostics.stage3_regret <= 1e-6
    passed = lll_ok and mtrl_ok
    report(
        8,
        "noiseless exactness",
        passed,
        f"lll width={state.width} max_err={errors.max():.1e} commit={commit:.1e}; "
        f"mtrl stage3={diagnostics.stage3_regret:.1e}",
    )
    assert state.width == instance.rep_dim
    assert float(errors.max()) <= 1e-9
    assert commit <= 1e-6
    assert diagnostics.stage3_regret <= 1e-6


def test_criterion_9_determinism_and_accounting(tmp_path, monkeypatch):
    base = dict(
        dim=8, rep_dim=2, num_tasks=6, horizon=900, noise_std=1.0,
        num_seeds=3, master_seed=77, trace_stride=10,
    )
    byte_matches = []
    for algorithm in ("mtrl", "e2tc", "independent", "lll"):
        outputs = []
        for label, workers in (("w1", "1"), ("w3", "3")):
            out = tmp_path / f"{algorithm}_{label}"
            monkeypatch.setenv(WORKERS_ENV_VAR, workers)
            config = ExperimentConfig(algorithm=algorithm, out_dir=str(out), **base)
            records, _ = run_experiment(config)
            outputs.append((out / "curves.csv").read_bytes())
            for record in records:
                assert record.trace_t[-1] == base["num_tasks"] * base["horizon"]
                assert np.all(np.diff(record.trace_regret) >= -1e-12)
                assert record.trace_regret[-1] <= 2 * base["num_tasks"] * base["horizon"]
        byte_matches.append(outputs[0] == outputs[1])
    passed = all(byte_matches)
    report(
        9,
        "determinism and accounting",
        passed,
        f"byte-identical across worker counts: {byte_matches}; "
        "every run accounted num_tasks*horizon pulls with a non-decreasing trace",
    )
    assert all(byte_matches)
