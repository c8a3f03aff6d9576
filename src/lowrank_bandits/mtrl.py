"""Three-stage multi-task bandit algorithm with a rectangular subspace estimator.

Stage 1 plays sphere-uniform actions on every task, forms a moment
estimate of each task coefficient, stacks them into a ``(dim, num_tasks)``
matrix and takes its top-``rep_dim`` left singular vectors as the shared
subspace.  Stage 2 plays each estimated basis column for a fixed block per
task and solves a least-squares problem for the low-dimensional weights.
Stage 3 commits to the greedy unit-ball action for the rest of the horizon.

The three-stage skeleton is shared with the squared-covariance variant in
:mod:`lowrank_bandits.baselines`; only the Stage-1 subspace estimator
differs, so paired runs with a common seed isolate the estimator's effect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .env import (
    BanditInstance,
    RegretLedger,
    instant_regret,
    instant_regret_many,
    pull_many,
)
from .errors import ConfigError, HorizonTooShortError
from .linalg import (
    argmax_unit_ball,
    least_squares_on_subspace,
    sample_unit_sphere_many,
    subspace_distance,
    top_k_left_singular_vectors,
)


@dataclass(frozen=True)
class MtrlConfig:
    """Budget overrides and test hooks; defaults follow the budget formulas.

    ``noiseless_oracle`` replaces the Stage-1 moment estimator with exact
    per-task least squares over the Stage-1 actions.  It requires
    ``noise_std == 0`` and ``t1 >= dim`` and exists to provide a
    deterministic exact-recovery regression path; the default path always
    uses the moment estimator.
    """

    t1_override: int | None = None
    t2_override: int | None = None
    noiseless_oracle: bool = False


def resolve_budgets(
    dim: int,
    rep_dim: int,
    num_tasks: int,
    horizon: int,
    config: MtrlConfig | None = None,
) -> tuple[int, int, int]:
    """Stage budgets ``(t1, t2, block)``.

    Defaults: ``t1 = ceil(dim * sqrt(rep_dim * horizon / num_tasks))`` and
    ``block = ceil(sqrt(horizon))`` with ``t2 = rep_dim * block``.  Defining
    ``t2`` through an integer per-column block keeps Stage 2's per-column
    budgets equal while preserving the ``rep_dim * sqrt(horizon)`` rate.
    Too-short horizons are a hard error: silently clamping budgets would
    distort regret comparisons.
    """
    config = config or MtrlConfig()
    if config.t1_override is not None:
        if config.t1_override < 1:
            raise ConfigError(f"t1_override: must be >= 1, got {config.t1_override}")
        t1 = int(config.t1_override)
    else:
        t1 = math.ceil(dim * math.sqrt(rep_dim * horizon / num_tasks))
    if config.t2_override is not None:
        if config.t2_override < rep_dim or config.t2_override % rep_dim:
            raise ConfigError(
                f"t2_override: must be a positive multiple of rep_dim={rep_dim}, "
                f"got {config.t2_override}"
            )
        block = config.t2_override // rep_dim
    else:
        block = math.ceil(math.sqrt(horizon))
    t2 = rep_dim * block
    if t1 + t2 > horizon:
        raise HorizonTooShortError(
            f"stage budgets t1={t1} + t2={t2} exceed horizon {horizon}"
        )
    return t1, t2, block


def moment_estimate_theta(
    actions: np.ndarray, rewards: np.ndarray, dim: int
) -> np.ndarray:
    """Moment estimate ``(dim / n) * sum_t r_t a_t``.

    Unbiased under sphere-uniform actions because ``E[dim * a a^T] = I``.
    """
    actions = np.asarray(actions, dtype=float)
    rewards = np.asarray(rewards, dtype=float).ravel()
    if actions.ndim != 2 or actions.shape[0] == 0:
        raise ValueError("need at least one (action, reward) sample")
    if actions.shape[0] != rewards.shape[0]:
        raise ValueError(
            f"got {actions.shape[0]} actions but {rewards.shape[0]} rewards"
        )
    if actions.shape[1] != dim:
        raise ValueError(f"action dimension {actions.shape[1]} != {dim}")
    return (dim / rewards.shape[0]) * (actions.T @ rewards)


def collect_stage1_samples(
    instance: BanditInstance, t1: int, rng: np.random.Generator, ledger: RegretLedger
) -> tuple[np.ndarray, np.ndarray]:
    """Sphere-uniform exploration on every task: actions (M, t1, d), rewards (M, t1)."""
    num_tasks, dim = instance.num_tasks, instance.dim
    actions = np.empty((num_tasks, t1, dim))
    rewards = np.empty((num_tasks, t1))
    regrets = np.empty((num_tasks, t1))
    for task in range(num_tasks):
        acts = sample_unit_sphere_many(dim, t1, rng)
        actions[task] = acts
        rewards[task] = pull_many(instance, task, acts, rng)
        regrets[task] = instant_regret_many(instance, task, acts)
    ledger.record_interleaved(regrets)
    return actions, rewards


def moment_theta_matrix(actions: np.ndarray, rewards: np.ndarray) -> np.ndarray:
    """Per-task moment estimates stacked as a (dim, num_tasks) matrix."""
    _, t1, dim = actions.shape
    return (dim / t1) * np.einsum("mtd,mt->dm", actions, rewards)


def _rectangular_subspace(
    actions: np.ndarray, rewards: np.ndarray, rep_dim: int
) -> tuple[np.ndarray, np.ndarray]:
    theta_hat = moment_theta_matrix(actions, rewards)
    return theta_hat, top_k_left_singular_vectors(theta_hat, rep_dim)


def _oracle_theta_matrix(actions: np.ndarray, rewards: np.ndarray) -> np.ndarray:
    """Exact per-task least squares over Stage-1 actions (noiseless runs only)."""
    num_tasks, t1, dim = actions.shape
    if t1 < dim:
        raise ConfigError(
            f"noiseless_oracle: needs t1 >= dim, got t1={t1}, dim={dim}"
        )
    theta_hat = np.empty((dim, num_tasks))
    for task in range(num_tasks):
        theta_hat[:, task] = np.linalg.lstsq(
            actions[task], rewards[task], rcond=None
        )[0]
    return theta_hat


def stage2_per_task(
    instance: BanditInstance,
    basis_hat: np.ndarray,
    t2: int,
    block: int,
    rng: np.random.Generator,
    ledger: RegretLedger,
) -> np.ndarray:
    """Stage 2: play each basis column ``block`` times per task, solve least squares.

    Returns the ``(width, num_tasks)`` weight estimates and records
    ``num_tasks * t2`` pulls.
    """
    width = basis_hat.shape[1]
    if block < 1 or t2 != width * block:
        raise ValueError(f"t2={t2} must equal width*block = {width}*{block}")
    actions = np.repeat(basis_hat.T, block, axis=0)  # column i for block steps, in order
    num_tasks = instance.num_tasks
    weights_hat = np.empty((width, num_tasks))
    regrets = np.empty((num_tasks, t2))
    for task in range(num_tasks):
        rewards = pull_many(instance, task, actions, rng)
        weights_hat[:, task] = least_squares_on_subspace(actions, rewards, basis_hat)
        regrets[task] = instant_regret_many(instance, task, actions)
    ledger.record_interleaved(regrets)
    return weights_hat


def stage3_commit(
    instance: BanditInstance,
    theta_hats: np.ndarray,
    remaining_steps: int,
    ledger: RegretLedger,
) -> None:
    """Stage 3: play the greedy unit-ball action per task for all remaining steps."""
    if remaining_steps < 0:
        raise ValueError(f"remaining_steps must be >= 0, got {remaining_steps}")
    if remaining_steps == 0:
        return
    num_tasks = instance.num_tasks
    per_task = np.empty(num_tasks)
    for task in range(num_tasks):
        action = argmax_unit_ball(theta_hats[:, task])
        per_task[task] = instant_regret(instance, task, action)
    ledger.record_interleaved(per_task[:, None], remaining_steps)


@dataclass(eq=False)
class MtrlDiagnostics:
    """Instrumentation computed against the ground truth after a run.

    ``subspace_error`` is the sin-theta distance between the estimated and
    true subspaces.  Diagnostics never feed back into decisions; the
    algorithm itself sees only rewards.
    """

    theta_hat_stage1: np.ndarray | None
    basis_hat: np.ndarray
    weights_hat: np.ndarray
    subspace_error: float
    per_task_theta_error: np.ndarray
    stage1_regret: float
    stage2_regret: float
    stage3_regret: float


def _run_three_stage(
    instance: BanditInstance,
    config: MtrlConfig,
    rng: np.random.Generator,
    trace_stride: int,
    subspace_estimator: Callable[[np.ndarray, np.ndarray, int], tuple[np.ndarray | None, np.ndarray]],
) -> tuple[RegretLedger, MtrlDiagnostics]:
    """Shared skeleton: Stage 1 with a pluggable subspace estimator, then 2 and 3."""
    t1, t2, block = resolve_budgets(
        instance.dim, instance.rep_dim, instance.num_tasks, instance.horizon, config
    )
    ledger = RegretLedger(instance.num_tasks, trace_stride)
    if config.noiseless_oracle and instance.noise_std != 0:
        raise ConfigError("noiseless_oracle: requires noise_std == 0")

    actions, rewards = collect_stage1_samples(instance, t1, rng, ledger)
    if config.noiseless_oracle:
        theta_hat = _oracle_theta_matrix(actions, rewards)
        basis_hat = top_k_left_singular_vectors(theta_hat, instance.rep_dim)
    else:
        theta_hat, basis_hat = subspace_estimator(actions, rewards, instance.rep_dim)
    stage1_regret = ledger.total

    weights_hat = stage2_per_task(instance, basis_hat, t2, block, rng, ledger)
    stage2_regret = ledger.total - stage1_regret

    committed = basis_hat @ weights_hat
    stage3_commit(instance, committed, instance.horizon - t1 - t2, ledger)
    stage3_regret = ledger.total - stage1_regret - stage2_regret

    diagnostics = MtrlDiagnostics(
        theta_hat_stage1=theta_hat,
        basis_hat=basis_hat,
        weights_hat=weights_hat,
        subspace_error=subspace_distance(basis_hat, instance.basis),
        per_task_theta_error=np.linalg.norm(committed - instance.thetas, axis=0),
        stage1_regret=stage1_regret,
        stage2_regret=stage2_regret,
        stage3_regret=stage3_regret,
    )
    return ledger, diagnostics


def run_mtrl(
    instance: BanditInstance,
    config: MtrlConfig | None = None,
    rng: np.random.Generator | None = None,
    trace_stride: int = 0,
) -> tuple[RegretLedger, MtrlDiagnostics]:
    """Full three-stage run with the rectangular moment + SVD estimator.

    Issues and accounts exactly ``num_tasks * horizon`` pulls.
    """
    config = config or MtrlConfig()
    rng = rng if rng is not None else np.random.default_rng(0)
    return _run_three_stage(instance, config, rng, trace_stride, _rectangular_subspace)
