"""Three-stage multi-task bandit algorithm with a rectangular subspace estimator.

Stage 1 plays sphere-uniform actions on every task, forms a moment estimate
of each task coefficient, stacks them into a ``(dim, num_tasks)`` matrix and
takes its top-``rep_dim`` left singular vectors as the shared subspace.  One
helper, ``_stage1_theta_hat``, fills that matrix column by column while
``collect_stage1_samples`` streams each task's batch, so memory holds the
``(num_tasks, t1)`` regrets plus one batch; the independent baseline
calls it too, and e2tc streams the same batches into its squared-covariance
sum.  Stage 2 plays each estimated basis column for a fixed block per task and
solves a least-squares problem for the low-dimensional weights; every task
plays the same design, so it is factored once.  Stage 3 commits to the greedy
unit-ball action for the rest of the horizon.  Each batch is one pass: the
oracle evaluates it once, for its rewards and its regrets.

The three-stage skeleton, ``_run_three_stage``, is shared with the
squared-covariance variant in :mod:`lowrank_bandits.baselines`; only the
Stage-1 subspace estimator differs, so paired runs with a common seed
isolate the estimator's effect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .env import BanditInstance, RegretLedger, instant_regret, pull_many
# Unused here, but the benchmark tracer (perfbench/tracer.py) wraps this binding.
from .env import instant_regret_many  # noqa: F401
from .errors import ConfigError, HorizonTooShortError
from .linalg import (
    argmax_unit_ball,
    least_squares_on_subspace,
    sample_unit_sphere_many,
    subspace_distance,
    top_k_left_singular_vectors,
)


def resolve_budgets(
    dim: int, rep_dim: int, num_tasks: int, horizon: int
) -> tuple[int, int, int]:
    """Stage budgets ``(t1, t2, block)``.

    ``t1 = ceil(dim * sqrt(rep_dim * horizon / num_tasks))`` and
    ``block = ceil(sqrt(horizon))`` with ``t2 = rep_dim * block``.  Defining
    ``t2`` through an integer per-column block keeps Stage 2's per-column
    budgets equal while preserving the ``rep_dim * sqrt(horizon)`` rate.
    Too-short horizons are a hard error: silently clamping budgets would
    distort regret comparisons.
    """
    t1 = math.ceil(dim * math.sqrt(rep_dim * horizon / num_tasks))
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
    instance: BanditInstance,
    t1: int,
    rng: np.random.Generator,
    ledger: RegretLedger,
    per_task: Callable[[int, np.ndarray, np.ndarray], None],
) -> None:
    """Sphere-uniform exploration on every task, streamed one task at a time.

    Each task's ``(t1, dim)`` batch is drawn, pulled once for its rewards
    and regrets, handed to ``per_task(task, acts, rewards)`` and dropped, so
    memory holds one batch, not ``num_tasks * t1 * dim`` actions.  Per task
    the generator draws ``t1 * dim`` sphere normals, then ``t1`` noise
    normals.  The ``(num_tasks, t1)`` regret matrix is kept and recorded
    once, after the last task: the step-major record needs every task's
    regret at each step.
    """
    num_tasks, dim = instance.num_tasks, instance.dim
    regrets = np.empty((num_tasks, t1))
    for task in range(num_tasks):
        acts = sample_unit_sphere_many(dim, t1, rng)
        rewards = pull_many(instance, task, acts, rng, regrets=regrets[task])
        per_task(task, acts, rewards)
    ledger.record_interleaved(regrets)


def moment_theta_matrix(actions: np.ndarray, rewards: np.ndarray) -> np.ndarray:
    """Per-task moment estimates stacked as a (dim, num_tasks) matrix."""
    _, t1, dim = actions.shape
    return (dim / t1) * np.einsum("mtd,mt->dm", actions, rewards)


def _stage1_theta_hat(
    instance: BanditInstance,
    t1: int,
    rng: np.random.Generator,
    ledger: RegretLedger,
    noiseless_oracle: bool,
    collect: Callable[..., None],
    moment: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> np.ndarray:
    """Stage 1 of mtrl and independent: the ``(dim, num_tasks)`` per-task estimates.

    Column ``task`` is ``moment(acts, rewards)`` of the task's batch, or its
    exact least squares with ``noiseless_oracle``, filled while ``collect``
    (``collect_stage1_samples``) streams.  Both come from the caller's module,
    whose bindings the benchmark tracer wraps.  The noiseless-oracle rules
    raise before a sample is drawn; ``t1 == 0`` draws nothing and leaves
    every column zero, so the run commits blind.
    """
    if noiseless_oracle and instance.noise_std != 0:
        raise ConfigError("noiseless_oracle: requires noise_std == 0")
    theta_hat = np.zeros((instance.dim, instance.num_tasks))
    if t1 == 0:
        return theta_hat
    if noiseless_oracle and t1 < instance.dim:
        raise ConfigError(
            f"noiseless_oracle: needs t1 >= dim, got t1={t1}, dim={instance.dim}"
        )

    def per_task(task, acts, rewards):
        if noiseless_oracle:
            theta_hat[:, task] = np.linalg.lstsq(acts, rewards, rcond=None)[0]
        else:
            theta_hat[:, task] = moment(acts, rewards)

    collect(instance, t1, rng, ledger, per_task)
    return theta_hat


def stage2_per_task(
    instance: BanditInstance,
    basis_hat: np.ndarray,
    block: int,
    rng: np.random.Generator,
    ledger: RegretLedger,
) -> np.ndarray:
    """Stage 2: play each basis column ``block`` times per task, solve least squares.

    Every task plays the same actions, so one call solves all tasks' least
    squares and factors their shared design once.  Returns the ``(width,
    num_tasks)`` weight estimates and records ``num_tasks * width * block``
    pulls.
    """
    width = basis_hat.shape[1]
    actions = np.repeat(basis_hat.T, block, axis=0)  # column i for block steps, in order
    num_tasks = instance.num_tasks
    rewards = np.empty((num_tasks, width * block))
    regrets = np.empty((num_tasks, width * block))
    for task in range(num_tasks):
        rewards[task] = pull_many(instance, task, actions, rng, regrets=regrets[task])
    ledger.record_interleaved(regrets)
    return least_squares_on_subspace(actions, rewards, basis_hat)


def stage3_commit(
    instance: BanditInstance,
    theta_hats: np.ndarray,
    remaining_steps: int,
    ledger: RegretLedger,
) -> None:
    """Stage 3: play the greedy unit-ball action per task for all remaining steps."""
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
    rng: np.random.Generator | None,
    trace_stride: int,
    stage1: Callable[..., tuple[np.ndarray | None, np.ndarray]],
) -> tuple[RegretLedger, MtrlDiagnostics]:
    """Shared skeleton of mtrl and e2tc: Stage 1, then Stages 2 and 3.

    ``stage1(t1, rng, ledger, collect)`` streams each task's batch
    through ``collect`` (this module's ``collect_stage1_samples``, whose
    binding the benchmark tracer wraps) and returns ``(theta_hat,
    basis_hat)``.  Only the reduction of each batch and the final subspace
    step differ between the two runners; e2tc keeps no per-task estimates
    and returns ``None`` for ``theta_hat``.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    t1, t2, block = resolve_budgets(
        instance.dim, instance.rep_dim, instance.num_tasks, instance.horizon
    )
    ledger = RegretLedger(instance.num_tasks, trace_stride)
    theta_hat, basis_hat = stage1(t1, rng, ledger, collect_stage1_samples)
    stage1_regret = ledger.total

    weights_hat = stage2_per_task(instance, basis_hat, block, rng, ledger)
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
    rng: np.random.Generator | None = None,
    trace_stride: int = 0,
    noiseless_oracle: bool = False,
) -> tuple[RegretLedger, MtrlDiagnostics]:
    """Full three-stage run with the rectangular moment + SVD estimator.

    Issues and accounts exactly ``num_tasks * horizon`` pulls.
    ``noiseless_oracle`` replaces the Stage-1 moment estimator with exact
    per-task least squares over the Stage-1 actions.  It requires
    ``noise_std == 0`` and ``t1 >= dim`` and exists to provide a
    deterministic exact-recovery regression path; the default path always
    uses the moment estimator.
    """

    def stage1(t1, rng, ledger, collect):
        theta_hat = _stage1_theta_hat(
            instance, t1, rng, ledger, noiseless_oracle, collect,
            lambda acts, rewards: moment_theta_matrix(acts[None], rewards[None])[:, 0],
        )
        return theta_hat, top_k_left_singular_vectors(theta_hat, instance.rep_dim)

    return _run_three_stage(instance, rng, trace_stride, stage1)
