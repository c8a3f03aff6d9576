"""Comparison algorithms: the independent per-task baseline and the
squared-covariance estimator variant of the three-stage algorithm.

The squared-covariance variant reuses the exact Stage-2/Stage-3 code and
budgets of :func:`lowrank_bandits.mtrl.run_mtrl`; only the Stage-1 subspace
estimator is swapped.  Running both on the same seed therefore attributes
any regret difference to the estimator alone.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .env import BanditInstance, RegretLedger
# Unused here, but the benchmark tracer (perfbench/tracer.py) wraps this binding.
from .env import instant_regret  # noqa: F401
from .mtrl import (
    Collect,
    MtrlDiagnostics,
    collect_stage1_samples,
    _oracle_column,
    _require_noiseless,
    _run_three_stage,
    _theta_matrix,
    moment_estimate_theta,
    stage3_commit,
)


def e2tc_squared_estimator(
    actions: np.ndarray, rewards: np.ndarray, dim: int, rep_dim: int
) -> np.ndarray:
    """Subspace estimate from the squared-reward weighted covariance matrix.

    Pools every task's samples into the single ``(dim, dim)`` matrix
    ``(1 / (n * num_tasks)) * sum_{t,m} r_{t,m}^2 a_{t,m} a_{t,m}^T`` and
    returns its top ``rep_dim`` eigenvectors.  Squaring the rewards makes
    the matrix insensitive to reward sign but inflates its variance, which
    is exactly what the rectangular estimator avoids.

    Under sphere-uniform actions and noise of variance ``sigma^2`` its
    expectation is ``(mean_m |theta_m|^2 I + 2 Theta Theta^T / num_tasks)
    / (dim (dim + 2)) + sigma^2 I / dim``, so the signal sits only in the
    eigen-gap ``2 lambda_k / (dim (dim + 2))``, with ``lambda_k`` the
    ``rep_dim``-th eigenvalue of ``Theta Theta^T / num_tasks``.  The
    estimator is consistent but needs far more samples than the
    rectangular one to resolve that gap.
    """
    actions = np.asarray(actions, dtype=float)
    rewards = np.asarray(rewards, dtype=float)
    if actions.ndim != 3 or actions.shape[2] != dim:
        raise ValueError(
            f"actions must have shape (num_tasks, n, {dim}), got {actions.shape}"
        )
    if rewards.shape != actions.shape[:2]:
        raise ValueError(
            f"rewards shape {rewards.shape} does not match actions {actions.shape[:2]}"
        )
    if actions.shape[1] == 0:
        raise ValueError("need at least one sample per task")
    if not 1 <= rep_dim <= dim:
        raise ValueError(f"rep_dim must be in [1, {dim}], got {rep_dim}")
    weighted = np.einsum("mtd,mte,mt->de", actions, actions, rewards**2)
    weighted /= actions.shape[0] * actions.shape[1]
    weighted = (weighted + weighted.T) / 2  # symmetrize roundoff
    _, vecs = np.linalg.eigh(weighted)  # eigenvalues ascending
    return np.ascontiguousarray(vecs[:, ::-1][:, :rep_dim])


def _squared_subspace(
    instance: BanditInstance, t1: int, collect: Collect
) -> tuple[None, np.ndarray]:
    """Keeps every batch: the pooled einsum sums over (m, t) in one chain,
    and per-task partial sums would change its bits."""
    actions = np.empty((instance.num_tasks, t1, instance.dim))
    rewards = np.empty((instance.num_tasks, t1))

    def keep(task, acts, task_rewards):
        actions[task], rewards[task] = acts, task_rewards

    collect(keep)
    return None, e2tc_squared_estimator(actions, rewards, instance.dim, instance.rep_dim)


def run_e2tc(
    instance: BanditInstance,
    rng: np.random.Generator | None = None,
    trace_stride: int = 0,
) -> tuple[RegretLedger, MtrlDiagnostics]:
    """Three-stage run with the squared-covariance Stage-1 estimator."""
    return _run_three_stage(instance, rng, trace_stride, _squared_subspace)


def independent_exploration_budget(dim: int, horizon: int) -> int:
    """Per-task exploration length: ``min(ceil(dim * sqrt(horizon)), horizon // 2)``.

    The single-task explore-then-commit rate, clamped so at least half the
    horizon remains for the commit phase.
    """
    return min(math.ceil(dim * math.sqrt(horizon)), horizon // 2)


def run_independent_etc(
    instance: BanditInstance,
    rng: np.random.Generator | None = None,
    trace_stride: int = 0,
    noiseless_oracle: bool = False,
) -> tuple[RegretLedger, None]:
    """Explore-then-commit on every task independently; no shared structure.

    Each task explores with sphere-uniform actions, estimates its
    coefficient by the moment estimator (or exact least squares in the
    noiseless oracle mode), then commits to the greedy unit-ball action.
    Issues exactly ``num_tasks * horizon`` pulls.  Returns the ledger and no
    details.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    if noiseless_oracle:
        _require_noiseless(instance)
    num_tasks, dim, horizon = instance.num_tasks, instance.dim, instance.horizon
    explore = independent_exploration_budget(dim, horizon)
    ledger = RegretLedger(num_tasks, trace_stride)

    if explore == 0:  # horizon 1: nothing to learn from, commit blind
        theta_hats = np.zeros((dim, num_tasks))
    else:
        if noiseless_oracle:
            column = _oracle_column(instance, explore)
        else:
            column = functools.partial(moment_estimate_theta, dim=dim)
        collect = functools.partial(collect_stage1_samples, instance, explore, rng, ledger)
        theta_hats = _theta_matrix(instance, collect, column)

    stage3_commit(instance, theta_hats, horizon - explore, ledger)
    return ledger, None
