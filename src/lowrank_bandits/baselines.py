"""Comparison algorithms: the independent per-task baseline and the
squared-covariance estimator variant of the three-stage algorithm.

The squared-covariance variant reuses the Stage-2/Stage-3 code and budgets
of :func:`lowrank_bandits.mtrl.run_mtrl` and swaps only the Stage-1 subspace
estimator, so a common seed attributes any regret difference to it.  The
independent baseline's Stage 1 is mtrl's, with ``moment_estimate_theta`` as
each task's column.
"""

from __future__ import annotations

import math

import numpy as np

from .env import BanditInstance, RegretLedger
# Unused here, but the benchmark tracer (perfbench/tracer.py) wraps this binding.
from .env import instant_regret  # noqa: F401
from .mtrl import (
    MtrlDiagnostics,
    _run_three_stage,
    _stage1_theta_hat,
    collect_stage1_samples,
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


def run_e2tc(
    instance: BanditInstance,
    rng: np.random.Generator | None = None,
    trace_stride: int = 0,
) -> tuple[RegretLedger, MtrlDiagnostics]:
    """Three-stage run with the squared-covariance Stage-1 estimator."""
    return _run_three_stage(instance, rng, trace_stride, pooled_estimator=e2tc_squared_estimator)


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
    num_tasks, dim, horizon = instance.num_tasks, instance.dim, instance.horizon
    explore = independent_exploration_budget(dim, horizon)  # 0 at horizon 1: commit blind
    ledger = RegretLedger(num_tasks, trace_stride)
    theta_hats = _stage1_theta_hat(
        instance, explore, rng, ledger, noiseless_oracle, collect_stage1_samples,
        lambda acts, rewards: moment_estimate_theta(acts, rewards, dim),
    )
    stage3_commit(instance, theta_hats, horizon - explore, ledger)
    return ledger, None
