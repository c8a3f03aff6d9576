"""Comparison algorithms: the independent per-task baseline and the
squared-covariance estimator variant of the three-stage algorithm.

The squared-covariance variant reuses the Stage-2/Stage-3 code and budgets
of :func:`lowrank_bandits.mtrl.run_mtrl` and swaps only the Stage-1 subspace
estimator, so a common seed attributes any regret difference to it.  Its
Stage 1 streams as mtrl's does: each task's batch is added to one
``SquaredCovarianceSum`` and dropped, in the order of the pooled einsum that
the estimator is defined by, so the basis keeps that einsum's bits.  Each
chunk of rows takes two passes, one forming the products and one einsum
weighting each row by ``r^2`` and adding it to the running total; the bits
hold wherever numpy's einsum rounds each product before its add, as on
x86-64.  The
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


# A chunk holds CHUNK_ENTRIES (1 MiB) entries: a tile's running total and its
# products for as many rows as fit.  A tile is at most TILE_COLUMNS columns of
# the lower triangle.
CHUNK_ENTRIES = 2**17
TILE_COLUMNS = 8


class SquaredCovarianceSum:
    """Running ``sum_t (a_t a_t^T) r_t^2`` over the batches added, one task at a time.

    Each entry is one sequential chain over the rows, in the order they are
    added: ``s = s + fl(a_d a_e) * r^2``.  Only the lower triangle is
    summed, in Fortran order so that its columns are contiguous, in tiles of
    ``TILE_COLUMNS`` columns: ``tile[j, i]`` is entry ``(first + i, first +
    j)``.  ``a_e a_d`` equals ``a_d a_e`` bit for bit, so the old ``(w +
    w.T) / 2`` step changed nothing, and ``np.linalg.eigh`` reads the lower
    triangle alone.

    Each chunk of rows takes two passes.  One einsum writes the rows'
    products after a first row that holds the tile's running total; then
    ``einsum("tji,t->ji", chunk, [1.0, r^2...], out=tile)`` zeroes the tile
    and adds each weighted row in turn.  ``0.0 + total * 1.0`` is the total,
    which is never ``-0.0`` (it starts at ``+0.0``, and ``+0.0 + -0.0`` is
    ``+0.0``).  The chain holds only where numpy's einsum
    rounds each product before its add, as x86-64 builds do (their baseline
    has no FMA); ``TestSquaredCovarianceSum.test_lower_entries_are_the_python_chain``
    compares every entry with the chain in Python floats and fails on a
    build that fuses the two.  Memory is the ``(dim, dim)`` total and one
    chunk with its weights.
    """

    def __init__(self, dim: int):
        self.count = 0
        self.lower = np.zeros((dim, dim), order="F")  # the sum's lower triangle; above it, zeros or mirrors
        self._buffer = np.empty(max(CHUNK_ENTRIES, 2 * dim * TILE_COLUMNS))

    def add(self, actions: np.ndarray, rewards: np.ndarray) -> None:
        """Add one task's ``(n, dim)`` actions and ``(n,)`` rewards."""
        columns = self.lower.T  # the lower triangle's columns, as C-ordered rows
        for first in range(0, len(columns), TILE_COLUMNS):
            stop = first + TILE_COLUMNS
            tile = columns[first:stop, first:]
            rows = max(1, CHUNK_ENTRIES // tile.size - 1)
            for start in range(0, len(actions), rows):
                acts = actions[start:start + rows]
                chunk = self._buffer[: (len(acts) + 1) * tile.size].reshape(-1, *tile.shape)
                chunk[0] = tile
                np.einsum("tj,ti->tji", acts[:, first:stop], acts[:, first:], out=chunk[1:])
                weights = np.empty(len(acts) + 1)
                weights[0] = 1.0
                np.square(rewards[start:start + rows], out=weights[1:])
                # A one-entry tile (dim % TILE_COLUMNS == 1): einsum would reduce
                # its lone axis with a vectorised kernel that adds out of order.
                if tile.size == 1:
                    chunk *= weights[:, None, None]
                    tile[...] = np.add.accumulate(chunk, axis=0, out=chunk)[-1]
                else:
                    np.einsum("tji,t->ji", chunk, weights, out=tile)
        self.count += len(actions)

    def top_eigenvectors(self, rep_dim: int) -> np.ndarray:
        """The top ``rep_dim`` eigenvectors of the sum divided by the number of rows."""
        _, vecs = np.linalg.eigh(self.lower / self.count, UPLO="L")  # eigenvalues ascending
        return np.ascontiguousarray(vecs[:, ::-1][:, :rep_dim])


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

    The sum is ``SquaredCovarianceSum`` fed task by task, as ``run_e2tc``
    feeds it while Stage 1 streams.  Each entry is summed in one chain over
    (task, step), the order of ``np.einsum("mtd,mte,mt->de", actions,
    actions, rewards**2)`` without ``optimize``, which forms each term as
    ``(a_d a_e) r^2`` and adds it to the output in that order for
    ``dim >= 2``.  So the basis equals the pooled einsum's bit for bit.  At
    ``dim == 1`` the einsum adds its terms in blocks of numpy's buffer size,
    and the totals may differ in the last bits beyond one block; a 1 x 1
    matrix's eigenvector is 1 either way.
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
    total = SquaredCovarianceSum(dim)
    for task_actions, task_rewards in zip(actions, rewards):
        total.add(task_actions, task_rewards)
    return total.top_eigenvectors(rep_dim)


def run_e2tc(
    instance: BanditInstance,
    rng: np.random.Generator | None = None,
    trace_stride: int = 0,
) -> tuple[RegretLedger, MtrlDiagnostics]:
    """Three-stage run with the squared-covariance Stage-1 estimator.

    Stage 1 adds each task's batch to one ``SquaredCovarianceSum`` as it
    streams, so memory holds one batch, not the ``(num_tasks, t1, dim)``
    actions, and the basis is ``e2tc_squared_estimator``'s bit for bit.
    """

    def stage1(t1, rng, ledger, collect):
        total = SquaredCovarianceSum(instance.dim)
        collect(instance, t1, rng, ledger, lambda task, acts, rewards: total.add(acts, rewards))
        return None, total.top_eigenvectors(instance.rep_dim)

    return _run_three_stage(instance, rng, trace_stride, stage1)


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
