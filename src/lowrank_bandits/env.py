"""Synthetic bandit world: instance generation, reward oracle, regret ledger.

A bandit instance consists of an orthonormal ``(dim, rep_dim)`` basis, one
unit-norm weight vector per task, and the resulting task coefficient
matrix ``thetas = basis @ task_weights``.  Actions live in the unit ball;
a pull of action ``a`` on task ``m`` pays ``<a, theta_m> + noise``.

Regret is accounted as EXPECTED instantaneous regret ``1 - <a, theta_m>``
(the optimum over the unit ball is ``||theta_m|| = 1``), so regret curves
carry no reward-noise variance.

Inputs are validated once, where they enter: ``InstanceSpec.validate`` checks
an instance's parameters, ``_mean_rewards`` checks every oracle call's task
index, action dimension and unit ball (the one-action oracles first reject
any shape but ``(dim,)`` in ``_one_action``), and ``RegretLedger``'s
``record_*`` methods check the task, the regret range and the count of
every record.
Everything between (the learners' loops, ``pull_block_mean``'s regret)
reuses those checked values instead of checking them again.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InfeasibleActionError, require_finite, require_int
from .linalg import is_orthonormal, kth_singular_value, sample_unit_sphere

ACTION_NORM_ATOL = 1e-9
UNIT_THETA_ATOL = 1e-10
RANK_SIGMA_MIN = 1e-8
REGRET_SLACK = 1e-9  # tolerated roundoff outside [0, 2] before raising
INTERLEAVED_CHUNK = 1 << 16  # entries per chunk of an interleaved record
# Rewards are about noise_std in size and the estimators sum their squares:
# below this bound the sum stays finite over any int64 count of pulls.
MAX_NOISE_STD = 1e100  # 1e200 * 2**63 < 1.8e308


@dataclass(frozen=True)
class InstanceSpec:
    """Parameters of a synthetic instance.

    ``rep_dim <= num_tasks`` is required so the rank-``rep_dim`` coefficient
    matrix built from sphere-uniform task weights is generic.
    """

    dim: int = 10
    rep_dim: int = 2
    num_tasks: int = 25
    horizon: int = 10_000
    noise_std: float = 1.0
    seed: int | None = 0

    def validate(self) -> None:
        for name in ("dim", "rep_dim", "num_tasks", "horizon"):
            require_int(name, getattr(self, name))
        require_finite("noise_std", self.noise_std)
        if self.seed is not None:
            require_int("seed", self.seed)
            if self.seed < 0:
                raise ConfigError(f"seed: must be >= 0, got {self.seed}")
        if self.dim < 1:
            raise ConfigError(f"dim: must be >= 1, got {self.dim}")
        if not 1 <= self.rep_dim <= self.dim:
            raise ConfigError(
                f"rep_dim: must be in [1, dim={self.dim}], got {self.rep_dim}"
            )
        if self.rep_dim > self.num_tasks:
            raise ConfigError(
                f"num_tasks: must be >= rep_dim={self.rep_dim}, got {self.num_tasks}"
            )
        if self.horizon < 1:
            raise ConfigError(f"horizon: must be >= 1, got {self.horizon}")
        if not 0 <= self.noise_std <= MAX_NOISE_STD:
            raise ConfigError(f"noise_std: must be in [0, {MAX_NOISE_STD:g}], got {self.noise_std}")


@dataclass(frozen=True, eq=False)
class BanditInstance:
    """Ground truth of a simulated world; immutable after generation."""

    basis: np.ndarray  # (dim, rep_dim), orthonormal columns
    task_weights: np.ndarray  # (rep_dim, num_tasks), unit-norm columns
    thetas: np.ndarray  # (dim, num_tasks) = basis @ task_weights
    horizon: int
    noise_std: float

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @property
    def rep_dim(self) -> int:
        return self.basis.shape[1]

    @property
    def num_tasks(self) -> int:
        return self.thetas.shape[1]

    def check_invariants(self) -> None:
        if not is_orthonormal(self.basis):
            raise AssertionError("basis columns are not orthonormal")
        norms = np.linalg.norm(self.thetas, axis=0)
        if np.max(np.abs(norms - 1.0)) > UNIT_THETA_ATOL:
            raise AssertionError("task coefficients are not unit norm")
        if kth_singular_value(self.thetas, self.rep_dim) <= RANK_SIGMA_MIN:
            raise AssertionError("coefficient matrix is rank deficient")


def generate_instance(
    spec: InstanceSpec, rng: np.random.Generator | None = None
) -> BanditInstance:
    """Draw a random instance: Haar-uniform basis, sphere-uniform task weights.

    The basis is the first ``rep_dim`` columns of the orthogonal factor of a
    square standard-Gaussian matrix, with the triangular factor's diagonal
    signs folded in (without the sign fix the factorization is not uniform
    over the orthogonal group).  Deterministic given ``spec.seed`` when no
    generator is passed.
    """
    spec.validate()
    if rng is None:
        if spec.seed is None:
            raise ConfigError("seed: required when no generator is passed")
        rng = np.random.default_rng(spec.seed)
    gauss = rng.standard_normal((spec.dim, spec.dim))
    q, r = np.linalg.qr(gauss)
    q = q * np.where(np.diag(r) >= 0, 1.0, -1.0)
    basis = np.ascontiguousarray(q[:, : spec.rep_dim])
    weights = np.column_stack(
        [sample_unit_sphere(spec.rep_dim, rng) for _ in range(spec.num_tasks)]
    )
    instance = BanditInstance(
        basis=basis,
        task_weights=weights,
        thetas=basis @ weights,
        horizon=spec.horizon,
        noise_std=float(spec.noise_std),
    )
    instance.check_invariants()
    return instance


def _mean_rewards(
    instance: BanditInstance, task: int, actions: np.ndarray
) -> np.ndarray:
    """``<a, theta_task>`` for one action (1-D) or rows of actions (2-D).

    The one place where the task index, the action dimension and the unit
    ball are checked, so every oracle call is checked the same way.
    """
    if not 0 <= task < instance.num_tasks:
        raise ValueError(f"task index {task} out of range [0, {instance.num_tasks})")
    actions = np.asarray(actions, dtype=float)
    if actions.shape[-1] != instance.dim:
        raise ValueError(f"action dimension {actions.shape[-1]} != {instance.dim}")
    if actions.ndim == 1:
        squared = np.vdot(actions, actions)  # `@` would warn when a square overflows
    else:
        squared = np.einsum("ij,ij->i", actions, actions).max(initial=0.0)
    worst = math.sqrt(squared)  # inf when an entry's square overflows, NaN when one is NaN
    if not worst <= 1.0 + ACTION_NORM_ATOL:  # written so that NaN fails too
        raise InfeasibleActionError(f"action norm {worst} exceeds the unit ball")
    return actions @ instance.thetas[:, task]


def pull_many(
    instance: BanditInstance,
    task: int,
    actions: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Rewards for a batch of actions (rows) on one task."""
    means = _mean_rewards(instance, task, np.atleast_2d(actions))
    return means + instance.noise_std * rng.standard_normal(means.shape[0])


def pull_block_mean(
    instance: BanditInstance,
    task: int,
    action: np.ndarray,
    count: int,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """``(mean_reward, regret)`` of ``count`` consecutive pulls of one fixed action.

    The sample mean of ``count`` i.i.d. Gaussian rewards is itself Gaussian
    with standard deviation ``noise_std / sqrt(count)``, so it is drawn in
    one shot, with one standard normal; this is distributionally identical
    to averaging ``count`` individual pulls and keeps large exploration
    blocks cheap.  ``regret`` is the per-pull ``instant_regret`` of the
    action, bit for bit, taken from the same evaluation of the mean.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    mean = float(_mean_rewards(instance, task, _one_action(action)))
    scale = instance.noise_std / math.sqrt(count)
    return mean + scale * float(rng.standard_normal()), _regret(mean)


def _regret(mean: float) -> float:
    """``1 - mean``, clipped to [0, 2] against roundoff."""
    return min(max(1.0 - mean, 0.0), 2.0)


def instant_regret(instance: BanditInstance, task: int, action: np.ndarray) -> float:
    """Expected instantaneous regret ``1 - <action, theta_task>``, in [0, 2].

    Noise-free by construction: the reward noise is zero-mean, so expected
    regret depends on the action alone.
    """
    return _regret(float(_mean_rewards(instance, task, _one_action(action))))


def _one_action(action: np.ndarray) -> np.ndarray:
    """``action`` as one contiguous 1-D vector; any other shape raises ``ValueError``.

    A strided column is copied: the dot product's bits depend on the layout.
    """
    action = np.asarray(action, dtype=float)
    if action.ndim != 1:
        raise ValueError(f"expected one action of shape (dim,), got shape {action.shape}")
    return action.ravel()


def instant_regret_many(
    instance: BanditInstance, task: int, actions: np.ndarray
) -> np.ndarray:
    """Vectorized ``instant_regret`` over rows of ``actions``."""
    return np.clip(1.0 - _mean_rewards(instance, task, np.atleast_2d(actions)), 0.0, 2.0)


class RegretLedger:
    """Per-pull expected-regret accounting for one simulation run.

    Tracks per-task sums, the global cumulative sum, the pull counter, and
    an optional thinned trace of ``(pull_index, cumulative_regret)`` pairs
    taken every ``trace_stride`` pulls (plus the final pull).
    ``trace_stride=0`` disables the trace; totals are still exact.

    The trace is kept as one segment per record, ``(num_pulls, count,
    total, value)`` as they stood when the record began: a block's
    ``value`` is its per-pull regret, so it stores O(1) whatever its
    count; an interleaved record's ``value`` is the array of partial sums
    it picked at its checkpoints.  The checkpoints are the multiples of
    ``trace_stride`` in ``(0, num_pulls]``, so the segments alone rebuild
    the trace, and ``trace`` expands them once.

    Recording styles:

    * ``record_block`` — one task repeats one action ``count`` times
      (sequential protocols, commit phases).
    * ``record_interleaved`` — a ``(num_tasks, columns)`` matrix accounted
      in step-major order, i.e. at each step all tasks pull once, matching
      the concurrent multi-task protocol; each column may repeat for several
      steps (commit phases: one column, every remaining step).
    """

    def __init__(self, num_tasks: int, trace_stride: int = 10):
        if num_tasks < 1:
            raise ValueError(f"num_tasks must be >= 1, got {num_tasks}")
        if trace_stride < 0:
            raise ValueError(f"trace_stride must be >= 0, got {trace_stride}")
        self.num_tasks = int(num_tasks)
        self.trace_stride = int(trace_stride)
        self.per_task = np.zeros(num_tasks)
        self.total = 0.0
        self.num_pulls = 0
        self._segments: list[tuple[int, int, float, float | np.ndarray]] = []

    @staticmethod
    def _validated(values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=float)
        if values.size:
            lo = float(values.min())
            hi = float(values.max())
            if not (lo >= -REGRET_SLACK and hi <= 2.0 + REGRET_SLACK):  # NaN fails too
                raise ValueError(f"regret outside [0, 2]: range [{lo}, {hi}]")
            if lo >= 0.0 and hi <= 2.0:  # in range: skip the copy np.clip makes
                return values
        return np.clip(values, 0.0, 2.0)

    def record_block(self, task: int, value: float, count: int) -> None:
        """Account ``count`` pulls of one task at per-pull regret ``value``.

        ``value`` gets ``_validated``'s bounds, clip and message, checked on
        the scalar; all three arguments are checked even when ``count`` is 0.
        """
        count = operator.index(count)
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        if not 0 <= task < self.num_tasks:
            raise ValueError(f"task index {task} out of range")
        value = float(value)
        if not -REGRET_SLACK <= value <= 2.0 + REGRET_SLACK:  # NaN fails too
            raise ValueError(f"regret outside [0, 2]: range [{value}, {value}]")
        value = min(max(value, 0.0), 2.0)  # keeps -0.0, as _validated does
        if count == 0:
            return
        if self.trace_stride:
            self._segments.append((self.num_pulls, count, self.total, value))
        self.per_task[task] += value * count
        self.total += value * count
        self.num_pulls += count

    def record_interleaved(self, regrets: np.ndarray, repeat: int = 1) -> None:
        """Account a ``(num_tasks, columns)`` matrix in step-major order.

        At each step every task pulls once, and column ``j`` is paid at
        ``repeat`` consecutive steps.  The step-major sequence is cumulated in
        chunks of about ``INTERLEAVED_CHUNK`` entries.  Each chunk's cumsum
        starts from the previous chunk's last partial sum, so every partial
        sum is the one a single ``np.cumsum`` over the whole sequence gives,
        and memory does not grow with ``repeat``.
        """
        if repeat < 0:
            raise ValueError(f"repeat must be >= 0, got {repeat}")
        regrets = self._validated(regrets)
        num_tasks = self.num_tasks
        if regrets.ndim != 2 or regrets.shape[0] != num_tasks:
            raise ValueError(
                f"expected shape ({num_tasks}, columns), got {regrets.shape}"
            )
        steps = regrets.shape[1] * repeat
        # A view, not a copy, when columns == 1 or repeat == 1.
        repeated = np.broadcast_to(regrets[:, :, None], regrets.shape + (repeat,))
        self.per_task += repeated.reshape(num_tasks, steps).sum(axis=1)
        count = num_tasks * steps
        if count == 0:
            return
        rows = min(steps, max(1, INTERLEAVED_CHUNK // num_tasks))  # steps per chunk
        buf = np.empty(rows * num_tasks + 1)  # [carry, chunk...], cumulated in place
        if self.trace_stride:  # the stride grid's pulls, as offsets into this call's sequence
            stride = self.trace_stride
            idx = np.arange(stride - 1 - self.num_pulls % stride, count, stride)
            picked = np.empty(idx.size)
        carry, done = 0.0, 0
        for first in range(0, steps, rows):
            last = min(first + rows, steps)
            size = (last - first) * num_tasks
            chunk = buf[1 : size + 1].reshape(last - first, num_tasks)
            if first // repeat == (last - 1) // repeat:  # inside one column
                chunk[:] = regrets[:, first // repeat]
            else:  # gathers this chunk's columns only; np.take on regrets.T copies them all
                chunk[:] = regrets[:, np.arange(first, last) // repeat].T
            buf[0] = carry
            cums = np.cumsum(buf[: size + 1], out=buf[: size + 1])[1:]
            offset = first * num_tasks
            if self.trace_stride:
                end = np.searchsorted(idx, offset + size)
                picked[done:end] = cums[idx[done:end] - offset]
                done = end
            carry = cums[-1]
        if self.trace_stride:
            self._segments.append((self.num_pulls, count, self.total, picked))
        self.total += float(carry)
        self.num_pulls += count

    @classmethod
    def from_trace(cls, ts, cums, num_tasks: int = 1) -> RegretLedger:
        """The ledger whose ``trace()`` is ``(ts, cums)``, bit for bit.

        ``ts`` must be the grid ``trace`` gives: the multiples of
        ``ts[0]`` up to the last pull, plus the last pull when it is off
        the grid; anything else raises ``ValueError``.  The points become
        one segment based at ``-0.0``, the additive identity, so every
        value keeps its bits, ``-0.0`` included.  A trace holds no
        per-task sums: ``per_task`` stays zero.
        """
        ts = np.asarray(ts)
        cums = np.asarray(cums, dtype=float)
        if ts.ndim != 1 or ts.shape != cums.shape or ts.size == 0 or ts[0] < 1:
            raise ValueError("trace points must be matching 1-D arrays starting at t >= 1")
        ledger = cls(num_tasks, int(ts[0]))
        ledger.num_pulls = int(ts[-1])
        # Sizes first: a malformed last point must not build a huge grid.
        if ledger.trace_size() != ts.size or not np.array_equal(ledger.trace_grid(), ts):
            raise ValueError(
                f"trace points are not the stride-{ledger.trace_stride} grid "
                f"up to {ledger.num_pulls}"
            )
        on_grid = ledger.num_pulls // ledger.trace_stride
        ledger._segments.append((0, ledger.num_pulls, -0.0, cums[:on_grid].copy()))
        ledger.total = float(cums[-1])
        return ledger

    def trace_size(self) -> int:
        """How many points ``trace()`` holds, counted without building them."""
        if self.trace_stride == 0:
            return 0
        return -(-self.num_pulls // self.trace_stride)  # the grid, plus num_pulls when off it

    def trace_grid(self) -> np.ndarray:
        """The pull counts of ``trace()``'s points, from ``trace_stride`` and
        ``num_pulls`` alone: the stride's multiples up to ``num_pulls``, plus
        ``num_pulls`` when it is off the grid; empty when the trace is disabled."""
        stride, size = self.trace_stride, self.trace_size()
        if size == 0:
            return np.zeros(0, dtype=int)
        ts = np.arange(stride, size * stride + 1, stride, dtype=int)
        ts[-1] = self.num_pulls
        return ts

    def trace(self) -> tuple[np.ndarray, np.ndarray]:
        """Thinned cumulative-regret trace on ``trace_grid()``; empty when the
        trace is disabled.

        The last point is ``(num_pulls, total)``.  On the stride grid, its
        segment would give the same bits: ``total + count * value``, or
        the last partial sum, is what the record added to ``total``.
        """
        stride, ts = self.trace_stride, self.trace_grid()
        cums = np.empty(ts.size)
        if ts.size == 0:
            return ts, cums
        for pulls, count, total, value in self._segments:
            a, b = pulls // stride, (pulls + count) // stride
            if isinstance(value, np.ndarray):
                np.add(total, value, out=cums[a:b])
            else:
                np.add(total, (ts[a:b] - pulls) * value, out=cums[a:b])
        cums[-1] = self.total
        return ts, cums
