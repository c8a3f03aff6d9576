"""Synthetic bandit world: instance generation, reward oracle, regret ledger.

A bandit instance consists of an orthonormal ``(dim, rep_dim)`` basis, one
unit-norm weight vector per task, and the resulting task coefficient
matrix ``thetas = basis @ task_weights``.  Actions live in the unit ball;
a pull of action ``a`` on task ``m`` pays ``<a, theta_m> + noise``.

Regret is accounted as EXPECTED instantaneous regret ``1 - <a, theta_m>``
(the optimum over the unit ball is ``||theta_m|| = 1``), so regret curves
carry no reward-noise variance.  ``RegretLedger`` alone decides a regret
curve's points: each multiple of its stride below its pull count, then that count.

Inputs are validated once, where they enter: ``InstanceSpec.validate`` checks
an instance's parameters, ``_checked_actions`` checks every oracle call's task
index, action dimension and unit ball (the one-action oracles first reject any
shape but ``(dim,)`` in ``_one_action``), and ``RegretLedger``'s ``record_*``
methods check the regret range and the count of every record.
Everything between (the learners' loops, ``pull_block_mean``'s regret, the
``linalg`` kernels) reuses those checked values instead of checking them again.
So a batch's rewards and regrets come from one checked evaluation of its
means: ``pull_many`` writes the regrets into the row its caller passes, and
``pull_block_mean_many`` checks all of a task's blocks at once.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import MAX_COUNT, ConfigError, InfeasibleActionError, require_finite, require_int
from .linalg import is_orthonormal, kth_singular_value, sample_unit_sphere

ACTION_NORM_ATOL = 1e-9
UNIT_THETA_ATOL = 1e-10
RANK_SIGMA_MIN = 1e-8
REGRET_SLACK = 1e-9  # tolerated roundoff outside [0, 2] before raising
INTERLEAVED_CHUNK = 1 << 16  # entries, or checkpoints, per chunk of an interleaved record
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
    try:
        gauss = rng.standard_normal((spec.dim, spec.dim))
    except ValueError:  # numpy: "array is too big"
        raise ConfigError(
            f"dim: a {spec.dim} x {spec.dim} matrix does not fit in one array"
        ) from None
    q, r = np.linalg.qr(gauss)
    q = q * np.where(np.diag(r) >= 0, 1.0, -1.0)
    basis = np.ascontiguousarray(q[:, : spec.rep_dim])
    try:  # before the per-task loop, so a count no array can hold fails at once
        weights = np.empty((spec.rep_dim, spec.num_tasks))
    except ValueError:  # numpy: "array is too big"
        raise ConfigError(
            f"num_tasks: {spec.num_tasks} task weights do not fit in one array"
        ) from None
    # The scalar sampler, not the batch one, whose row norms differ in the last
    # bit: merging the two samplers would change every frozen instance.
    for task in range(spec.num_tasks):
        weights[:, task] = sample_unit_sphere(spec.rep_dim, rng)
    instance = BanditInstance(
        basis=basis,
        task_weights=weights,
        thetas=basis @ weights,
        horizon=spec.horizon,
        noise_std=float(spec.noise_std),
    )
    instance.check_invariants()
    return instance


def _checked_actions(
    instance: BanditInstance, task: int, actions: np.ndarray
) -> np.ndarray:
    """``actions`` (one action, 1-D, or rows of actions, 2-D) as a float array.

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
    return actions


def _mean_rewards(
    instance: BanditInstance, task: int, actions: np.ndarray
) -> np.ndarray:
    """``<a, theta_task>`` for one checked action (1-D) or rows of actions (2-D)."""
    return _checked_actions(instance, task, actions) @ instance.thetas[:, task]


def pull_many(
    instance: BanditInstance,
    task: int,
    actions: np.ndarray,
    rng: np.random.Generator,
    regrets: np.ndarray | None = None,
) -> np.ndarray:
    """Rewards for a batch of actions (rows) on one task.

    With ``regrets``, a float row with one entry per action, the actions'
    ``instant_regret_many`` is written into it, bit for bit, from the same
    checked evaluation of the means.
    """
    means = _mean_rewards(instance, task, np.atleast_2d(actions))
    if regrets is not None:
        if regrets.shape != means.shape:
            raise ValueError(f"regrets shape {regrets.shape} != {means.shape}")
        _regrets(means, out=regrets)
    rewards = rng.standard_normal(means.shape[0])
    rewards *= instance.noise_std
    rewards += means
    return rewards


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
    rewards, regrets = pull_block_mean_many(instance, task, _one_action(action)[None], count, rng)
    return float(rewards[0]), float(regrets[0])


def pull_block_mean_many(
    instance: BanditInstance,
    task: int,
    actions: np.ndarray,
    count: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """``pull_block_mean`` of each row of ``actions``, one block per row, in row order.

    All rows are checked before the first draw.  The ``(w,)`` arrays of mean
    rewards and regrets have the bits of ``w`` one-action calls:
    ``standard_normal(w)`` is the stream of ``w`` scalar draws, and each mean
    is one ``(1, dim) @ (dim, 1)`` product of a stack, which numpy's
    ``matmul`` evaluates with the dot kernel of a 1-D ``row @ theta``; one
    ``(w, dim) @ (dim,)`` product would round differently.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    actions = np.ascontiguousarray(_checked_actions(instance, task, np.atleast_2d(actions)))
    means = (actions[:, None, :] @ instance.thetas[:, task, None]).ravel()
    rewards = rng.standard_normal(means.size)
    rewards *= instance.noise_std / math.sqrt(count)
    rewards += means
    return rewards, _regrets(means)


def _regret(mean: float) -> float:
    """``1 - mean``, clipped to [0, 2] against roundoff."""
    return min(max(1.0 - mean, 0.0), 2.0)


def _regrets(means: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``_regret`` of every mean, written into ``out`` when it is given.

    The two ufuncs select what ``np.clip`` would (``1 - mean`` is never -0.0
    and checked means are never NaN) without its Python-level dispatch.
    """
    out = np.subtract(1.0, means, out=out)
    np.maximum(out, 0.0, out=out)
    return np.minimum(out, 2.0, out=out)


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
    return _regrets(_mean_rewards(instance, task, np.atleast_2d(actions)))


class RegretLedger:
    """Per-pull expected-regret accounting for one simulation run.

    Tracks the cumulative sum, the pull counter and a thinned trace of
    ``(pull_index, cumulative_regret)`` pairs: one at every multiple of
    ``trace_stride`` below ``num_pulls``, then one at ``num_pulls``; none
    without pulls.  ``trace_stride=0`` is kept as ``MAX_COUNT``, a stride no
    run passes, so it keeps the final point alone through the same path and
    segments as any other stride.

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
        self.trace_stride = int(trace_stride) or MAX_COUNT
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

    def record_block(self, value: float, count: int) -> None:
        """Account ``count`` pulls at per-pull regret ``value``.

        ``value`` gets ``_validated``'s bounds, clip and message, checked on
        the scalar; both arguments are checked even when ``count`` is 0.
        """
        count = operator.index(count)
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        value = float(value)
        if not -REGRET_SLACK <= value <= 2.0 + REGRET_SLACK:  # NaN fails too
            raise ValueError(f"regret outside [0, 2]: range [{value}, {value}]")
        value = min(max(value, 0.0), 2.0)  # keeps -0.0, as _validated does
        if count == 0:
            return
        self._segments.append((self.num_pulls, count, self.total, value))
        self.total += value * count
        self.num_pulls += count

    def record_interleaved(self, regrets: np.ndarray, repeat: int = 1) -> None:
        """Account a ``(num_tasks, columns)`` matrix in step-major order.

        At each step every task pulls once, and column ``j`` is paid at
        ``repeat`` consecutive steps.  Every partial sum and the total keep
        the bits of one ``np.cumsum`` over the step-major sequence.  Memory
        does not grow with ``repeat``, and time grows with it only where
        whole periods cannot be jumped; ``_StepMajorSum`` says how.
        """
        repeat = operator.index(repeat)
        if repeat < 0:
            raise ValueError(f"repeat must be >= 0, got {repeat}")
        regrets = self._validated(regrets)
        num_tasks = self.num_tasks
        if regrets.ndim != 2 or regrets.shape[0] != num_tasks:
            raise ValueError(
                f"expected shape ({num_tasks}, columns), got {regrets.shape}"
            )
        steps = regrets.shape[1] * repeat
        count = num_tasks * steps
        if count == 0:
            return
        run = _StepMajorSum(num_tasks, self.num_pulls, self.trace_stride, count)
        if repeat == 1:
            run.serial(regrets)
        else:
            for column in regrets.T:
                run.periodic(column, repeat)
        self._segments.append((self.num_pulls, count, self.total, run.picked))
        self.total += run.carry
        self.num_pulls += count

    def trace_size(self) -> int:
        """How many points ``trace()`` holds, counted without building them."""
        return -(-self.num_pulls // self.trace_stride)  # ceil(num_pulls / stride)

    def trace_grid(self) -> np.ndarray:
        """The pull counts of ``trace()``'s points, from ``trace_stride`` and
        ``num_pulls`` alone: each multiple of the stride is built from its
        index, so no value passes ``num_pulls``."""
        ts = np.arange(1, self.trace_size() + 1, dtype=int)
        ts[:-1] *= self.trace_stride
        ts[-1:] = self.num_pulls
        return ts

    def trace(self) -> tuple[np.ndarray, np.ndarray]:
        """Thinned cumulative-regret trace on ``trace_grid()``.

        The last point is ``(num_pulls, total)``.  On the stride grid, its
        segment would give the same bits: ``total + count * value``, or
        the last partial sum, is what the record added to ``total``.
        """
        stride, ts = self.trace_stride, self.trace_grid()
        cums = np.empty(ts.size)
        for pulls, count, total, value in self._segments:
            a, b = pulls // stride, (pulls + count) // stride
            if a == b:  # no checkpoint in this segment
                continue
            if isinstance(value, np.ndarray):
                np.add(total, value, out=cums[a:b])
            else:
                np.add(total, (ts[a:b] - pulls) * value, out=cums[a:b])
        cums[-1:] = self.total
        return ts, cums


class _StepMajorSum:
    """The running sum of one ``record_interleaved`` call, from 0.0, and the
    partial sums it picks at the trace checkpoints.  Stride 0 arrives as
    ``MAX_COUNT``, a stride no run passes, and takes the same path.

    ``serial`` cumulates columns in chunks of about ``INTERLEAVED_CHUNK``
    entries; each chunk's cumsum starts from the previous chunk's last
    partial sum, so every partial sum is the one a single ``np.cumsum``
    gives.  ``periodic`` adds a column repeated for many steps, a sequence
    with period ``num_tasks``, and gets the same bits without adding each
    pull:

    * Every double in ``[2**(e-1), 2**e)`` is an integer multiple of the
      ulp ``u = 2**(e-53)``, and so is ``2**e``; below ``2**-1021`` every
      double is a multiple of ``2**-1074``.  The running sum ``s`` never
      decreases, since every entry is in [0, 2].
    * So while ``s + c`` stays at or below ``2**e``, round-to-nearest gives
      ``fl(s + c) = s + rint(c / u) * u``, unless ``c / u`` ends in exactly
      .5: such a tie rounds to the even neighbour of ``s + c``, which
      depends on ``s``.
    * Without a tie, a period adds the integer ``P = sum(rint(c / u))``
      ulps, and the partial sum after entry ``j`` of period ``p`` is
      ``(s / u + p * P + Q[j]) * u``, with ``Q`` the prefix sums of the
      rounded column.  That holds for every whole period whose end stays at
      or below ``2**53`` ulps, and int64 holds every term once ``s`` is at
      least the column's sum.
    * Otherwise (a tie, ``s`` below the column's sum, or less than one
      period left in the binade) the pulls are cumulated serially, up to
      the end of the binade (or past the column's sum), and the periodic
      path is tried again.  Ties are common in the first binades: ``1 -
      mean`` is a multiple of ``2**-53``.  Within one binade, a tie recurs
      at every period, so the serial stretch runs to its end.
    """

    def __init__(self, num_tasks: int, base: int, stride: int, count: int):
        self.num_tasks = num_tasks
        self.base, self.stride = base, stride  # pulls before the call
        self.picked = np.empty(self._points(count))
        self.carry = 0.0
        self.done = 0  # entries of the call's sequence summed so far
        rows = min(count // num_tasks, max(1, INTERLEAVED_CHUNK // num_tasks))  # steps per chunk
        self.buf = np.empty(rows * num_tasks + 1)  # [carry, chunk...], cumulated in place

    def _points(self, offset: int) -> int:
        """How many checkpoints (pulls on the stride grid) the call's first
        ``offset`` entries hold."""
        return (self.base + offset) // self.stride - self.base // self.stride

    def _offset(self, point: int) -> int:
        """The index in the call's sequence of checkpoint ``point``."""
        return (self.base // self.stride + 1 + point) * self.stride - self.base - 1

    def serial(self, columns: np.ndarray) -> None:
        """Cumulate a ``(num_tasks, steps)`` matrix, one step after another."""
        num_tasks, steps = columns.shape
        rows = (self.buf.size - 1) // num_tasks
        for first in range(0, steps, rows):
            last = min(first + rows, steps)
            size = (last - first) * num_tasks
            buf = self.buf[: size + 1]
            buf[1:].reshape(last - first, num_tasks)[:] = columns[:, first:last].T
            buf[0] = self.carry
            cums = np.cumsum(buf, out=buf)[1:]
            a, b = self._points(self.done), self._points(self.done + size)
            start = self._offset(a) - self.done
            self.picked[a:b] = cums[start :: self.stride][: b - a]
            self.carry = float(cums[-1])
            self.done += size

    def periodic(self, column: np.ndarray, repeat: int) -> None:
        """Cumulate ``column`` at each of ``repeat`` steps: whole periods at
        once within a binade, serially where that would not be exact."""
        column_sum = float(column.sum())  # at least each entry: rounding is monotone
        left = repeat
        while left:
            s = self.carry
            exponent = max(math.frexp(s)[1], -1021)  # s < 2**exponent
            unit = math.ldexp(1.0, exponent - 53)
            if s >= column_sum:
                scaled = column / unit  # exact: a power of two, and at most 2**53
                ulps = np.rint(scaled)
                if not np.any(np.abs(scaled - ulps) == 0.5):
                    prefix = np.cumsum(ulps.astype(np.int64))
                    period = int(prefix[-1])
                    at = int(s / unit)
                    jump = left if period == 0 else min(left, ((1 << 53) - at) // period)
                    if jump:
                        self._jump(at, prefix, unit, jump)
                        left -= jump
                        continue
            target = column_sum if s < column_sum else math.ldexp(1.0, exponent)
            steps = min(left, int((target - s) / column_sum) + 1)
            self.serial(np.broadcast_to(column[:, None], (self.num_tasks, steps)))
            left -= steps

    def _jump(self, at: int, prefix: np.ndarray, unit: float, periods: int) -> None:
        """Add ``periods`` whole periods of a column from ``at`` ulps: the
        partial sum after entry ``j`` of period ``p`` is ``(at + p * prefix[-1]
        + prefix[j]) * unit``, built in int64 one bounded chunk of checkpoints
        at a time."""
        num_tasks, period = self.num_tasks, int(prefix[-1])
        end = self.done + periods * num_tasks
        a, b = self._points(self.done), self._points(end)
        for lo in range(a, b, INTERLEAVED_CHUNK):
            hi = min(lo + INTERLEAVED_CHUNK, b)
            sums = np.arange(lo, hi, dtype=np.int64)  # becomes the partial sums in ulps
            sums *= self.stride
            sums += self._offset(0) - self.done  # the checkpoints' entries in the jump
            entry = sums % num_tasks
            sums //= num_tasks  # the period
            sums *= period
            sums += prefix[entry]
            sums += at
            np.multiply(sums, unit, out=self.picked[lo:hi])  # exact: at most 2**53 ulps
        self.carry = float(at + periods * period) * unit
        self.done = end
