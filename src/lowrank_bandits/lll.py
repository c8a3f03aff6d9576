"""Lifelong linear bandit learner: sequential tasks, growing shared basis.

Tasks arrive one at a time.  For each task the learner first explores the
columns of its current orthonormal basis and reconstructs the task
coefficient inside that span.  If the reconstruction's norm falls at or
below ``1 - epsilon`` (every true coefficient has unit norm), a direction
relevant to this task is missing: the learner re-estimates the coefficient
coordinate-wise over the standard basis, projects the estimate onto the
orthogonal complement of the current span, and appends the normalized
remainder as a new basis column.

Two modes:

* ``pure_exploration`` — stop each task after estimation; the goal is
  ``||theta_hat - theta|| <= epsilon`` for every task with probability
  ``1 - delta``, using as few samples as possible.  Budgets follow the
  high-probability formulas ``n1 = ceil(4 * width * L / eps^2)`` per
  column and ``n2 = ceil(16 * dim * L / eps^2)`` per coordinate, with
  ``L = log(2 * dim * num_tasks / delta)`` the confidence log factor.
* ``regret`` — after estimation, commit to the greedy unit-ball action for
  the rest of the per-task horizon.  ``epsilon`` is set to
  ``((dim^2 k + k^2 M) / (M T))**0.25``, which balances exploration cost
  against commit error.  The budget constants are reduced to
  ``n1 = ceil(4 * width / eps^2)`` and ``n2 = ceil(dim / eps^2)``:
  the log factors belong to the high-probability analysis and, kept
  literal, the per-coordinate budget alone would exceed moderate horizons
  (e.g. ~5e5 pulls against T=1e4).  Any fixed constant preserves the
  regret rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .env import BanditInstance, RegretLedger, instant_regret
# The rows oracle, bound under the name perfbench's tracer wraps as lll's
# oracle span (``lll.pull_block_mean``).
from .env import pull_block_mean_many as pull_block_mean
from .errors import MAX_COUNT, ConfigError, HorizonTooShortError
from .linalg import (
    argmax_unit_ball,
    empty_basis,
    project_orthogonal_complement,
    require_orthonormal,
    vector_norm,
)

MODES = ("pure_exploration", "regret")

EXTENSION_FLOOR_FRACTION = 0.25  # extend only when ||residual|| >= epsilon / 4
FULL_BASIS_RESIDUAL_ATOL = 1e-6


def check_options(
    mode: str, delta: float, epsilon: float | None, dim: int, num_tasks: int,
    *, lifelong: bool = True,
) -> None:
    """Membership and range of the lifelong options.

    ``epsilon`` may be unset, except in pure-exploration mode of a
    ``lifelong`` run: other algorithms only echo these options.  There, the
    log factor must be finite, and the pulls of a run whose every task
    explores a full-width basis and then re-estimates must fit in int64.
    """
    if mode not in MODES:
        raise ConfigError(f"mode: must be one of {MODES}, got {mode!r}")
    if not 0 < delta < 1:
        raise ConfigError(f"delta: must be in (0, 1), got {delta}")
    if epsilon is not None and not 0 < epsilon < 1:
        raise ConfigError(f"epsilon: must be in (0, 1), got {epsilon}")
    if lifelong and mode == "pure_exploration":
        if epsilon is None:
            raise ConfigError("epsilon: required in pure_exploration mode")
        if not math.isfinite(log_factor(delta, dim, num_tasks)):
            raise ConfigError(f"delta: {delta} makes log(2 * dim * num_tasks / delta) infinite")
        try:
            worst = num_tasks * dim * (
                sample_budget_stage1(dim, epsilon, delta, dim, num_tasks)
                + sample_budget_stage2(epsilon, delta, dim, num_tasks)
            )
        except (ZeroDivisionError, OverflowError):  # epsilon**2 is 0, or a budget is inf
            worst = math.inf
        if worst > MAX_COUNT:  # pull counts are int64 in numpy: sqrt(count), samples_used
            raise ConfigError(
                f"epsilon: {epsilon} allows up to {worst:.3g} pulls, more than int64 holds"
            )


def log_factor(delta: float, dim: int, num_tasks: int) -> float:
    """Confidence log factor L = log(2 d M / delta): a union bound over coordinates and tasks."""
    return math.log(2 * dim * num_tasks / delta)


def sample_budget_stage1(
    width: int,
    epsilon: float,
    delta: float,
    dim: int,
    num_tasks: int,
) -> int:
    """Per-column budget for exploring the current basis: ceil(4 width L / eps^2).

    Zero for the empty basis; the first task skips straight to the norm test.
    """
    if width < 0:
        raise ValueError(f"width must be >= 0, got {width}")
    if width == 0:
        return 0
    lf = log_factor(delta, dim, num_tasks)
    return math.ceil(4 * width * lf / epsilon**2)


def sample_budget_stage2(epsilon: float, delta: float, dim: int, num_tasks: int) -> int:
    """Per-coordinate budget for the full re-estimation: ceil(16 dim L / eps^2)."""
    lf = log_factor(delta, dim, num_tasks)
    return math.ceil(16 * dim * lf / epsilon**2)


def regret_mode_epsilon(dim: int, rep_dim: int, num_tasks: int, horizon: int) -> float:
    """Accuracy target balancing exploration cost against commit-phase error."""
    return float(
        ((dim**2 * rep_dim + rep_dim**2 * num_tasks) / (num_tasks * horizon)) ** 0.25
    )


def _regret_mode_budgets(width: int, dim: int, epsilon: float) -> tuple[int, int]:
    """Rate-preserving budgets with the confidence logs dropped (see module docstring)."""
    n1 = 0 if width == 0 else math.ceil(4 * width / epsilon**2)
    n2 = math.ceil(dim / epsilon**2)
    return n1, n2


def task_specific_exploration(
    instance: BanditInstance,
    task: int,
    basis: np.ndarray,
    n1_per_column: int,
    rng: np.random.Generator,
    ledger: RegretLedger,
) -> tuple[np.ndarray, np.ndarray]:
    """Play each basis column for a block; reconstruct the coefficient in-span.

    Returns ``(theta_tilde, w_tilde)`` where ``w_tilde[j]`` is the mean
    reward of column ``j``'s block and ``theta_tilde = basis @ w_tilde``.
    Records ``width * n1_per_column`` regret entries, one block per column
    in column order.  With an empty basis the reconstruction is the zero
    vector and nothing is pulled.

    All columns go to the oracle in one ``env.pull_block_mean_many`` call,
    as rows, so they are checked once, before the first draw; each block
    keeps the bits of a one-column ``env.pull_block_mean`` call.  ``basis``
    must have orthonormal columns; it is not checked here.  ``run_lll``
    passes the identity, or a basis that ``extend_basis`` built from a
    checked one.
    """
    w_tilde = np.zeros(basis.shape[1])
    if w_tilde.size:
        w_tilde, regrets = pull_block_mean(instance, task, basis.T, n1_per_column, rng)
        for regret in regrets.tolist():
            ledger.record_block(regret, n1_per_column)
    return basis @ w_tilde, w_tilde


def needs_reestimation(theta_tilde: np.ndarray, epsilon: float) -> bool:
    """True when ``||theta_tilde|| <= 1 - epsilon`` (boundary included).

    A short reconstruction means a direction relevant to this task is
    missing from the current span.
    """
    return vector_norm(theta_tilde) <= 1.0 - epsilon


def reestimate_theta_coordinatewise(
    instance: BanditInstance,
    task: int,
    n2_per_coordinate: int,
    rng: np.random.Generator,
    ledger: RegretLedger,
) -> np.ndarray:
    """Estimate every coordinate: explore the standard basis, one block per coordinate.

    Records ``dim * n2_per_coordinate`` regret entries.
    """
    return task_specific_exploration(
        instance, task, np.eye(instance.dim), n2_per_coordinate, rng, ledger
    )[1]


def extend_basis(
    basis: np.ndarray, theta_hat: np.ndarray, epsilon: float
) -> tuple[np.ndarray, bool]:
    """Append the normalized out-of-span component of ``theta_hat``.

    The component must have norm at least ``epsilon / 4`` — below that the
    estimate is explained by the current span up to noise and appending
    would admit a junk direction.  A full-width basis cannot be extended;
    its residual must already be numerically zero.
    """
    basis = require_orthonormal(basis)
    residual = project_orthogonal_complement(basis, theta_hat)
    norm = vector_norm(residual)
    if basis.shape[1] == basis.shape[0]:
        assert norm < FULL_BASIS_RESIDUAL_ATOL, (
            f"full basis has residual {norm}; orthogonality is broken"
        )
        return basis, False
    if norm < epsilon * EXTENSION_FLOOR_FRACTION:
        return basis, False
    # One re-orthogonalization pass keeps accumulated drift below tolerance.
    column = project_orthogonal_complement(basis, residual / norm)
    column /= vector_norm(column)
    return np.column_stack([basis, column]), True


@dataclass(eq=False)
class LllState:
    """Learner state threaded through the task sequence.

    ``extension_tasks`` lists the task that contributed each basis column,
    in order; its length always equals the basis width.  ``entered_stage2``
    also flags tasks whose re-estimation did not extend the basis (the
    residual floor declined the new direction), which still consumed
    stage-2 samples.
    """

    basis: np.ndarray
    theta_hats: np.ndarray  # (dim, num_tasks), filled as tasks complete
    extension_tasks: list[int] = field(default_factory=list)
    entered_stage2: np.ndarray | None = None  # (num_tasks,) bool
    width_after: np.ndarray | None = None  # (num_tasks,) int
    samples_used: np.ndarray | None = None  # (num_tasks,) int, exploration only
    per_task_regret: np.ndarray | None = None
    per_task_commit_regret: np.ndarray | None = None
    epsilon: float = 0.0

    @property
    def width(self) -> int:
        return self.basis.shape[1]


def run_lll(
    instance: BanditInstance,
    rng: np.random.Generator | None = None,
    trace_stride: int = 0,
    *,
    mode: str,
    epsilon: float | None = None,
    delta: float = 0.05,
) -> tuple[RegretLedger, LllState]:
    """Process all tasks sequentially; return the ledger and the learner state.

    ``mode`` (one of ``MODES``) has no default, because the two modes play
    different objectives.  ``epsilon`` is the target estimation accuracy and
    is required in pure-exploration mode; in regret mode it is derived from
    the instance and horizon (see module docstring), and a given value is
    only checked.

    ``state.samples_used`` counts exploration pulls only (stage 1 and stage
    2); regret-mode commit pulls are excluded.  In regret mode every task
    issues exactly ``horizon`` pulls, and a task whose exploration budget
    cannot fit inside the horizon raises ``HorizonTooShortError`` before
    the overrun rather than truncating; so does a horizon whose derived
    ``epsilon`` is at least 1, where the norm test could never fire.
    """
    check_options(mode, delta, epsilon, instance.dim, instance.num_tasks)
    rng = rng if rng is not None else np.random.default_rng(0)
    dim, rep_dim = instance.dim, instance.rep_dim
    num_tasks, horizon = instance.num_tasks, instance.horizon

    regret_mode = mode == "regret"
    if regret_mode:
        epsilon = regret_mode_epsilon(dim, rep_dim, num_tasks, horizon)
        if epsilon >= 1:
            raise HorizonTooShortError(
                f"regret-mode epsilon {epsilon:.3g} >= 1 at horizon {horizon}: no norm test fires"
            )
    else:
        epsilon = float(epsilon)

    ledger = RegretLedger(num_tasks, trace_stride)
    state = LllState(
        basis=empty_basis(dim),
        theta_hats=np.zeros((dim, num_tasks)),
        entered_stage2=np.zeros(num_tasks, dtype=bool),
        width_after=np.zeros(num_tasks, dtype=int),
        samples_used=np.zeros(num_tasks, dtype=int),
        per_task_regret=np.zeros(num_tasks),
        per_task_commit_regret=np.zeros(num_tasks),
        epsilon=epsilon,
    )

    for task in range(num_tasks):
        width = state.width
        if regret_mode:
            n1, n2 = _regret_mode_budgets(width, dim, epsilon)
        else:
            n1 = sample_budget_stage1(width, epsilon, delta, dim, num_tasks)
            n2 = sample_budget_stage2(epsilon, delta, dim, num_tasks)
        regret_before = ledger.total
        used = width * n1
        if regret_mode and used > horizon:
            raise HorizonTooShortError(
                f"task {task}: stage-1 exploration needs {used} pulls, horizon is {horizon}"
            )
        theta_tilde, _ = task_specific_exploration(
            instance, task, state.basis, n1, rng, ledger
        )

        if needs_reestimation(theta_tilde, epsilon):
            if regret_mode and used + dim * n2 > horizon:
                raise HorizonTooShortError(
                    f"task {task}: exploration needs {used + dim * n2} pulls, "
                    f"horizon is {horizon}"
                )
            theta_hat = reestimate_theta_coordinatewise(instance, task, n2, rng, ledger)
            used += dim * n2
            state.entered_stage2[task] = True
            state.basis, extended = extend_basis(state.basis, theta_hat, epsilon)
            if extended:
                state.extension_tasks.append(task)
        else:
            theta_hat = theta_tilde

        state.theta_hats[:, task] = theta_hat
        state.samples_used[task] = used
        state.width_after[task] = state.width

        if regret_mode:
            action = argmax_unit_ball(theta_hat)
            gap = instant_regret(instance, task, action)
            commit_before = ledger.total
            ledger.record_block(gap, horizon - used)
            state.per_task_commit_regret[task] = ledger.total - commit_before
        state.per_task_regret[task] = ledger.total - regret_before

    return ledger, state
