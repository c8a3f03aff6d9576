"""Multi-task and lifelong linear bandit simulation with a shared low-rank representation."""

from .env import (
    BanditInstance,
    InstanceSpec,
    RegretLedger,
    generate_instance,
    instant_regret,
    instant_regret_many,
    pull_block_mean,
    pull_block_mean_many,
    pull_many,
)
from .errors import (
    ConfigError,
    HorizonTooShortError,
    InfeasibleActionError,
    SingularDesignError,
)
from .mtrl import (
    MtrlDiagnostics,
    collect_stage1_samples,
    moment_estimate_theta,
    moment_theta_matrix,
    resolve_budgets,
    run_mtrl,
)
from .baselines import e2tc_squared_estimator, run_e2tc, run_independent_etc
from .lll import (
    LllState,
    extend_basis,
    needs_reestimation,
    run_lll,
    sample_budget_stage1,
    sample_budget_stage2,
)
from .harness import (
    ExperimentConfig,
    RunRecord,
    compare,
    run_experiment,
    summarize,
)

__version__ = "0.1.0"

__all__ = [
    "BanditInstance",
    "ConfigError",
    "ExperimentConfig",
    "HorizonTooShortError",
    "InfeasibleActionError",
    "InstanceSpec",
    "LllState",
    "MtrlDiagnostics",
    "RegretLedger",
    "RunRecord",
    "SingularDesignError",
    "collect_stage1_samples",
    "compare",
    "e2tc_squared_estimator",
    "moment_estimate_theta",
    "moment_theta_matrix",
    "extend_basis",
    "generate_instance",
    "instant_regret",
    "instant_regret_many",
    "needs_reestimation",
    "pull_block_mean",
    "pull_block_mean_many",
    "pull_many",
    "resolve_budgets",
    "run_e2tc",
    "run_experiment",
    "run_independent_etc",
    "run_lll",
    "run_mtrl",
    "sample_budget_stage1",
    "sample_budget_stage2",
    "summarize",
    "__version__",
]
