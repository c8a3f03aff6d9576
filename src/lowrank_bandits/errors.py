"""Exception types shared across the library, and the config type checks."""

import math
import numbers

# The largest count numpy holds in int64: pulls, tasks, the horizon, strides.
MAX_COUNT = 2**63 - 1


class ConfigError(ValueError):
    """An instance spec or experiment config violates its invariants."""


class InfeasibleActionError(ValueError):
    """An action lies outside the unit-ball action set."""


class SingularDesignError(ValueError):
    """A least-squares design matrix is rank deficient."""


class HorizonTooShortError(ValueError):
    """Exploration budgets do not fit inside the per-task horizon."""


def require_int(name: str, value) -> None:
    """Raise ``ConfigError`` unless ``value`` is an integer (``bool`` is not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name}: must be an integer, got {value!r}")


def require_finite(name: str, value) -> None:
    """Raise ``ConfigError`` unless ``value`` is a finite real (``bool`` is not)."""
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Real)
        or not math.isfinite(value)
    ):
        raise ConfigError(f"{name}: must be a finite real number, got {value!r}")
