"""Work budgets that stop the exponential routines with a clean error.

Each budget is an integer read from an environment variable when the
routine starts; the CLI turns a BudgetError into exit code 2.
"""

import os


class BudgetError(RuntimeError):
    """Raised when a computation would exceed its work budget."""


def read_budget(env_var, default):
    """The integer set in env_var, or default when it is unset."""
    raw = os.environ.get(env_var)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{env_var} must be an integer, got {raw!r}") from None
