"""Exception types shared across the package."""


class InputError(ValueError):
    """Caller-supplied data violated a documented precondition."""


class UndefinedCorrelationError(InputError):
    """Rank correlation is undefined (fewer than 2 pairs, or a variable all tied)."""
