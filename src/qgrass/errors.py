"""Exception types shared across the package, and its one type rule.

A value that must be an int or a bool, from a JSON file or a public
constructor, is taken only if it is exactly of that type (_exact).
"""

_KINDS = {int: "an int", bool: "a bool", list: "a list of ints"}


def _exact(value, name, kind):
    """value, if it is exactly of type kind, and a list only if it holds ints.

    No float or string is taken for an int, no number or string for a
    bool, and no bool for an int.  Anything else raises a ValueError
    naming the value.
    """
    if type(value) is not kind or (kind is list and any(type(x) is not int for x in value)):
        raise ValueError(f"{name!r} must be {_KINDS[kind]}, got {value!r}")
    return value


class BudgetExceededError(RuntimeError):
    """Raised when a computation would exceed a configured size or time budget.

    Carries enough context to report what was attempted and what the limit was.
    """

    def __init__(self, message, requested=None, bound=None):
        super().__init__(message)
        self.requested = requested
        self.bound = bound

