"""Exception types shared across the package."""


class BudgetExceededError(RuntimeError):
    """Raised when a computation would exceed a configured size or time budget.

    Carries enough context to report what was attempted and what the limit was.
    """

    def __init__(self, message, requested=None, bound=None):
        super().__init__(message)
        self.requested = requested
        self.bound = bound

