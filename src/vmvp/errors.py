"""Exception types shared across the package."""


class ValidationError(ValueError):
    """Raised when inputs violate a documented precondition or normalization."""


class NumericalAbort(RuntimeError):
    """Raised when a run leaves its validity domain (gate / positivity / non-finite right-hand side).

    `t` is the time of the step that raised it, set by the harness.
    """

    def __init__(self, message, t=None):
        super().__init__(message)
        self.t = t
