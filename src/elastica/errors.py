"""Exception types shared across the package."""


class DegenerateElementError(RuntimeError):
    """A local Gram system is singular (degenerate element or edge)."""


class NotPositiveDefiniteError(RuntimeError):
    """A matrix expected to be SPD failed factorization."""


class SolverFailure(RuntimeError):
    """An iterative solver did not converge; carries its report (and lab's level record)."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report
        self.record = None
