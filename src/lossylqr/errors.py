"""Exception hierarchy shared by all lossylqr modules."""


class LossyLqrError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(LossyLqrError):
    """An argument is outside its documented domain (non-finite, empty, out of range)."""


class DimensionError(LossyLqrError):
    """Matrix or vector shapes are inconsistent with the requested operation."""


class NotPSDError(LossyLqrError):
    """A matrix required to be positive semi-definite has a significantly negative eigenvalue."""


class NumericalFailureError(LossyLqrError):
    """Two independent numerical routes disagree, or an iteration failed to converge."""


class NoSolutionError(LossyLqrError):
    """The modified Riccati equation has no positive definite solution (loss rate at or above critical).

    `reason` says why the solver gave up: "diverged", "stalled" or "cap"
    (the step cap), or None when raised without one.
    """

    def __init__(self, message: str = "", reason: str | None = None):
        super().__init__(message)
        self.reason = reason


class UnstableError(LossyLqrError):
    """The closed loop is not mean-square stable, so the requested quantity is undefined."""
