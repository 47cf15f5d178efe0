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
    """The modified Riccati equation has no positive definite solution (loss rate at or above critical)."""


class UnstableError(LossyLqrError):
    """The closed loop is not mean-square stable, so the requested quantity is undefined."""
