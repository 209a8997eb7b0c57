"""Exception and warning types shared across the package."""

__all__ = [
    "ParameterError",
    "PoleError",
    "ConvergenceError",
    "EvalDomainError",
    "SeriesDivisionError",
    "ConsistencyError",
    "CoefficientFileError",
    "TruncationWarning",
]


class ParameterError(ValueError):
    """A parameter violates its documented domain."""


class PoleError(ParameterError):
    """A gamma-function argument landed within tolerance of a pole."""


class ConvergenceError(ArithmeticError):
    """A series failed its stopping rule within the term cap."""


class EvalDomainError(ValueError):
    """Evaluation requested outside the punctured unit disk."""


class SeriesDivisionError(ArithmeticError):
    """A denominator series vanished at an evaluation point.

    The offending point, when known, is stored on ``at``.
    """

    def __init__(self, message, at=None):
        super().__init__(message)
        self.at = at


class ConsistencyError(ArithmeticError):
    """An internally forced normalization failed to hold."""


class CoefficientFileError(ValueError):
    """A coefficient CSV file could not be parsed.

    ``line`` carries the 1-based offending line number when known.
    """

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line


class TruncationWarning(UserWarning):
    """Doubling the truncation order moved a solved value beyond tolerance."""
