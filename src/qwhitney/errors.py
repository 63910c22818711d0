"""Exception types shared across the package.

Every error the package raises on purpose derives from `QWhitneyError`, so a
caller (the CLI among them) can tell them from faults with one except clause.
Each also keeps its standard-library base for callers that catch those.
"""


class QWhitneyError(Exception):
    """Base class of the package's own errors."""


class InexactDivisionError(QWhitneyError, ArithmeticError):
    """Exact division was requested but no exact quotient exists."""


class EvalAtZeroError(QWhitneyError, ZeroDivisionError):
    """A Laurent polynomial with negative exponents was evaluated at q = 0."""


class DomainError(QWhitneyError, ValueError):
    """A numeric argument is outside the function's domain."""


class DivergentSeriesError(DomainError):
    """The requested series diverges for these arguments."""


class NonConvergenceError(QWhitneyError, ArithmeticError):
    """A truncated series failed to meet its tolerance within the term cap."""


class ZeroMError(QWhitneyError, ValueError):
    """m = 0 where a division by m is required."""


class UnknownIdentityError(QWhitneyError, ValueError):
    """The identity name is not in the catalogue."""


class IncompatibleModeError(QWhitneyError, ValueError):
    """The operation does not support the requested scalar mode."""


class InsufficientSequenceError(QWhitneyError, ValueError):
    """The sequence is too short for the requested Hankel order."""
