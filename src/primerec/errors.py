"""Exception types, and the refusal to mutate a value, shared across the package.

Every contract violation is an explicit exception; there are no NaN-like
sentinel values anywhere in the numeric stack.
"""


def refuse_mutation(self, name, *value):
    """``__setattr__`` and ``__delattr__`` of a class that sets its slots once, in ``__init__``."""
    raise AttributeError(f"{type(self).__name__} is immutable: cannot change {name!r}")


class PrimerecError(Exception):
    """Base class for all package errors."""


class DomainError(PrimerecError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class RangeError(PrimerecError, OverflowError):
    """The result would exceed the documented representable range."""


class UnsupportedSizeError(DomainError):
    """The argument is valid but larger than the supported size cap."""


class ZeroResidualError(DomainError):
    """The residual is exactly zero, so there is nothing to estimate.

    The character vanishes at every tail term; no precision helps.
    """


class PrecisionLossError(PrimerecError, ArithmeticError):
    """A result is not resolved from zero at working precision.

    Retrying with a larger working precision (``prec_bits``, the CLI's
    ``--precision``) is the documented remedy.
    """
