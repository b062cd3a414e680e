"""Exception hierarchy shared across the package.

Each class declares its CLI exit code in ``exit_code``, so library code
should raise the most specific type that applies:

    0  success
    1  usage error
    2  MalformedInputError, or an unreadable or unwritable file (OSError)
    3  ValidationError, or any other L2LimitsError
    4  HypothesisViolationError
    5  CrossCheckError
"""

from __future__ import annotations

import operator
from numbers import Real

__all__ = [
    "L2LimitsError",
    "MalformedInputError",
    "ValidationError",
    "HypothesisViolationError",
    "CrossCheckError",
]


class L2LimitsError(Exception):
    """Base class for all package-specific errors."""

    exit_code = 3


class MalformedInputError(L2LimitsError):
    """Input data could not be parsed: bad .scx line, bad JSON, duplicate
    vertices inside one simplex, malformed weight string."""

    exit_code = 2


class ValidationError(L2LimitsError):
    """Structurally valid input that violates a contract: missing root,
    disconnected complex where a rooted class is required, degree above a
    declared bound, size beyond the dense-solver cap."""


class HypothesisViolationError(L2LimitsError):
    """A convergence-theorem hypothesis does not hold for the supplied data
    (typically: no uniform degree bound along a sequence)."""

    exit_code = 4


class CrossCheckError(L2LimitsError):
    """Two independent computation routes disagreed beyond tolerance.

    This is deliberately fatal: a disagreement between the exact rational
    path and the floating-point path means at least one result is wrong.
    """

    exit_code = 5


def _check_int(value, what: str) -> int:
    """``value`` as an int, refused unless ``operator.index`` takes it (numpy
    integers and bools do, floats do not) and it is nonnegative; a floor
    above 0 is the caller's to check, with its own message."""
    try:
        n = operator.index(value)
    except TypeError:
        raise ValidationError(f"{what} must be an integer, not {value!r}") from None
    if n < 0:
        raise ValidationError(f"{what} must be nonnegative")
    return n


def _check_number(value, what: str) -> None:
    if not isinstance(value, Real) or value != value:  # NaN is unequal to itself
        raise ValidationError(f"{what} must be a real number, not {value!r}")


def _check_probability(value) -> None:
    if not (isinstance(value, Real) and 0 <= value <= 1):
        raise ValidationError(f"probability must lie in [0, 1], not {value!r}")


def _check_eps(value) -> None:
    if not (isinstance(value, Real) and 0 < value < 1):
        raise ValidationError(f"eps must lie strictly between 0 and 1, not {value!r}")
