"""Exception hierarchy shared across the package.

The CLI maps these onto process exit codes: validation-type failures
(ParseError, ValidationError, DomainError, StateError, DegenerateInputError)
exit 1, ResourceError exits 2. The input checks that several modules share
are defined here once.
"""

import math

import numpy as np


class DeltaseqError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(DeltaseqError):
    """Malformed input file; the message names the offending line."""


class ValidationError(DeltaseqError):
    """Arguments or data violate a documented precondition."""


class DomainError(DeltaseqError):
    """A value lies outside the mathematical domain of an operation."""


class StateError(DeltaseqError):
    """Operation applied to an object in the wrong state."""


class DegenerateInputError(DeltaseqError):
    """Input is degenerate for the requested statistic (e.g. zero variance)."""


class ResourceError(DeltaseqError):
    """A configured work or size budget was exceeded."""


def _check_positive(name: str, v: float, allow_zero: bool = False) -> None:
    ok = (v >= 0.0) if allow_zero else (v > 0.0)
    if not (ok and math.isfinite(v)):
        kind = ">= 0" if allow_zero else "> 0"
        raise ValidationError(f"{name} must be finite and {kind}, got {v}")


def _check_finite(what: str, *arrays: np.ndarray) -> None:
    if not all(np.isfinite(a).all() for a in arrays):
        raise ValidationError(f"{what} must be finite")


def _check_alpha(alpha: float) -> None:
    if not (0.0 < alpha < 1.0):
        raise ValidationError(f"alpha must lie in (0, 1), got {alpha}")
