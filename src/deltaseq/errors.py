"""Exception hierarchy shared across the package.

The CLI maps these onto process exit codes by the hierarchy: ResourceError
exits 2, every other DeltaseqError exits 1. The input checks that several
modules share are defined here once, among them the one rule that turns a
seed into a random stream (``_seed_sequence``).
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


# the return type is quoted: numpy loads numpy.random on first use, and a
# command that draws nothing should not pay for loading it
def _seed_sequence(seed: int, name: str = "seed") -> "np.random.SeedSequence":
    """The root of every random stream: ``seed`` checked, then as a
    SeedSequence, whose ``default_rng`` draws what ``default_rng(seed)``
    would."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValidationError(f"{name} must be a non-negative integer, got {seed!r}")
    return np.random.SeedSequence(seed)
