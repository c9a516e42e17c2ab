"""Exception hierarchy, and the one check of scalar arguments.

Everything numerical-domain related derives from :class:`SympbError` so the
command line layer can map it to a single exit code, distinct from I/O and
usage failures.  A scalar argument that is not a number of the right kind
raises ValueError from :func:`_finite` or :func:`_integer`, the package's
one definition of what counts as a number.
"""

import math
import numbers

__all__ = [
    "SympbError",
    "DimensionError",
    "SymmetryError",
    "DefinitenessError",
    "SpectrumError",
    "BelowSaddleError",
    "RootBracketError",
    "LyapunovSignError",
    "SamplingError",
    "ConvergenceError",
    "PreconditionError",
    "DivergenceError",
]


class SympbError(Exception):
    """Base class for numerical-domain errors raised by this package."""


class DimensionError(SympbError):
    """Array shape or arity is incompatible with the requested operation."""


class SymmetryError(SympbError):
    """A matrix required to be symmetric is not, beyond tolerance."""


class DefinitenessError(SympbError):
    """A matrix required to be positive definite fails the eigenvalue test."""


class SpectrumError(SympbError):
    """Eigenvalues of the structure matrix cannot be paired as +/- i*lambda."""


class BelowSaddleError(SympbError):
    """Requested energy is at or below the saddle energy, so the bottleneck
    region is empty or undefined."""


class RootBracketError(SympbError):
    """Bracket expansion for a positive root exceeded its cap without a sign
    change."""


class LyapunovSignError(SympbError):
    """Action-dependent unstable rate Lambda(J) is not positive where it is
    required to be."""


class SamplingError(SympbError):
    """A sampled reaction integral I' is NaN, or negative beyond the rounding
    of the J2max root it was drawn under."""


class ConvergenceError(SympbError):
    """An iterative solve stopped without meeting its tolerance."""


class PreconditionError(SympbError):
    """An input violates a documented numerical precondition (for example a
    mixing matrix that is not symplectic at tolerance)."""


class DivergenceError(SympbError):
    """Trajectory integration produced a non-finite state.

    Attributes
    ----------
    time : float
        First monitored time at which the state was non-finite.
    """

    def __init__(self, message, time):
        super().__init__(message)
        self.time = float(time)


def _finite(value, what: str) -> float:
    """``float(value)`` when ``value`` is a finite real number (a bool or a
    str is not one); otherwise a ValueError naming ``what``."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:  # an int beyond the float range
            x = math.inf
        if math.isfinite(x):
            return x
    raise ValueError(f"{what} must be a finite number, got {value!r}")


def _integer(value, what: str, minimum: int | None = None) -> int:
    """``value`` as an int; a ValueError naming ``what`` for a bool, a
    non-integer (a numpy integer is one) or an integer below ``minimum``
    when one is given."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{what} must be >= {minimum}, got {value}")
    return int(value)
