"""Exception hierarchy, and the one check of scalar and list arguments.

Everything numerical-domain related derives from :class:`SympbError` so the
command line layer can map it to a single exit code, distinct from I/O and
usage failures.  A scalar argument that is not a number of the right kind
raises ValueError from :func:`_finite` or :func:`_integer`, the package's
one definition of what counts as a number, and :func:`_elements` applies
them to an argument that is one number or a 1-d list of numbers.
"""

import math
import numbers

import numpy as np

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


def _elements(values, what: str, check=_finite) -> np.ndarray:
    """``values``, one number or a 1-d sequence of them, as an array of the
    same dimension, of floats (of ints when ``check`` is :func:`_integer`).
    A DimensionError names a shape of 2 or more dimensions; else ``check``'s
    ValueError names ``what``, or ``what[i]`` for the lowest refused element
    of a list as it is given (numpy reads ``[0.5, True]`` as floats)."""
    try:
        array = np.asarray(values)
    except ValueError:  # a ragged list, whose first list element is refused
        array = np.asarray(values, dtype=object)
    if array.ndim > 1:
        raise DimensionError(f"{what} must be one value or a 1-d list, got shape {array.shape}")
    # unsigned ints go one by one: as int64 the top half of uint64 would wrap
    numeric = array.dtype.kind in ("i" if check is _integer else "iuf")
    if not array.size or (numeric and np.isfinite(array).all() and (
            array.ndim == 0 or isinstance(values, np.ndarray)
            or not any(isinstance(value, (bool, np.bool_)) for value in values))):
        return array.astype(int if check is _integer else float, copy=False)
    if array.ndim == 0:
        return np.array(check(values[()] if isinstance(values, np.ndarray) else values, what))
    return np.array([check(value, f"{what}[{i}]") for i, value in enumerate(values)])
