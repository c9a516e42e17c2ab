"""Exception hierarchy.

Everything numerical-domain related derives from :class:`SympbError` so the
command line layer can map it to a single exit code, distinct from I/O and
usage failures.
"""

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
