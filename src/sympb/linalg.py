"""Symplectic linear algebra.

Conventions: phase space is ordered ``(q_1, ..., q_n, p_1, ..., p_n)`` and the
standard symplectic form is ``J = [[0, I], [-I, 0]]``.  Symmetric positive
definite matrices ``M`` define ellipsoids ``{z : z^T M z <= 1}``; their
symplectic (Williamson) eigenvalues and the linear capacity ``pi / lambda_max``
are the basic invariants everything else builds on.
"""

from __future__ import annotations

import numpy as np

from .errors import (DefinitenessError, DimensionError, SpectrumError, SymmetryError,
                     _finite, _integer)

# Relative eigenvalue floor below which a symmetric matrix is rejected as not
# positive definite.
PD_RTOL = 1e-12
# Relative tolerances for classifying the eigenvalues of J-weighted matrices.
REAL_PART_RTOL = 1e-8
PAIR_RTOL = 1e-8

__all__ = [
    "standard_j",
    "symplecticity_defect",
    "is_symplectic",
    "symmetric_sqrt",
    "symplectic_spectrum",
    "symplectic_spectrum_blockdiag",
    "ellipsoid_capacity",
    "random_symplectic",
]


def _as_square(m, name="matrix"):
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {m.shape}")
    if not m.size:
        raise DimensionError(f"{name} must not be empty, got shape {m.shape}")
    return m


def _check_symmetric(m, name="matrix", rtol=1e-12):
    scale = np.max(np.abs(m))
    asym = np.max(np.abs(m - m.T))
    if asym > rtol * max(scale, 1e-300):
        raise SymmetryError(
            f"{name} is not symmetric: max |M - M^T| = {asym:.3e} "
            f"exceeds {rtol:.1e} * max |M| = {rtol * scale:.3e}"
        )


def _check_pd(w, name: str) -> None:
    """Raise DefinitenessError unless the ascending eigenvalues ``w`` of the
    matrix ``name`` are positive at relative tolerance PD_RTOL."""
    wmax = w[-1]
    if wmax <= 0.0 or w[0] <= PD_RTOL * wmax:
        raise DefinitenessError(
            f"{name} is not positive definite at relative tolerance "
            f"{PD_RTOL:.1e}: eigenvalue range [{w[0]:.6e}, {wmax:.6e}]"
        )


def standard_j(n: int) -> np.ndarray:
    """Standard symplectic form on R^(2n).

    Parameters
    ----------
    n : int
        Number of degrees of freedom, an integer >= 1: ValueError for a
        value that is no integer, DimensionError for one below 1.

    Returns
    -------
    ndarray, shape (2n, 2n)
        Block matrix ``[[0, I_n], [-I_n, 0]]``.
    """
    if _integer(n, "n") < 1:
        raise DimensionError(f"need n >= 1 degrees of freedom, got n = {n}")
    j = np.zeros((2 * n, 2 * n))
    eye = np.eye(n)
    j[:n, n:] = eye
    j[n:, :n] = -eye
    return j


def symplecticity_defect(s) -> float:
    """Entrywise deviation ``max |S^T J S - J|`` of a square matrix of even
    dimension from symplecticity (NaN when an entry of ``S`` is NaN)."""
    s = _as_square(s, "S")
    if s.shape[0] % 2 != 0:
        raise DimensionError(f"symplectic matrices have even dimension, got {s.shape[0]}")
    j = standard_j(s.shape[0] // 2)
    return float(np.max(np.abs(s.T @ j @ s - j)))


def is_symplectic(s, tol: float = 1e-10) -> bool:
    """Test ``S^T J S = J`` entrywise within ``tol``: whether
    :func:`symplecticity_defect` is at most ``tol``, a finite number or
    ``inf`` (which passes every matrix whose defect is not NaN)."""
    if tol != np.inf:
        _finite(tol, "tol")
    return bool(symplecticity_defect(s) <= tol)


def symmetric_sqrt(m) -> np.ndarray:
    """Symmetric positive definite square root of a symmetric PD matrix.

    Computed from the eigendecomposition ``M = V diag(w) V^T`` as
    ``R = V diag(sqrt(w)) V^T``, then symmetrized against roundoff.

    Parameters
    ----------
    m : array_like, shape (d, d)
        Symmetric positive definite matrix.

    Returns
    -------
    ndarray, shape (d, d)
        ``R`` with ``R @ R`` reproducing ``m`` to close to machine precision.
    """
    m = _as_square(m, "M")
    _check_symmetric(m, "M")
    w, v = np.linalg.eigh(m)
    _check_pd(w, "M")
    r = (v * np.sqrt(w)) @ v.T
    return 0.5 * (r + r.T)


def _pair_imaginary_spectrum(eigs: np.ndarray) -> np.ndarray:
    """Collapse eigenvalues expected to come in pairs +/- i*lambda.

    The real parts are tested relative to the largest absolute imaginary part.

    Parameters
    ----------
    eigs : ndarray of complex, even length
        Raw eigenvalues of the J-weighted matrix.

    Returns
    -------
    ndarray
        Paired moduli sorted in descending order, length ``len(eigs) // 2``.
    """
    if len(eigs) % 2 != 0:
        raise DimensionError("eigenvalue list must have even length")
    imag = np.abs(eigs.imag)
    scale = float(np.max(imag))
    if scale <= 0.0:
        raise SpectrumError("no nonzero imaginary parts; cannot pair spectrum")
    max_real = float(np.max(np.abs(eigs.real)))
    if max_real > REAL_PART_RTOL * scale:
        raise SpectrumError(
            f"eigenvalues are not purely imaginary: max |Re| = {max_real:.3e} "
            f"exceeds {REAL_PART_RTOL:.1e} * lambda_max = {REAL_PART_RTOL * scale:.3e}"
        )
    srt = np.sort(imag)[::-1]
    hi = srt[0::2]
    lo = srt[1::2]
    gap = hi - lo
    bad = gap > PAIR_RTOL * np.maximum(hi, 1e-300)
    if np.any(bad):
        k = int(np.argmax(bad))
        raise SpectrumError(
            f"cannot pair eigenvalue moduli {hi[k]:.12e} and {lo[k]:.12e} "
            f"within relative tolerance {PAIR_RTOL:.1e}"
        )
    return 0.5 * (hi + lo)


def symplectic_spectrum(m) -> np.ndarray:
    """Williamson symplectic eigenvalues of a symmetric PD matrix.

    The eigenvalues of ``W = M^(1/2) J M^(1/2)`` come in pairs
    ``+/- i*lambda_j`` with ``lambda_j > 0``; the ``lambda_j`` are returned in
    descending order.

    Parameters
    ----------
    m : array_like, shape (2n, 2n)
        Symmetric positive definite matrix.

    Returns
    -------
    ndarray, shape (n,)
        Symplectic eigenvalues, descending.
    """
    m = _as_square(m, "M")
    if m.shape[0] % 2 != 0:
        raise DimensionError(f"phase-space dimension must be even, got {m.shape[0]}")
    r = symmetric_sqrt(m)
    w = r @ standard_j(m.shape[0] // 2) @ r
    eigs = np.linalg.eigvals(w)
    return _pair_imaginary_spectrum(eigs)


def symplectic_spectrum_blockdiag(a, b) -> np.ndarray:
    """Symplectic eigenvalues of ``M = diag(A, B)`` via the product shortcut.

    For block-diagonal ``M`` (no q-p cross terms) the symplectic eigenvalues
    are the square roots of the eigenvalues of ``A @ B``.

    Parameters
    ----------
    a, b : array_like, shape (n, n)
        Symmetric positive definite blocks acting on q and p respectively.

    Returns
    -------
    ndarray, shape (n,)
        Symplectic eigenvalues, descending.
    """
    a = _as_square(a, "A")
    b = _as_square(b, "B")
    if a.shape != b.shape:
        raise DimensionError(f"blocks must have equal shape, got {a.shape} and {b.shape}")
    _check_symmetric(a, "A")
    _check_symmetric(b, "B")
    _check_pd(np.linalg.eigvalsh(a), "A")
    _check_pd(np.linalg.eigvalsh(b), "B")
    eigs = np.linalg.eigvals(a @ b)
    scale = float(np.max(np.abs(eigs)))
    if np.max(np.abs(eigs.imag)) > REAL_PART_RTOL * scale:
        raise SpectrumError("eigenvalues of A @ B are not numerically real")
    ev = eigs.real
    if np.min(ev) <= 0.0:
        raise SpectrumError("eigenvalues of A @ B are not all positive")
    return np.sort(np.sqrt(ev))[::-1]


def ellipsoid_capacity(m) -> float:
    """Linear symplectic capacity of the ellipsoid ``{z : z^T M z <= 1}``.

    Equals ``pi / lambda_max`` where ``lambda_max`` is the largest symplectic
    eigenvalue of ``M``.  For a ball of radius r, ``M = I / r^2`` and the
    capacity is ``pi r^2``.
    """
    return float(np.pi / symplectic_spectrum(m)[0])


def random_symplectic(n: int, sigma: float, seed: int) -> np.ndarray:
    """Random symplectic matrix ``exp(J A)`` with symmetric ``A``.

    Entries of ``A`` are drawn uniformly from ``[-sigma, sigma]`` (upper
    triangle mirrored), so ``J A`` is Hamiltonian and its exponential is
    symplectic.  The exponential is scipy's scaling-and-squaring Pade
    implementation, accurate well beyond the 1e-10 symplecticity tolerance
    for the moderate norms used here.  Deterministic in ``(n, sigma, seed)``.
    ``scipy.linalg`` is imported here, on the first call, so that importing
    sympb loads no scipy module.

    Parameters
    ----------
    n : int
        Degrees of freedom, checked first, as :func:`standard_j` checks
        them; the result is ``2n x 2n``.
    sigma : float
        Half-width of the uniform coefficient distribution, finite and >= 0.
    seed : int
        Seed for ``numpy.random.default_rng``, an integer >= 0.

    Returns
    -------
    ndarray, shape (2n, 2n)
    """
    j = standard_j(n)
    if _finite(sigma, "sigma") < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    _integer(seed, "seed", 0)
    rng = np.random.default_rng(seed)
    g = rng.uniform(-sigma, sigma, size=(2 * n, 2 * n))
    a = np.triu(g) + np.triu(g, 1).T
    import scipy.linalg

    return scipy.linalg.expm(j @ a)
