import numpy as np
import pytest

from sympb import (
    DefinitenessError,
    DimensionError,
    SpectrumError,
    SymmetryError,
    ellipsoid_capacity,
    is_symplectic,
    random_symplectic,
    standard_j,
    symmetric_sqrt,
    symplectic_spectrum,
    symplectic_spectrum_blockdiag,
)
from sympb.linalg import _pair_imaginary_spectrum, symplecticity_defect


def random_pd(rng, n, floor=0.5):
    g = rng.normal(size=(n, n))
    return g @ g.T + floor * np.eye(n)


# ---------------------------------------------------------------------------
# standard_j
# ---------------------------------------------------------------------------


def test_standard_j_n1():
    assert np.array_equal(standard_j(1), np.array([[0.0, 1.0], [-1.0, 0.0]]))


def test_standard_j_n2_blocks():
    j = standard_j(2)
    assert j.shape == (4, 4)
    assert np.array_equal(j[:2, 2:], np.eye(2))
    assert np.array_equal(j[2:, :2], -np.eye(2))
    assert np.array_equal(j[:2, :2], np.zeros((2, 2)))
    assert np.array_equal(j[2:, 2:], np.zeros((2, 2)))


def test_standard_j_identities_n3():
    j = standard_j(3)
    assert np.array_equal(j.T, -j)
    assert np.array_equal(j @ j, -np.eye(6))


def test_standard_j_rejects_nonpositive_n():
    with pytest.raises(DimensionError):
        standard_j(0)


# ---------------------------------------------------------------------------
# is_symplectic
# ---------------------------------------------------------------------------


def test_is_symplectic_identity():
    assert is_symplectic(np.eye(4), 1e-12)


def test_is_symplectic_rejects_conformal_scaling():
    assert not is_symplectic(2.0 * np.eye(4))


def test_is_symplectic_per_plane_rotation():
    theta = 0.7
    c, s = np.cos(theta), np.sin(theta)
    rot = np.zeros((4, 4))
    for k in range(2):
        rot[k, k] = c
        rot[k, 2 + k] = s
        rot[2 + k, k] = -s
        rot[2 + k, 2 + k] = c
    assert is_symplectic(rot, 1e-12)


def test_is_symplectic_odd_dimension_raises():
    with pytest.raises(DimensionError):
        is_symplectic(np.eye(3))


def test_is_symplectic_is_the_defect_within_tol():
    nan_entry = np.eye(4)
    nan_entry[1, 2] = np.nan
    matrices = [np.eye(4), 2.0 * np.eye(4), random_symplectic(2, 0.4, 3),
                np.eye(4) + 1e-9, nan_entry]
    for s in matrices:
        for tol in (0.0, 1e-12, 1e-10, 1e-6, 3.0):
            assert is_symplectic(s, tol) == (symplecticity_defect(s) <= tol)
    assert not is_symplectic(nan_entry, np.inf)
    assert not symplecticity_defect(nan_entry) <= np.inf


# ---------------------------------------------------------------------------
# symmetric_sqrt
# ---------------------------------------------------------------------------


def test_symmetric_sqrt_diagonal():
    r = symmetric_sqrt(np.diag([4.0, 9.0]))
    assert np.allclose(r, np.diag([2.0, 3.0]), rtol=0, atol=1e-14)


def test_symmetric_sqrt_identity():
    assert np.allclose(symmetric_sqrt(np.eye(5)), np.eye(5), rtol=0, atol=1e-14)


def test_symmetric_sqrt_reconstructs_random_pd():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = rng.integers(2, 9)
        m = random_pd(rng, n)
        r = symmetric_sqrt(m)
        assert np.array_equal(r, r.T)
        assert np.max(np.abs(r @ r - m)) <= 1e-10 * np.max(np.abs(m))


def test_symmetric_sqrt_rejects_semidefinite():
    with pytest.raises(DefinitenessError):
        symmetric_sqrt(np.diag([1.0, 0.0]))


def test_symmetric_sqrt_rejects_indefinite():
    with pytest.raises(DefinitenessError):
        symmetric_sqrt(np.diag([1.0, -1.0]))


def test_symmetric_sqrt_rejects_asymmetric():
    m = np.array([[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(SymmetryError):
        symmetric_sqrt(m)


def test_symmetric_sqrt_rejects_nonsquare():
    with pytest.raises(DimensionError):
        symmetric_sqrt(np.ones((2, 3)))


# ---------------------------------------------------------------------------
# symplectic_spectrum
# ---------------------------------------------------------------------------


def test_spectrum_identity():
    assert np.allclose(symplectic_spectrum(np.eye(4)), [1.0, 1.0], rtol=1e-12)


def test_spectrum_ball():
    for r in (0.5, 1.0, 2.0):
        spec = symplectic_spectrum(np.eye(6) / r**2)
        assert np.allclose(spec, 1.0 / r**2, rtol=1e-12)


def test_spectrum_block_example():
    # M = diag(A, B), A = diag(1, 9), B = I: eigenvalues of AB are 1 and 9,
    # so the symplectic eigenvalues are 3 and 1.
    m = np.diag([1.0, 9.0, 1.0, 1.0])
    assert np.allclose(symplectic_spectrum(m), [3.0, 1.0], rtol=1e-10)


def test_spectrum_odd_dimension_raises():
    with pytest.raises(DimensionError):
        symplectic_spectrum(np.eye(3))


def test_spectrum_propagates_definiteness():
    with pytest.raises(DefinitenessError):
        symplectic_spectrum(np.diag([1.0, 1.0, 1.0, -1.0]))


def test_pairing_rejects_large_real_parts():
    eigs = np.array([1e-3 + 1j, 1e-3 - 1j, -1e-3 + 1j, -1e-3 - 1j])
    with pytest.raises(SpectrumError):
        _pair_imaginary_spectrum(eigs)


def test_pairing_rejects_unmatched_moduli():
    eigs = np.array([1.0j, -1.0j, 1.5j, -1.2j])
    with pytest.raises(SpectrumError):
        _pair_imaginary_spectrum(eigs)


def test_pairing_rejects_zero_spectrum():
    with pytest.raises(SpectrumError):
        _pair_imaginary_spectrum(np.zeros(4, dtype=complex))


# ---------------------------------------------------------------------------
# symplectic_spectrum_blockdiag
# ---------------------------------------------------------------------------


def test_blockdiag_identity():
    assert np.allclose(symplectic_spectrum_blockdiag(np.eye(3), np.eye(3)), 1.0)


def test_blockdiag_example():
    spec = symplectic_spectrum_blockdiag(np.diag([1.0, 9.0]), np.eye(2))
    assert np.allclose(spec, [3.0, 1.0], rtol=1e-12)


def test_blockdiag_matches_general_path():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = rng.integers(1, 5)
        a = random_pd(rng, n)
        b = random_pd(rng, n)
        m = np.block([[a, np.zeros((n, n))], [np.zeros((n, n)), b]])
        s1 = symplectic_spectrum(m)
        s2 = symplectic_spectrum_blockdiag(a, b)
        assert np.max(np.abs(s1 - s2) / s2) <= 1e-8


def test_blockdiag_shape_mismatch():
    with pytest.raises(DimensionError):
        symplectic_spectrum_blockdiag(np.eye(2), np.eye(3))


def test_blockdiag_requires_pd_blocks():
    with pytest.raises(DefinitenessError):
        symplectic_spectrum_blockdiag(np.diag([1.0, -2.0]), np.eye(2))


# ---------------------------------------------------------------------------
# ellipsoid_capacity
# ---------------------------------------------------------------------------


def test_capacity_ball():
    for r in (0.5, 1.0, 2.0):
        for n in (1, 2, 3):
            cap = ellipsoid_capacity(np.eye(2 * n) / r**2)
            assert abs(cap - np.pi * r**2) <= 1e-12 * np.pi * r**2


def test_capacity_identity():
    assert abs(ellipsoid_capacity(np.eye(4)) - np.pi) <= 1e-12 * np.pi


def test_capacity_block_example():
    cap = ellipsoid_capacity(np.diag([1.0, 9.0, 1.0, 1.0]))
    assert abs(cap - np.pi / 3.0) <= 1e-10


# ---------------------------------------------------------------------------
# random_symplectic
# ---------------------------------------------------------------------------


def test_random_symplectic_sigma_zero_is_identity():
    assert np.array_equal(random_symplectic(2, 0.0, 3), np.eye(4))


def test_random_symplectic_small_sigma_near_identity():
    s = random_symplectic(2, 1e-12, 5)
    assert np.max(np.abs(s - np.eye(4))) <= 1e-11


def test_random_symplectic_is_symplectic():
    for seed in range(10):
        for n in (1, 2, 3):
            s = random_symplectic(n, 0.5, seed)
            assert is_symplectic(s, 1e-10)


def test_random_symplectic_deterministic():
    a = random_symplectic(2, 0.5, 42)
    b = random_symplectic(2, 0.5, 42)
    assert np.array_equal(a, b)


def test_random_symplectic_rejects_negative_sigma():
    with pytest.raises(ValueError):
        random_symplectic(2, -0.1, 0)


@pytest.mark.parametrize("sigma", [np.nan, np.inf, -np.inf])
def test_random_symplectic_refuses_sigma_that_is_not_finite(sigma):
    # before: a NaN sigma reached numpy's uniform, which raised OverflowError
    with pytest.raises(ValueError, match=f"^sigma must be a finite number, got {sigma!r}$"):
        random_symplectic(2, sigma, 0)


def test_random_symplectic_rejects_bad_n():
    with pytest.raises(DimensionError):
        random_symplectic(0, 0.5, 0)


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------


def test_spectrum_invariant_under_symplectic_conjugation():
    rng = np.random.default_rng(23)
    for seed in range(20):
        n = int(rng.integers(1, 4))
        m = random_pd(rng, 2 * n)
        s = random_symplectic(n, 0.4, seed)
        ref = symplectic_spectrum(m)
        conj = symplectic_spectrum(s.T @ m @ s)
        assert np.max(np.abs(conj - ref) / ref) <= 1e-8


def test_capacity_conformality():
    rng = np.random.default_rng(31)
    m = random_pd(rng, 4)
    base = ellipsoid_capacity(m)
    for lam in (0.5, 2.0, 3.7):
        scaled = ellipsoid_capacity(m / lam**2)
        assert abs(scaled - lam**2 * base) <= 1e-10 * scaled


def test_capacity_monotone_on_commuting_pairs():
    # M1 >= M2 in the Loewner order means ellipsoid(M1) is contained in
    # ellipsoid(M2), so its capacity cannot be larger.
    rng = np.random.default_rng(41)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        g = rng.normal(size=(2 * n, 2 * n))
        v, _ = np.linalg.qr(g)
        w2 = rng.uniform(0.5, 2.0, size=2 * n)
        w1 = w2 + rng.uniform(0.0, 2.0, size=2 * n)
        m1 = (v * w1) @ v.T
        m2 = (v * w2) @ v.T
        c1 = ellipsoid_capacity(0.5 * (m1 + m1.T))
        c2 = ellipsoid_capacity(0.5 * (m2 + m2.T))
        assert c1 <= c2 * (1.0 + 1e-12)


def test_w_skew_symmetry():
    rng = np.random.default_rng(53)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        m = random_pd(rng, 2 * n)
        r = symmetric_sqrt(m)
        w = r @ standard_j(n) @ r
        assert np.max(np.abs(w + w.T)) <= 1e-10 * np.max(np.abs(w))
