import math
import os
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sympb import (
    DimensionError,
    standard_j,
    PreconditionError,
    SympbError,
    builtin_cnf,
    default_tau_grid,
    ellipsoid_capacity,
    evolved_shape_matrix,
    is_symplectic,
    min_projection_area,
    radius_scan_curves,
    random_symplectic,
    symplectic_spectrum,
    stm,
)
from sympb import evolution, tables
from sympb.cli import main as cli_main

from oracles import linear_cnf

MODEL = linear_cnf(0.7350, (1.8225, 1.267), -0.9875)


# ---------------------------------------------------------------------------
# stm
# ---------------------------------------------------------------------------


def test_stm_at_zero_is_identity():
    assert np.array_equal(stm(MODEL, 0.0), np.eye(6))


def test_stm_matches_block_formulas():
    t = 0.8
    m = stm(MODEL, t)
    lam, (w2, w3) = MODEL.lam, MODEL.omegas
    n = 3
    # saddle plane (q1, p1)
    assert abs(m[0, 0] - math.cosh(lam * t)) <= 1e-15
    assert abs(m[0, n] - math.sinh(lam * t)) <= 1e-15
    assert abs(m[n, 0] - math.sinh(lam * t)) <= 1e-15
    # bath plane (q2, p2)
    assert abs(m[1, 1] - math.cos(w2 * t)) <= 1e-15
    assert abs(m[1, 1 + n] - math.sin(w2 * t)) <= 1e-15
    assert abs(m[1 + n, 1] + math.sin(w2 * t)) <= 1e-15
    # bath plane (q3, p3)
    assert abs(m[2, 2] - math.cos(w3 * t)) <= 1e-15
    # no cross-plane coupling
    assert m[0, 1] == 0.0 and m[1, 2] == 0.0 and m[2, 0] == 0.0


def test_stm_is_symplectic_over_time_range():
    # The saddle block stores cosh and sinh directly, so the defect of
    # M^T J M - J carries the cancellation noise of cosh^2 - sinh^2,
    # which grows like eps * cosh(lam*t)^2.  Demand the strict 1e-12
    # where float64 can deliver it and the conditioning-aware bound
    # over the full range.
    j = standard_j(3)
    for t in np.linspace(-10 / MODEL.lam, 10 / MODEL.lam, 21):
        m = stm(MODEL, float(t))
        defect = np.max(np.abs(m.T @ j @ m - j))
        arg = MODEL.lam * abs(float(t))
        assert defect <= max(1e-12, 8 * np.finfo(float).eps * math.cosh(arg) ** 2)
        if arg <= 4.0:
            assert is_symplectic(m, tol=1e-12)


def test_stm_group_property():
    a, b = 0.37, 1.21
    lhs = stm(MODEL, a + b)
    rhs = stm(MODEL, a) @ stm(MODEL, b)
    assert np.allclose(lhs, rhs, rtol=0, atol=1e-12)


def test_stm_saddle_block_has_the_bits_of_math_cosh_and_sinh():
    model, n = builtin_cnf(2), 2
    edge = 710.4758600739439 / model.lam
    for t in (-0.0, 0.0, 0.37, -5.0, 3e-310, edge, -float(np.nextafter(edge, 0.0))):
        lt = model.lam * t
        want = np.array([[math.cosh(lt), math.sinh(lt)], [math.sinh(lt), math.cosh(lt)]])
        assert stm(model, t)[np.ix_((0, n), (0, n))].tobytes() == want.tobytes(), t
    # before: OverflowError from math.cosh beyond |lam t| ~ 710; now the block
    # is infinite, sinh with the sign of t, and the shape matrix refuses tau
    for t in (-1000.0, 1000.0, float(np.nextafter(edge, np.inf))):
        s = math.copysign(math.inf, t)
        assert stm(model, t)[np.ix_((0, n), (0, n))].tolist() == [[math.inf, s], [s, math.inf]]
        with pytest.raises(ValueError, match=rf"^saddle block cosh\(lam tau\) at tau = "
                                             rf"{re.escape(repr(-t))} must be a finite "
                                             r"number, got inf$"):
            evolved_shape_matrix(model, 0.1, np.eye(4), -t)


# ---------------------------------------------------------------------------
# min_projection_area at one tau
# ---------------------------------------------------------------------------


def test_projection_area_unmixed_is_pi_r2_for_all_tau():
    for r in (0.5, 1.0, 2.0):
        for tau in (0.0, 0.5, 2.0):
            a = min_projection_area(MODEL, r, np.eye(6), [tau]).min_area
            assert abs(a - math.pi * r * r) <= 1e-12 * math.pi * r * r


def test_projection_area_rejects_bad_radius():
    with pytest.raises(ValueError):
        min_projection_area(MODEL, 0.0, np.eye(6), [0.0])
    with pytest.raises(ValueError):
        min_projection_area(MODEL, -1.0, np.eye(6), [0.0])


def test_projection_area_rejects_non_symplectic_mixer():
    with pytest.raises(PreconditionError):
        min_projection_area(MODEL, 1.0, 2.0 * np.eye(6), [0.0])


def test_projection_area_rejects_wrong_shape():
    with pytest.raises(DimensionError):
        min_projection_area(MODEL, 1.0, np.eye(4), [0.0])


def test_projection_area_never_below_ball_area():
    taus = np.linspace(0.0, 3.0 / MODEL.lam, 25)
    for i in range(10):
        s = random_symplectic(3, sigma=0.5, seed=77 + i)
        for r in (0.1, 0.4):
            floor = math.pi * r * r
            for tau in taus:
                assert min_projection_area(MODEL, r, s, [float(tau)]).min_area >= floor - 1e-9


# ---------------------------------------------------------------------------
# min_projection_area / ProjectionAreaCurve.to_report
# ---------------------------------------------------------------------------


def test_min_projection_area_unmixed_exact():
    grid = default_tau_grid(MODEL)
    curve = min_projection_area(MODEL, 1.0, np.eye(6), grid)
    assert abs(curve.min_area - math.pi) <= 1e-10 * math.pi
    assert curve.r == 1.0
    assert len(curve.taus) == len(curve.areas) == 600
    assert abs(curve.gromov_scale - math.pi) <= 1e-15


def test_min_projection_area_validates_grid():
    with pytest.raises(ValueError):
        min_projection_area(MODEL, 1.0, np.eye(6), np.array([]))
    with pytest.raises(ValueError):
        min_projection_area(MODEL, 1.0, np.eye(6), np.array([1.0, 0.5]))


def test_min_area_scale_invariant_in_radius():
    s = random_symplectic(3, sigma=0.5, seed=3)
    grid = np.linspace(0.0, 3.0 / MODEL.lam, 80)
    ratios = []
    for r in (0.05, 0.2, 0.8):
        curve = min_projection_area(MODEL, r, s, grid)
        ratios.append(curve.min_area / (math.pi * r * r))
    assert abs(ratios[0] - ratios[1]) <= 1e-12 * ratios[0]
    assert abs(ratios[0] - ratios[2]) <= 1e-12 * ratios[0]


def test_default_tau_grid():
    grid = default_tau_grid(MODEL)
    assert len(grid) == 600
    assert grid[0] == 0.0
    assert abs(grid[-1] - 3.0 / MODEL.lam) <= 1e-15
    assert np.all(np.diff(grid) > 0)


def test_area_curve_report():
    grid = np.linspace(0.0, 1.0, 5)
    rep = min_projection_area(MODEL, 0.5, np.eye(6), grid).to_report()
    assert rep.columns == ("tau", "area")
    assert len(rep.rows) == 5
    for (tau, area), g in zip(rep.rows, grid):
        assert tau == g
        assert abs(area - math.pi * 0.25) <= 1e-12


# ---------------------------------------------------------------------------
# evolved_shape_matrix
# ---------------------------------------------------------------------------


def test_evolved_shape_matrix_is_symmetric_pd():
    s = random_symplectic(3, sigma=0.5, seed=11)
    m = evolved_shape_matrix(MODEL, 0.7, s, 1.3)
    assert np.array_equal(m, m.T)
    assert np.all(np.linalg.eigvalsh(m) > 0)


def test_capacity_preserved_under_evolution():
    rng = np.random.default_rng(19)
    for i in range(5):
        s = random_symplectic(3, sigma=0.5, seed=19 + i)
        r = float(rng.uniform(0.2, 1.5))
        tau = float(rng.uniform(0.0, 3.0))
        cap = ellipsoid_capacity(evolved_shape_matrix(MODEL, r, s, tau))
        assert abs(cap - math.pi * r * r) <= 1e-8 * math.pi * r * r


def test_evolved_spectrum_top_eigenvalue():
    # the shape matrix of a ball of radius r has every symplectic
    # eigenvalue equal to 1/r^2, and evolution preserves the spectrum
    s = random_symplectic(3, sigma=0.5, seed=23)
    r = 0.6
    m = evolved_shape_matrix(MODEL, r, s, 0.9)
    spec = symplectic_spectrum(m)
    assert np.allclose(spec, 1.0 / r**2, rtol=1e-8)


# ---------------------------------------------------------------------------
# radius_scan_curves
# ---------------------------------------------------------------------------


def test_radius_scan_columns_and_floor():
    rep = radius_scan_curves(MODEL, [0.1, 0.2], s_mix_seed=4, sigma=0.5)[0]
    assert rep.columns == ("r", "min_area", "pi_r2", "c_cand_ref")
    assert len(rep.rows) == 2
    for r, min_area, pi_r2, c_ref in rep.rows:
        assert abs(pi_r2 - math.pi * r * r) <= 1e-15
        assert min_area >= pi_r2 - 1e-9
        assert abs(c_ref - 2.0 * math.pi * 0.9875 / 1.8225) <= 1e-12


def test_radius_scan_unmixed_matches_ball_area():
    rep = radius_scan_curves(MODEL, [0.1, 0.5, 1.0], s_mix_seed=0, sigma=0.0)[0]
    for r, min_area, pi_r2, _ in rep.rows:
        assert abs(min_area - pi_r2) <= 1e-6 * pi_r2


def test_radius_scan_deterministic():
    a = radius_scan_curves(MODEL, [0.3, 0.6], s_mix_seed=8, sigma=0.5)[0]
    b = radius_scan_curves(MODEL, [0.3, 0.6], s_mix_seed=8, sigma=0.5)[0]
    assert a.rows == b.rows
    c = radius_scan_curves(MODEL, [0.3, 0.6], s_mix_seed=9, sigma=0.5)[0]
    assert c.rows != a.rows


def test_radius_scan_validation():
    with pytest.raises(ValueError):
        radius_scan_curves(MODEL, [], s_mix_seed=0)[0]
    with pytest.raises(ValueError):
        radius_scan_curves(MODEL, [0.1, -0.2], s_mix_seed=0)[0]


def test_radius_with_infinite_area_is_refused():
    # pi r^2 overflows for r above about 7.6e153; an infinite or NaN radius
    # is no finite number, and the scan names it as an element of its list
    for r in (1e200, 1e154, math.inf, math.nan):
        msg = "pi r\\^2" if math.isfinite(r) else f"^r must be a finite number, got {r!r}$"
        scan_msg = msg if math.isfinite(r) else "^radii\\[1\\]" + msg[2:]
        with pytest.raises(ValueError, match=scan_msg):
            radius_scan_curves(MODEL, [0.1, r], s_mix_seed=0)
        with pytest.raises(ValueError, match=msg):
            min_projection_area(MODEL, r, np.eye(6), [0.0])
    assert min_projection_area(MODEL, 1e153, np.eye(6), [0.0]).gromov_scale < math.inf


def test_radius_with_underflowing_square_is_refused_by_the_scan():
    # before: min_area and pi_r2 written as 0
    with pytest.raises(ValueError, match=r"radius 1e-170 gives r\^2 = 0\.0, below"):
        radius_scan_curves(MODEL, [0.1, 1e-170], s_mix_seed=0)
    with pytest.raises(ValueError, match=r"radius 1e-170 gives r\^2 = 0\.0, below"):
        min_projection_area(MODEL, 1e-170, np.eye(6), [0.0])


def test_radius_with_zero_square_is_refused_by_the_shape_matrix():
    # before: numpy's LinAlgError "Singular matrix"
    with pytest.raises(ValueError, match=r"radius 1e-200 gives r\^2 = 0\.0, below"):
        evolved_shape_matrix(builtin_cnf(2), 1e-200, np.eye(4), 0.0)


def test_radius_with_subnormal_square_is_refused_by_the_shape_matrix():
    # before: a matrix of NaN and inf, returned without an error
    r2 = 1e-160 * 1e-160
    assert 0.0 < r2 < np.finfo(float).tiny
    with pytest.raises(ValueError, match=rf"radius 1e-160 gives r\^2 = {r2!r}, below"):
        evolved_shape_matrix(builtin_cnf(2), 1e-160, np.eye(4), 0.0)
    # the smallest radius whose square is normal still gives a finite matrix
    r = math.sqrt(np.finfo(float).tiny) * (1 + 1e-15)
    assert np.isfinite(evolved_shape_matrix(builtin_cnf(2), r, np.eye(4), 0.0)).all()


# ---------------------------------------------------------------------------
# batched shadow areas against the per-tau oracle
# ---------------------------------------------------------------------------


def oracle_projection_area(model, r, s_mix, tau):
    """The shadow area one tau at a time: the full STM, the mixer checked at
    every point, one Gram determinant per call, replaced by the tau = 0
    determinant where its subtraction cancels more than CANCEL_LIMIT."""
    if r <= 0:
        raise ValueError(f"radius must be > 0, got {r}")
    s_mix = np.asarray(s_mix, dtype=float)
    n = model.n_dof
    if s_mix.shape != (2 * n, 2 * n):
        raise DimensionError(
            f"mixer shape {s_mix.shape} does not match the model dimension {2 * n}"
        )
    if not is_symplectic(s_mix, evolution.MIXER_TOL):
        raise PreconditionError(
            f"mixing matrix is not symplectic at tolerance {evolution.MIXER_TOL:.0e}"
        )
    phi = stm(model, -tau)
    g = (phi @ s_mix)[[0, n], :]
    c = g @ g.T
    det = c[0, 0] * c[1, 1] - c[0, 1] * c[1, 0]
    if not det * evolution.CANCEL_LIMIT >= c[0, 0] * c[1, 1]:
        c = s_mix[[0, n], :] @ s_mix[[0, n], :].T
        det = c[0, 0] * c[1, 1] - c[0, 1] * c[1, 0]
    return math.pi * r * r * math.sqrt(det)


def oracle_min_projection_area(model, r, s_mix, tau_grid):
    taus = np.asarray(tau_grid, dtype=float)
    if taus.size == 0:
        raise ValueError("tau grid must be nonempty")
    if np.any(np.diff(taus) < 0):
        raise ValueError("tau grid must be sorted ascending")
    return np.array([oracle_projection_area(model, r, s_mix, t) for t in taus])


def outcome(fn, *args):
    """Bits of the result, or the type and message of the error raised."""
    try:
        value = fn(*args)
    except (ValueError, SympbError, OverflowError) as exc:
        return type(exc), str(exc)
    return np.asarray(value, dtype=float).view(np.int64).tolist()


@st.composite
def tau_grids(draw, lam):
    points = draw(st.integers(1, 700))
    tau_max = draw(st.floats(0.0, 12.0)) / lam
    if draw(st.booleans()):
        return np.linspace(0.0, tau_max, points)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return np.sort(rng.uniform(0.0, tau_max, points))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), dof=st.sampled_from([2, 3]), sigma=st.floats(0.0, 1.5),
       seed=st.integers(0, 2**31 - 1), r=st.floats(1e-3, 3.0))
def test_min_projection_area_matches_per_tau_oracle(data, dof, sigma, seed, r):
    model = builtin_cnf(dof)
    grid = data.draw(tau_grids(model.lam))
    s = random_symplectic(dof, sigma, seed)
    want = outcome(oracle_min_projection_area, model, r, s, grid)
    got = outcome(lambda: min_projection_area(model, r, s, grid).areas)
    assert got == want
    if isinstance(want, list):
        assert outcome(lambda: min_projection_area(model, r, s, grid[-1:]).areas) == want[-1:]


@settings(max_examples=40, deadline=None)
@given(data=st.data(), dof=st.sampled_from([2, 3]), sigma=st.floats(0.0, 1.5),
       seed=st.integers(0, 2**31 - 1),
       radii=st.lists(st.floats(1e-3, 3.0), min_size=1, max_size=4))
def test_radius_scan_min_area_matches_per_tau_oracle(data, dof, sigma, seed, radii):
    model = builtin_cnf(dof)
    grid = data.draw(tau_grids(model.lam))
    s = random_symplectic(dof, sigma, seed)

    def oracle_column():
        return [oracle_min_projection_area(model, r, s, grid).min() for r in radii]

    def scan_column():
        rep = radius_scan_curves(model, radii, s_mix_seed=seed, tau_grid=grid, sigma=sigma)[0]
        return [row[1] for row in rep.rows]

    assert outcome(scan_column) == outcome(oracle_column)


def test_radius_scan_curves_share_one_factor_curve():
    model = builtin_cnf(3)
    grid = np.linspace(0.0, 3.0 / model.lam, 90)
    rep, curves = radius_scan_curves(model, [0.1, 0.3], s_mix_seed=6, tau_grid=grid)
    assert rep.rows == radius_scan_curves(model, [0.1, 0.3], s_mix_seed=6, tau_grid=grid)[0].rows
    s = random_symplectic(3, 0.5, 6)
    for row, curve in zip(rep.rows, curves):
        assert curve.r == row[0] and curve.min_area == row[1]
        want = min_projection_area(model, row[0], s, grid).to_report()
        got = curve.to_report()
        assert (got.columns, got.rows, got.meta) == (want.columns, want.rows, want.meta)


def test_write_curves_writes_each_curve_as_its_report(tmp_path):
    model = builtin_cnf(3)
    grid = np.linspace(0.0, 3.0 / model.lam, 50)
    curves = radius_scan_curves(model, [0.1, 0.3], s_mix_seed=6, tau_grid=grid)[1]
    # equal to the shared grid but not the same bytes: -0.0 prints as -0
    signed = grid.copy()
    signed[0] = -0.0
    curves += [min_projection_area(model, 0.2, np.eye(6), signed),
               min_projection_area(model, 0.2, np.eye(6), grid.copy())]
    meta = {"command": "exp1", "seed": 6}
    evolution.write_curves(curves, str(tmp_path / "curve"), meta)
    for i, curve in enumerate(curves):
        rep = curve.to_report()
        rep.meta.update(meta, radius_index=i)
        rep.to_csv(str(tmp_path / "want.csv"))
        got = (tmp_path / f"curve_r{i}.csv").read_bytes()
        assert got == (tmp_path / "want.csv").read_bytes()
    assert (tmp_path / "curve_r2.csv").read_text().splitlines()[2].startswith("-0,")
    assert (tmp_path / "curve_r3.csv").read_text().splitlines()[2].startswith("0,")


def test_write_curves_writes_mixed_curves_as_their_reports(tmp_path):
    # the float64 area columns of every curve are formatted in one pass;
    # grids of other lengths, float32 and int64 area arrays (an int must
    # print as an int, so it stays out of the float64 pass), and areas with
    # -0.0 beside 0.0, NaN and infinities still give each curve's report
    model = builtin_cnf(3)
    grid = np.linspace(0.0, 3.0 / model.lam, 50)
    curves = radius_scan_curves(model, [0.1, 0.3], s_mix_seed=6, tau_grid=grid)[1]
    short = grid[:7]
    curves += [
        min_projection_area(model, 0.1, random_symplectic(3, 0.5, 6), grid[:20]),
        evolution.ProjectionAreaCurve(r=0.2, taus=short, areas=(0.1 * curves[0].areas[:7])
                                      .astype(np.float32), min_area=0.0, gromov_scale=1.0),
        evolution.ProjectionAreaCurve(r=0.2, taus=short, areas=np.arange(-3, 4),
                                      min_area=-3.0, gromov_scale=1.0),
        evolution.ProjectionAreaCurve(r=0.2, taus=short, areas=np.array(
            [-0.0, 0.0, np.nan, np.inf, -np.inf, -0.0, 0.0]), min_area=-np.inf, gromov_scale=1.0),
        evolution.ProjectionAreaCurve(r=0.2, taus=grid[:1], areas=curves[1].areas[:1].copy(),
                                      min_area=0.0, gromov_scale=1.0),
    ]
    meta = {"command": "exp1", "seed": 6}
    evolution.write_curves(curves, str(tmp_path / "curve"), meta)
    for i, curve in enumerate(curves):
        rep = curve.to_report()
        rep.meta.update(meta, radius_index=i)
        rep.to_csv(str(tmp_path / "want.csv"))
        got = (tmp_path / f"curve_r{i}.csv").read_bytes()
        assert got == (tmp_path / "want.csv").read_bytes()

    def area_cells(i):
        return [line.split(",")[1]
                for line in (tmp_path / f"curve_r{i}.csv").read_text().splitlines()[2:]]

    assert area_cells(4) == ["-3", "-2", "-1", "0", "1", "2", "3"]
    assert area_cells(5) == ["-0", "0", "nan", "inf", "-inf", "-0", "0"]
    assert len(area_cells(6)) == 1


def oracle_shadow_factors(model, s_mix, taus):
    """The area factors with the blocks built one point at a time, a point
    whose cosh or sinh overflows taking ``(inf, +/-inf)`` with the sign of
    ``lt``; returns the blocks and the factors."""
    s_mix = evolution._check_mixer(model, s_mix)
    n = model.n_dof
    blocks = []
    for lt in (model.lam * -taus).tolist():
        try:
            c, s = math.cosh(lt), math.sinh(lt)
        except OverflowError:
            c, s = math.inf, math.copysign(math.inf, lt)
        blocks.append(((c, s), (s, c)))
    blocks = np.array(blocks, dtype=float).reshape(-1, 2, 2)
    rows = s_mix[[0, n], :]
    with np.errstate(over="ignore", invalid="ignore"):
        g = blocks @ rows
        gram = g @ g.transpose(0, 2, 1)
        det = gram[:, 0, 0] * gram[:, 1, 1] - gram[:, 0, 1] * gram[:, 1, 0]
        kept = det * evolution.CANCEL_LIMIT >= gram[:, 0, 0] * gram[:, 1, 1]
    gram0 = rows @ rows.T
    det0 = gram0[0, 0] * gram0[1, 1] - gram0[0, 1] * gram0[1, 0]
    return blocks, np.sqrt(np.where(kept, det, det0))


def edge_tau_grids(lam):
    """Grids that cross the cosh overflow threshold (on either side of
    tau = 0), start at -0.0, hold one point, or lie wholly beyond it."""
    edge = 710.4758600739439 / lam
    near = [edge]
    for _ in range(3):
        near = [np.nextafter(near[0], 0.0), *near, np.nextafter(near[-1], np.inf)]
    with pytest.raises(OverflowError):
        math.cosh(lam * near[-1])
    assert math.isfinite(math.cosh(lam * near[0]))
    return {
        "crossing": np.array([0.0, 1.0, 500.0, *near, 2000.0, 1e300]),
        "crossing-negative": np.array([-1e300, -2000.0, -near[-1], -near[0], -0.0, 3.0]),
        "linspace-crossing": np.linspace(0.0, 2.0 * edge, 301),
        "signed-zero-start": np.array([-0.0, 0.0, 0.25, 1.0, 4.0]),
        "one-point": np.array([-0.0]),
        "one-point-beyond": np.array([2000.0]),
        "wholly-beyond": np.array([near[-1], 1200.0, 2000.0, np.inf]),
        "wholly-beyond-negative": np.array([-np.inf, -2000.0, -near[-1]]),
    }


@pytest.mark.parametrize("dof,seed", [(2, 3), (3, 11), (3, None)])
def test_shadow_factors_match_the_per_point_block_rule(dof, seed):
    model = builtin_cnf(dof)
    s = np.eye(2 * dof) if seed is None else random_symplectic(dof, 0.5, seed)
    for name, taus in edge_tau_grids(model.lam).items():
        blocks, factors = oracle_shadow_factors(model, s, taus)
        got = evolution._saddle_blocks(model.lam, taus)
        assert got.shape == blocks.shape and got.flags.c_contiguous, name
        assert got.tobytes() == blocks.tobytes(), name
        assert evolution._shadow_factors(model, s, taus).tobytes() == factors.tobytes(), name


def test_exp1_formats_its_tau_grid_once(tmp_path, monkeypatch):
    calls = []
    real = evolution.format_column

    def counting(values):
        calls.append(list(values))
        return real(values)

    monkeypatch.setattr(evolution, "format_column", counting)
    monkeypatch.setattr(tables, "format_column", counting)
    argv = ["exp1", "--radii", "0.1,0.2,0.3", "--seed", "5", "-o", str(tmp_path / "scan.csv"),
            "--curves-out", str(tmp_path / "curve")]
    assert cli_main(argv) == 0
    grid = default_tau_grid(builtin_cnf(2)).tolist()
    assert len(grid) == 600
    assert sum(values == grid for values in calls) == 1
    # the three curves' area columns, read back from their files, in one call
    areas = np.array([float(line.split(",")[1])
                      for i in range(3)
                      for line in (tmp_path / f"curve_r{i}.csv").read_text().splitlines()[2:]])
    assert len(areas) == 3 * 600
    assert sum(np.array(values, dtype=float).tobytes() == areas.tobytes() for values in calls) == 1
    # the grid, the three area columns at once and the scan table's four columns
    assert len(calls) == 6


def test_write_curves_formats_each_area_bit_pattern_once(tmp_path, monkeypatch):
    class CountingFormat(str):
        values = []

        def __mod__(self, value):
            CountingFormat.values.append(value)
            return str.__mod__(self, value)

    model = builtin_cnf(3)
    grid = default_tau_grid(model)
    curves = radius_scan_curves(model, [0.3, 0.5], s_mix_seed=5, tau_grid=grid)[1]
    # a shorter grid, and the first curve's radius again on it: its areas are
    # bit patterns the first curve already has
    curves += [min_projection_area(model, 0.3, random_symplectic(3, 0.5, 5), grid[:250])]
    assert set(curves[2].areas.tolist()) <= set(curves[0].areas.tolist())
    monkeypatch.setattr(tables, "FLOAT_FMT", CountingFormat(tables.FLOAT_FMT))
    evolution.write_curves(curves, str(tmp_path / "curve"), {})
    areas = np.concatenate([curve.areas for curve in curves])
    distinct = np.unique(areas.view(np.uint64))
    # each value of the two grids once, and each distinct area bit pattern
    # across the three curves once
    want = np.concatenate([grid, grid[:250], distinct.view(np.float64)])
    assert len(CountingFormat.values) == len(want)
    assert sorted(np.array(CountingFormat.values).view(np.uint64).tolist()) == \
        sorted(want.view(np.uint64).tolist())
    assert len(distinct) < sum(np.unique(c.areas.view(np.uint64)).size for c in curves)


def test_error_order_matches_per_tau_evaluation():
    s = random_symplectic(3, 0.5, 1)
    # the grid is checked before the radius, the radius before the mixer
    with pytest.raises(ValueError, match="nonempty"):
        min_projection_area(MODEL, -1.0, 2.0 * np.eye(6), np.array([]))
    with pytest.raises(ValueError, match="sorted"):
        min_projection_area(MODEL, 0.0, np.eye(4), np.array([1.0, 0.5]))
    for r in (0.0, -0.5):
        with pytest.raises(ValueError, match="radius"):
            min_projection_area(MODEL, r, 2.0 * np.eye(6), np.array([0.0, 1.0]))
        with pytest.raises(ValueError, match="radius"):
            min_projection_area(MODEL, r, np.eye(4), [0.0])
    with pytest.raises(PreconditionError):
        min_projection_area(MODEL, 1.0, 2.0 * np.eye(6), np.array([0.0, 1.0]))
    with pytest.raises(DimensionError):
        min_projection_area(MODEL, 1.0, s[:4, :4], np.array([0.0, 1.0]))
    with pytest.raises(ValueError, match="nonempty"):
        radius_scan_curves(MODEL, [0.1], s_mix_seed=1, tau_grid=[])[0]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_tau_grids_refuse_non_finite_times(bad):
    # before: a NaN tau passed the sort check and gave a NaN curve point, and
    # an infinite tau at either end was accepted; the lowest bad point is
    # named as it is given (an ndarray's as a numpy scalar), before the
    # radius is checked
    for grid, i in (([0.0, bad, 1.0], 1), ([bad, bad], 0), (np.array([0.0, 0.5, bad]), 2)):
        want = f"tau_grid[{i}] must be a finite number, got {grid[i]!r}"
        with pytest.raises(ValueError) as info:
            min_projection_area(MODEL, -1.0, np.eye(4), grid)
        assert str(info.value) == want
        with pytest.raises(ValueError) as info:
            radius_scan_curves(MODEL, [0.1], s_mix_seed=1, tau_grid=grid)
        assert str(info.value) == want


def exact_shadow_factor(model, s_mix, tau):
    """``sqrt(det(P Phi(-tau) S S^T Phi(-tau)^T P^T))`` in mpmath, with digits
    enough that the ``cosh^4`` terms cancel exactly."""
    n = model.n_dof
    lt = abs(model.lam * tau)
    with mpmath.workdps(30 + int(2 * lt)):
        c, s = mpmath.cosh(-model.lam * mpmath.mpf(tau)), mpmath.sinh(-model.lam * mpmath.mpf(tau))
        rows = mpmath.matrix([[float(v) for v in s_mix[0]], [float(v) for v in s_mix[n]]])
        g = mpmath.matrix([[c, s], [s, c]]) * rows
        return float(mpmath.sqrt(mpmath.det(g * g.T)))


def exact_far_area(model, r, s_mix):
    """``pi r^2 sqrt(det(P S S^T P^T))`` in 50-digit mpmath: the exact area at
    every tau, since the saddle block has determinant 1."""
    n = model.n_dof
    with mpmath.workdps(50):
        rows = mpmath.matrix([[float(v) for v in s_mix[0]], [float(v) for v in s_mix[n]]])
        return float(mpmath.pi * mpmath.mpf(r) ** 2 * mpmath.sqrt(mpmath.det(rows * rows.T)))


def test_far_tau_grid_matches_the_exact_factor():
    # far out on the grid cosh^4 swamps the unit determinant of the saddle
    # block; every area still matches the exact per-tau factor and stays at
    # or above the ball area, and where cosh itself overflows the area is the
    # exact tau-independent one
    s = random_symplectic(3, 0.5, 9)
    grid = np.linspace(0.0, 40.0, 700)
    curve = min_projection_area(MODEL, 1.0, s, grid)
    assert outcome(oracle_min_projection_area, MODEL, 1.0, s, grid) == outcome(lambda: curve.areas)
    for tau, area in list(zip(grid, curve.areas))[::23]:
        want = math.pi * exact_shadow_factor(MODEL, s, float(tau))
        assert abs(area - want) <= 1e-10 * want
    assert curve.min_area >= math.pi
    with pytest.raises(OverflowError):
        math.cosh(MODEL.lam * 2000.0)
    far = min_projection_area(MODEL, 1.0, s, np.append(grid, 2000.0))
    assert np.array_equal(far.areas[:-1], curve.areas)
    want = exact_far_area(MODEL, 1.0, s)
    assert abs(far.areas[-1] - want) <= 2 * math.ulp(want)
    assert far.min_area == curve.min_area
    eye = min_projection_area(MODEL, 1.0, np.eye(6), np.array([0.0, 2000.0]))
    assert eye.areas.tolist() == [math.pi, math.pi]


def test_exp1_checks_and_draws_the_mixer_once(tmp_path, monkeypatch, capsys):
    calls = {"is_symplectic": 0, "random_symplectic": 0, "stm": 0}

    def counting(name):
        fn = getattr(evolution, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(evolution, name, counting(name))
    prefix = tmp_path / "curve"
    code = cli_main(["exp1", "--dof", "3", "--radii", "0.1,0.2,0.3", "--tau-points", "50",
                     "-o", str(tmp_path / "exp1.csv"), "--curves-out", str(prefix)])
    capsys.readouterr()
    assert code == 0
    assert sorted(os.listdir(tmp_path)) == ["curve_r0.csv", "curve_r1.csv", "curve_r2.csv", "exp1.csv"]
    assert calls == {"is_symplectic": 1, "random_symplectic": 1, "stm": 0}


# ---------------------------------------------------------------------------
# properties: capacity invariance and the pi r^2 floor
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(dof=st.sampled_from([1, 2, 3]), sigma=st.floats(0.0, 1.0),
       seed=st.integers(0, 2**31 - 1), shift=st.floats(0.05, 2.0))
def test_capacity_invariant_under_symplectic_conjugation(dof, sigma, seed, shift):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(2 * dof, 2 * dof))
    m = a @ a.T + shift * np.eye(2 * dof)
    s = random_symplectic(dof, sigma, seed)
    conj = s.T @ m @ s
    conj = 0.5 * (conj + conj.T)
    cap = ellipsoid_capacity(m)
    assert abs(ellipsoid_capacity(conj) - cap) <= 1e-9 * cap


@settings(max_examples=60, deadline=None)
@given(dof=st.sampled_from([2, 3]), sigma=st.floats(0.0, 1.0),
       seed=st.integers(0, 2**31 - 1), r=st.floats(1e-3, 2.0),
       points=st.integers(1, 400), tau_max=st.floats(0.0, 4.0))
def test_min_area_never_below_ball_capacity(dof, sigma, seed, r, points, tau_max):
    model = builtin_cnf(dof)
    grid = np.linspace(0.0, tau_max / model.lam, points)
    curve = min_projection_area(model, r, random_symplectic(dof, sigma, seed), grid)
    assert curve.min_area >= math.pi * r * r - 1e-9
