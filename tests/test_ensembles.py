import io
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sympb.ensembles
from sympb import (
    BelowSaddleError,
    CnfModel,
    Ensemble,
    EnsembleSpec,
    SamplingError,
    builtin_cnf,
    default_delta_e,
    default_t_max,
    effective_lyapunov,
    eval_cnf,
    j_max_cnf,
    sample_ensemble,
    scan_report,
    transmission_scan,
    transmit,
)

MODEL2 = builtin_cnf(2)
MODEL3 = builtin_cnf(3)
E0 = -0.9875


def make_spec(**kw):
    base = dict(n_traj=200, e_center=0.0, delta_e=0.05, seed=11)
    base.update(kw)
    return EnsembleSpec(**base)


def points(q1, p1, j):
    """An ensemble of the given points, with zero phases and energies."""
    j = np.array(j, dtype=float)
    return Ensemble(q1=q1, p1=p1, j=j, phases=np.zeros(j.shape), energy=np.zeros(len(j)))


def bits(ens):
    return np.column_stack([ens.q1, ens.p1, ens.j, ens.phases, ens.energy]).tobytes()


# ---------------------------------------------------------------------------
# spec and initial-condition validation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n_traj", [5.5, 5.0, np.float64(5.0), True, np.bool_(True), 0, -3,
                                    "5", None])
def test_ensemble_spec_refuses_an_n_traj_that_is_not_a_positive_integer(n_traj):
    # before: 5.5 drew 5 points and reported n_total 5.5 and fraction 5/5.5,
    # and True reported n_total True
    with pytest.raises(ValueError) as info:
        make_spec(n_traj=n_traj)
    assert type(info.value) is ValueError
    rule = "must be >= 1" if type(n_traj) is int and n_traj < 1 else "must be an integer"
    assert str(info.value) == f"n_traj {rule}, got {n_traj!r}"


def test_ensemble_spec_takes_numpy_integers_as_ints():
    # kept as ints, so the report writes them as it writes Python ints
    spec = make_spec(n_traj=np.int64(50), seed=np.uint64(11))
    assert (type(spec.n_traj), type(spec.seed)) == (int, int)
    assert spec == make_spec(n_traj=50, seed=11)
    texts = []
    for spec in (make_spec(n_traj=50, seed=11), spec):
        out = io.StringIO()
        scan_report(MODEL2, spec, [0.0, 0.5]).to_csv(out)
        texts.append(out.getvalue())
    assert texts[0] == texts[1]


def test_spec_validation():
    with pytest.raises(ValueError):
        make_spec(n_traj=0)
    with pytest.raises(ValueError):
        make_spec(delta_e=-0.1)
    with pytest.raises(ValueError):
        make_spec(q1_range=0.0)
    # Q_1 is drawn from [-q1_range, -1e-9], which a smaller range would invert
    for q1_range in (1e-9, 1e-12):
        with pytest.raises(ValueError, match=r"^q1_range must be > 1e-09, got "):
            make_spec(q1_range=q1_range)
    for q1_range in (math.nan, math.inf):
        with pytest.raises(ValueError, match=f"^q1_range must be a finite number, got {q1_range}$"):
            make_spec(q1_range=q1_range)
    # P_1 = sqrt(Q_1^2 + 2 I') would be inf, and every point would transmit
    for q1_range in (1e160,):
        with pytest.raises(ValueError, match=re.escape(f"q1_range {q1_range} gives q1_range^2 = inf,")):
            make_spec(q1_range=q1_range)
    assert make_spec(q1_range=1e150).q1_range == 1e150


def test_initial_condition_half_space():
    with pytest.raises(ValueError):
        points([0.1], [0.5], [(0.1,)])
    with pytest.raises(ValueError):
        points([-0.1], [-0.5], [(0.1,)])
    ens = points([-0.1], [0.5], [(0.1,)])
    assert ens.q1[0] < 0.0 < ens.p1[0]
    # one point outside the half-space refuses the whole batch, and is named
    with pytest.raises(ValueError, match=r"Q1 = -0\.2, P1 = -0\.5"):
        points([-0.1, -0.2, -0.3], [0.5, -0.5, 0.5], [(0.1,)] * 3)
    with pytest.raises(ValueError, match=r"Q1 = 0\.0, P1 = 0\.5"):
        Ensemble(q1=[[-0.1], [0.0]], p1=[[0.5], [0.5]], j=[[[0.1]], [[0.1]]],
                 phases=[[[0.0]], [[0.0]]], energy=[0.0])


def test_ensemble_shapes_must_agree():
    # before: one Q_1 with three P_1 counted as fraction 3.0 of n_total 1
    msg = r"got q1 \(1,\), p1 \(3,\), j \(3, 1\), phases \(3, 1\), energy \(3,\)$"
    with pytest.raises(ValueError, match=msg):
        Ensemble(q1=[-0.1], p1=[0.5, 0.6, 0.7], j=[[0.0]] * 3, phases=[[0.0]] * 3,
                 energy=[0.0] * 3)
    good = dict(q1=[-0.1, -0.2], p1=[0.5, 0.6], j=[[0.1], [0.2]], phases=[[0.0], [0.0]],
                energy=[0.0, 0.0])
    for key, bad in (("j", [0.1, 0.2]), ("phases", [[0.0, 0.0], [0.0, 0.0]]),
                     ("energy", [0.0]), ("p1", [[0.5, 0.6]])):
        with pytest.raises(ValueError, match="^ensemble needs q1, p1"):
            Ensemble(**{**good, key: bad})
    assert Ensemble(**good).q1.shape == (2,)


@pytest.mark.parametrize("field, value", [
    ("e_center", math.nan), ("e_center", math.inf), ("e_center", -math.inf),
    ("delta_e", math.nan), ("delta_e", math.inf),
])
def test_spec_refuses_a_window_that_is_not_finite(field, value):
    # before: a NaN window died in the scan with "ConvergenceError: j_max at
    # E = nan", and delta_e = inf with a BelowSaddleError
    msg = f"^{field} must be a finite number, got {re.escape(repr(value))}$"
    with pytest.raises(ValueError, match=msg):
        make_spec(**{field: value})


@pytest.mark.parametrize("e_center, window", [(1e308, "[0.0, inf]"), (-1e308, "[-inf, 0.0]")])
def test_spec_refuses_an_energy_window_that_overflows(e_center, window):
    msg = re.escape(f"energy window [e_center - delta_e, e_center + delta_e] = {window} "
                    "is not finite")
    with pytest.raises(ValueError, match=f"^{msg}$"):
        make_spec(e_center=e_center, delta_e=1e308)
    assert make_spec(e_center=e_center, delta_e=1e307).delta_e == 1e307


@pytest.mark.parametrize("xi, msg", [
    (-0.2, "xi must lie in [0, 1], got -0.2"),
    (1.5, "xi must lie in [0, 1], got 1.5"),
    (math.nan, "xi must lie in [0, 1], got nan"),
    ([0.5, 1.5, -1.0], "xi must lie in [0, 1], got 1.5"),
    ([[0.5]], "xi must be one value or a 1-d list, got shape (1, 1)"),
    ([[0.0, 1.0]], "xi must be one value or a 1-d list, got shape (1, 2)"),
])
def test_sample_ensemble_refuses_bands_outside_the_unit_interval(monkeypatch, xi, msg):
    # the one check of every band, made before anything is drawn
    def no_draws(*args):
        raise AssertionError("uniforms were drawn for a refused band")

    monkeypatch.setattr(sympb.ensembles, "substream_uniforms", no_draws)
    with pytest.raises(ValueError, match=f"^{re.escape(msg)}$"):
        sample_ensemble(MODEL2, make_spec(), xi)
    if np.ndim(xi) < 2:
        # the scan's bands [0.0] + xis meet the same check and message
        with pytest.raises(ValueError, match=f"^{re.escape(msg)}$"):
            transmission_scan(MODEL2, make_spec(), np.atleast_1d(xi))


def test_sample_ensemble_below_saddle():
    spec = make_spec(e_center=E0, delta_e=0.5)
    with pytest.raises(BelowSaddleError):
        sample_ensemble(MODEL2, spec)


# ---------------------------------------------------------------------------
# sampling properties
# ---------------------------------------------------------------------------


def test_sample_ensemble_deterministic():
    spec = make_spec()
    a = sample_ensemble(MODEL3, spec, 0.5)
    b = sample_ensemble(MODEL3, spec, 0.5)
    assert a.q1.shape == a.p1.shape == a.energy.shape == (200,)
    assert a.j.shape == a.phases.shape == (200, 2)
    assert bits(a) == bits(b)
    c = sample_ensemble(MODEL3, make_spec(seed=12), 0.5)
    assert bits(c) != bits(a)


def test_sampled_energies_in_window():
    spec = make_spec(n_traj=500)
    for xi in (0.0, 0.5):
        for e in sample_ensemble(MODEL3, spec, xi).energy:
            assert spec.e_center - spec.delta_e <= e <= spec.e_center + spec.delta_e


def test_sampled_ics_satisfy_energy_constraint():
    # reconstruct I from (q1, p1) and re-evaluate the normal form
    spec = make_spec(n_traj=300)
    for xi in (0.0, 0.5):
        ens = sample_ensemble(MODEL3, spec, xi)
        for q1, p1, j, e in zip(ens.q1, ens.p1, ens.j, ens.energy):
            i_val = (p1**2 - q1**2) / 2.0
            assert abs(eval_cnf(MODEL3, i_val, j) - e) <= 1e-10
            assert i_val >= 0.0


def test_sampled_geometry_ranges():
    spec = make_spec(n_traj=400, q1_range=0.7)
    ens = sample_ensemble(MODEL3, spec, 0.5)
    assert ens.j.shape == ens.phases.shape == (400, 2)
    for q1, p1, j, phases in zip(ens.q1, ens.p1, ens.j, ens.phases):
        assert -0.7 <= q1 <= -1e-9
        assert p1 >= abs(q1)
        for ph in phases:
            assert 0.0 <= ph < 2.0 * math.pi
        for jk in j:
            assert jk >= 0.0


def test_kind_b_localizes_j2():
    spec = make_spec(n_traj=300, delta_e=0.0)
    j2max = j_max_cnf(MODEL3, spec.e_center, 2)
    for j2 in sample_ensemble(MODEL3, spec, 0.8).j[:, 0]:
        assert 0.8 * j2max <= j2 <= j2max


def test_kind_b_xi_zero_equals_kind_a():
    # ensemble A is the band xi = 0, the default, alone or in a list
    spec = make_spec()
    b = sample_ensemble(MODEL3, spec, 0.0)
    a = sample_ensemble(MODEL3, spec)
    batch = sample_ensemble(MODEL3, spec, [0.0])
    assert batch.q1.shape == (1, 200) and batch.j.shape == (1, 200, 2)
    for name in ("q1", "p1", "j", "phases"):
        assert np.array_equal(getattr(b, name), getattr(a, name))
        assert np.array_equal(getattr(batch, name)[0], getattr(a, name))
    assert bits(b) == bits(a)


def test_degenerate_window_pins_j2_and_p1():
    # delta_e = 0 and xi = 1 forces J2 to its maximum, leaving I = 0 so
    # P1 collapses onto |Q1|.
    spec = make_spec(n_traj=100, delta_e=0.0)
    j2max = j_max_cnf(MODEL2, spec.e_center, 2)
    ens = sample_ensemble(MODEL2, spec, 1.0)
    for q1, p1, j in zip(ens.q1, ens.p1, ens.j):
        assert abs(j[0] - j2max) <= 1e-15 * j2max
        assert abs(p1 - abs(q1)) <= 1e-15 * p1


def test_sampling_error_names_the_point(monkeypatch):
    # an I' < 0 far beyond the J2max root's rounding is refused, not redrawn
    spec = make_spec(n_traj=20, seed=4)
    ens = sample_ensemble(MODEL3, spec, 0.5)
    solve = sympb.ensembles._solve_reactive_integral

    def sunk(model, e, j):
        i_val = solve(model, e, j)
        i_val[..., 7] = -1.0
        return i_val

    monkeypatch.setattr(sympb.ensembles, "_solve_reactive_integral", sunk)
    e = float(ens.energy[7])
    msg = (f"I' = -1.0 < 0 beyond root rounding at E' = {e!r}, "
           f"J_2 = {float(ens.j[7, 0])!r}, J2max = {j_max_cnf(MODEL3, e, 2)!r}")
    with pytest.raises(SamplingError, match=f"^{re.escape(msg)}$"):
        sample_ensemble(MODEL3, spec, 0.5)
    # in a list of bands, the first band's point is named
    with pytest.raises(SamplingError, match=f"^{re.escape(msg)}$"):
        sample_ensemble(MODEL3, spec, [0.5, 0.9])


@st.composite
def monotone_models(draw):
    """K = e0 + lam I + omega J_2 (+ c2 J_2^2) (+ c3 J_2^3) (+ omega_3 J_3)."""
    terms = [(0, (0,), -1.0), (1, (0,), draw(st.floats(1e-5, 1.0))),
             (0, (1,), draw(st.floats(0.1, 2.0)))]
    for power in (2, 3):
        if draw(st.booleans()):
            terms.append((0, (power,), draw(st.floats(1e-3, 2.0))))
    if draw(st.booleans()):
        terms = [(i, jp + (0,), c) for i, jp, c in terms] + [(0, (0, 1), 1.3)]
    return CnfModel(e0=-1.0, terms=tuple(terms))


@settings(max_examples=60, deadline=None)
@given(model=monotone_models(), e_center=st.floats(-0.9, 1e3),
       delta_e=st.one_of(st.just(0.0), st.floats(1e-6, 1e-2)),
       xis=st.lists(st.floats(0.0, 1.0), max_size=3).map(lambda x: x + [1.0]),
       seed=st.integers(0, 2**32 - 1))
def test_sampler_never_rejects_on_monotone_models(model, e_center, delta_e, xis, seed):
    # J_2 <= J2max(E') and K(0, J) nondecreasing in J_2 make the exact I'
    # >= 0, so a negative computed I' is root rounding and snaps to zero
    spec = EnsembleSpec(n_traj=40, e_center=e_center, delta_e=delta_e, seed=seed)
    clamp = sympb.ensembles._clamp_reactive
    seen = []

    def recording(*args):
        seen.append(clamp(*args))
        return seen[-1]

    with mock.patch.object(sympb.ensembles, "_clamp_reactive", recording):
        batch = sample_ensemble(model, spec, [0.0] + xis)
    assert len(seen) == 1 and (seen[0] >= 0.0).all()
    assert (batch.p1 >= np.abs(batch.q1)).all()
    assert len(transmission_scan(model, spec, xis)) == len(xis) + 1


# ---------------------------------------------------------------------------
# transmit
# ---------------------------------------------------------------------------


def test_transmit_closed_form_examples():
    lam = MODEL2.lam
    # Q1(t) = Q1 cosh(lt) + P1 sinh(lt): crosses when P1 clearly beats Q1
    go = points([-0.1], [0.5], [(0.5,)])
    assert transmit(MODEL2, go, t_max=5.0 / lam).tolist() == [True]
    # nearly balanced: tanh(lam*t_max) < 0.9/0.90001 never catches up in time
    slow = points([-0.9], [0.90001], [(0.5,)])
    assert transmit(MODEL2, slow, t_max=20.0).tolist() == [True]
    assert transmit(MODEL2, slow, t_max=1.0).tolist() == [False]
    # one bool per point, in point order
    both = points([-0.9, -0.1], [0.90001, 0.5], [(0.5,), (0.5,)])
    hits = transmit(MODEL2, both, t_max=1.0)
    assert hits.dtype == bool and hits.tolist() == [False, True]


def test_transmit_uses_lyapunov_of_j():
    # b2 < 0 lowers Lambda as J2 grows, delaying the crossing
    j2max = j_max_cnf(MODEL3, 0.0, 2)
    lam_small = effective_lyapunov(MODEL3, (1e-6, 0.0))
    lam_big = effective_lyapunov(MODEL3, (j2max, 0.0))
    assert lam_big < lam_small
    ens = points([-0.9], [0.9000001], [(j2max, 0.0)])
    # crossing time t* = atanh(-q1/p1)/Lambda
    t_star = math.atanh(0.9 / 0.9000001) / lam_big
    assert transmit(MODEL3, ens, t_max=t_star * 1.01).tolist() == [True]
    assert transmit(MODEL3, ens, t_max=t_star * 0.99).tolist() == [False]


def test_transmit_overflow_guard():
    # Lambda * t_max far beyond exp overflow: decided by p1 + q1 sign
    pos = points([-0.5], [0.6], [(0.1,)])
    neg = points([-0.6], [0.5], [(0.1,)])
    assert transmit(MODEL2, pos, t_max=1000.0).tolist() == [True]
    assert transmit(MODEL2, neg, t_max=1000.0).tolist() == [False]
    # a batch may mix guarded and closed-form points: J2 = 35 pulls Lambda
    # down to 0.3045, so L t_max = 304.5 stays below the guard
    mixed = points([-0.5, -0.6, -0.5], [0.6, 0.5, 0.6], [(0.1,), (0.1,), (35.0,)])
    assert transmit(MODEL2, mixed, t_max=1000.0).tolist() == [True, False, True]


@pytest.mark.parametrize("t_max", [0.0, -0.0, -1.0, -math.inf, math.inf, math.nan])
def test_transmit_refuses_a_horizon_that_is_not_positive(t_max):
    # an empty or backward horizon would count every point as reflected, and
    # an infinite one as transmitted
    ens = points([-0.1], [0.5], [(0.5,)])
    rule = "a finite number" if not math.isfinite(t_max) else "> 0"
    msg = f"^t_max must be {rule}, got {re.escape(repr(t_max))}$"
    with pytest.raises(ValueError, match=msg):
        transmit(MODEL2, ens, t_max)
    with pytest.raises(ValueError, match=msg):
        transmission_scan(MODEL2, make_spec(n_traj=10), [0.5], t_max)


def test_transmission_fraction_oracle():
    # fraction must equal the count of tanh(Lambda*t) > -q1/p1 directly
    spec = make_spec(n_traj=2000, seed=3)
    ens = sample_ensemble(MODEL3, spec)
    t_max = default_t_max(MODEL3)
    expected = 0
    for q1, p1, j in zip(ens.q1, ens.p1, ens.j):
        lam_eff = effective_lyapunov(MODEL3, j)
        ratio = -q1 / p1
        if ratio >= 1.0:
            continue
        t_star = math.atanh(ratio) / lam_eff
        # skip knife-edge cases where float disagreement is legitimate
        if abs(t_star - t_max) <= 1e-12 * t_max:
            continue
        if t_star < t_max:
            expected += 1
    [res] = transmission_scan(MODEL3, spec, [], t_max)
    assert res.n_transmitted == expected
    assert res.fraction == expected / len(ens.q1)
    assert res.n_total == len(ens.q1)


# ---------------------------------------------------------------------------
# defaults
# ---------------------------------------------------------------------------


def test_default_t_max_values():
    assert abs(default_t_max(MODEL2) - 5.0 / 0.7350) <= 1e-15
    m1 = CnfModel(e0=0.0, terms=((0, (0,), 0.0), (1, (0,), 1.0), (0, (1,), 1.0)))
    assert default_t_max(m1) == 5.0
    m5 = CnfModel(e0=0.0, terms=((0, (0,), 0.0), (1, (0,), 5.0), (0, (1,), 1.0)))
    assert default_t_max(m5) == 1.0


def test_default_delta_e():
    assert abs(default_delta_e(MODEL2, 0.0) - 0.01 * 0.9875) <= 1e-15
    assert default_delta_e(MODEL2, E0) == 0.0


# ---------------------------------------------------------------------------
# transmission_scan / scan_report
# ---------------------------------------------------------------------------


def test_scan_baseline_first_and_monotone():
    spec = make_spec(n_traj=400, seed=21)
    xis = [0.0, 0.25, 0.5, 0.75, 1.0]
    results = transmission_scan(MODEL3, spec, xis)
    assert len(results) == 6
    base = results[0]
    assert base.kind == "A" and math.isnan(base.xi)
    fractions = [r.fraction for r in results[1:]]
    assert all(r.kind == "B" for r in results[1:])
    assert [r.xi for r in results[1:]] == xis
    # common random numbers make the fractions exactly monotone
    for a, b in zip(fractions, fractions[1:]):
        assert b <= a
    # xi = 0 band is the full box, identical draws to kind A
    assert fractions[0] == base.fraction


def test_scan_degenerate_endpoint_zero():
    # delta_e = 0, xi = 1: every trajectory has I = 0, P1 = |Q1|, which
    # never crosses in finite time
    spec = make_spec(n_traj=150, delta_e=0.0, seed=2)
    results = transmission_scan(MODEL3, spec, [1.0])
    assert results[1].fraction == 0.0


def test_scan_report_columns_and_meta():
    spec = make_spec(n_traj=100, seed=5)
    rep = scan_report(MODEL3, spec, [0.0, 1.0])
    assert rep.columns == ("kind", "xi", "fraction", "n_transmitted", "n_total", "t_max", "seed")
    assert len(rep.rows) == 3
    assert rep.rows[0][0] == "A"
    assert math.isnan(rep.rows[0][1])
    for row in rep.rows:
        assert row[6] == 5
