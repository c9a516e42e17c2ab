import concurrent.futures
import io
import json
import math
import os
import re
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import sympb
from sympb import (
    BelowSaddleError,
    CnfModel,
    ConvergenceError,
    DimensionError,
    PreconditionError,
    RootBracketError,
    action_volume_mc,
    builtin_cnf,
    candidate_width,
    energy_scan,
    j_max_cnf,
)
from sympb import bottleneck, kernels
from sympb.bottleneck import (
    _MAXITER,
    _NAN,
    _OK,
    _SAME_SIGN,
    BRACKET_CAP,
    BRENT_MAXITER,
    MC_CHUNK,
    ROOT_RTOL,
    ROOT_XTOL,
    _brent,
    _j_max_solve,
)

from oracles import linear_cnf, simplex_flux

E0 = -0.9875


def alpha_model(omega2, alpha, e0=0.0, lam=1.0):
    """K = e0 + lam*I + omega2*J2 + alpha*J2^2."""
    return CnfModel(
        e0=e0,
        terms=((0, (0,), e0), (1, (0,), lam), (0, (1,), omega2), (0, (2,), alpha)),
    )


# ---------------------------------------------------------------------------
# j_max_cnf on the linear (quadratic saddle-centre) model: (E - e0) / omega_k
# ---------------------------------------------------------------------------


def test_j_max_quadratic_builtin_frequency():
    model = linear_cnf(1.0, (1.8225,), 0.0)
    assert j_max_cnf(model, 1.8225, 2) == 1.0


def test_j_max_quadratic_unit_excess():
    model = linear_cnf(0.5, (2.0, 0.7), -1.0)
    for k, w in ((2, 2.0), (3, 0.7)):
        assert abs(j_max_cnf(model, -1.0 + w, k) - 1.0) <= 1e-15


def test_j_max_quadratic_direct_division():
    model = linear_cnf(1.0, (2.0, 1.0), 0.0)
    assert j_max_cnf(model, 1.0, 2) == 0.5
    assert j_max_cnf(model, 1.0, 3) == 1.0


def test_j_max_quadratic_below_saddle():
    model = linear_cnf(1.0, (1.0,), 0.0)
    with pytest.raises(BelowSaddleError):
        j_max_cnf(model, 0.0, 2)
    with pytest.raises(BelowSaddleError):
        j_max_cnf(model, -0.5, 2)


def test_mode_index_validation():
    model = linear_cnf(1.0, (1.0,), 0.0)
    for bad in (1, 3, 0):
        with pytest.raises(DimensionError):
            j_max_cnf(model, 1.0, bad)
    cnf = builtin_cnf(2)
    with pytest.raises(DimensionError):
        j_max_cnf(cnf, 0.0, 3)


# ---------------------------------------------------------------------------
# j_max_cnf
# ---------------------------------------------------------------------------


def test_j_max_cnf_builtin_linear_on_ds():
    # b2 multiplies I*J2, so K(0, J2) is linear and the root is (E - E0)/omega2.
    model = builtin_cnf(2)
    assert abs(j_max_cnf(model, 0.8350, 2) - 1.0) <= 1e-10


def test_j_max_cnf_quadratic_action_closed_form():
    # K = E0 + J2 + 0.5*J2^2 at excess energy 1.5: root (-1 + sqrt(4))/1 = 1.
    model = alpha_model(omega2=1.0, alpha=0.5)
    assert abs(j_max_cnf(model, 1.5, 2) - 1.0) <= 1e-10


def test_j_max_cnf_alpha_sweep_matches_closed_form():
    for alpha in (2.0, 0.5, 0.1, 1e-3):
        model = alpha_model(omega2=1.3, alpha=alpha)
        for de in (0.2, 1.0, 4.0):
            root = (-1.3 + math.sqrt(1.3**2 + 4 * alpha * de)) / (2 * alpha)
            assert abs(j_max_cnf(model, de, 2) - root) <= 1e-10 * root


def test_j_max_cnf_small_alpha_limit():
    model = alpha_model(omega2=1.3, alpha=1e-8)
    de = 1.0
    assert abs(j_max_cnf(model, de, 2) - de / 1.3) <= 1e-6


def test_j_max_cnf_below_saddle():
    model = builtin_cnf(2)
    with pytest.raises(BelowSaddleError):
        j_max_cnf(model, E0, 2)


def test_j_max_cnf_selects_smallest_root():
    # K(0,J) = J - 0.01 J^2; at E = 16 the roots are J = 20 and J = 80.
    model = alpha_model(omega2=1.0, alpha=-0.01)
    assert abs(j_max_cnf(model, 16.0, 2) - 20.0) <= 1e-9


def test_j_max_cnf_no_root_raises():
    # K(0,J) = J - 0.01 J^2 tops out at 25; no root of K = 30 exists.
    model = alpha_model(omega2=1.0, alpha=-0.01)
    with pytest.raises(RootBracketError):
        j_max_cnf(model, 30.0, 2)


def scipy_brentq(f, lo, hi):
    """scipy's brentq with j_max_cnf's tolerances: (root, function calls),
    (None, None) when it fails to converge, or ("same sign", None)."""
    from scipy.optimize import brentq

    try:
        root, info = brentq(f, lo, hi, xtol=ROOT_XTOL, rtol=ROOT_RTOL, full_output=True)
    except RuntimeError:
        return None, None
    except ValueError:
        return "same sign", None
    return root, info.function_calls


def port_brent(fs, los, his):
    """The batched port on scalar functions ``fs[i]`` over ``[los[i], his[i]]``,
    in one call: (x, status, evaluations per element)."""
    evals = np.zeros(len(fs), dtype=int)

    def f(x, act):
        np.add.at(evals, act, 1)
        return np.array([fs[i](xi) for i, xi in zip(act.tolist(), x.tolist())])

    fa = [g(x) for g, x in zip(fs, los)]
    fb = [g(x) for g, x in zip(fs, his)]
    x, status = _brent(f, los, his, fa, fb)
    return x, status, evals


def horner(coeffs, x):
    acc = 0.0
    for c in coeffs:
        acc = acc * x + c
    return acc


def step(x):
    return -1.0 if x < 1.0 else 1.0


polynomials = st.tuples(st.lists(st.floats(-10.0, 10.0), min_size=2, max_size=6),
                        st.floats(-20.0, 20.0), st.floats(1e-6, 40.0), st.floats(0.0, 1.0))


@settings(max_examples=400, deadline=None)
@given(polys=st.lists(polynomials, min_size=1, max_size=8), step_at=st.integers(-1, 8))
def test_brentq_port_matches_scipy_on_polynomials(polys, step_at):
    # Each example is one batch.  The constant term is shifted so that p(lo)
    # and p(hi) straddle zero up to rounding, which leaves some elements with
    # a zero or a same-sign end; step_at inserts a unit step on [0, 1e300],
    # which does not converge in BRENT_MAXITER iterations.
    fs, los, his = [], [], []
    for coeffs, lo, width, u in polys:
        hi = lo + width
        p_lo, p_hi = horner(coeffs, lo), horner(coeffs, hi)
        level = p_lo + u * (p_hi - p_lo)
        fs.append(lambda x, coeffs=coeffs, level=level: horner(coeffs, x) - level)
        los.append(lo)
        his.append(hi)
    if 0 <= step_at <= len(fs):
        fs.insert(step_at, step)
        los.insert(step_at, 0.0)
        his.insert(step_at, 1e300)
    x, status, evals = port_brent(fs, los, his)
    for i, (f, lo, hi) in enumerate(zip(fs, los, his)):
        expected, scipy_evals = scipy_brentq(f, lo, hi)
        if expected is None:
            assert status[i] == _MAXITER and evals[i] == BRENT_MAXITER
        elif expected == "same sign":
            assert status[i] == _SAME_SIGN and evals[i] == 0
        else:
            assert status[i] == _OK
            assert x[i].hex() == expected.hex()
            assert evals[i] == scipy_evals - 2


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(dof=st.sampled_from([2, 3]), mode=st.integers(0, 1), seed=st.integers(0, 2**32 - 1))
def test_j_max_cnf_brent_matches_scipy(dof, mode, seed):
    # The built-ins are linear in J on the dividing surface, so a bracket
    # often ends exactly on the root; the others reach Brent's method, where
    # the port must return scipy's bits after two fewer K evaluations.
    model = builtin_cnf(dof)
    k = 2 + mode % model.n_bath
    e = model.e0 + float(np.random.default_rng(seed).uniform(1e-9, 20.0))
    calls = []

    def spy(f, xa, xb, fa, fb):
        evals = np.zeros(len(xa), dtype=int)

        def counted(x, act):
            np.add.at(evals, act, 1)
            return f(x, act)

        out = _brent(counted, xa, xb, fa, fb)
        calls.append((f, xa, xb, evals))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bottleneck, "_brent", spy)
        got = j_max_cnf(model, e, k)
    assert len(calls) == 1
    f, lo, hi, evals = calls[0]
    assume(len(lo))
    expected, scipy_evals = scipy_brentq(lambda x: f(np.array([x]), np.array([0]))[0],
                                         lo[0], hi[0])
    assert got.hex() == expected.hex()
    assert evals.tolist() == [scipy_evals - 2]


def test_brentq_nan_raises_convergence_error():
    def f(x):
        return math.nan if 0.2 < x < 0.9 else x - 0.3

    # the first interpolation step lands at x = 0.3, inside the NaN gap; the
    # second bracket has a NaN end
    x, status, _ = port_brent([f, f], [0.0, 0.0], [1.0, 0.5])
    assert status.tolist() == [_NAN, _NAN] and x.tolist() == [0.3, 0.5]


def test_brentq_no_convergence_raises_convergence_error():
    # A unit step at x = 1 on [0, 1e300]: every step bisects, and closing
    # 300 decades to the tolerance takes about 1 000 halvings.
    x, status, evals = port_brent([step, step], [0.0, 0.5], [1e300, 2.0])
    assert status.tolist() == [_MAXITER, _OK] and evals[0] == BRENT_MAXITER
    assert scipy_brentq(step, 0.0, 1e300) == (None, None)
    assert x[1].hex() == scipy_brentq(step, 0.5, 2.0)[0].hex()


def test_brentq_same_sign_raises():
    x, status, _ = port_brent([lambda x: x], [1.0], [2.0])
    assert status.tolist() == [_SAME_SIGN]
    # K(0, J) at J_2 = 0 and J_3 = 5 is already above E = 0
    model = builtin_cnf(3)
    hi = (0.0 - model.e0) / model.omegas[0]
    with pytest.raises(RootBracketError) as info:
        _j_max_solve(model, [0.0], 2, [0.0, 5.0])
    assert type(info.value) is RootBracketError
    assert str(info.value) == (
        f"j_max at E = 0.0, mode k = 2: f(0.0) and f({hi!r}) have the same sign")


def test_j_max_cnf_nan_names_energy_mode_and_iterate(monkeypatch):
    model = builtin_cnf(3)
    e = model.e0 + 0.5
    hi = (e - model.e0) / model.omegas[1]
    real = bottleneck.eval_k0

    def nan_inside(model, j):
        # below e at J_3 = 0, above it at the first bracket end, NaN between
        k = real(model, j)
        return np.where(j[:, 1] == 0.0, k, np.where(j[:, 1] < hi, math.nan, k + 1.0))

    monkeypatch.setattr(bottleneck, "eval_k0", nan_inside)
    with pytest.raises(ConvergenceError) as info:
        j_max_cnf(model, e, 3)
    msg = str(info.value)
    assert f"E = {e!r}" in msg and "mode k = 3" in msg and "NaN at x = " in msg


def test_j_max_cnf_no_convergence_names_energy_mode_and_iterate(monkeypatch):
    # K steps from E - 1e15 to E + 1e15 at J_2 = 1, and closing the bracket
    # [0, 5.5e29] to the tolerance takes about 140 bisections
    model = builtin_cnf(2)
    e = 1e30

    def unit_step(model, j):
        return np.where(j[:, 0] < 1.0, e - 1e15, e + 1e15)

    monkeypatch.setattr(bottleneck, "eval_k0", unit_step)
    with pytest.raises(ConvergenceError) as info:
        j_max_cnf(model, e, 2)
    head = (f"j_max at E = {e!r}, mode k = 2: Brent's method did not converge in "
            f"{BRENT_MAXITER} iterations; last iterate x = ")
    msg = str(info.value)
    assert msg.startswith(head)
    assert 0.0 < float(msg[len(head):]) < (e - model.e0) / model.omegas[0]


def test_j_max_cnf_raises_the_lowest_index_failure(monkeypatch):
    # K(0, J) = J - 0.01 J^2 tops out at 25: E = 30 has no bracket.  The
    # whole batch runs, then the first failing element raises its scalar
    # message.  (A NaN in K is covered by the eval_k0 patches above.)
    model = alpha_model(omega2=1.0, alpha=-0.01)
    bracket_msg = "no positive root of K(0, J_2) = 30.0 below 1e+12"
    below_msg = "E = -1.0 is not above the saddle energy e0 = 0.0"
    for es, exc, msg in (
        ([16.0, 30.0, -1.0], RootBracketError, bracket_msg),
        ([30.0, -1.0, 16.0], RootBracketError, bracket_msg),
        ([16.0, -1.0, 30.0], BelowSaddleError, below_msg),
        ([-1.0, 30.0, 16.0], BelowSaddleError, below_msg),
    ):
        with pytest.raises(exc) as info:
            j_max_cnf(model, es, 2)
        assert str(info.value) == msg
        bad = next(e for e in es if e != 16.0)
        with pytest.raises(exc) as info:
            j_max_cnf(model, bad, 2)
        assert str(info.value) == msg
    one = j_max_cnf(model, 16.0, 2)
    assert type(one) is float
    assert j_max_cnf(model, [16.0, 16.0], 2).tolist() == [one] * 2
    # an energy that is not a finite number is refused before any root is
    # solved, above elements whose roots fail; before: E = nan raised
    # ConvergenceError "f is NaN at x = 0.0"
    evals = []
    monkeypatch.setattr(bottleneck, "eval_k0", lambda model, j: evals.append(j))
    for es, msg in (([30.0, -1.0, math.nan], "e[2] must be a finite number, got nan"),
                    ([-1.0, math.inf, "1"], "e[1] must be a finite number, got inf"),
                    (math.nan, "e must be a finite number, got nan")):
        with pytest.raises(ValueError) as info:
            j_max_cnf(model, es, 2)
        assert type(info.value) is ValueError and str(info.value) == msg
    assert evals == []


def test_j_max_refuses_energy_arrays_of_two_or_more_dimensions():
    model = builtin_cnf(3)
    for e in (np.full((2, 2), 0.5), np.full((1, 3, 1), 0.5)):
        for solve in (j_max_cnf, _j_max_solve):
            with pytest.raises(DimensionError, match=re.escape(str(e.shape))):
                solve(model, e, 2)
    # 0-d and 1-d energies, and 1-element arrays, still solve
    one = j_max_cnf(model, 0.5, 2)
    assert j_max_cnf(model, np.array([0.5]), 2).tolist() == [one]
    assert j_max_cnf(model, np.array(0.5), 2) == one


def k_at_zero(model, j):
    """K(0, J) with Python floats, term by term in eval_cnf's order."""
    total = 0.0
    for i_pow, j_pows, coeff in model.terms:
        v = coeff
        for _ in range(i_pow):
            v = v * 0.0
        for col, p in zip(j, j_pows):
            for _ in range(p):
                v = v * col
        total += v
    return total


def scalar_j_max(model, e, k, fixed):
    """Reference root of K(0, J) = e in J_k, the other actions at ``fixed``:
    j_max_cnf's bracket doubling, one point at a time, then scipy's brentq."""
    col = k - 2

    def f(x):
        j = list(fixed)
        j[col] = x
        return k_at_zero(model, j) - e

    lo, hi = 0.0, (e - model.e0) / model.omegas[col]
    flo, fhi = f(lo), f(hi)
    while fhi < 0.0:
        lo, flo = hi, fhi
        hi *= 2.0
        assert hi <= BRACKET_CAP
        fhi = f(hi)
    if fhi == 0.0:
        return hi
    if flo == 0.0:
        return lo
    return scipy_brentq(f, lo, hi)[0]


coefficients = st.floats(0.0, 2.0)


@settings(max_examples=60, deadline=None)
@given(extra=st.tuples(*[coefficients] * 6), b=st.floats(-0.1, 0.1), mode=st.sampled_from([2, 3]),
       points=st.lists(st.tuples(st.floats(0.0, 3.0), st.floats(1e-6, 20.0)),
                       min_size=1, max_size=8))
def test_j_max_solve_with_fixed_bath_actions_matches_scalar_loop(extra, b, mode, points):
    # K(0, J) is nondecreasing with J_2^2, J_3^2, J_2 J_3, J_2^3, J_3^3 and
    # J_2^2 J_3 terms; each point fixes the other action and sits at a
    # positive excess over K at J_mode = 0.
    terms = [(0, (0, 0), -0.5), (1, (0, 0), 0.8), (0, (1, 0), 1.3), (0, (0, 1), 0.9),
             (1, (1, 0), b), (1, (0, 1), b)]
    for pows, c in zip([(2, 0), (0, 2), (1, 1), (3, 0), (0, 3), (2, 1)], extra):
        terms.append((0, pows, c))
    model = CnfModel(e0=-0.5, terms=tuple(terms))
    fixed = np.zeros((len(points), 2))
    fixed[:, 3 - mode] = [other for other, _ in points]
    es = [k_at_zero(model, row) + de for row, (_, de) in zip(fixed.tolist(), points)]
    got = _j_max_solve(model, es, mode, fixed)
    want = [scalar_j_max(model, e, mode, row) for e, row in zip(es, fixed.tolist())]
    assert [x.hex() for x in got] == [w.hex() for w in want]


# ---------------------------------------------------------------------------
# candidate_width
# ---------------------------------------------------------------------------


def test_candidate_width_3dof_reference_value():
    model = linear_cnf(0.7350, (1.8225, 1.267), E0)
    rep = candidate_width(model, 0.0)
    expected = 2.0 * math.pi * 0.9875 / 1.8225
    assert abs(rep.c_cand - expected) <= 1e-12 * expected
    assert rep.limiting_mode == 2
    assert rep.j_max == (0.9875 / 1.8225, 0.9875 / 1.267)


def test_candidate_width_2dof_formula():
    model = linear_cnf(0.7350, (1.8225,), E0)
    for e in (0.0, 0.5, 2.0):
        rep = candidate_width(model, e)
        assert abs(rep.c_cand - 2.0 * math.pi * (e - E0) / 1.8225) <= 1e-12


def test_candidate_width_tie_breaks_to_lowest_mode():
    model = linear_cnf(1.0, (1.0, 1.0), 0.0)
    assert candidate_width(model, 1.0).limiting_mode == 2


def test_candidate_width_rejects_unknown_model():
    with pytest.raises(TypeError):
        candidate_width(object(), 1.0)


def test_candidate_width_oracle_equivalence():
    rng = np.random.default_rng(29)
    for _ in range(20):
        nb = int(rng.integers(1, 4))
        lam = float(rng.uniform(0.2, 2.0))
        omegas = tuple(rng.uniform(0.3, 3.0, size=nb))
        e0 = float(rng.uniform(-2.0, 0.0))
        e = e0 + float(rng.uniform(0.1, 5.0))
        cnf = linear_cnf(lam, omegas, e0)
        for k in range(2, nb + 2):
            # the root is the direct division, bit for bit
            assert j_max_cnf(cnf, e, k) == (e - e0) / omegas[k - 2]


def test_j_max_and_width_monotone_in_energy():
    model = builtin_cnf(3)
    energies = np.linspace(E0 + 0.05, E0 + 4.0, 60)
    reports = [candidate_width(model, float(e)) for e in energies]
    for prev, cur in zip(reports, reports[1:]):
        assert cur.c_cand >= prev.c_cand
        for a, b in zip(prev.j_max, cur.j_max):
            assert b >= a


def test_candidate_width_takes_an_energy_array_in_one_root_batch(monkeypatch):
    # one report per energy, each equal to the energy's own report; every
    # mode's root at every energy comes from one j_max_cnf call
    model = builtin_cnf(3)
    energies = np.linspace(E0 + 0.05, E0 + 4.0, 7)
    alone = [candidate_width(model, e) for e in energies.tolist()]
    calls = []

    def counting(m, e, k):
        calls.append((np.shape(e), np.shape(k)))
        return j_max_cnf(m, e, k)

    monkeypatch.setattr(bottleneck, "j_max_cnf", counting)
    assert candidate_width(model, energies) == alone
    assert candidate_width(model, list(energies)) == alone
    assert calls == [((14,), (14,))] * 2
    assert candidate_width(model, energies[:1]) == alone[:1]
    assert candidate_width(model, np.array(energies[0])) == alone[0]


def test_candidate_width_refuses_energy_arrays_of_two_or_more_dimensions():
    model = builtin_cnf(3)
    for e in (np.full((2, 2), 0.5), np.full((1, 3, 1), 0.5)):
        with pytest.raises(DimensionError, match=re.escape(str(e.shape))):
            candidate_width(model, e)


def test_candidate_width_scaling_linear_in_excess():
    model = linear_cnf(1.0, (1.8225, 1.267), -1.0)
    base = candidate_width(model, -1.0 + 0.7).c_cand
    for s in (0.5, 2.0, 7.0):
        scaled = candidate_width(model, -1.0 + s * 0.7).c_cand
        assert abs(scaled - s * base) <= 1e-12 * scaled


# ---------------------------------------------------------------------------
# flux: exact simplex and Monte Carlo
# ---------------------------------------------------------------------------


def test_flux_exact_2dof():
    model = linear_cnf(1.0, (1.8225,), 0.0)
    rep = simplex_flux(model, 1.8225)
    assert rep.volume == 1.0
    assert abs(rep.flux - 2.0 * math.pi) <= 1e-15
    assert rep.std_error == 0.0
    # one bath action: every Monte-Carlo sample hits, so the estimate is exact
    mc = action_volume_mc(model, 1.8225, samples=1000, seed=0)
    assert (mc.volume, mc.flux, mc.std_error) == (rep.volume, rep.flux, 0.0)


def test_flux_exact_3dof_triangle():
    model = linear_cnf(1.0, (1.0, 1.0), 0.0)
    rep = simplex_flux(model, 1.0)
    assert rep.volume == 0.5
    assert abs(rep.flux - 2.0 * math.pi**2) <= 1e-14


def test_flux_exact_at_saddle_energy():
    model = linear_cnf(1.0, (1.0,), 0.25)
    rep = simplex_flux(model, 0.25)
    assert rep.volume == 0.0 and rep.flux == 0.0
    mc = action_volume_mc(model, 0.25, samples=10, seed=0)
    assert mc.volume == 0.0 and mc.flux == 0.0


def test_mc_at_saddle_energy_is_zero():
    rep = action_volume_mc(builtin_cnf(2), E0, samples=100, seed=0)
    assert rep.volume == 0.0 and rep.flux == 0.0 and rep.std_error == 0.0


def test_mc_below_saddle_raises():
    with pytest.raises(BelowSaddleError):
        action_volume_mc(builtin_cnf(2), E0 - 0.1, samples=10, seed=0)


def test_mc_rejects_non_monotone_model():
    # J2 + J3 - 0.5 J2 J3 <= 1 admits J2 = 4, J3 >= 3, far outside the
    # axis-root box [0, 1]^2
    model = CnfModel(e0=0.0, terms=((0, (0, 0), 0.0), (1, (0, 0), 1.0), (0, (1, 0), 1.0),
                                    (0, (0, 1), 1.0), (0, (1, 1), -0.5)))
    assert candidate_width(model, 1.0).j_max == (1.0, 1.0)
    with pytest.raises(PreconditionError, match=r"-0\.5\*J_2\*J_3"):
        action_volume_mc(model, 1.0, samples=100, seed=0)
    # a negative term that carries I leaves K(0, J) unchanged
    action_volume_mc(builtin_cnf(3), 0.5, samples=100, seed=0)


def test_mc_rejects_bad_sample_count():
    with pytest.raises(ValueError):
        action_volume_mc(builtin_cnf(2), 0.0, samples=0, seed=0)


def test_mc_linear_2dof_is_exact():
    # The admissible set fills the whole bounding interval, so every sample
    # hits and the estimate collapses to the box length.
    cnf = linear_cnf(1.0, (1.8225,), 0.0)
    mc = action_volume_mc(cnf, 1.0, samples=10_000, seed=5)
    exact = simplex_flux(cnf, 1.0)
    assert mc.std_error == 0.0
    assert abs(mc.volume - exact.volume) <= 1e-11 * exact.volume
    assert abs(mc.flux - exact.flux) <= 1e-11 * exact.flux


def test_mc_matches_simplex_on_seed_suite():
    cnf = linear_cnf(0.7, (1.3, 0.8), -0.5)
    exact = simplex_flux(cnf, 1.0)
    for seed in range(20):
        mc = action_volume_mc(cnf, 1.0, samples=100_000, seed=seed)
        assert abs(mc.volume - exact.volume) <= 3.0 * mc.std_error


def test_mc_standard_error_scaling():
    cnf = linear_cnf(0.7, (1.3, 0.8), -0.5)
    errs = {}
    for n in (10_000, 100_000, 1_000_000):
        errs[n] = action_volume_mc(cnf, 1.0, samples=n, seed=9).std_error
    # std_error * sqrt(n) should be flat within 20 percent
    ref = errs[10_000] * math.sqrt(10_000)
    for n in (100_000, 1_000_000):
        assert abs(errs[n] * math.sqrt(n) - ref) <= 0.2 * ref


def test_mc_deterministic_per_seed():
    model = builtin_cnf(3)
    a = action_volume_mc(model, 0.5, samples=70_000, seed=123)
    b = action_volume_mc(model, 0.5, samples=70_000, seed=123)
    assert a == b
    c = action_volume_mc(model, 0.5, samples=70_000, seed=124)
    assert c.volume != a.volume


# ---------------------------------------------------------------------------
# energy_scan
# ---------------------------------------------------------------------------


def test_energy_scan_single_row():
    report = energy_scan(builtin_cnf(2), 0.0, 0.0, steps=1, samples=1000, seed=7)
    assert len(report.rows) == 1
    assert report.columns == (
        "E", "J_max_2", "c_cand", "limiting_mode", "V", "phi", "std_error", "seed",
    )


def test_energy_scan_rows_and_seeds():
    report = energy_scan(builtin_cnf(3), 0.0, 1.0, steps=5, samples=2000, seed=40)
    assert len(report.rows) == 5
    assert report.columns[:3] == ("E", "J_max_2", "J_max_3")
    seeds = [row[-1] for row in report.rows]
    assert seeds == [40, 41, 42, 43, 44]
    c_cands = [row[3] for row in report.rows]
    assert c_cands == sorted(c_cands)


def test_energy_scan_validation():
    with pytest.raises(ValueError):
        energy_scan(builtin_cnf(2), 0.0, 1.0, steps=0, samples=10, seed=0)
    with pytest.raises(ValueError):
        energy_scan(builtin_cnf(2), 1.0, 0.0, steps=2, samples=10, seed=0)
    with pytest.raises(BelowSaddleError):
        energy_scan(builtin_cnf(2), E0 - 1.0, 0.0, steps=2, samples=10, seed=0)


INF_BOX_MSG = "E = 1e+300 gives a sampling box of volume inf, not a finite number"


def test_box_volume_that_is_not_finite_is_refused_before_drawing(monkeypatch):
    # before: np.prod overflowed with a RuntimeWarning and V, phi and
    # std_error came out inf (NaN when no sample hit)
    flat = linear_cnf(0.5, (1.0, 1.0), -1.0)
    # J_2 = J_3 = E + 1: at E = 2e153 the volume E^2 and (2 pi)^2 E^2 are finite
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = action_volume_mc(flat, 2e153, samples=100, seed=0)
    assert math.isfinite(rep.flux) and rep.volume > 0.0
    drawn = []
    monkeypatch.setattr(bottleneck.kernels, "count_box_hits",
                        lambda model, js, e: drawn.append(e) or 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as info:
            action_volume_mc(builtin_cnf(3), 1e300, samples=10, seed=0)
        assert str(info.value) == INF_BOX_MSG
        # at E = 5e153 the volume is finite and (2 pi)^2 times it is not
        with pytest.raises(ValueError) as info:
            action_volume_mc(flat, 5e153, samples=10, seed=0)
        assert str(info.value) == ("E = 5e+153 gives a sampling box of volume 2.5e+307, whose "
                                   "(2 pi)^2 multiple inf is not a finite number")
        # rows at E = 0, 1e154, 2e154, 3e154: row 1's flux bound overflows,
        # rows 2 and 3's volumes do; the lowest such row is refused
        e1 = np.linspace(0.0, 3e154, 4).tolist()[1]
        with pytest.raises(ValueError) as info:
            energy_scan(flat, 0.0, 3e154, steps=4, samples=10, seed=0)
        assert str(info.value) == (f"E = {e1} gives a sampling box of volume {e1 * e1}, whose "
                                   f"(2 pi)^2 multiple inf is not a finite number")
        with pytest.raises(ValueError) as info:
            energy_scan(builtin_cnf(3), 0.0, 1e300, steps=2, samples=10, seed=0)
        assert str(info.value) == INF_BOX_MSG
    assert drawn == []


ALPHA_MSG = ("term -0.01*J_2^2 makes K(0, J) decrease in a bath action, so the admissible "
             "region can leave the axis-root sampling box")


def test_energy_scan_checks_inputs_before_roots():
    # K(0, J) = J - 0.01 J^2 has a root at E = 16 and none at E = 30.  The
    # inputs are checked first, in the order steps, energy range, samples,
    # model, so each check wins over every later one and over a failing root.
    model = alpha_model(omega2=1.0, alpha=-0.01)
    for args, exc, msg in (
        ((30.0, 40.0, 0, 0), ValueError, "steps must be >= 1, got 0"),
        ((40.0, 30.0, 2, 0), ValueError, "e_max = 30.0 is below e_min = 40.0"),
        ((16.0, 30.0, 2, 0), ValueError, "samples must be >= 1, got 0"),
        ((30.0, 40.0, 2, 0), ValueError, "samples must be >= 1, got 0"),
        ((16.0, 30.0, 2, 10), PreconditionError, ALPHA_MSG),
        ((30.0, 40.0, 2, 10), PreconditionError, ALPHA_MSG),
    ):
        with pytest.raises(exc) as info:
            energy_scan(model, *args, seed=0)
        assert type(info.value) is exc and str(info.value) == msg
    # below the saddle on a monotone model: the sample count still wins
    with pytest.raises(ValueError) as info:
        energy_scan(builtin_cnf(2), -2.0, 1.0, steps=2, samples=0, seed=0)
    assert type(info.value) is ValueError and str(info.value) == "samples must be >= 1, got 0"


# a bool, a float (even a whole one) and a negative seed: each was a bare
# TypeError, or SeedSequence's error, after every root was solved
COUNT_CASES = [
    ("steps", 2.0, "steps must be an integer, got 2.0"),
    ("steps", True, "steps must be an integer, got True"),
    ("samples", 1e5, "samples must be an integer, got 100000.0"),
    ("samples", True, "samples must be an integer, got True"),
    ("samples", np.float64(10.0), "samples must be an integer, got np.float64(10.0)"),
    ("seed", 1.5, "seed must be an integer, got 1.5"),
    ("seed", False, "seed must be an integer, got False"),
    ("seed", -1, "seed must be >= 0, got -1"),
]


@pytest.mark.parametrize("name,value,msg", COUNT_CASES)
def test_energy_scan_refuses_counts_that_are_not_integers_before_roots(monkeypatch, name,
                                                                       value, msg):
    # no root at E = 30 on this model, and no root is solved before the check
    monkeypatch.setattr(bottleneck, "_j_max_solve", None)
    args = dict(steps=2, samples=10, seed=0)
    args[name] = value
    with pytest.raises(ValueError) as info:
        energy_scan(alpha_model(omega2=1.0, alpha=0.01), 30.0, 40.0, **args)
    assert type(info.value) is ValueError and str(info.value) == msg


@pytest.mark.parametrize("name,value,msg", [c for c in COUNT_CASES if c[0] != "steps"])
def test_action_volume_mc_refuses_counts_that_are_not_integers_first(monkeypatch, name,
                                                                      value, msg):
    # before the energy checks: below the saddle, at it (an empty report) and above
    monkeypatch.setattr(bottleneck, "_j_max_solve", None)
    args = dict(samples=10, seed=0)
    args[name] = value
    for e in (E0 - 1.0, E0, 0.5):
        with pytest.raises(ValueError) as info:
            action_volume_mc(builtin_cnf(2), e, **args)
        assert type(info.value) is ValueError and str(info.value) == msg


def test_numpy_integer_counts_pass_as_ints():
    # a uint8 seed of 255 gives the row seeds 255, 256 and 257, as an int does
    model = builtin_cnf(3)
    texts = []
    for steps, samples, seed in ((3, 500, 255), (np.int64(3), np.int32(500), np.uint8(255))):
        out = io.StringIO()
        energy_scan(model, 0.1, 1.0, steps=steps, samples=samples, seed=seed).to_csv(out)
        texts.append(out.getvalue())
    assert texts[0] == texts[1]
    assert [line.rsplit(",", 1)[1] for line in texts[1].splitlines()[2:]] == ["255", "256", "257"]
    rep = action_volume_mc(model, 0.5, np.int64(500), np.int16(4))
    assert rep == action_volume_mc(model, 0.5, 500, 4)
    assert (type(rep.mc_samples), type(rep.seed)) == (int, int)


def rows_one_by_one(model, energies, samples, seed):
    """energy_scan's rows from candidate_width and action_volume_mc, one
    energy at a time."""
    rows = []
    for i, e in enumerate(energies.tolist()):
        w = candidate_width(model, e)
        f = action_volume_mc(model, e, samples, seed + i)
        rows.append((w.e, *w.j_max, w.c_cand, w.limiting_mode,
                     f.volume, f.flux, f.std_error, seed + i))
    return rows


def test_energy_scan_solves_each_root_once(monkeypatch):
    # the width's roots are the Monte-Carlo box: steps x n_bath solves, and
    # the rows equal candidate_width plus action_volume_mc bit for bit
    model = builtin_cnf(3)
    steps, samples, seed = 4, 500, 3
    expected = rows_one_by_one(model, np.linspace(0.1, 1.0, steps), samples, seed)
    calls = []
    real = bottleneck._j_max_solve

    def counting(model, e, k, j=None):
        calls.append(list(zip(np.asarray(e).tolist(), np.asarray(k).tolist())))
        return real(model, e, k, j)

    monkeypatch.setattr(bottleneck, "_j_max_solve", counting)
    report = energy_scan(model, 0.1, 1.0, steps=steps, samples=samples, seed=seed)
    # one batch of steps x n_bath distinct (E, k) pairs
    assert len(calls) == 1
    assert len(calls[0]) == steps * model.n_bath
    assert len(set(calls[0])) == len(calls[0])
    assert report.rows == expected
    with pytest.raises(ValueError, match="samples"):
        energy_scan(model, 0.1, 1.0, steps=2, samples=0, seed=0)


REAL_MC = bottleneck._chunk_hits


def usable_cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def record_mc_threads(monkeypatch, fail=(), slow=()):
    """Wrap ``_chunk_hits`` to record (seed, first chunk, stop chunk, thread
    name) per task and to raise ``RuntimeError("row <seed>")`` for the seeds
    in ``fail``, after sleeping 0.2 s for the seeds in ``slow``."""
    calls = []

    def wrapped(model, e, j_max, samples, seed, first, stop):
        calls.append((seed, first, stop, threading.current_thread().name))
        if seed in slow:
            time.sleep(0.2)
        if seed in fail:
            raise RuntimeError(f"row {seed}")
        return REAL_MC(model, e, j_max, samples, seed, first, stop)

    monkeypatch.setattr(bottleneck, "_chunk_hits", wrapped)
    return calls


def spy_pools(monkeypatch):
    """Record the ``max_workers`` of every thread pool built from now on."""
    pools = []

    class SpyPool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            pools.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", SpyPool)
    return pools


@pytest.mark.parametrize("cpus", [1, 2, 4, 16])
def test_energy_scan_rows_do_not_depend_on_usable_cpus(monkeypatch, cpus):
    # each row equals candidate_width plus action_volume_mc bit for bit; its
    # 3 chunks are split into min(cpus, 3) contiguous ranges, one task each,
    # on a pool of one worker per usable CPU up to the task count, where the
    # caller runs no task and every worker thread is joined on return; one
    # usable CPU builds no pool, and the caller runs every task in row order
    model = builtin_cnf(3)
    steps, samples, seed = 5, 2 * MC_CHUNK + 77, 11
    expected = rows_one_by_one(model, np.linspace(0.05, 1.0, steps), samples, seed)
    usable_cpus(monkeypatch, cpus)
    calls = record_mc_threads(monkeypatch)
    pools = spy_pools(monkeypatch)
    before = threading.active_count()
    # switch threads often, so the workers interleave finely
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        report = energy_scan(model, 0.05, 1.0, steps=steps, samples=samples, seed=seed)
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == before
    assert report.rows == expected
    parts = min(cpus, 3)
    ranges = [(3 * w // parts, 3 * (w + 1) // parts) for w in range(parts)]
    tasks = [(seed + i, *r) for i in range(steps) for r in ranges]
    threads = {c[3] for c in calls}
    if cpus == 1:
        assert pools == []
        assert [c[:3] for c in calls] == tasks
        assert threads == {threading.current_thread().name}
    else:
        assert sorted(c[:3] for c in calls) == tasks
        workers = min(cpus, steps * parts)
        assert pools == [workers]
        assert len(threads) <= workers
        assert threading.current_thread().name not in threads


def test_a_one_worker_volume_starts_no_pool(monkeypatch):
    # a volume of one task, or on one usable CPU, runs its _chunk_hits tasks
    # in the calling thread, in row order, and builds no thread pool; its
    # rows are those of a pooled run, bit for bit
    model = builtin_cnf(3)
    caller = threading.current_thread().name
    pools = spy_pools(monkeypatch)
    before = threading.active_count()
    # 100 samples are one chunk: two rows on 2 usable CPUs are pooled, one
    # volume is one task
    usable_cpus(monkeypatch, 2)
    pooled = energy_scan(model, 0.5, 0.9, steps=2, samples=100, seed=0).rows
    assert pools == [2]
    calls = record_mc_threads(monkeypatch)
    rep = action_volume_mc(model, 0.5, samples=100, seed=0)
    assert pools == [2]
    assert calls == [(0, 0, 1, caller)]
    assert (rep.volume, rep.flux, rep.std_error, rep.seed) == pooled[0][-4:]
    # 3 chunks a row: 4 usable CPUs pool 3 tasks a row on 4 workers, 1 usable
    # CPU runs one task a row in the caller
    samples = 2 * MC_CHUNK + 77
    usable_cpus(monkeypatch, 4)
    pooled = energy_scan(model, 0.05, 1.0, steps=3, samples=samples, seed=11).rows
    assert pools == [2, 4]
    usable_cpus(monkeypatch, 1)
    calls.clear()
    assert energy_scan(model, 0.05, 1.0, steps=3, samples=samples, seed=11).rows == pooled
    assert pools == [2, 4]
    assert calls == [(11 + i, 0, 3, caller) for i in range(3)]
    assert threading.active_count() == before


@pytest.mark.parametrize("cpus", [1, 2])
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(extra=st.tuples(*[coefficients] * 3), b=st.floats(-0.1, 0.1),
       e_min=st.floats(-0.4, 3.0), span=st.floats(0.0, 5.0), steps=st.integers(1, 4),
       samples=st.integers(1, 3000), seed=st.integers(0, 2**32))
def test_energy_scan_rows_on_a_nonlinear_model(monkeypatch, cpus, extra, b, e_min, span,
                                               steps, samples, seed):
    # positive J_2^2, J_2 J_3 and J_3^2 terms make Brent's method iterate;
    # every row still equals candidate_width plus action_volume_mc
    terms = [(0, (0, 0), -0.5), (1, (0, 0), 0.8), (0, (1, 0), 1.3), (0, (0, 1), 0.9),
             (1, (1, 0), b)]
    terms += [(0, pows, c) for pows, c in zip([(2, 0), (1, 1), (0, 2)], extra)]
    model = CnfModel(e0=-0.5, terms=tuple(terms))
    e_max = e_min + span
    usable_cpus(monkeypatch, cpus)
    report = energy_scan(model, e_min, e_max, steps=steps, samples=samples, seed=seed)
    energies = np.linspace(e_min, e_max, steps) if steps > 1 else np.array([e_min])
    assert report.rows == rows_one_by_one(model, energies, samples, seed)


@pytest.mark.parametrize("cpus", [1, 4])
def test_energy_scan_raises_the_lowest_failed_row(monkeypatch, cpus):
    model = builtin_cnf(3)
    usable_cpus(monkeypatch, cpus)
    before = threading.active_count()
    # row 0 fails last in time while row 2 also fails: row 0's error wins
    record_mc_threads(monkeypatch, fail={0, 2}, slow={0})
    with pytest.raises(RuntimeError, match="^row 0$"):
        energy_scan(model, 0.1, 1.0, steps=4, samples=100, seed=0)
    assert threading.active_count() == before
    # only row 2 fails: rows 0 and 1 are computed, row 2's error is raised
    calls = record_mc_threads(monkeypatch, fail={2})
    with pytest.raises(RuntimeError, match="^row 2$"):
        energy_scan(model, 0.1, 1.0, steps=4, samples=100, seed=0)
    assert {0, 1, 2} <= {c[0] for c in calls}
    assert threading.active_count() == before
    # K(0, J) = J - 0.01 J^2 is not monotone: it is refused before any root
    # is solved, so no row is drawn
    calls = record_mc_threads(monkeypatch, fail={1})
    with pytest.raises(PreconditionError) as info:
        energy_scan(alpha_model(omega2=1.0, alpha=-0.01), 1.0, 31.0, steps=4, samples=100,
                    seed=0)
    assert type(info.value) is PreconditionError and str(info.value) == ALPHA_MSG
    assert calls == [] and threading.active_count() == before
    # of the rows at E = 0.1, 0.4, 0.7, 1.0, row 2's J_2 root meets a NaN at
    # its first bracket end: its error is raised and no row is drawn
    e2 = np.linspace(0.1, 1.0, 4).tolist()[2]
    hi = (e2 - model.e0) / model.omegas[0]
    real = bottleneck.eval_k0

    def nan_at_row_2(model, j):
        return np.where((j[:, 0] == hi) & (j[:, 1] == 0.0), math.nan, real(model, j))

    monkeypatch.setattr(bottleneck, "eval_k0", nan_at_row_2)
    calls = record_mc_threads(monkeypatch, fail={1})
    with pytest.raises(ConvergenceError) as info:
        energy_scan(model, 0.1, 1.0, steps=4, samples=100, seed=0)
    assert type(info.value) is ConvergenceError
    assert str(info.value) == f"j_max at E = {e2!r}, mode k = 2: f is NaN at x = {hi!r}"
    assert calls == [] and threading.active_count() == before


# ---------------------------------------------------------------------------
# Monte-Carlo bits: frozen volumes, chunk draws, chunk-range tasks
# ---------------------------------------------------------------------------


SNIPPET = """
import json
from sympb import action_volume_mc, builtin_cnf
rep = action_volume_mc(builtin_cnf(3), 0.5, samples=40000, seed=17)
print(json.dumps({
    "volume": rep.volume.hex(),
    "std": rep.std_error.hex(),
    "flux": rep.flux.hex(),
}))
"""


def test_action_volume_mc_bits_frozen_across_processes():
    # recorded with the former term-table kernel
    frozen = {
        "volume": "0x1.e85b62aab1d1ap-2",
        "std": "0x1.39fd506ddd7f4p-9",
        "flux": "0x1.2d3e3e06488b6p+4",
    }
    rep = action_volume_mc(builtin_cnf(3), 0.5, samples=40000, seed=17)
    assert {"volume": rep.volume.hex(), "std": rep.std_error.hex(),
            "flux": rep.flux.hex()} == frozen
    # a fresh interpreter that imports the sympb under test
    env = dict(os.environ)
    src = str(Path(sympb.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", SNIPPET], env=env, capture_output=True,
                         text=True)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == frozen


# Recorded with per-chunk ``Generator.uniform(0.0, box)`` draws and a count
# over every term of K(0, J).  2 * MC_CHUNK + 4097 samples: two full chunks
# and a partial last one.  builtin_cnf(3) has one I*J term; I_MODEL has I,
# I^2, I*J, I^2*J and I*J*J terms.
I_MODEL = CnfModel(e0=-0.5, terms=(
    (0, (0, 0), -0.5), (1, (0, 0), 0.7), (0, (1, 0), 1.3), (0, (0, 1), 0.9),
    (0, (2, 0), 0.2), (0, (1, 1), 0.15), (1, (1, 0), -0.3), (2, (0, 1), 0.4),
    (1, (1, 1), 0.25), (2, (0, 0), -0.1)))
MULTI_CHUNK_FROZEN = [
    (builtin_cnf(3), 0.5, 23, {
        "volume": "0x1.ed8afc3a6ae2bp-2",
        "std": "0x1.559cbc3f5167cp-10",
        "flux": "0x1.30712c30890a8p+4",
    }),
    (I_MODEL, 0.8, 29, {
        "volume": "0x1.4296912ff9ffcp-1",
        "std": "0x1.c57e1135d828cp-10",
        "flux": "0x1.8dfa28941fc94p+4",
    }),
]


@pytest.mark.parametrize("model,e,seed,frozen", MULTI_CHUNK_FROZEN, ids=["builtin3", "i_terms"])
def test_action_volume_mc_multi_chunk_bits_frozen(model, e, seed, frozen):
    rep = action_volume_mc(model, e, samples=2 * MC_CHUNK + 4097, seed=seed)
    assert {"volume": rep.volume.hex(), "std": rep.std_error.hex(),
            "flux": rep.flux.hex()} == frozen


def test_mc_chunk_draws_equal_generator_uniform(monkeypatch):
    # every block's scaled columns, as the counter sums them, in order against
    # the chunks' Generator.uniform(0.0, box) draws; a block of
    # bottleneck.MC_TILE rows is one count_box_hits call
    drawn, counted = [], []
    tile = bottleneck.MC_TILE
    real, real_count = kernels._sum_fn, kernels.count_box_hits

    def capture(terms, i, cols, total, scratch):
        k0 = real(terms, i, cols, total, scratch)

        def recording():
            drawn.append(np.array(cols.T))
            k0()

        return recording

    def count(model, js, e, counter):
        counted.append(len(js))
        return real_count(model, js, e, counter)

    monkeypatch.setattr(kernels, "_sum_fn", capture)
    monkeypatch.setattr(kernels, "count_box_hits", count)
    rng = np.random.default_rng(31)
    for nb in (1, 2, 3):
        model = linear_cnf(0.5, [1.0] * nb, -1.0)
        boxes = [(1e-300,) * nb, (BRACKET_CAP,) * nb,
                 tuple(10.0 ** rng.uniform(-300.0, 12.0, size=nb)),
                 tuple(rng.uniform(0.1, 5.0, size=nb))]
        for box in boxes:
            # chunk layouts [1], [4097], [tile + 1], [MC_CHUNK],
            # [MC_CHUNK, MC_CHUNK, 4097] and [MC_CHUNK, MC_CHUNK, tile + 4097];
            # a chunk is drawn in blocks of at most one tile, concatenated
            # here per chunk; the chunks are counted as one task and as two
            # tasks of contiguous chunk ranges, with the same draws
            for samples in (1, 4097, tile + 1, MC_CHUNK, 2 * MC_CHUNK + 4097,
                            2 * MC_CHUNK + tile + 4097):
                n_chunks = -(-samples // MC_CHUNK)
                children = np.random.SeedSequence(5).spawn(n_chunks)
                sizes = [min(MC_CHUNK, samples - MC_CHUNK * i) for i in range(n_chunks)]
                blocks = [min(tile, m - start) for m in sizes for start in range(0, m, tile)]
                want = np.concatenate([
                    np.random.default_rng(child).uniform(0.0, np.array(box), size=(m, nb))
                    for child, m in zip(children, sizes)])
                for ranges in ([(0, n_chunks)], [(0, n_chunks // 2), (n_chunks // 2, n_chunks)]):
                    drawn.clear()
                    counted.clear()
                    for first, stop in ranges:
                        bottleneck._chunk_hits(model, 0.0, box, samples, 5, first, stop)
                    assert counted == blocks
                    assert [len(js) for js in drawn] == blocks
                    js = np.concatenate(drawn)
                    assert js.shape == want.shape
                    assert js.tobytes() == want.tobytes()


@pytest.mark.parametrize("samples", [1, bottleneck.MC_TILE + 1, MC_CHUNK // 2 + 1, MC_CHUNK,
                                     2 * MC_CHUNK + 4097])
@pytest.mark.parametrize("model", [builtin_cnf(3), I_MODEL], ids=["builtin3", "i_terms"])
def test_energy_scan_rows_do_not_depend_on_the_worker_count(monkeypatch, model, samples):
    # 1 to 3 chunks per row, split over up to 5 workers, so some rows have
    # fewer chunks than there are workers; at every worker count each row
    # equals action_volume_mc at its energy and seed, and both equal the
    # rows of one worker, bit for bit
    steps, seed = 3, 60
    energies = np.linspace(0.1, 0.9, steps)
    usable_cpus(monkeypatch, 1)
    want = rows_one_by_one(model, energies, samples, seed)
    for cpus in (1, 2, 3, 5):
        usable_cpus(monkeypatch, cpus)
        assert rows_one_by_one(model, energies, samples, seed) == want, cpus
        report = energy_scan(model, 0.1, 0.9, steps=steps, samples=samples, seed=seed)
        assert report.rows == want, cpus


def test_chunk_count_allocates_only_its_task_buffers():
    # a 10-chunk task makes its one-block draw buffer and the counter's block
    # buffers once and runs all 40 blocks in them: the traced peak is the
    # buffers, plus less than one tile's bool mask
    model = builtin_cnf(3)
    nb = model.n_bath
    tile = bottleneck.MC_TILE
    buffers = (tile * nb * 8         # draws
               + nb * tile * 8       # scaled columns
               + 2 * tile * 8        # sum and term scratch
               + tile)               # bool mask
    box = candidate_width(model, 0.5).j_max
    bottleneck._chunk_hits(model, 0.5, box, 10 * MC_CHUNK, 3, 0, 10)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        hits = bottleneck._chunk_hits(model, 0.5, box, 10 * MC_CHUNK, 3, 0, 10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 0 < hits < 10 * MC_CHUNK
    assert buffers <= peak - before < buffers + tile // 2
