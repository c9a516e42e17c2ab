"""The array sampler and transmit criterion against a point-by-point oracle.

The oracle below is the documented per-point procedure written with scalar
Python arithmetic: its own polynomial loops, its own Newton polish and its
own snapping of I' < 0.  The library samples whole ensembles as arrays and
must reproduce it bit for bit.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sympb.ensembles
from oracles import linear_cnf
from sympb import (
    CnfModel,
    ConvergenceError,
    Ensemble,
    EnsembleSpec,
    LyapunovSignError,
    SamplingError,
    builtin_cnf,
    default_delta_e,
    default_t_max,
    effective_lyapunov,
    eval_cnf,
    eval_dk_di,
    j_max_cnf,
    sample_ensemble,
    transmission_fraction,
    transmission_scan,
    transmit,
)
from sympb.cli import DEFAULT_XIS
from sympb.ensembles import _solve_reactive_integral

# Models with an I**2 term take the Newton path.  Its coefficient is small
# and negative, so K(I, J) = E' has a real root for every draw, including
# the rejected ones.
NEWTON2 = CnfModel(e0=-1.0, terms=(
    (0, (0,), -1.0), (1, (0,), 1.0), (0, (1,), 1.5), (1, (1,), -0.02), (2, (0,), -0.05),
))
NEWTON3 = CnfModel(e0=-1.0, terms=(
    (0, (0, 0), -1.0), (1, (0, 0), 0.9), (0, (1, 0), 1.5), (0, (0, 1), 1.1),
    (1, (1, 0), -0.02), (2, (1, 0), 0.01), (2, (0, 0), -0.05),
))
MODELS = (builtin_cnf(2), builtin_cnf(3), NEWTON2, NEWTON3)

# K = I - 0.5 I^2 + J2: dK/dI vanishes at I = 1, and K never exceeds 0.5 at J2 = 0.
FOLD = CnfModel(e0=0.0, terms=((0, (0,), 0.0), (1, (0,), 1.0), (0, (1,), 1.0), (2, (0,), -0.5)))


# ---------------------------------------------------------------------------
# scalar oracle
# ---------------------------------------------------------------------------


def k_scalar(model, i, j, order=0):
    """order-th I-derivative (0 or 1) of K at (I, J), one term at a time."""
    total = 0.0
    for i_pow, j_pows, coeff in model.terms:
        if i_pow < order:
            continue
        v = coeff * i_pow if order else coeff
        for _ in range(i_pow - order):
            v *= i
        for k, p in enumerate(j_pows):
            for _ in range(p):
                v *= j[k]
        total += v
    return total


def lam_scalar(model, j):
    total = 0.0
    for i_pow, j_pows, coeff in model.terms:
        if i_pow != 1:
            continue
        v = coeff
        for k, p in enumerate(j_pows):
            for _ in range(p):
                v *= j[k]
        total += v
    assert total > 0.0
    return total


def solve_scalar(model, e, j):
    i = (e - k_scalar(model, 0.0, j)) / lam_scalar(model, j)
    if any(ip > 1 for ip, _, _ in model.terms):
        for _ in range(50):
            f = k_scalar(model, i, j) - e
            if abs(f) <= 1e-14 * max(abs(e), 1.0):
                break
            df = k_scalar(model, i, j, order=1)
            if df == 0.0:
                break
            i -= f / df
    return i


def oracle_sample(model, spec, kind, j_max):
    """Per point, from its own substream: E', J2max(E'), J_2, I' (snapped to
    zero within the root's rounding), the bath phases, then Q_1."""
    e_lo, e_hi = spec.e_center - spec.delta_e, spec.e_center + spec.delta_e
    nb = model.n_bath
    out = []
    for child in np.random.SeedSequence(spec.seed).spawn(spec.n_traj):
        rng = np.random.default_rng(child)
        e = rng.uniform(e_lo, e_hi)
        j2max = j_max(model, e, 2)
        lo = spec.xi * j2max if kind == "B" else 0.0
        j = [rng.uniform(lo, j2max)] + [0.0] * (nb - 1)
        i = solve_scalar(model, e, j)
        tol = sympb.ensembles.I_CLAMP_RTOL * max(abs(e), 1.0)
        if 0.0 <= i <= tol:
            i = 0.0
        elif not i >= 0.0:
            overshoot = max(k_scalar(model, 0.0, [j2max] + [0.0] * (nb - 1)) - e, 0.0)
            if not lam_scalar(model, j) * -i <= overshoot + tol:
                raise SamplingError("I' < 0 beyond root rounding")
            i = 0.0
        phases = tuple(rng.uniform(0.0, 2.0 * math.pi) for _ in range(nb))
        q1 = rng.uniform(-spec.q1_range, -sympb.ensembles.Q1_DELTA)
        p1 = math.sqrt(q1 * q1 + 2.0 * i)
        out.append((q1, p1, tuple(j), phases, e))
    q1, p1, j, phases, e = zip(*out)
    return Ensemble(q1=q1, p1=p1, j=j, phases=phases, energy=e)


def oracle_transmit(model, q1, p1, j, t_max):
    lt = lam_scalar(model, j) * t_max
    if lt > 350.0:
        return p1 + q1 > 0.0
    return q1 * math.cosh(lt) + p1 * math.sinh(lt) > 0.0


def bits(ens):
    return np.column_stack([ens.q1, ens.p1, ens.j, ens.phases, ens.energy]).tobytes()


def outcome(fn):
    try:
        return "ok", fn()
    except SamplingError:
        return "SamplingError", None


# ---------------------------------------------------------------------------
# sampler and criterion
# ---------------------------------------------------------------------------


specs = st.builds(
    EnsembleSpec,
    n_traj=st.integers(1, 25),
    e_center=st.just(0.0),
    delta_e=st.one_of(st.just(0.0), st.floats(1e-6, 0.5)),
    seed=st.integers(0, 2**32 - 1),
    xi=st.floats(0.0, 1.0),
    q1_range=st.floats(1e-3, 10.0),
)


@settings(max_examples=60, deadline=None)
@given(model=st.sampled_from(MODELS), spec=specs, kind=st.sampled_from("AB"),
       inflate=st.sampled_from([1.0, 1.5]))
def test_array_sampler_matches_scalar_oracle(model, spec, kind, inflate):
    # inflate > 1 widens the J_2 interval past the admissible region, so some
    # draws give I' < 0; the inflated root's overshoot then covers their
    # deficit, and both sides snap them to zero.  The oracle solves each
    # point's root on its own, the sampler all of them in one batch.
    def j_max(m, e, k):
        return inflate * j_max_cnf(m, e, k)

    want = outcome(lambda: oracle_sample(model, spec, kind, j_max))
    with mock.patch.object(sympb.ensembles, "j_max_cnf", j_max):
        got = outcome(lambda: sample_ensemble(model, spec, kind))
    assert got[0] == want[0]
    if want[0] != "ok":
        return
    assert got[1].q1.shape == (spec.n_traj,)
    assert bits(got[1]) == bits(want[1])
    t_max = 5.0 / model.lam
    crosses = [oracle_transmit(model, q1, p1, j, t_max)
               for q1, p1, j in zip(want[1].q1.tolist(), want[1].p1.tolist(), want[1].j.tolist())]
    assert transmit(model, got[1], t_max).tolist() == crosses
    assert transmission_fraction(model, got[1], t_max).n_transmitted == sum(crosses)


@settings(max_examples=15, deadline=None)
@given(model=st.sampled_from(MODELS), spec=specs,
       xis=st.lists(st.floats(0.0, 1.0), min_size=0, max_size=4))
def test_scan_equals_per_ensemble_sampling(model, spec, xis):
    t_max = 5.0 / model.lam
    results = transmission_scan(model, spec, xis, t_max)
    expected = [transmission_fraction(model, sample_ensemble(model, spec, "A"), t_max, kind="A")]
    for xi in xis:
        spec_b = EnsembleSpec(spec.n_traj, spec.e_center, spec.delta_e, spec.seed, xi, spec.q1_range)
        expected.append(transmission_fraction(
            model, sample_ensemble(model, spec_b, "B"), t_max, xi=float(xi), kind="B"))
    assert repr(results) == repr(expected)


@pytest.mark.parametrize("t_max, q1, crosses", [
    (0.6484263535370605, -0.22175560530863486, True),
    (18.978123998031155, -0.4999999999992341, False),
])
def test_criterion_on_knife_edge_uses_math_cosh_sinh(t_max, q1, crosses):
    # numpy's cosh/sinh differ from math's in the last ulp at these
    # L t_max, enough to flip the sign of Q1 cosh + P1 sinh
    model = builtin_cnf(2)
    ens = Ensemble(q1=[q1], p1=[0.5], j=[[0.0]], phases=[[0.0]], energy=[0.0])
    assert oracle_transmit(model, q1, 0.5, [0.0], t_max) is crosses
    assert transmit(model, ens, t_max).tolist() == [crosses]
    assert transmission_fraction(model, ens, t_max).n_transmitted == int(crosses)


class CountingMath:
    """Stands in for ``math`` in sympb.ensembles, counting cosh/sinh calls."""

    def __init__(self):
        self.calls = {"cosh": 0, "sinh": 0}

    def cosh(self, x):
        self.calls["cosh"] += 1
        return math.cosh(x)

    def sinh(self, x):
        self.calls["sinh"] += 1
        return math.sinh(x)

    def __getattr__(self, name):
        return getattr(math, name)


# Lambda = 1 at every J, so L t_max is t_max bit for bit
UNIT_RATE = linear_cnf(1.0, [1.0], 0.0)


def flat_points(q1, p1):
    n = len(q1)
    return Ensemble(q1=q1, p1=p1, j=np.zeros((n, 1)), phases=np.zeros((n, 1)),
                    energy=np.zeros(n))


@settings(max_examples=200, deadline=None)
@given(lt=st.one_of(st.floats(1e-3, 350.0),
                    st.sampled_from([350.0, float(np.nextafter(350.0, np.inf))])),
       p1s=st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=8))
def test_criterion_on_constructed_knife_edge_points(lt, p1s):
    # Q1 = -P1 tanh(L t_max), nudged by -4..+4 ulp, straddles the crossing
    # Q1 cosh + P1 sinh = 0, where numpy's cosh/sinh may flip the sign: every
    # such point up to L t_max = 350 is recomputed with math's, beyond it
    # none is
    q1, p1 = [], []
    for p in p1s:
        q = -p * math.tanh(lt)
        q1 += [q + k * math.ulp(q) for k in range(-4, 5)]
        p1 += [p] * 9
    counting = CountingMath()
    with mock.patch.object(sympb.ensembles, "math", counting):
        got = transmit(UNIT_RATE, flat_points(q1, p1), lt).tolist()
    assert got == [oracle_transmit(UNIT_RATE, q, p, [0.0], lt) for q, p in zip(q1, p1)]
    near = 0 if lt > 350.0 else len(q1)
    assert counting.calls == {"cosh": near, "sinh": near}


@pytest.mark.parametrize("lt, q1, p1", [
    (0.9665144500109102, -8.0887681e-314, 1.08258942097e-313),
    (2.480265064529092, -1.40607713417e-313, 1.42592725063e-313),
    (0.22289095009583926, -1.3297860476e-313, 6.06455703275e-313),
])
def test_criterion_on_subnormal_knife_edge_points(lt, q1, p1):
    # Q1 cosh and P1 sinh are subnormal: a cosh one ulp off moves Q1 cosh by
    # a whole subnormal step, which a band relative to |Q1 cosh| + |P1 sinh|
    # alone (1e-12 of it rounds to 0) lets through as v = +5e-324
    assert oracle_transmit(UNIT_RATE, q1, p1, [0.0], lt) is False
    assert transmit(UNIT_RATE, flat_points([q1], [p1]), lt).tolist() == [False]


def test_criterion_where_a_product_overflows():
    # Q1 from a q1_range of 1e300 at L t_max = 340: Q1 cosh overflows, so the
    # sum is -inf or NaN and no point crosses, on both sides and silently
    q1, p1 = [-1e300, -1e300, -3e299], [1.0, 2e300, math.inf]
    want = [oracle_transmit(UNIT_RATE, q, p, [0.0], 340.0) for q, p in zip(q1, p1)]
    assert want == [False, False, False]
    with np.errstate(all="raise"):
        assert transmit(UNIT_RATE, flat_points(q1, p1), 340.0).tolist() == want


def test_exp2_batch_takes_no_math_call():
    # no point of a default exp2 batch lies near the knife edge, so the
    # criterion makes no per-point math call (and equals the oracle)
    model = builtin_cnf(3)
    spec = EnsembleSpec(n_traj=1000, e_center=0.0, delta_e=default_delta_e(model, 0.0),
                        seed=0)
    xis = [float(x) for x in DEFAULT_XIS.split(",")]
    batch = sympb.ensembles._sample_batch(model, spec, [0.0] + xis)
    t_max = default_t_max(model)
    counting = CountingMath()
    with mock.patch.object(sympb.ensembles, "math", counting):
        got = transmit(model, batch, t_max)
    assert counting.calls == {"cosh": 0, "sinh": 0}
    assert got.shape == (12, 1000)
    assert got.tolist() == [
        [oracle_transmit(model, q, p, j, t_max) for q, p, j in zip(*rows)]
        for rows in zip(batch.q1.tolist(), batch.p1.tolist(), batch.j.tolist())
    ]


def test_scan_solves_j_max_once_per_point(monkeypatch):
    # one root-solver call holding the n_traj sampled energies
    calls = []

    def counting(model, e, k):
        calls.append((np.shape(e), k))
        return j_max_cnf(model, e, k)

    monkeypatch.setattr(sympb.ensembles, "j_max_cnf", counting)
    spec = EnsembleSpec(n_traj=40, e_center=0.0, delta_e=0.01, seed=9)
    transmission_scan(builtin_cnf(3), spec, [round(0.1 * i, 1) for i in range(11)])
    assert calls == [((spec.n_traj,), 2)]


@pytest.mark.parametrize("inflate", [1.0, 1.5])
def test_sampler_builds_a_generator_only_per_redrawn_pair(monkeypatch, inflate):
    # no (point, ensemble) pair is redrawn any more, so no Generator is built:
    # a pair whose first J_2 draw gives I' < 0 (there are some once j_max is
    # inflated) keeps that draw, and every draw comes from the substream kernel
    model = builtin_cnf(3)
    spec = EnsembleSpec(n_traj=60, e_center=0.0, delta_e=0.01, seed=77)
    lows = [0.0, 0.3, 0.6]

    def j_max(m, e, k):
        return inflate * j_max_cnf(m, e, k)

    first, negative = [], 0
    for child in np.random.SeedSequence(spec.seed).spawn(spec.n_traj):
        row = []
        for low in lows:
            rng = np.random.default_rng(child)
            e = rng.uniform(spec.e_center - spec.delta_e, spec.e_center + spec.delta_e)
            top = j_max(model, e, 2)
            row.append(rng.uniform(low * top, top))
            i = solve_scalar(model, e, [row[-1], 0.0])
            negative += i < 0.0 and abs(i) > sympb.ensembles.I_CLAMP_RTOL * max(abs(e), 1.0)
        first.append(row)
    assert (negative > 0) == (inflate > 1.0)

    def no_generator(*args, **kwargs):
        raise AssertionError("np.random.default_rng called")

    monkeypatch.setattr(sympb.ensembles, "j_max_cnf", j_max)
    monkeypatch.setattr(np.random, "default_rng", no_generator)
    batch = sympb.ensembles._sample_batch(model, spec, lows)
    assert batch.j[..., 0].T.tolist() == first
    assert sample_ensemble(model, spec, "A").q1.shape == (60,)
    monkeypatch.undo()
    monkeypatch.setattr(np.random, "default_rng", no_generator)
    spec = EnsembleSpec(n_traj=60, e_center=0.0, delta_e=0.01, seed=77, xi=1.0)
    assert len(transmission_scan(model, spec, [0.0, 0.6, 1.0])) == 4
    assert sample_ensemble(model, spec, "B").q1.shape == (60,)


# ---------------------------------------------------------------------------
# batched polynomial
# ---------------------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(model=st.sampled_from(MODELS), seed=st.integers(0, 2**32 - 1),
       shape=st.sampled_from([(1,), (7,), (3, 5)]))
def test_batched_polynomial_matches_points(model, seed, shape):
    rng = np.random.default_rng(seed)
    nb = model.n_bath
    j = rng.uniform(0.0, 2.0, size=shape + (nb,))
    i = rng.uniform(-1.0, 1.0, size=shape)
    pts = [(float(i[idx]), j[idx].tolist()) for idx in np.ndindex(shape)]
    for got, order in ((eval_cnf(model, i, j), 0), (eval_dk_di(model, i, j), 1)):
        want = [k_scalar(model, ii, jj, order) for ii, jj in pts]
        assert got.shape == shape
        assert got.ravel().tobytes() == np.array(want).tobytes()
    lam = effective_lyapunov(model, j)
    assert lam.ravel().tobytes() == np.array([lam_scalar(model, jj) for _, jj in pts]).tobytes()


@pytest.mark.parametrize("model", MODELS)
def test_batched_polynomial_broadcasts_reactive_values(model):
    # a batch sums its terms in place, into zeros shaped by both i and j; one
    # point gives a Python float with the bits of its batch row
    rng = np.random.default_rng(23)
    j = rng.uniform(0.0, 2.0, size=(5, model.n_bath))
    i = rng.uniform(-1.0, 1.0, size=(3, 1))
    for order, fn in ((0, eval_cnf), (1, eval_dk_di)):
        got = fn(model, i, j)
        assert got.shape == (3, 5)
        want = [k_scalar(model, float(ii), jj.tolist(), order) for ii in i[:, 0] for jj in j]
        assert got.ravel().tobytes() == np.array(want).tobytes()
        for (r, c), row in np.ndenumerate(got):
            one = fn(model, float(i[r, 0]), j[c].tolist())
            assert type(one) is float and one.hex() == float(row).hex()
        got = fn(model, 0.0, j)
        assert got.tobytes() == np.array([k_scalar(model, 0.0, jj.tolist(), order)
                                          for jj in j]).tobytes()
    lam = effective_lyapunov(model, j)
    for row, jj in zip(lam.tolist(), j):
        one = effective_lyapunov(model, jj)
        assert type(one) is float and one.hex() == row.hex()


def test_batched_lyapunov_sign_guard():
    model = builtin_cnf(2)
    with pytest.raises(LyapunovSignError, match="100.0"):
        effective_lyapunov(model, [[1.0], [100.0], [2.0]])


# ---------------------------------------------------------------------------
# Newton polish of the reaction integral
# ---------------------------------------------------------------------------


def test_newton_polish_converges_to_scalar_values():
    e = np.array([0.3, 0.1, -0.2, 0.45])
    j = np.array([[0.0], [0.05], [0.1], [0.0]])
    got = _solve_reactive_integral(FOLD, e, j)
    want = [solve_scalar(FOLD, float(ee), jj.tolist()) for ee, jj in zip(e, j)]
    assert got.tobytes() == np.array(want).tobytes()
    for ee, jj, ii in zip(e, j, got):
        assert abs(eval_cnf(FOLD, ii, jj) - ee) <= 1e-14
    assert _solve_reactive_integral(FOLD, 0.3, [0.0]) == want[0]


def test_newton_polish_flat_derivative_raises():
    # the linear estimate lands on I = 1, where dK/dI = 1 - I = 0
    with pytest.raises(ConvergenceError, match=r"dK/dI = 0.*E' = 1\.0, J = \[0\.0\]"):
        _solve_reactive_integral(FOLD, np.array([0.3, 1.0]), np.array([[0.0], [0.0]]))


def test_newton_polish_without_root_raises():
    # K <= 0.5 at J2 = 0: the iterates cycle 2, 0, 2, ... and never converge
    with pytest.raises(ConvergenceError, match=r"50 Newton steps.*E' = 2\.0, J = \[0\.0\]"):
        _solve_reactive_integral(FOLD, 2.0, [0.0])
