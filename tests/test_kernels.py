"""The batched Stormer-Verlet kernel and the gradient it steps with, against
the one-trajectory and one-element oracles, and the Monte-Carlo membership
count against the term-table counter it replaced.

``kernels.verlet_run`` steps a coordinate-major ``(d, k)`` batch; every row
of a batch must give the bytes of ``oracle_run`` on that row alone, whatever
the layout of the start arrays, and the batch must stop at the first record
at which any row is non-finite.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sympb
from sympb import CnfModel, DimensionError, default_params, kernels, velocities
from sympb.models import _sum_fn

from oracles import PARAM_SETS, logistic_py, oracle_run, random_states, term_sum

PARAMS = default_params()


def run_against_oracle(params, q0, p0, h, nsteps, stride):
    """Run the batch and compare every row with ``oracle_run`` on that row
    alone, bit for bit, up to the first record at which any row is
    non-finite; return that record's index, or -1."""
    qs, ps, bad = kernels.verlet_run(params, q0, p0, h, nsteps, stride)
    want = [oracle_run(params, q0[row], p0[row], h, nsteps, stride) for row in range(len(q0))]
    bads = [bado for _, _, bado in want if bado >= 0]
    assert bad == min(bads, default=-1)
    nrec = len(range(0, nsteps, stride)) + 1 if bad < 0 else bad + 1
    assert qs.shape == ps.shape == (nrec, len(q0), q0.shape[1])
    for row, (qo, po, _) in enumerate(want):
        assert qs[:, row].tobytes() == qo[:nrec].tobytes(), row
        assert ps[:, row].tobytes() == po[:nrec].tobytes(), row
    return bad


def assert_rows_match_oracle(params, q0, p0, h, nsteps, stride):
    assert run_against_oracle(params, q0, p0, h, nsteps, stride) == -1


def test_verlet_batch_matches_oracle_2dof_and_3dof():
    rng = np.random.default_rng(5)
    for d in (2, 3):
        q0, p0 = random_states(rng, 6, d)
        # stride 7 does not divide 400: the last step is recorded on its own
        assert_rows_match_oracle(PARAMS, q0, p0, 1e-2, 400, 7)
        assert_rows_match_oracle(PARAMS, q0, p0, 1e-2, 400, 400)


def test_verlet_batch_matches_oracle_negative_step():
    rng = np.random.default_rng(6)
    q0, p0 = random_states(rng, 4, 3)
    assert_rows_match_oracle(PARAMS, q0, p0, -5e-3, 300, 11)


def test_verlet_batch_reports_oracle_divergence_index():
    q0 = np.array([[-2.0, 0.3], [-50.0, -400.0], [0.5, -0.2]])
    p0 = np.array([[0.9, -0.2], [0.0, 0.0], [0.1, 0.3]])
    _, _, bad_oracle = oracle_run(PARAMS, q0[1], p0[1], 0.01, 100, 10)
    assert bad_oracle >= 0
    qs, ps, bad = kernels.verlet_run(PARAMS, q0, p0, 0.01, 100, 10)
    assert bad == bad_oracle
    assert qs.shape[0] == ps.shape[0] == bad + 1
    for row in (0, 2):
        qo, po, _ = oracle_run(PARAMS, q0[row], p0[row], 0.01, 100, 10)
        assert qs[:, row].tobytes() == qo[: bad + 1].tobytes()
        assert ps[:, row].tobytes() == po[: bad + 1].tobytes()


def count_gradients(monkeypatch):
    """Wrap ``kernels._grad_fn`` so that every call of a bound gradient adds
    one to the returned dict's ``"grad"``."""
    calls = {"grad": 0}
    real_grad_fn = kernels._grad_fn

    def counting_grad_fn(*args):
        grad = real_grad_fn(*args)

        def counting_grad():
            calls["grad"] += 1
            grad()

        return counting_grad

    monkeypatch.setattr(kernels, "_grad_fn", counting_grad_fn)
    return calls


@pytest.mark.parametrize("stride, past", [(10, 63), (1000, 0)])
def test_verlet_run_stops_within_one_block_of_divergence(monkeypatch, stride, past):
    # the finiteness check runs inside the loop, once per block of records:
    # a run of 10**5 steps that diverges at once stops at most `past`
    # records later (64 records a block at stride 10, one at stride 1000),
    # not after its last step
    q0 = np.array([[-2.0, 0.3], [-50.0, -400.0], [0.5, -0.2]])
    p0 = np.array([[0.9, -0.2], [0.0, 0.0], [0.1, 0.3]])
    nsteps = 10**5
    _, _, bad_oracle = oracle_run(PARAMS, q0[1], p0[1], 0.01, nsteps, stride)
    assert bad_oracle >= 0
    grads = count_gradients(monkeypatch)
    qs, ps, bad = kernels.verlet_run(PARAMS, q0, p0, 0.01, nsteps, stride)
    assert bad == bad_oracle
    assert qs.shape[0] == ps.shape[0] == bad + 1
    assert grads["grad"] <= (bad + past) * stride + 1


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("nrec", [1, 63, 64, 65, 66, 129])
def test_verlet_batch_matches_oracle_at_block_edges(d, nrec):
    # stride 3 does not divide nsteps, so the last record is a step of its
    # own; one record is the start alone (nsteps 0)
    stride = 3
    nsteps = 3 * (nrec - 1) - 1 if nrec > 1 else 0
    assert kernels.record_count(nsteps, stride) == nrec
    q0, p0 = random_states(np.random.default_rng(nrec), 4, d)
    assert_rows_match_oracle(PARAMS, q0, p0, 1e-2, nsteps, stride)


# a free reactive coordinate far out on the barrier: no force acts, so x
# moves by DX a step until it overflows to inf; the momentum coupling drives
# the Morse coordinate outward too, where its force is 0.0, but more slowly
XMAX = np.finfo(np.float64).max
P_X, H = 1e305, 1e-2
DX = P_X * H


# at stride 3 a block holds 64 records: 1 to 64, 65 to 128, ...
@pytest.mark.parametrize("bad, nsteps", [
    (1, 599),     # the first record of the first block
    (63, 599),
    (64, 599),    # its 64th and last record
    (65, 599),    # the first record of the second block
    (128, 599),   # its last record
    (129, 599),   # the first record of the third block
    (99, 296),    # the last record of a run, in a part block
    (64, 191),    # the last record of a run, ending a block
])
def test_verlet_batch_reports_oracle_divergence_at_block_edges(bad, nsteps):
    stride = 3
    # the record before `bad` is at step (bad - 1) * stride; x overflows half
    # a step after it
    before = (bad - 1) * stride
    q0, p0 = random_states(np.random.default_rng(bad), 3, 2)
    q0[1] = [XMAX - (before + 0.5) * DX, 0.0]
    p0[1] = [P_X, 0.0]
    assert run_against_oracle(PARAMS, q0, p0, H, nsteps, stride) == bad


# momentum entries whose sums and differences differ only in the sign of a
# zero or in subnormal bits
SIGNED = [0.0, -0.0, 5e-324, -5e-324, 0.7, -0.7]


def signed_zero_states(params, d):
    """Every d-tuple of SIGNED as a momentum row (all -0.0 rows included), at
    reactive coordinates on both logistic branches and Morse coordinates on
    and off the well bottom; then all -0.0 and all 0.0 rows at rest at the
    well bottom and so far out on the barrier that every force is +/-0.0,
    where a momentum row of zeros stays one."""
    p0 = np.array(list(itertools.product(SIGNED, repeat=d)))
    s = np.array([-800.0, -2.0, -0.3, 0.0, 0.4, 3.0, 800.0])
    q0 = np.zeros_like(p0)
    q0[:, 0] = np.resize(s, len(p0))
    q0[1::2, 1:] = np.linspace(-0.5, 0.8, d - 1)
    at_rest = [(x, zero) for x in (-800.0, 800.0) for zero in (-0.0, 0.0)]
    q0 = np.vstack([q0, [[x] + [0.0] * (d - 1) for x, _ in at_rest]])
    p0 = np.vstack([p0, [[zero] * d for _, zero in at_rest]])
    q0[:, 0] = params.a * q0[:, 0] - params.x0
    reactive = (q0[:, 0] + params.x0) / params.a
    assert (reactive >= 0).sum() > 3 and (reactive < 0).sum() > 3
    assert ((p0 == 0) & np.signbit(p0)).all(axis=1).sum() >= 3
    return q0, p0


def layouts(a):
    """``a`` C-ordered, Fortran-ordered and as a strided view."""
    wide = np.full((2 * a.shape[0], 2 * a.shape[1]), np.nan)
    wide[::2, ::2] = a
    return {"C": a, "fortran": np.asfortranarray(a), "strided": wide[::2, ::2]}


@pytest.mark.parametrize("params", PARAM_SETS.values(), ids=PARAM_SETS.keys())
@pytest.mark.parametrize("d", [2, 3])
def test_verlet_batch_matches_oracle_signed_zeros_and_layouts(params, d):
    q0, p0 = signed_zero_states(params, d)
    h, nsteps, stride = 0.05, 12, 5
    want = [oracle_run(params, q0[row], p0[row], h, nsteps, stride) for row in range(len(q0))]
    assert all(bad == -1 for _, _, bad in want)
    for (qname, q), (pname, p) in zip(layouts(q0).items(), reversed(layouts(p0).items())):
        qs, ps, bad = kernels.verlet_run(params, q, p, h, nsteps, stride)
        assert bad == -1
        assert qs.shape == ps.shape == (4, len(q0), d)
        for row, (qo, po, _) in enumerate(want):
            assert qs[:, row].tobytes() == qo.tobytes(), (qname, pname, row)
            assert ps[:, row].tobytes() == po.tobytes(), (qname, pname, row)
        # the first row at rest keeps momenta of -0.0 alone, so every step
        # sums such a column
        rest = len(q0) - 4
        assert ((ps[:, rest] == 0) & np.signbit(ps[:, rest])).all()


@pytest.mark.parametrize("d", [2, 3])
def test_verlet_run_leaves_start_arrays_untouched(d):
    # the loop binds views of its own state before the first step; none may
    # reach the caller's arrays, nor the record of step 0
    q0, p0 = random_states(np.random.default_rng(8), 5, d)
    for (qname, q), (pname, p) in itertools.product(layouts(q0).items(), layouts(p0).items()):
        held = [(x, x.tobytes(), x.base, None if x.base is None else x.base.tobytes())
                for x in (q, p)]
        qs, ps, bad = kernels.verlet_run(PARAMS, q, p, 1e-2, 50, 20)
        assert bad == -1
        for x, data, base, base_data in held:
            assert x.tobytes() == data, (qname, pname)
            assert base is None or base.tobytes() == base_data, (qname, pname)
        assert qs[0].tobytes() == q0.tobytes() and ps[0].tobytes() == p0.tobytes()
        assert not np.array_equal(qs[-1], q0) and not np.array_equal(ps[-1], p0)


@pytest.mark.parametrize("params", PARAM_SETS.values(), ids=PARAM_SETS.keys())
@pytest.mark.parametrize("d", [2, 3])
def test_velocities_match_last_axis_formula_on_signed_zeros(params, d):
    # the coordinate-major sum against the last-axis sum of each row alone
    _, mom = signed_zero_states(params, d)
    want = np.array([row / params.m + params.eps * (row.sum() - row) for row in mom])
    for name, m in layouts(mom).items():
        v = velocities(params, m)
        assert v.flags.c_contiguous, name
        assert v.tobytes() == want.tobytes(), name


def test_record_count_is_python_int_arithmetic():
    for nsteps in (1, 6, 7, 400):
        for stride in (1, 3, 7, 400, 10**30):
            assert kernels.record_count(nsteps, stride) == len(range(0, nsteps, stride)) + 1
    # no ssize_t: a step count beyond 2**63 still has a record count
    assert kernels.record_count(2**80 + 1, 10) == 2**80 // 10 + 2


# ---------------------------------------------------------------------------
# The batched gradient against a per-element scalar oracle
# ---------------------------------------------------------------------------


def grad_potential_oracle(params, q):
    """The gradient one element at a time: ``logistic_py`` on the reactive
    coordinate, numpy's ``exp`` of one float on each Morse coordinate."""
    q = np.asarray(q, dtype=float)
    g = np.empty(q.shape)
    big_a, big_b, a = params.A, params.B, params.a
    for idx in np.ndindex(q.shape[:-1]):
        u = logistic_py((float(q[idx + (0,)]) + params.x0) / a)
        g[idx + (0,)] = u * (1.0 - u) * (big_a + big_b * (1.0 - 2.0 * u)) / a
        for k in range(1, q.shape[-1]):
            e = np.exp(-params.aM * q[idx + (k,)])
            g[idx + (k,)] = 2.0 * params.De * params.aM * (e - e * e)
    return g


GRAD_SPECIALS = [math.nan, math.inf, -math.inf, 0.0, -0.0, 1e308, -1e308]


def gradient_inputs(params, rng):
    """Configurations of every layout the gradient takes, with reactive
    coordinates on both logistic branches and the special values."""
    base = rng.normal(scale=4.0, size=(26, 6))
    base[:, 0] -= params.x0
    base[: len(GRAD_SPECIALS), 0] = GRAD_SPECIALS
    base[len(GRAD_SPECIALS): 2 * len(GRAD_SPECIALS), 2] = GRAD_SPECIALS
    base[20, 0] = -params.x0
    base[21, 0] = -800.0 * params.a - params.x0
    base[22, 0] = 800.0 * params.a - params.x0
    q = base[:13, :3].copy()
    s = (q[:, 0] + params.x0) / params.a
    assert (s >= 0).sum() > 3 and (s < 0).sum() > 3
    return {
        "(3,)": q[0].copy(),
        "(3,) special": q[2].copy(),
        "(13, 3)": q,
        "(13, 2)": base[:13, :2].copy(),
        "(2, 5, 3)": q[:10].reshape(2, 5, 3),
        "fortran": np.asfortranarray(q),
        "strided": base[::2, ::2],
        "column slice": base[:, 1:4][:, ::1],
    }


@pytest.mark.parametrize("params", PARAM_SETS.values(), ids=PARAM_SETS.keys())
def test_grad_potential_matches_scalar_oracle_bits(params):
    rng = np.random.default_rng(23)
    for name, q in gradient_inputs(params, rng).items():
        with np.errstate(over="ignore", invalid="ignore"):
            g = sympb.grad_potential(params, q)
            want = grad_potential_oracle(params, q)
            assert g.shape == q.shape, name
            assert g.flags.c_contiguous, name
            assert g.tobytes() == want.tobytes(), name
            for idx in np.ndindex(q.shape[:-1]):
                row = sympb.grad_potential(params, q[idx])
                assert row.tobytes() == g[idx].tobytes(), (name, idx)


# ---------------------------------------------------------------------------
# Monte-Carlo membership counting against the term-table counter the kernel
# replaced, kept verbatim.
# ---------------------------------------------------------------------------


def count_box_hits_oracle(j_samples, j_pows, coeffs, e):
    j_samples = np.asarray(j_samples, dtype=np.float64)
    m = j_samples.shape[0]
    acc = np.zeros(m)
    for t in range(len(coeffs)):
        v = np.full(m, float(coeffs[t]))
        for k in range(j_pows.shape[1]):
            for _ in range(int(j_pows[t, k])):
                v = v * j_samples[:, k]
        acc = acc + v
    return int(np.count_nonzero(acc <= float(e)))


def zero_i_table(model):
    keep = [(jp, c) for ip, jp, c in model.terms if ip == 0]
    j_pows = np.array([jp for jp, _ in keep], dtype=np.int64).reshape(len(keep), model.n_bath)
    coeffs = np.array([c for _, c in keep], dtype=np.float64)
    return j_pows, coeffs


def random_model(rng, nb):
    """A valid CnfModel with random extra terms: negative coefficients and
    I-powers up to 2 included."""
    zero = (0,) * nb
    terms = [(0, zero, -0.5), (1, zero, float(rng.uniform(0.1, 1.0)))]
    for k in range(nb):
        unit = tuple(1 if i == k else 0 for i in range(nb))
        terms.append((0, unit, float(rng.uniform(0.1, 2.0))))
    terms.append((0, (2,) * nb, float(rng.uniform(-1.0, -0.1))))
    terms.append((1, (1,) * nb, float(rng.uniform(-1.0, 1.0))))
    while len(terms) < nb + 8:
        i_pow = int(rng.integers(0, 3))
        j_pows = tuple(int(p) for p in rng.integers(0, 4, size=nb))
        if i_pow + sum(j_pows) >= 2:
            terms.append((i_pow, j_pows, float(rng.uniform(-1.0, 1.0))))
    return CnfModel(e0=-0.5, terms=tuple(terms))


def test_count_box_hits_matches_term_table_oracle():
    rng = np.random.default_rng(100)
    for nb in (1, 2, 3):
        for _ in range(5):
            model = random_model(rng, nb)
            assert any(c < 0 for ip, jp, c in model.terms if ip == 0 and any(jp))
            assert any(ip > 0 and any(jp) for ip, jp, _ in model.terms)
            j_samples = rng.uniform(0.0, 2.0, size=(4096, nb))
            j_pows, coeffs = zero_i_table(model)
            for e in rng.uniform(-0.5, 1.5, size=3):
                got = kernels.count_box_hits(model, j_samples, float(e))
                assert got == count_box_hits_oracle(j_samples, j_pows, coeffs, float(e))
    # more rows than one Monte-Carlo block (16 384), counted in one call
    model = random_model(rng, 3)
    j_samples = rng.uniform(0.0, 2.0, size=((1 << 14) + 4097, 3))
    j_pows, coeffs = zero_i_table(model)
    for e in rng.uniform(-0.5, 1.5, size=3):
        got = kernels.count_box_hits(model, j_samples, float(e))
        assert got == count_box_hits_oracle(j_samples, j_pows, coeffs, float(e))


def test_count_box_hits_trivial_cases():
    # K(0, J) = J: the I term vanishes on the dividing surface
    model = CnfModel(e0=0.0, terms=((0, (0,), 0.0), (1, (0,), 1.0), (0, (1,), 1.0)))
    j_samples = np.array([[0.5], [1.5]])
    # J <= 1.0 admits only the first row
    assert kernels.count_box_hits(model, j_samples, 1.0) == 1
    assert kernels.count_box_hits(model, j_samples, 2.0) == 2
    assert kernels.count_box_hits(model, j_samples, 0.1) == 0


SPECIAL = [0.0, -0.0, math.nan, math.inf, -math.inf]
# a J entry: a signed zero, NaN, +/-inf, or a finite value of either sign
J_VALUE = st.one_of(st.sampled_from(SPECIAL), st.floats(-4.0, 4.0))
COEFF = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-2.0, 2.0))


@st.composite
def term_tables(draw):
    """A valid CnfModel, its terms in any order, whose extra terms carry I
    powers up to 2 and J powers up to 3, with a J_2 J_3 product when there
    are two bath modes or more, coefficients of either sign and signed
    zeros, and up to two more signed-zero constants."""
    nb = draw(st.integers(1, 3))
    zero = (0,) * nb
    # with e0 = 0 a sum can be a signed zero
    e0 = draw(st.sampled_from([-0.5, 0.0]))
    terms = [(0, zero, e0 or draw(st.sampled_from([0.0, -0.0]))), (1, zero, 0.7)]
    for k in range(nb):
        terms.append((0, tuple(int(i == k) for i in range(nb)), draw(st.floats(0.1, 2.0))))
    if nb > 1:
        terms.append((0, (1, 1) + zero[2:], draw(COEFF)))
    for _ in range(draw(st.integers(0, 6))):
        i_pow = draw(st.integers(0, 2))
        j_pows = tuple(draw(st.lists(st.integers(0, 3), min_size=nb, max_size=nb)))
        if i_pow + sum(j_pows) >= 2:
            terms.append((i_pow, j_pows, draw(COEFF)))
    # signed-zero constants, and the table in any order
    for _ in range(draw(st.integers(0, 2))):
        terms.append((0, zero, draw(st.sampled_from([0.0, -0.0]))))
    return CnfModel(e0=e0, terms=tuple(draw(st.permutations(terms))))


@settings(max_examples=150, deadline=None)
@given(model=term_tables(), data=st.data(),
       e=st.one_of(st.floats(-3.0, 3.0), st.sampled_from(SPECIAL)))
def test_count_box_hits_in_place_equals_eval_k0_count(model, data, e):
    # the in-place count, on buffers made for the call and on a counter's
    # buffers with rows to spare, against the count of eval_k0 on the points;
    # an energy that is no finite number is refused on both
    nb = model.n_bath
    m = data.draw(st.integers(0, 24))
    j = np.array(data.draw(st.lists(J_VALUE, min_size=m * nb, max_size=m * nb)))
    j = j.reshape(m, nb)
    box = np.array(data.draw(st.lists(st.floats(1e-3, 1e3), min_size=nb, max_size=nb)))
    rows = max(1, m + data.draw(st.integers(0, 3)))
    with np.errstate(all="ignore"):
        want = sympb.eval_k0(model, j)
        # the in-place sum itself has eval_k0's bits, signed zeros included
        total, scratch = np.empty(m), np.empty(m)
        _sum_fn(model.k0_terms, None, np.array(j.T), total, scratch)()
        assert total.tobytes() == want.tobytes()
        unit = j / box
        counter = kernels._box_counter(model, tuple(box), rows)
        if not math.isfinite(e):
            for args in ((j, e), (unit, e, counter)):
                with pytest.raises(ValueError, match=f"^e must be a finite number, got {e}$"):
                    kernels.count_box_hits(model, *args)
            return
        assert kernels.count_box_hits(model, j, e) == int(np.count_nonzero(want <= e))
        assert kernels.count_box_hits(model, unit, e, counter) == int(
            np.count_nonzero(sympb.eval_k0(model, unit * box) <= e))


def test_count_box_hits_refuses_samples_of_the_wrong_shape():
    model = CnfModel(e0=0.0, terms=((0, (0, 0), 0.0), (1, (0, 0), 1.0), (0, (1, 0), 1.0),
                                    (0, (0, 1), 1.0)))
    for shape in [(2,), (3, 1), (3, 3), (2, 2, 2)]:
        with pytest.raises(DimensionError, match=r"expected samples of shape \(m, 2\)"):
            kernels.count_box_hits(model, np.zeros(shape), 1.0)


def test_term_sum_adds_its_leading_constants_to_a_zero_start():
    # K(0, J) = (-0.0) + J: from a zero start, J = -0.0 sums to +0.0
    model = CnfModel(e0=0.0, terms=((0, (0,), -0.0), (1, (0,), 1.0), (0, (1,), 1.0)))
    j = np.array([[-0.0], [0.0], [1.0]])
    want = np.array([0.0, 0.0, 1.0]).tobytes()
    total, scratch = np.empty(3), np.empty(3)
    _sum_fn(model.k0_terms, None, np.array(j.T), total, scratch)()
    assert total.tobytes() == sympb.eval_k0(model, j).tobytes() == want
    # K = (-0.0) + I + J at I = -0.0: every term is -0.0 at J = -0.0, and the
    # sum is +0.0 there, as for the I-free table
    assert sympb.eval_cnf(model, -0.0, j).tobytes() == want
    assert np.float64(sympb.eval_cnf(model, -0.0, [-0.0])).tobytes() == np.float64(0.0).tobytes()
    # dK/dI = (-0.0) + 1 - I with a leading -0.0 constant: it carries the
    # rate, so no point sums -0.0 terms alone, and its values and their
    # signed zeros are the reference sum's
    model = CnfModel(e0=0.0, terms=((0, (0,), -0.0), (1, (0,), -0.0), (1, (0,), 1.0),
                                    (0, (1,), 1.0), (2, (0,), -0.5)))
    i = np.array([1.0, -0.0, 1.0])
    assert sympb.eval_dk_di(model, i, j).tobytes() == term_sum(model, i, j, 1).tobytes() \
        == np.array([0.0, 1.0, 0.0]).tobytes()
