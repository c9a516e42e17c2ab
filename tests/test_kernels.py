"""The batched Stormer-Verlet kernel against the one-trajectory oracle.

``kernels.verlet_run`` steps a coordinate-major ``(d, k)`` batch; every row
of a batch must give the bytes of ``oracle_run`` on that row alone, whatever
the layout of the start arrays.
"""

import itertools

import numpy as np
import pytest

from sympb import default_params, kernels, velocities

from oracles import PARAM_SETS, oracle_run, random_states

PARAMS = default_params()


def assert_rows_match_oracle(params, q0, p0, h, nsteps, stride):
    qs, ps, bad = kernels.verlet_run(params, q0, p0, h, nsteps, stride)
    assert bad == -1
    assert qs.shape == ps.shape == (len(range(0, nsteps, stride)) + 1, len(q0), q0.shape[1])
    for row in range(len(q0)):
        qo, po, bado = oracle_run(params, q0[row], p0[row], h, nsteps, stride)
        assert bado == -1
        assert qs[:, row].tobytes() == qo.tobytes()
        assert ps[:, row].tobytes() == po.tobytes()


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
