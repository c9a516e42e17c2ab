import math

import numpy as np
import pytest

from sympb import (
    DimensionError,
    DivergenceError,
    EckartMorseParams,
    IntegratorConfig,
    default_params,
    full_hamiltonian,
    integrate,
    kernels,
    random_symplectic,
    verlet_step,
)
import sympb.integrators
from sympb.integrators import TrajectoryRecord, ds_crossing_times
from sympb.linalg import symplecticity_defect
from sympb.models import eckart_potential, morse_potential

from oracles import oracle_run

PARAMS = default_params()


def far_field_state():
    # both potentials underflow to exactly zero here, so with zero momenta
    # nothing ever moves
    return np.array([-1e6, 1500.0, 0.0, 0.0])


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------


def test_config_validation():
    for kw in (
        dict(h=0.0, t_final=1.0),
        dict(h=-0.1, t_final=1.0),
        dict(h=0.1, t_final=0.0),
        dict(h=0.1, t_final=1.0, monitor_stride=0),
        dict(h=0.1, t_final=1.0, fd_epsilon=0.0),
    ):
        with pytest.raises(ValueError):
            IntegratorConfig(**kw)
    # before: 2.5 passed and integrate died in np.empty with a TypeError
    for stride in (2.5, 2.0, True, "10", None):
        with pytest.raises(ValueError, match="^monitor_stride must be an integer, got "):
            IntegratorConfig(h=1e-2, t_final=0.1, monitor_stride=stride)
    for stride in (np.int64(3), np.uint8(3), 3):
        assert IntegratorConfig(h=1e-2, t_final=0.1, monitor_stride=stride).monitor_stride == 3
    rec = integrate(PARAMS, np.array([-2.0, 0.3, 0.9, -0.2]),
                    IntegratorConfig(h=1e-2, t_final=0.1, monitor_stride=np.int64(3)))
    assert rec.times.size == 5
    # before: h=True integrated with integer times [0 2], fd_epsilon=True was
    # a displacement of 1, and strings died with a bare TypeError
    for field in ("h", "t_final", "fd_epsilon"):
        for value in (True, np.bool_(False), "0.1", None, 1j):
            kw = dict(h=0.1, t_final=1.0)
            kw[field] = value
            with pytest.raises(ValueError, match=f"^{field} must be a finite number, got "):
                IntegratorConfig(**kw)
    cfg = IntegratorConfig(h=np.float32(0.5), t_final=np.int64(1), fd_epsilon=np.float64(1e-6))
    assert cfg.nsteps == 2
    rec = integrate(PARAMS, np.array([-2.0, 0.3, 0.9, -0.2]),
                    IntegratorConfig(h=1, t_final=2, compute_jacobian=False))
    assert rec.times.dtype == np.float64 and rec.times.tolist() == [0.0, 2.0]


@pytest.mark.parametrize("fd_epsilon", [math.nan, math.inf])
def test_config_refuses_fd_epsilon_that_is_not_finite(fd_epsilon):
    # before: the displaced rows became NaN and integrate raised DivergenceError
    msg = f"^fd_epsilon must be a finite number, got {fd_epsilon!r}$"
    with pytest.raises(ValueError, match=msg):
        IntegratorConfig(h=0.1, t_final=1.0, fd_epsilon=fd_epsilon)


def test_config_step_count():
    assert IntegratorConfig(h=0.1, t_final=1.0).nsteps == 10
    assert IntegratorConfig(h=0.3, t_final=1.0).nsteps == 3
    assert IntegratorConfig(h=5.0, t_final=1.0).nsteps == 1
    # before: OverflowError from int(round(inf)) when the run started
    with pytest.raises(ValueError, match=r"t_final = 10.0 and h = 1e-320"):
        IntegratorConfig(h=1e-320, t_final=10.0)
    with pytest.raises(ValueError, match="^t_final must be a finite number, got inf$"):
        IntegratorConfig(h=0.1, t_final=math.inf)


def test_state_dimension_validation():
    cfg = IntegratorConfig(h=0.1, t_final=1.0, compute_jacobian=False)
    with pytest.raises(DimensionError):
        integrate(PARAMS, np.zeros(5), cfg)
    with pytest.raises(DimensionError):
        integrate(PARAMS, np.zeros(8), cfg)


# ---------------------------------------------------------------------------
# verlet_step
# ---------------------------------------------------------------------------


def test_free_particle_single_step_exact():
    # force-free region: kick does nothing, drift advances q by h * velocity
    p0 = EckartMorseParams(m=1.0, eps=0.0, A=-0.5, B=2.0, a=1.0,
                           x0=PARAMS.x0, De=1.0, aM=1.0)
    s = np.array([-50.0, 40.0, 0.7, -0.3])
    h = 0.01
    out = verlet_step(p0, s, h)
    expected = np.array([-50.0 + h * 0.7, 40.0 + h * -0.3, 0.7, -0.3])
    assert np.max(np.abs(out - expected)) <= 1e-14


def test_free_particle_momentum_coupling():
    # with eps > 0 the velocity is mom/m + eps*(sum - mom)
    s = np.array([-50.0, 40.0, 0.7, -0.3])
    h = 0.01
    out = verlet_step(PARAMS, s, h)
    total = 0.7 - 0.3
    vx = 0.7 / PARAMS.m + PARAMS.eps * (total - 0.7)
    vy = -0.3 / PARAMS.m + PARAMS.eps * (total + 0.3)
    expected = np.array([-50.0 + h * vx, 40.0 + h * vy, 0.7, -0.3])
    assert np.max(np.abs(out - expected)) <= 1e-14


def test_verlet_step_time_reversible():
    s0 = np.array([-50.0, 0.3, 0.4, -0.2])
    s1 = verlet_step(PARAMS, s0, 1e-2)
    s2 = verlet_step(PARAMS, s1, -1e-2)
    assert np.max(np.abs(s2 - s0)) <= 1e-13


# ---------------------------------------------------------------------------
# integrate
# ---------------------------------------------------------------------------


def test_stationary_state_never_moves():
    st = far_field_state()
    rec = integrate(PARAMS, st, IntegratorConfig(h=0.1, t_final=1.0, compute_jacobian=False))
    assert rec.energy_drift == 0.0
    assert np.max(np.abs(rec.states - st)) == 0.0


def test_energy_drift_second_order():
    s0 = np.array([-50.0, 0.3, 0.4, -0.2])
    drifts = {}
    for h in (1e-3, 5e-4):
        cfg = IntegratorConfig(h=h, t_final=5.0, compute_jacobian=False)
        drifts[h] = integrate(PARAMS, s0, cfg).energy_drift
    ratio = drifts[1e-3] / drifts[5e-4]
    assert 3.5 <= ratio <= 4.5


def test_record_times_and_stride():
    st = far_field_state()
    rec = integrate(PARAMS, st, IntegratorConfig(h=0.1, t_final=1.0,
                                                 monitor_stride=3, compute_jacobian=False))
    assert np.allclose(rec.times, [0.0, 0.3, 0.6, 0.9, 1.0], atol=1e-15)
    assert rec.states.shape == (5, 4)
    assert rec.energies.shape == (5,)
    # stride dividing the step count must not duplicate the final record
    rec = integrate(PARAMS, st, IntegratorConfig(h=0.1, t_final=1.0,
                                                 monitor_stride=5, compute_jacobian=False))
    assert np.allclose(rec.times, [0.0, 0.5, 1.0], atol=1e-15)


@pytest.mark.parametrize("jacobian, record_bytes", [(False, 32), (True, 288)])
def test_record_bytes_limit(monkeypatch, jacobian, record_bytes):
    # h = 0.1, t_final = 1, stride 3: 5 records of (1 + 4d) x 2d doubles with
    # the Jacobian's displaced rows, of 2d without
    cfg = IntegratorConfig(h=0.1, t_final=1.0, monitor_stride=3, compute_jacobian=jacobian)
    monkeypatch.setattr(sympb.integrators, "MAX_RECORD_BYTES", 5 * record_bytes)
    assert integrate(PARAMS, far_field_state(), cfg).states.shape == (5, 4)
    monkeypatch.setattr(sympb.integrators, "MAX_RECORD_BYTES", 5 * record_bytes - 1)
    with pytest.raises(ValueError) as exc:
        integrate(PARAMS, far_field_state(), cfg)
    assert str(exc.value) == (
        f"t_final = 1.0 with h = 0.1 and monitor_stride = 3 would record 5 steps of "
        f"{record_bytes} bytes each, above the limit MAX_RECORD_BYTES = "
        f"{5 * record_bytes - 1} bytes; raise h or monitor_stride")


@pytest.mark.parametrize("stride, limit", [(10, "MAX_RECORD_BYTES"), (10**30, "MAX_STEPS")])
def test_step_count_beyond_ssize_t_raises_value_error(monkeypatch, stride, limit):
    # about 2e23 steps: the record count must not go through a C ssize_t
    def no_stepping(*args, **kwargs):
        raise AssertionError("verlet_run called")

    monkeypatch.setattr(sympb.kernels, "verlet_run", no_stepping)
    cfg = IntegratorConfig(h=5e-324, t_final=1e-300, monitor_stride=stride)
    assert cfg.nsteps > 2**63
    with pytest.raises(ValueError, match=f"above the limit {limit} = "):
        integrate(PARAMS, np.array([-2.0, 0.3, 0.1, 0.9, -0.2, 0.05]), cfg)


def test_no_jacobian_flag():
    rec = integrate(PARAMS, far_field_state(),
                    IntegratorConfig(h=0.1, t_final=1.0, compute_jacobian=False))
    assert rec.jacobian is None
    assert rec.symplecticity_error is None


def test_divergence_error_carries_time():
    bad = np.array([-50.0, -400.0, 0.0, 0.0])
    cfg = IntegratorConfig(h=0.01, t_final=1.0, compute_jacobian=False)
    with pytest.raises(DivergenceError) as exc:
        integrate(PARAMS, bad, cfg)
    assert exc.value.time == pytest.approx(0.1, abs=1e-12)


def test_three_dof_integration_runs():
    s0 = np.array([-50.0, 0.25, -0.2, 0.4, -0.3, 0.2])
    cfg = IntegratorConfig(h=1e-3, t_final=1.0, compute_jacobian=False)
    rec = integrate(PARAMS, s0, cfg)
    assert rec.states.shape[1] == 6
    assert rec.energy_drift <= 1e-6


# ---------------------------------------------------------------------------
# finite-difference Jacobian and symplecticity
# ---------------------------------------------------------------------------


def test_jacobian_matches_analytic_linear_map():
    # in the force-free region the time-T map is linear: q += T * M_eff p
    sj = np.array([-50.0, 40.0, 0.7, -0.3])
    cfg = IntegratorConfig(h=1e-3, t_final=1.0, compute_jacobian=True)
    rec = integrate(PARAMS, sj, cfg)
    meff = (1.0 / PARAMS.m - PARAMS.eps) * np.eye(2) + PARAMS.eps * np.ones((2, 2))
    expected = np.block([
        [np.eye(2), 1.0 * meff],
        [np.zeros((2, 2)), np.eye(2)],
    ])
    assert np.max(np.abs(rec.jacobian - expected)) <= 5e-6
    assert rec.symplecticity_error <= 1e-6


def test_symplecticity_defect_validation():
    with pytest.raises(DimensionError):
        symplecticity_defect(np.eye(3))
    with pytest.raises(DimensionError):
        symplecticity_defect(np.zeros((4, 2)))


def test_symplecticity_defect_reference_values():
    assert symplecticity_defect(np.eye(4)) == 0.0
    assert symplecticity_defect(2.0 * np.eye(4)) == 3.0
    for seed in range(5):
        s = random_symplectic(3, sigma=0.4, seed=seed)
        assert symplecticity_defect(s) <= 1e-10


# ---------------------------------------------------------------------------
# ds_crossing_times
# ---------------------------------------------------------------------------


def synthetic_record(times, xs, pxs):
    times = np.asarray(times, dtype=float)
    states = np.zeros((len(times), 4))
    states[:, 0] = xs
    states[:, 2] = pxs
    return TrajectoryRecord(
        times=times,
        states=states,
        energies=np.zeros(len(times)),
        energy_drift=0.0,
        symplecticity_error=None,
        jacobian=None,
    )


def test_crossings_monotone_pass():
    rec = synthetic_record([0.0, 1.0, 2.0], [-1.0, 1.0, 3.0], [2.0, 2.0, 2.0])
    out = ds_crossing_times(rec)
    assert out == [(0.5, "forward")]


def test_crossings_bounce_pair():
    rec = synthetic_record([0.0, 1.0, 2.0, 3.0], [-1.0, 1.0, -1.0, -3.0],
                           [2.0, 0.5, -2.0, -2.0])
    out = ds_crossing_times(rec)
    assert len(out) == 2
    assert out[0][1] == "forward" and out[1][1] == "backward"
    assert out[0][0] == 0.5 and out[1][0] == 1.5


def test_crossings_exact_touch_counted_once():
    rec = synthetic_record([0.0, 1.0, 2.0], [-1.0, 0.0, 1.0], [1.0, 1.0, 1.0])
    out = ds_crossing_times(rec)
    assert out == [(1.0, "forward")]


def test_crossings_zero_momentum_skipped():
    rec = synthetic_record([0.0, 1.0], [-1.0, 1.0], [1.0, -1.0])
    assert ds_crossing_times(rec) == []


def test_crossings_none_when_no_sign_change():
    rec = synthetic_record([0.0, 1.0, 2.0], [-3.0, -1.0, -2.0], [1.0, 1.0, -1.0])
    assert ds_crossing_times(rec) == []


def test_crossings_offset_surface():
    rec = synthetic_record([0.0, 1.0], [0.0, 2.0], [1.0, 1.0])
    assert ds_crossing_times(rec, x_star=1.0) == [(0.5, "forward")]


def test_real_trajectory_crosses_or_reflects():
    eps0 = EckartMorseParams(m=1.0, eps=0.0, A=-0.5, B=2.0, a=1.0,
                             x0=PARAMS.x0, De=1.0, aM=1.0)
    cfg = IntegratorConfig(h=1e-3, t_final=20.0, compute_jacobian=False)
    # barrier height (A+B)^2/(4B) = 0.28125; x-energy 0.405 clears it
    rec = integrate(eps0, np.array([-5.0, 0.0, 0.9, 0.0]), cfg)
    out = ds_crossing_times(rec)
    assert len(out) == 1
    assert out[0][1] == "forward"
    assert 6.0 <= out[0][0] <= 7.5
    # x-energy 0.08 reflects
    rec = integrate(eps0, np.array([-5.0, 0.0, 0.4, 0.0]), cfg)
    assert ds_crossing_times(rec) == []


# ---------------------------------------------------------------------------
# batched energy
# ---------------------------------------------------------------------------


def oracle_energies(p, states):
    """Energies of an (m, 2d) array of states, row-vectorized: a separate copy
    of the formula that full_hamiltonian must match bit for bit."""
    states = np.asarray(states, dtype=float)
    d = states.shape[1] // 2
    q = states[:, :d]
    mom = states[:, d:]
    s = mom.sum(axis=1)
    pp = np.einsum("ij,ij->i", mom, mom)
    kin = pp / (2.0 * p.m) + 0.5 * p.eps * (s * s - pp)
    pot = eckart_potential(p, q[:, 0])
    for i in range(1, d):
        pot = pot + morse_potential(p, q[:, i])
    return kin + pot


FIXED_STATES = {
    2: [[-50.0, 0.3, 0.4, -0.2], [-5.0, 0.1, 0.9, 0.0], [0.5, -0.2, 0.1, 0.3]],
    3: [[-50.0, 0.3, 0.1, 0.4, -0.2, 0.0], [-5.0, 0.1, -0.4, 0.9, 0.0, 0.2]],
}


def test_full_hamiltonian_batch_matches_oracle():
    for d in (2, 3):
        rng = np.random.default_rng(40 + d)
        states = np.concatenate([FIXED_STATES[d], rng.uniform(-3.0, 3.0, size=(2000, 2 * d))])
        want = oracle_energies(PARAMS, states).view(np.int64)
        got = full_hamiltonian(PARAMS, states)
        assert got.shape == (len(states),)
        assert np.array_equal(got.view(np.int64), want)
        rows = np.array([full_hamiltonian(PARAMS, row) for row in states])
        assert np.array_equal(rows.view(np.int64), want)
        assert isinstance(full_hamiltonian(PARAMS, states[0]), float)
        # any leading shape, each row as on its own
        got = full_hamiltonian(PARAMS, states[:2000].reshape(40, 50, 2 * d))
        assert np.array_equal(got.ravel().view(np.int64), want[:2000])


def test_integrate_energies_match_oracle():
    rec = integrate(PARAMS, np.array([-2.0, 0.3, 0.9, -0.2]), IntegratorConfig(h=1e-2, t_final=2.0))
    assert np.array_equal(rec.energies.view(np.int64),
                          oracle_energies(PARAMS, rec.states).view(np.int64))


# ---------------------------------------------------------------------------
# integrate on the batched Verlet loop
# ---------------------------------------------------------------------------


def oracle_jacobian(params, state0, cfg):
    state0 = np.asarray(state0, dtype=float)
    dim = state0.size
    nsteps = max(1, int(round(cfg.t_final / cfg.h)))

    def final_state(z):
        qs, ps, bad = oracle_run(params, z[: dim // 2], z[dim // 2:], cfg.h, nsteps, nsteps)
        assert bad == -1
        return np.concatenate([qs[-1], ps[-1]])

    jac = np.empty((dim, dim))
    for col in range(dim):
        zp = state0.copy()
        zm = state0.copy()
        zp[col] += cfg.fd_epsilon
        zm[col] -= cfg.fd_epsilon
        jac[:, col] = (final_state(zp) - final_state(zm)) / (2.0 * cfg.fd_epsilon)
    return jac


def test_integrate_states_match_oracle():
    state0 = np.array([-2.0, 0.3, 0.1, 0.9, -0.2, 0.05])
    rec = integrate(PARAMS, state0, IntegratorConfig(h=1e-3, t_final=0.5, monitor_stride=30,
                                                     compute_jacobian=False))
    qo, po, _ = oracle_run(PARAMS, state0[:3], state0[3:], 1e-3, 500, 30)
    assert rec.states.tobytes() == np.hstack([qo, po]).tobytes()


STATES = (np.array([-2.0, 0.3, 0.9, -0.2]), np.array([-0.5, 0.25, -0.2, 0.4, -0.3, 0.2]))


def test_integrate_jacobian_rows_match_oracles():
    # the trajectory and its 4d displaced rows run as one batch
    for state0 in STATES:
        cfg = IntegratorConfig(h=1e-3, t_final=0.3, monitor_stride=7)
        rec = integrate(PARAMS, state0, cfg)
        alone = integrate(PARAMS, state0, IntegratorConfig(h=1e-3, t_final=0.3, monitor_stride=7,
                                                           compute_jacobian=False))
        assert rec.states.tobytes() == alone.states.tobytes()
        assert rec.energies.tobytes() == alone.energies.tobytes()
        assert rec.jacobian.flags.c_contiguous
        assert rec.jacobian.tobytes() == oracle_jacobian(PARAMS, state0, cfg).tobytes()


def test_integrate_one_batch_one_gradient_per_step(monkeypatch):
    # the loop binds the gradient once and calls it once per step
    calls = {"verlet_run": 0, "grad_fn": 0, "grad": 0}
    real_run, real_grad_fn = kernels.verlet_run, kernels._grad_fn

    def counting_run(*args):
        calls["verlet_run"] += 1
        return real_run(*args)

    def counting_grad_fn(*args):
        calls["grad_fn"] += 1
        grad = real_grad_fn(*args)

        def counting_grad():
            calls["grad"] += 1
            grad()

        return counting_grad

    monkeypatch.setattr(kernels, "verlet_run", counting_run)
    monkeypatch.setattr(kernels, "_grad_fn", counting_grad_fn)
    rec = integrate(PARAMS, STATES[1], IntegratorConfig(h=1e-3, t_final=0.25))
    assert rec.jacobian.shape == (6, 6)
    assert calls == {"verlet_run": 1, "grad_fn": 1, "grad": 250 + 1}


def test_integrate_auxiliary_divergence_time():
    # fd_epsilon 400 sends the row displacing q2 by -400 into Morse overflow
    state0 = STATES[0]
    cfg = IntegratorConfig(h=1e-3, t_final=0.5, monitor_stride=30, fd_epsilon=400.0)
    zm = state0.copy()
    zm[1] -= cfg.fd_epsilon
    _, _, bad = oracle_run(PARAMS, zm[:2], zm[2:], cfg.h, 500, cfg.monitor_stride)
    assert bad >= 1
    with pytest.raises(DivergenceError) as exc:
        integrate(PARAMS, state0, cfg)
    assert str(exc.value).startswith("auxiliary trajectory became non-finite at t = ")
    assert exc.value.time == bad * cfg.monitor_stride * cfg.h
    assert exc.value.time < cfg.t_final


def test_integrate_main_divergence_with_jacobian():
    cfg = IntegratorConfig(h=0.01, t_final=1.0)
    with pytest.raises(DivergenceError) as exc:
        integrate(PARAMS, np.array([-50.0, -400.0, 0.0, 0.0]), cfg)
    assert str(exc.value) == "state became non-finite at t = 0.1"
    assert exc.value.time == pytest.approx(0.1, abs=1e-12)
