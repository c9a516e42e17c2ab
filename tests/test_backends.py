import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sympb
from sympb import (
    CnfModel,
    DivergenceError,
    IntegratorConfig,
    action_volume_mc,
    builtin_cnf,
    default_params,
    integrate,
    kernels,
)
from sympb import bottleneck
from sympb.bottleneck import BRACKET_CAP, MC_BLOCK, MC_CHUNK

from oracles import linear_cnf

PARAMS = default_params()


# ---------------------------------------------------------------------------
# Reference oracles: the term-table counter and the one-trajectory Verlet
# loop the kernels replaced, kept verbatim.
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


def _logistic_py(s):
    if s >= 0.0:
        return 1.0 / (1.0 + math.exp(-s))
    es = math.exp(s)
    return es / (1.0 + es)


def verlet_run_oracle(q0, p0, h, nsteps, stride, m, eps, big_a, big_b, a, x0, de, am):
    q = np.array(q0, dtype=np.float64)
    p = np.array(p0, dtype=np.float64)
    d = q.shape[0]
    extra = 1 if nsteps % stride != 0 else 0
    nrec = nsteps // stride + 1 + extra
    qs = np.empty((nrec, d))
    ps = np.empty((nrec, d))
    g = np.empty(d)
    half_h = 0.5 * h

    def grad():
        u = _logistic_py((q[0] + x0) / a)
        g[0] = u * (1.0 - u) * (big_a + big_b * (1.0 - 2.0 * u)) / a
        e = np.exp(-am * q[1:])
        g[1:] = 2.0 * de * am * (e - e * e)

    qs[0] = q
    ps[0] = p
    rec = 1
    bad = -1
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, nsteps + 1):
            grad()
            p -= half_h * g
            s = p.sum()
            q += h * (p / m + eps * (s - p))
            grad()
            p -= half_h * g
            if step % stride == 0 or step == nsteps:
                qs[rec] = q
                ps[rec] = p
                rec += 1
                if not (np.all(np.isfinite(q)) and np.all(np.isfinite(p))):
                    bad = rec - 1
                    break
    return qs[:rec], ps[:rec], bad


def oracle_run(params, q0, p0, h, nsteps, stride):
    return verlet_run_oracle(q0, p0, h, nsteps, stride, params.m, params.eps, params.A,
                             params.B, params.a, params.x0, params.De, params.aM)


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


def random_states(rng, k, d):
    q = rng.uniform(-1.5, 1.5, size=(k, d))
    p = rng.uniform(-1.0, 1.0, size=(k, d))
    return q, p


# ---------------------------------------------------------------------------
# The batched gradient against a per-element scalar oracle
# ---------------------------------------------------------------------------


def grad_potential_oracle(params, q):
    """The gradient one element at a time: ``_logistic_py`` on the reactive
    coordinate, numpy's ``exp`` of one float on each Morse coordinate."""
    q = np.asarray(q, dtype=float)
    g = np.empty(q.shape)
    big_a, big_b, a = params.A, params.B, params.a
    for idx in np.ndindex(q.shape[:-1]):
        u = _logistic_py((float(q[idx + (0,)]) + params.x0) / a)
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


@pytest.mark.parametrize("params", [PARAMS, sympb.EckartMorseParams(
    A=-0.2, B=1.5, a=0.7, x0=0.3, De=0.8, aM=1.3)], ids=["default", "other"])
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
# Monte-Carlo membership counting
# ---------------------------------------------------------------------------


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


def test_count_box_hits_trivial_cases():
    # K(0, J) = J: the I term vanishes on the dividing surface
    model = CnfModel(e0=0.0, terms=((0, (0,), 0.0), (1, (0,), 1.0), (0, (1,), 1.0)))
    j_samples = np.array([[0.5], [1.5]])
    # J <= 1.0 admits only the first row
    assert kernels.count_box_hits(model, j_samples, 1.0) == 1
    assert kernels.count_box_hits(model, j_samples, 2.0) == 2
    assert kernels.count_box_hits(model, j_samples, 0.1) == 0


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
    drawn = []

    def capture(model, js, e):
        drawn.append(js.copy())
        return 0

    monkeypatch.setattr(kernels, "count_box_hits", capture)
    rng = np.random.default_rng(31)
    for nb in (1, 2, 3):
        model = linear_cnf(0.5, [1.0] * nb, -1.0)
        boxes = [(1e-300,) * nb, (BRACKET_CAP,) * nb,
                 tuple(10.0 ** rng.uniform(-300.0, 12.0, size=nb)),
                 tuple(rng.uniform(0.1, 5.0, size=nb))]
        for box in boxes:
            # chunk layouts [1], [4097], [MC_BLOCK + 1], [MC_CHUNK],
            # [MC_CHUNK, MC_CHUNK, 4097] and [MC_CHUNK, MC_CHUNK, MC_BLOCK + 4097];
            # a chunk is drawn in blocks of at most MC_BLOCK rows, concatenated
            # here per chunk
            for samples in (1, 4097, MC_BLOCK + 1, MC_CHUNK, 2 * MC_CHUNK + 4097,
                            2 * MC_CHUNK + MC_BLOCK + 4097):
                drawn.clear()
                bottleneck._count_volume(model, 0.0, box, samples, 5)
                n_chunks = -(-samples // MC_CHUNK)
                children = np.random.SeedSequence(5).spawn(n_chunks)
                sizes = [min(MC_CHUNK, samples - MC_CHUNK * i) for i in range(n_chunks)]
                assert [len(js) for js in drawn] == [
                    min(MC_BLOCK, m - start) for m in sizes for start in range(0, m, MC_BLOCK)]
                blocks = iter(drawn)
                for child, m in zip(children, sizes):
                    js = np.concatenate([next(blocks) for _ in range(0, m, MC_BLOCK)])
                    want = np.random.default_rng(child).uniform(0.0, np.array(box), size=(m, nb))
                    assert js.shape == want.shape
                    assert js.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# Batched Verlet loop
# ---------------------------------------------------------------------------


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
    calls = {"verlet_run": 0, "grad_potential": 0}
    real_run, real_grad = kernels.verlet_run, kernels.grad_potential

    def counting_run(*args):
        calls["verlet_run"] += 1
        return real_run(*args)

    def counting_grad(params, q):
        calls["grad_potential"] += 1
        return real_grad(params, q)

    monkeypatch.setattr(kernels, "verlet_run", counting_run)
    monkeypatch.setattr(kernels, "grad_potential", counting_grad)
    rec = integrate(PARAMS, STATES[1], IntegratorConfig(h=1e-3, t_final=0.25))
    assert rec.jacobian.shape == (6, 6)
    assert calls == {"verlet_run": 1, "grad_potential": 250 + 1}


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
