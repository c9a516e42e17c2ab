"""End-to-end acceptance checks.

Each test prints one ``criterion N: PASS/FAIL`` line with the measured
detail and, where a runtime budget applies, the elapsed wall time.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from sympb import (
    CnfModel,
    EnsembleSpec,
    IntegratorConfig,
    action_volume_mc,
    builtin_cnf,
    default_params,
    effective_lyapunov,
    ellipsoid_capacity,
    eval_cnf,
    integrate,
    j_max_cnf,
    min_projection_area,
    random_symplectic,
    symplectic_spectrum,
    symplectic_spectrum_blockdiag,
    transmission_scan,
)
from sympb.evolution import default_tau_grid, evolved_shape_matrix

from oracles import linear_cnf, simplex_flux


@contextmanager
def criterion(num, budget=None):
    info = {"detail": "ok"}
    t0 = time.perf_counter()
    try:
        yield info
        elapsed = time.perf_counter() - t0
        if budget is not None and elapsed >= budget:
            raise AssertionError(
                f"runtime {elapsed:.2f}s exceeds the {budget}s budget"
            )
    except BaseException as exc:
        print(f"criterion {num}: FAIL - {exc}")
        raise
    timing = f"; {elapsed:.2f}s < {budget}s" if budget is not None else ""
    print(f"criterion {num}: PASS - {info['detail']}{timing}")


def random_pd(rng, n, floor=0.5):
    g = rng.normal(size=(n, n))
    return g @ g.T + floor * np.eye(n)


def test_criterion_1_capacity_normalization():
    # capacity of a ball: tolerance 1e-10 relative, budget 1 s
    with criterion(1, budget=1.0) as info:
        worst = 0.0
        for r in (0.5, 1.0, 2.0):
            for n in (1, 2, 3):
                cap = ellipsoid_capacity(np.eye(2 * n) / r**2)
                worst = max(worst, abs(cap - math.pi * r * r) / (math.pi * r * r))
        assert worst <= 1e-10
        info["detail"] = f"ball capacity max rel err {worst:.2e} (tol 1e-10)"


def test_criterion_2_williamson_cross_check():
    # 200 block-diagonal spectra vs the AB shortcut and 50 symplectic
    # conjugations: tolerance 1e-8 relative, budget 10 s
    with criterion(2, budget=10.0) as info:
        rng = np.random.default_rng(2024)
        worst_block = 0.0
        for _ in range(200):
            n = int(rng.integers(1, 5))
            a = random_pd(rng, n)
            b = random_pd(rng, n)
            m = np.block([
                [a, np.zeros((n, n))],
                [np.zeros((n, n)), b],
            ])
            s1 = symplectic_spectrum(m)
            s2 = symplectic_spectrum_blockdiag(a, b)
            worst_block = max(worst_block, float(np.max(np.abs(s1 - s2) / s1)))
        assert worst_block <= 1e-8
        worst_conj = 0.0
        for i in range(50):
            n = int(rng.integers(1, 5))
            m = random_pd(rng, 2 * n)
            s = random_symplectic(n, sigma=0.6, seed=10_000 + i)
            ref = symplectic_spectrum(m)
            got = symplectic_spectrum(s.T @ m @ s)
            worst_conj = max(worst_conj, float(np.max(np.abs(got - ref) / ref)))
        assert worst_conj <= 1e-8
        info["detail"] = (
            f"blockdiag max rel err {worst_block:.2e}, "
            f"conjugation max rel err {worst_conj:.2e} (tol 1e-8)"
        )


def test_criterion_3_quadratic_width_formulas():
    # linear widths, quadratic-in-action closed form, and the small-alpha
    # limit; tolerances 1e-10, 1e-10, 1e-6
    with criterion(3) as info:
        worst_lin = 0.0
        for lam, omegas, e0 in (
            (0.7350, (1.8225,), -0.9875),
            (0.7350, (1.8225, 1.267), -0.9875),
            (1.3, (0.4, 2.6, 0.9), 0.25),
        ):
            model = linear_cnf(lam, omegas, e0)
            for e in np.linspace(e0 + 0.01, e0 + 4.0, 100):
                for k, w in enumerate(omegas, start=2):
                    expected = (e - e0) / w
                    got = j_max_cnf(model, float(e), k)
                    worst_lin = max(worst_lin, abs(got - expected) / expected)
        assert worst_lin <= 1e-10

        def quad_model(omega, alpha):
            return CnfModel(
                e0=0.0,
                terms=((0, (0,), 0.0), (1, (0,), 1.0), (0, (1,), omega), (0, (2,), alpha)),
            )

        worst_quad = 0.0
        omega = 1.8225
        for alpha in (2.0, 0.5, 0.05):
            model = quad_model(omega, alpha)
            for de in (0.1, 1.0, 3.0):
                root = (-omega + math.sqrt(omega**2 + 4 * alpha * de)) / (2 * alpha)
                got = j_max_cnf(model, de, 2)
                worst_quad = max(worst_quad, abs(got - root) / root)
        assert worst_quad <= 1e-10

        tiny = quad_model(omega, 1e-8)
        de = 1.0
        limit_err = abs(j_max_cnf(tiny, de, 2) - de / omega) / (de / omega)
        assert limit_err <= 1e-6
        info["detail"] = (
            f"linear rel err {worst_lin:.2e}, closed-form rel err {worst_quad:.2e}, "
            f"alpha=1e-8 limit err {limit_err:.2e}"
        )


def test_criterion_4_flux_oracle():
    # MC flux vs analytic simplex flux at 1e6 samples, 5 energies, both
    # built-in dimensionalities; 3*std_error (plus a 1e-10 absolute floor
    # for the degenerate 2-DoF case where std_error is exactly 0) and 1%
    # relative; std_error halves (within 20%) per 4x samples; budget 30 s
    with criterion(4, budget=30.0) as info:
        energies = np.linspace(0.2, 1.8, 5)
        worst_rel = 0.0
        for n_dof in (2, 3):
            lam, omegas, e0 = 0.7350, (1.8225, 1.267)[: n_dof - 1], -0.9875
            cnf = linear_cnf(lam, omegas, e0)
            for i, e in enumerate(energies):
                mc = action_volume_mc(cnf, float(e), samples=1_000_000, seed=500 + i)
                exact = simplex_flux(cnf, float(e))
                scaled_std = 3.0 * (2.0 * math.pi) ** (n_dof - 1) * mc.std_error
                tol = scaled_std + 1e-10 * max(abs(exact.flux), 1.0)
                assert abs(mc.flux - exact.flux) <= tol
                rel = abs(mc.flux - exact.flux) / exact.flux
                worst_rel = max(worst_rel, rel)
                assert rel <= 0.01
        cnf3 = linear_cnf(0.7350, (1.8225, 1.267), -0.9875)
        std_small = action_volume_mc(cnf3, 1.0, samples=250_000, seed=901).std_error
        std_big = action_volume_mc(cnf3, 1.0, samples=1_000_000, seed=902).std_error
        ratio = std_big / std_small
        assert 0.4 <= ratio <= 0.6
        info["detail"] = (
            f"flux max rel err {worst_rel:.2e} (within 3*std and 1%), "
            f"std ratio per 4x samples {ratio:.3f} in [0.4, 0.6]"
        )


def test_criterion_5_projection_area_floor():
    # 20 mixers x radii {0.05, 0.1, 0.2, 0.4}: min-area floor pi r^2 - 1e-9,
    # unmixed tau=0 equality at 1e-6 relative, evolved capacity pi r^2 at
    # 1e-8 relative; budget 30 s
    with criterion(5, budget=30.0) as info:
        model = linear_cnf(0.7350, (1.8225, 1.267), -0.9875)
        grid = default_tau_grid(model)
        radii = (0.05, 0.1, 0.2, 0.4)
        min_margin = math.inf
        worst_cap = 0.0
        for seed in range(20):
            s_mix = random_symplectic(model.n_dof, sigma=0.5, seed=seed)
            for r in radii:
                floor = math.pi * r * r
                curve = min_projection_area(model, r, s_mix, grid)
                assert curve.min_area >= floor - 1e-9
                min_margin = min(min_margin, curve.min_area - floor)
                m_ev = evolved_shape_matrix(model, r, s_mix, tau=1.7)
                cap = math.pi / float(np.max(symplectic_spectrum(m_ev)))
                worst_cap = max(worst_cap, abs(cap - floor) / floor)
                assert worst_cap <= 1e-8
        worst_unmixed = 0.0
        for r in radii:
            a0 = min_projection_area(model, r, np.eye(2 * model.n_dof), [0.0]).min_area
            worst_unmixed = max(worst_unmixed, abs(a0 - math.pi * r * r) / (math.pi * r * r))
        assert worst_unmixed <= 1e-6
        info["detail"] = (
            f"min area margin {min_margin:.2e} >= -1e-9, unmixed tau=0 rel err "
            f"{worst_unmixed:.2e}, evolved capacity rel err {worst_cap:.2e}"
        )


def test_criterion_6_transmission_suppression():
    # N=5000 per ensemble, t_max = 5/lambda: baseline fraction >= 0.9,
    # kind-B fractions non-increasing within 3 sigma binomial noise, and
    # exactly zero at xi=1 with a zero-width energy window; budget 20 s
    with criterion(6, budget=20.0) as info:
        model = builtin_cnf(3)
        xis = [round(0.1 * i, 1) for i in range(11)]
        spec = EnsembleSpec(n_traj=5000, e_center=0.0, delta_e=0.01 * 0.9875, seed=2718)
        results = transmission_scan(model, spec, xis)
        base = results[0]
        assert base.kind == "A"
        assert base.fraction >= 0.9
        fractions = [res.fraction for res in results[1:]]
        n = spec.n_traj
        for a, b in zip(fractions, fractions[1:]):
            sigma = math.sqrt(max(a * (1.0 - a), 1.0 / n) / n)
            assert b <= a + 3.0 * sigma
        spec0 = EnsembleSpec(n_traj=5000, e_center=0.0, delta_e=0.0, seed=2718)
        endpoint = transmission_scan(model, spec0, [1.0])[1].fraction
        assert endpoint == 0.0
        info["detail"] = (
            f"baseline fraction {base.fraction:.3f} >= 0.9, B fractions "
            f"{fractions[0]:.3f}..{fractions[-1]:.3f} non-increasing, "
            f"xi=1 dE=0 fraction == 0 exactly"
        )


def test_criterion_7_integrator_health():
    # built-in parameters, second-order energy drift at t_final=100 and a
    # time-10 finite-difference Jacobian with symplecticity defect < 1e-6;
    # budget 60 s
    with criterion(7, budget=60.0) as info:
        params = default_params()
        state0 = np.array([-50.0, 0.25, -0.2, 0.4, -0.3, 0.2])
        drifts = {}
        for h in (1e-3, 5e-4):
            cfg = IntegratorConfig(h=h, t_final=100.0, monitor_stride=100,
                                   compute_jacobian=False)
            rec = integrate(params, state0, cfg)
            assert np.isfinite(rec.energy_drift)
            drifts[h] = rec.energy_drift
        ratio = drifts[1e-3] / drifts[5e-4]
        assert 3.5 <= ratio <= 4.5
        cfg = IntegratorConfig(h=1e-3, t_final=10.0, compute_jacobian=True)
        rec = integrate(params, state0, cfg)
        assert rec.symplecticity_error < 1e-6
        info["detail"] = (
            f"drift ratio {ratio:.4f} in [3.5, 4.5], time-10 Jacobian "
            f"symplecticity defect {rec.symplecticity_error:.2e} < 1e-6"
        )


def test_criterion_8_builtin_coefficients():
    # stored normal-form constants reproduced exactly
    with criterion(8) as info:
        model = builtin_cnf(3)
        nb = model.n_bath
        assert eval_cnf(model, 0.0, (0.0,) * nb) == -0.9875
        assert model.lam == 0.7350
        assert effective_lyapunov(model, (0.0,) * nb) == 0.7350
        assert model.coefficient(0, (1, 0)) == 1.8225
        assert model.coefficient(1, (1, 0)) == -0.0123
        assert model.coefficient(0, (0, 1)) == 1.267
        info["detail"] = (
            "e0 -0.9875, lambda 0.7350, omega2 1.8225, b2 -0.0123, "
            "omega3 1.267 all exact"
        )
