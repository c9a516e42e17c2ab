"""Closed-form oracles shared by the tests.

The quadratic saddle-centre(-centre) model ``K = e0 + lam*I + sum_k
omega_k*J_k`` is the linear ``CnfModel``; at I = 0 its admissible bath
actions ``{J >= 0 : K(0, J) <= E}`` form a simplex with a closed-form volume.
``term_sum`` is the reference for the compiled term tables of any CnfModel.
``oracle_run`` is the one-trajectory Verlet loop the batched kernel
replaced, kept as it was, and ``PARAM_SETS`` the Eckart-Morse parameters the
gradient and Verlet oracle tests run on.
"""

import math

import numpy as np

from sympb import CnfModel, EckartMorseParams, FluxReport, default_params


def linear_cnf(lam, omegas, e0):
    """The linear CnfModel ``e0 + lam*I + sum_k omegas[k]*J_k``."""
    nb = len(omegas)
    zero = (0,) * nb
    terms = [(0, zero, e0), (1, zero, lam)]
    for k, w in enumerate(omegas):
        unit = tuple(1 if i == k else 0 for i in range(nb))
        terms.append((0, unit, w))
    return CnfModel(e0=e0, terms=tuple(terms))


def simplex_flux(model: CnfModel, e: float) -> FluxReport:
    """Exact simplex volume and flux of a linear model at energy ``e >= e0``.

    ``V = (e - e0)^(n-1) / ((n-1)! prod_k omega_k)`` and
    ``phi = (2 pi)^(n-1) V``.
    """
    assert e >= model.e0
    nb = model.n_bath
    volume = (e - model.e0) ** nb / (math.factorial(nb) * float(np.prod(model.omegas)))
    return FluxReport(e=float(e), volume=volume, flux=(2.0 * math.pi) ** nb * volume,
                      mc_samples=0, std_error=0.0)


def term_sum(model: CnfModel, i, j, order: int):
    """Reference sum of the ``order``-th I-derivative (0 or 1) of every term
    of ``model.terms``, deciding per term and per call whether it counts.

    ``j`` has shape ``(..., n_bath)``; ``i = None`` evaluates at I = 0 by
    keeping only the terms whose I power equals ``order`` (K(0, J) for order
    0, Lambda(J) for order 1).  Each term is built by repeated
    multiplication and added in term order, into zeros.
    """
    j = np.asarray(j, dtype=float)
    cols = [j[..., k] for k in range(model.n_bath)]
    total = np.zeros(np.broadcast_shapes(np.shape(i), j.shape[:-1]))
    for i_pow, j_pows, coeff in model.terms:
        if i_pow < order or (i is None and i_pow != order):
            continue
        v = coeff * i_pow if order else coeff
        for _ in range(i_pow - order):
            v = v * i
        for col, p in zip(cols, j_pows):
            for _ in range(p):
                v = v * col
        total += v
    return total


PARAM_SETS = {
    "default": default_params(),
    "other": EckartMorseParams(A=-0.2, B=1.5, a=0.7, x0=0.3, De=0.8, aM=1.3),
    "negative_eps": EckartMorseParams(m=1.3, eps=-0.2, A=0.4, B=2.5, a=1.2, x0=-0.4, De=1.1,
                                      aM=0.8),
}


def logistic_py(s):
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
        u = logistic_py((q[0] + x0) / a)
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


def random_states(rng, k, d):
    q = rng.uniform(-1.5, 1.5, size=(k, d))
    p = rng.uniform(-1.0, 1.0, size=(k, d))
    return q, p
