"""Closed-form oracles shared by the tests.

The quadratic saddle-centre(-centre) model ``K = e0 + lam*I + sum_k
omega_k*J_k`` is the linear ``CnfModel``; at I = 0 its admissible bath
actions ``{J >= 0 : K(0, J) <= E}`` form a simplex with a closed-form volume.
``term_sum`` is the reference for the compiled term tables of any CnfModel.
"""

import math

import numpy as np

from sympb import CnfModel, FluxReport


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
