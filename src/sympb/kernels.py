"""Hot numeric kernels.

Two loops dominate runtime: Monte-Carlo membership counting for action-space
volumes and the Stormer-Verlet integration loop.  The Verlet loop steps a
batch of trajectories together and evaluates the potential gradient once per
step; each row gives the same values, bit for bit, as a batch of one.
"""

from __future__ import annotations

import numpy as np

from .models import (
    CnfModel,
    EckartMorseParams,
    _term_sum,
    grad_potential,
    velocities,
)

__all__ = ["count_box_hits", "verlet_run"]


def count_box_hits(model: CnfModel, j_samples, e: float) -> int:
    """Number of rows ``J`` of ``j_samples`` (shape ``(m, n_bath)``) with
    ``K(0, J) <= e``.

    Only the I-free terms are evaluated: at I = 0 a term that carries I adds
    +/-0.0 for finite J, so the count equals that of the whole polynomial.
    """
    return int(np.count_nonzero(_term_sum(model, None, j_samples, 0) <= e))


def verlet_run(params: EckartMorseParams, q0, p0, h: float, nsteps: int, stride: int):
    """Kick-drift-kick Stormer-Verlet for a batch of trajectories.

    ``q0`` and ``p0`` hold ``k`` start states, shape ``(k, d)``.  States are
    recorded at step 0, every ``stride`` steps and at step ``nsteps``.

    Returns ``(qs, ps, bad)``: records of shape ``(nrec, k, d)`` and the index
    of the first record at which any row is non-finite (the records stop
    there), or -1.

    The gradient is evaluated once before the loop and once per step: the
    closing half-kick of a step and the opening half-kick of the next one
    act at the same ``q``, so they share it (first same as last).  The two
    half-kicks stay separate updates, which keeps the bits of two gradient
    evaluations per step.
    """
    q = np.array(q0, dtype=np.float64)
    p = np.array(p0, dtype=np.float64)
    nrec = nsteps // stride + 1 + (1 if nsteps % stride else 0)
    qs = np.empty((nrec,) + q.shape)
    ps = np.empty((nrec,) + p.shape)
    qs[0] = q
    ps[0] = p
    half_h = 0.5 * h
    rec = 1
    # overflow to inf/nan is detected at record points, not raised
    with np.errstate(over="ignore", invalid="ignore"):
        g = grad_potential(params, q)
        for step in range(1, nsteps + 1):
            p -= half_h * g
            q += h * velocities(params, p)
            g = grad_potential(params, q)
            p -= half_h * g
            if step % stride == 0 or step == nsteps:
                qs[rec] = q
                ps[rec] = p
                rec += 1
                if not (np.isfinite(q).all() and np.isfinite(p).all()):
                    return qs[:rec], ps[:rec], rec - 1
    return qs, ps, -1
