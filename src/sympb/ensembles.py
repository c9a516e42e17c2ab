"""Finite-time transmission experiments on the truncated normal form.

An ensemble draws its bath action J_2 uniformly from a band
``[xi J2max(E'), J2max(E')]`` of the admissible interval: the localization
``xi = 0`` is the unbiased ensemble A, and ``xi > 0`` pushes the actions
toward the maximum (ensemble B).  Bands sampled together share their
per-point draws.  Each initial condition starts in the forward-reactive
half-space (Q_1 < 0 < P_1) at an energy drawn from a narrow window, and is
transmitted when the closed-form reactive coordinate Q_1(t) has crossed zero
by t_max.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .bottleneck import j_max_cnf
from .errors import BelowSaddleError, ConvergenceError, SamplingError, _elements, _finite, _integer
from .kernels import substream_uniforms
from .models import CnfModel, effective_lyapunov, eval_cnf, eval_dk_di, eval_k0
from .tables import ExperimentReport

__all__ = [
    "EnsembleSpec",
    "Ensemble",
    "TransmissionResult",
    "sample_ensemble",
    "transmit",
    "transmission_scan",
    "default_t_max",
    "default_delta_e",
    "scan_report",
]

# Q_1 is drawn from [-q1_range, -Q1_DELTA]: strictly negative.
Q1_DELTA = 1e-9
# I' in [0, I_CLAMP_RTOL max(|E'|, 1)] is snapped to zero, and so is an I' < 0
# whose energy deficit is within the J2max root's overshoot plus that level.
I_CLAMP_RTOL = 1e-12
# Newton steps allowed when K has I powers above one.
NEWTON_STEPS = 50
# transmit's knife-edge band, relative and absolute: far wider than the few-ulp
# gap between numpy's cosh/sinh and math's, and (the smallest normal double)
# than the rounding of products that underflow.
_EDGE_RTOL = 1e-12
_EDGE_ATOL = 2.0**-1022


@dataclass(frozen=True)
class EnsembleSpec:
    """Sampling parameters for one ensemble; ``errors._finite`` also refuses
    window ends ``e_center -/+ delta_e`` or a ``q1_range^2`` that overflow."""

    n_traj: int
    e_center: float
    delta_e: float
    seed: int
    q1_range: float = 1.0

    def __post_init__(self):
        # n_traj is the point count and the fraction's denominator, seed the
        # entropy of the substreams; frozen, and kept as ints for the reports
        self.__dict__.update(n_traj=_integer(self.n_traj, "n_traj", 1),
                             seed=_integer(self.seed, "seed", 0))
        e_center, delta_e, q1_range = (_finite(getattr(self, name), name)
                                       for name in ("e_center", "delta_e", "q1_range"))
        if delta_e < 0:
            raise ValueError(f"delta_e must be >= 0, got {self.delta_e}")
        _finite(e_center - delta_e, "energy window end e_center - delta_e")
        _finite(e_center + delta_e, "energy window end e_center + delta_e")
        if not q1_range > Q1_DELTA:
            raise ValueError(f"q1_range must be > {Q1_DELTA}, got {self.q1_range}")
        # P_1 = sqrt(Q_1^2 + 2 I') needs a finite Q_1^2
        _finite(q1_range * q1_range, "q1_range^2")


@dataclass(frozen=True, eq=False)
class Ensemble:
    """Phase-space points in rotated normal-form coordinates, as arrays.

    ``q1`` and ``p1`` have shape ``(..., n)``, ``j`` and ``phases`` shape
    ``(..., n, n_bath)`` and ``energy`` shape ``(n,)``: the leading axes run
    over ensembles that share their per-point draws; other shapes raise
    ValueError.  Every point lies in the forward-reactive half-space Q1 < 0 < P1.
    """

    q1: np.ndarray
    p1: np.ndarray
    j: np.ndarray
    phases: np.ndarray
    energy: np.ndarray

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, np.asarray(getattr(self, f.name), dtype=float))
        n = self.q1.shape
        if (self.p1.shape, self.j.shape[:-1], self.phases.shape, self.energy.shape) != (
                n, n, self.j.shape, n[-1:]):
            got = ", ".join(f"{f.name} {getattr(self, f.name).shape}" for f in fields(self))
            raise ValueError(f"ensemble needs q1, p1 (..., n), j, phases (..., n, n_bath) "
                             f"and energy (n,), got {got}")
        _check_half_space(self.q1, self.p1)


@dataclass(frozen=True)
class TransmissionResult:
    """One band's transmitted count; the baseline (ensemble A) has xi = nan."""

    xi: float
    fraction: float
    n_transmitted: int
    n_total: int
    t_max: float

    @property
    def kind(self) -> str:
        """The report's label: "A" for the baseline, "B" for a band of the sweep."""
        return "A" if math.isnan(self.xi) else "B"


def default_t_max(model: CnfModel) -> float:
    """Observation horizon 5/lambda."""
    return 5.0 / model.lam


def default_delta_e(model: CnfModel, e_center: float) -> float:
    """Default half-width of the energy window: 1% of the excess energy;
    ``e_center`` is a finite number."""
    return 0.01 * (_finite(e_center, "e_center") - model.e0)


def _solve_reactive_integral(model: CnfModel, e_target, j):
    """Solve K(I, J) = e_target for I at fixed bath actions, pointwise.

    ``j`` holds one point (shape ``(n_bath,)``) or a batch (``(..., n_bath)``)
    and ``e_target`` broadcasts against ``j.shape[:-1]``.  The linear-in-I
    estimate is exact for the built-in truncations; a short Newton polish
    handles coefficient tables with higher I powers.
    """
    lam_j = effective_lyapunov(model, j)
    i_val = (e_target - eval_k0(model, j)) / lam_j
    if model.dk_terms != model.lam_terms:  # dK/dI depends on I
        i_val = _newton_polish(model, e_target, j, i_val)
    return i_val


def _newton_polish(model: CnfModel, e_target, j, i_val):
    """Newton steps on K(I, J) = e_target, each point stopping at its own first
    iterate with |K - e_target| <= 1e-14 max(|e_target|, 1).

    Raises
    ------
    ConvergenceError
        If a point meets dK/dI = 0, or is not converged after NEWTON_STEPS
        steps.
    """
    shape = np.shape(i_val)
    nb = model.n_bath
    e_all = np.broadcast_to(e_target, shape).ravel()
    j_all = np.broadcast_to(j, shape + (nb,)).reshape(-1, nb)
    i_all = np.array(i_val, dtype=float).ravel()
    idx = np.arange(i_all.size)
    for step in range(NEWTON_STEPS + 1):
        e_idx = e_all[idx]
        f = eval_cnf(model, i_all[idx], j_all[idx]) - e_idx
        live = ~(np.abs(f) <= 1e-14 * np.maximum(np.abs(e_idx), 1.0))
        idx, f = idx[live], f[live]
        if idx.size == 0:
            return i_all.reshape(shape)[()]
        if step == NEWTON_STEPS:
            reason = f"not converged after {NEWTON_STEPS} Newton steps"
            break
        df = eval_dk_di(model, i_all[idx], j_all[idx])
        flat = df == 0.0
        if flat.any():
            idx = idx[flat]
            reason = "dK/dI = 0 at a Newton iterate"
            break
        i_all[idx] -= f / df
    k = idx[0]
    raise ConvergenceError(
        f"reaction integral: {reason} solving K(I, J) = E' at "
        f"E' = {float(e_all[k])!r}, J = {j_all[k].tolist()}"
    )


def _uniform(lo, hi, u):
    """Map raw uniforms ``u`` in [0, 1) to [lo, hi) exactly as
    ``Generator.uniform(lo, hi)`` does: ``lo + (hi - lo) * u``."""
    return lo + (hi - lo) * u


def _clamp_reactive(model: CnfModel, i_val, energy, j, j2max):
    """Snap to zero every I' in [0, tol], tol = I_CLAMP_RTOL max(|E'|, 1), and
    every I' < 0 whose deficit Lambda(J) (-I') is at most the J2max root's
    overshoot max(K(0, J2max e_2) - E', 0) plus tol; any other negative or NaN
    I' raises SamplingError, for the first such point in row-major order.
    ``i_val`` has shape ``(..., n)``, ``j`` ``(..., n, n_bath)``, and
    ``energy`` and ``j2max`` ``(n,)``."""
    tol = I_CLAMP_RTOL * np.maximum(np.abs(energy), 1.0)
    i_val = np.where((0.0 <= i_val) & (i_val <= tol), 0.0, i_val)
    neg = np.nonzero(~(i_val >= 0.0))
    p = neg[-1]
    if not p.size:
        return i_val
    top = np.zeros((p.size, model.n_bath))
    top[:, 0] = j2max[p]
    slack = np.maximum(eval_k0(model, top) - energy[p], 0.0) + tol[p]
    bad = np.flatnonzero(~(effective_lyapunov(model, j[neg]) * -i_val[neg] <= slack))
    if bad.size:
        at = tuple(idx[bad[0]] for idx in neg)
        p = at[-1]
        raise SamplingError(
            f"I' = {float(i_val[at])!r} < 0 beyond root rounding at E' = {float(energy[p])!r}, "
            f"J_2 = {float(j[at][0])!r}, J2max = {float(j2max[p])!r}")
    i_val[neg] = 0.0
    return i_val


def _check_half_space(q1, p1) -> None:
    """Raise ValueError unless every (Q1, P1) pair has Q1 < 0 < P1."""
    q1, p1 = np.ravel(q1), np.ravel(p1)
    bad = np.flatnonzero(~((q1 < 0.0) & (0.0 < p1)))
    if bad.size:
        k = bad[0]
        raise ValueError(
            f"initial conditions live in the forward-reactive half-space "
            f"Q1 < 0 < P1, got Q1 = {float(q1[k])}, P1 = {float(p1[k])}"
        )


def sample_ensemble(model: CnfModel, spec: EnsembleSpec, xi=0.0) -> Ensemble:
    """Draw ``spec.n_traj`` initial conditions in the band ``xi``, or in each
    band of a 1-d list ``xi``, from the same per-point draws.

    Per point, in order: energy E' uniform in the window; J_2 uniform in
    [xi J2max(E'), J2max(E')] (any higher bath actions are zero); bath phases
    uniform in [0, 2pi); the reaction integral I' solved from K(I', J) = E'
    (an I' < 0 within the J2max root's rounding is zero, one beyond it raises
    SamplingError); Q_1 uniform in [-q1_range, -1e-9] and
    P_1 = +sqrt(Q_1^2 + 2 I').  Ensemble A is ``xi = 0``.  Every point draws
    its ``3 + n_bath`` uniforms from its own substream, child ``p`` of
    ``SeedSequence(spec.seed)``, so results do not depend on evaluation
    order; :func:`~sympb.kernels.substream_uniforms` draws them for all
    points in one array pass, and each band maps the same J_2 uniform into
    its own interval.  The J2max(E') of all points are solved in one
    :func:`~sympb.bottleneck.j_max_cnf` call, each with the bits it gets
    alone; if some fail, the first failing point's error is raised.

    Returns an ensemble of shape ``(n_traj,)`` for one ``xi`` and
    ``(len(xi), n_traj)`` for a list.  ``xi`` is read by ``errors._elements``
    and a band outside [0, 1] is a ValueError, before anything is drawn.
    Like the Monte-Carlo volume, the draws assume that the axis-root box
    holds the admissible region, so a model whose ``K(0, J)`` decreases in a
    bath action raises PreconditionError.
    """
    xi = _elements(xi, "xi")
    outside = xi[~((0.0 <= xi) & (xi <= 1.0))]
    if outside.size:
        raise ValueError(f"xi must lie in [0, 1], got {float(outside[0])!r}")
    model.check_monotone()
    e_lo = spec.e_center - spec.delta_e
    e_hi = spec.e_center + spec.delta_e
    if e_lo <= model.e0:
        raise BelowSaddleError(
            f"energy window [{e_lo}, {e_hi}] reaches the saddle energy e0 = {model.e0}"
        )
    nb = model.n_bath
    u = substream_uniforms(spec.seed, spec.n_traj, 3 + nb)
    energy = _uniform(e_lo, e_hi, u[:, 0])
    j2max = j_max_cnf(model, energy, 2)
    lo = xi[..., None] * j2max
    j = np.zeros(lo.shape + (nb,))
    j[..., 0] = _uniform(lo, j2max, u[:, 1])
    i_val = _clamp_reactive(model, _solve_reactive_integral(model, energy, j), energy, j, j2max)
    phases = np.broadcast_to(_uniform(0.0, 2.0 * math.pi, u[:, 2:2 + nb]), j.shape)
    q1 = np.broadcast_to(_uniform(-spec.q1_range, -Q1_DELTA, u[:, 2 + nb]), lo.shape)
    p1 = np.sqrt(q1 * q1 + 2.0 * i_val)
    return Ensemble(q1=q1, p1=p1, j=j, phases=phases, energy=energy)


def _check_horizon(t_max) -> None:
    if not _finite(t_max, "t_max") > 0.0:
        raise ValueError(f"t_max must be > 0, got {t_max!r}")


def transmit(model: CnfModel, ens: Ensemble, t_max: float) -> np.ndarray:
    """One bool per point: ``Q_1 cosh(L t_max) + P_1 sinh(L t_max) > 0`` with
    L = Lambda(J), equal to the criterion evaluated point by point with
    :func:`math.cosh` and :func:`math.sinh`.

    ``a = Q_1 cosh``, ``b = P_1 sinh`` and ``v = a + b`` are computed for all
    points in one numpy pass.  numpy's cosh and sinh differ from math's by a
    few ulp at most, so the two sums differ by about 1e-15 (|a| + |b|) (plus
    a few subnormal steps when a and b underflow).  A point is therefore
    decided by the sign of ``v`` only when ``|v|`` exceeds the band
    ``_EDGE_RTOL (|a| + |b|) + _EDGE_ATOL``; the knife-edge points inside it,
    and any point where a product overflows or gives NaN, are recomputed
    with the scalar math expression.  Beyond ``L t_max = 350`` the sign of
    ``P_1 + Q_1`` decides.  Raises ValueError unless ``t_max`` is a finite
    number > 0.
    """
    _check_horizon(t_max)
    lt = effective_lyapunov(model, ens.j) * t_max
    q1, p1, lt = np.broadcast_arrays(ens.q1, ens.p1, lt)
    # Beyond 350, coth(lt) is 1 to machine precision, so the criterion is the
    # sign of P_1 + Q_1.
    far = lt > 350.0
    with np.errstate(over="ignore", invalid="ignore"):
        a = q1 * np.cosh(lt)
        b = p1 * np.sinh(lt)
        v = a + b
        band = _EDGE_RTOL * (np.abs(a) + np.abs(b)) + _EDGE_ATOL
    out = np.where(far, p1 + q1 > 0.0, v > 0.0)
    edge = ~far & ~(np.abs(v) > band)
    out[edge] = [q * math.cosh(x) + p * math.sinh(x) > 0.0
                 for q, p, x in zip(q1[edge].tolist(), p1[edge].tolist(), lt[edge].tolist())]
    return out


def transmission_scan(model: CnfModel, spec_base: EnsembleSpec, xis,
                      t_max: float | None = None) -> list:
    """Ensemble A baseline plus an Ensemble B sweep over xi values.

    The baseline and every band are sampled in one :func:`sample_ensemble`
    call with bands ``[0.0] + xis``, so they share their random draws
    (common random numbers): each point is drawn once and mapped into every
    band.  Returns the baseline first (kind "A", xi = nan), then one result
    per xi in the given order.  ``xis`` is read by ``errors._elements`` (one
    number is a list of one), and a horizon that is not a finite number > 0
    is a ValueError, before any ensemble is sampled.
    """
    xis = _elements(xis, "xis").reshape(-1).tolist()
    if t_max is None:
        t_max = default_t_max(model)
    _check_horizon(t_max)
    batch = sample_ensemble(model, spec_base, [0.0] + xis)
    counts = np.count_nonzero(transmit(model, batch, t_max), axis=1).tolist()
    n = spec_base.n_traj
    return [TransmissionResult(xi=xi, fraction=c / n, n_transmitted=c, n_total=n,
                               t_max=float(t_max))
            for xi, c in zip([math.nan] + xis, counts)]


def scan_report(model: CnfModel, spec_base: EnsembleSpec, xis,
                t_max: float | None = None) -> ExperimentReport:
    """Transmission scan as a CSV-ready table (baseline row flagged kind=A)."""
    results = transmission_scan(model, spec_base, xis, t_max)
    rows = [
        (res.kind, res.xi, res.fraction, res.n_transmitted, res.n_total,
         res.t_max, spec_base.seed)
        for res in results
    ]
    meta = {
        "n_traj": spec_base.n_traj,
        "e_center": spec_base.e_center,
        "delta_e": spec_base.delta_e,
        "q1_range": spec_base.q1_range,
        "seed": spec_base.seed,
        "t_max": results[0].t_max,
        "xis": [res.xi for res in results[1:]],
        "model_e0": model.e0,
        "model_terms": model.terms,
    }
    return ExperimentReport(
        columns=("kind", "xi", "fraction", "n_transmitted", "n_total", "t_max", "seed"),
        rows=rows,
        meta=meta,
    )
