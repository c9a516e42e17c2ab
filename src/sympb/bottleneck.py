"""Bottleneck width and flux diagnostics.

On the dividing surface the admissible bath actions form the region
``{J >= 0 : K(0, J) <= E}``.  This module computes per-mode maximal actions
``J_k_max(E)``, the candidate transverse width ``c_cand = 2 pi min_k J_k_max``,
the action-space volume (exactly for quadratic models, by seeded Monte Carlo
for polynomial ones), and the directional flux ``phi = (2 pi)^(n-1) V``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import (
    BelowSaddleError,
    ConvergenceError,
    DimensionError,
    PreconditionError,
    RootBracketError,
)
from .models import CnfModel, QuadraticSaddleModel, eval_cnf
from .tables import ExperimentReport

__all__ = [
    "WidthReport",
    "FluxReport",
    "j_max_quadratic",
    "j_max_cnf",
    "candidate_width",
    "action_volume_mc",
    "flux_quadratic_exact",
    "energy_scan",
]

# Root bracketing and refinement for j_max_cnf.
BRACKET_CAP = 1e12
ROOT_XTOL = 1e-15
ROOT_RTOL = 1e-12
BRENT_MAXITER = 100

# Monte-Carlo chunk size; chunk i draws from substream i of the seed, so the
# totals do not depend on how chunks would be scheduled across workers.
MC_CHUNK = 1 << 16


@dataclass(frozen=True)
class WidthReport:
    """Maximal bath actions and the candidate width at one energy."""

    e: float
    j_max: tuple
    c_cand: float
    limiting_mode: int


@dataclass(frozen=True)
class FluxReport:
    """Action-space volume and directional flux at one energy."""

    e: float
    volume: float
    flux: float
    mc_samples: int
    std_error: float
    seed: int | None = None


def _check_mode(model, k: int) -> int:
    """Validate a mode index (paper numbering: bath modes are 2..n)."""
    nb = model.n_bath
    if not 2 <= k <= nb + 1:
        raise DimensionError(
            f"mode index k must be in [2, {nb + 1}] for this model, got {k}"
        )
    return k - 2


def j_max_quadratic(model: QuadraticSaddleModel, e: float, k: int) -> float:
    """Maximal action of mode k at energy e: ``(e - e0) / omega_k``."""
    idx = _check_mode(model, k)
    if e <= model.e0:
        raise BelowSaddleError(f"E = {e} is not above the saddle energy e0 = {model.e0}")
    return (e - model.e0) / model.omegas[idx]


def j_max_cnf(model: CnfModel, e: float, k: int) -> float:
    """Smallest positive root of ``K(0, ..., J_k, ...) = e`` (other J zero).

    Bracketing starts from the linear estimate ``(e - e0) / omega_k`` and
    doubles the upper bound until the sign changes (cap 1e12), then the root
    is refined by Brent's method to relative tolerance 1e-12: ``_brentq``, a
    port of scipy's brentq.c that reuses the bracket values ``f(lo)`` and
    ``f(hi)`` instead of evaluating the endpoints again.  Raises
    ConvergenceError, naming E, k and the last iterate, when K is NaN or the
    refinement does not converge in 100 iterations.
    """
    idx = _check_mode(model, k)
    if e <= model.e0:
        raise BelowSaddleError(f"E = {e} is not above the saddle energy e0 = {model.e0}")
    # One probe for every evaluation: the point path of eval_cnf copies it.
    j = np.zeros(model.n_bath)

    def f(jk: float) -> float:
        j[idx] = jk
        return eval_cnf(model, 0.0, j) - e

    lo = 0.0
    hi = (e - model.e0) / model.omegas[idx]
    flo = f(lo)
    fhi = f(hi)
    while fhi < 0.0:
        lo, flo = hi, fhi
        hi *= 2.0
        if hi > BRACKET_CAP:
            raise RootBracketError(
                f"no positive root of K(0, J_{k}) = {e} below {BRACKET_CAP:.0e}"
            )
        fhi = f(hi)
    if fhi == 0.0:
        return hi
    if flo == 0.0:
        return lo
    try:
        return _brentq(f, lo, hi, flo, fhi)
    except ConvergenceError as exc:
        raise ConvergenceError(f"j_max at E = {e!r}, mode k = {k}: {exc}") from None


def _signbit(x: float) -> bool:
    return math.copysign(1.0, x) < 0.0


def _brentq(f, xa: float, xb: float, fa: float, fb: float) -> float:
    """Root of ``f`` in ``[xa, xb]`` by Brent's method, given ``fa = f(xa)``
    and ``fb = f(xb)`` of opposite signs.

    A step-for-step port of scipy's ``brentq.c`` (Brent 1973, *Algorithms for
    Minimization without Derivatives*, ch. 4), so for the same ``f`` it
    returns the same bits as ``scipy.optimize.brentq(f, xa, xb,
    xtol=ROOT_XTOL, rtol=ROOT_RTOL)``; only the two endpoint evaluations are
    taken from the caller.  Raises ConvergenceError when ``f`` is NaN or
    BRENT_MAXITER iterations pass without convergence, and RootBracketError
    when ``fa`` and ``fb`` have the same sign.
    """
    xpre, xcur, fpre, fcur = xa, xb, fa, fb
    for x, fx in ((xpre, fpre), (xcur, fcur)):
        if math.isnan(fx):
            raise ConvergenceError(f"f is NaN at x = {x!r}")
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if _signbit(fpre) == _signbit(fcur):
        raise RootBracketError(f"f({xa!r}) and f({xb!r}) have the same sign")
    xblk = fblk = spre = scur = 0.0
    for _ in range(BRENT_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and _signbit(fpre) != _signbit(fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (ROOT_XTOL + ROOT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                # C gets +-inf or nan here, which fails the step test below
                stry = math.inf
            a, b = abs(spre), 3 * abs(sbis) - delta
            if 2 * abs(stry) < (a if a < b else b):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
        if math.isnan(fcur):
            raise ConvergenceError(f"f is NaN at x = {xcur!r}")
    raise ConvergenceError(
        f"Brent's method did not converge in {BRENT_MAXITER} iterations; "
        f"last iterate x = {xcur!r}"
    )


def candidate_width(model, e: float) -> WidthReport:
    """Candidate transverse width ``2 pi min_k J_k_max(e)`` with the limiting
    mode index (ties resolved to the lowest mode)."""
    if isinstance(model, CnfModel):
        j_max_op = j_max_cnf
    elif isinstance(model, QuadraticSaddleModel):
        j_max_op = j_max_quadratic
    else:
        raise TypeError(f"unsupported model type {type(model).__name__}")
    nb = model.n_bath
    if nb < 1:
        raise DimensionError("candidate width needs at least one bath mode")
    j_max = tuple(j_max_op(model, e, k) for k in range(2, nb + 2))
    arg = int(np.argmin(j_max))
    return WidthReport(
        e=float(e),
        j_max=j_max,
        c_cand=2.0 * math.pi * j_max[arg],
        limiting_mode=2 + arg,
    )


def _check_monotone(model: CnfModel) -> None:
    """Raise PreconditionError when an I-free J term has a negative coefficient.

    The axis-root box ``prod_k [0, J_k_max]`` holds the whole admissible
    region when ``K(0, J)`` is nondecreasing in every J_k, which nonnegative
    I-free coefficients guarantee.
    """
    for i_pow, j_pows, _ in model.terms:
        if i_pow or not any(j_pows):
            continue
        coeff = model.coefficient(0, j_pows)
        if coeff < 0.0:
            monomial = "*".join(
                f"J_{k + 2}" + (f"^{p}" if p > 1 else "")
                for k, p in enumerate(j_pows) if p
            )
            raise PreconditionError(
                f"term {coeff!r}*{monomial} makes K(0, J) decrease in a bath "
                "action, so the admissible region can leave the axis-root "
                "sampling box"
            )


def action_volume_mc(model: CnfModel, e: float, samples: int, seed: int) -> FluxReport:
    """Monte-Carlo action-space volume and flux at energy e.

    Samples uniformly over the bounding box ``prod_k [0, J_k_max(e)]`` and
    counts points with ``K(0, J) <= e``.  ``std_error`` is the binomial
    standard error of the volume estimate, ``box_volume *
    sqrt(p(1-p)/samples)``.  Deterministic per seed, independent of chunking.

    Raises PreconditionError when an I-free term of ``K(0, J)`` has a negative
    coefficient: the box may then cut off part of the admissible region.
    """
    return _action_volume_mc(model, e, samples, seed, None)


def _action_volume_mc(model: CnfModel, e: float, samples: int, seed: int,
                      j_max) -> FluxReport:
    """``action_volume_mc`` with the box edges ``j_max`` already solved at
    ``e`` (one per bath mode, as in ``WidthReport.j_max``), or None to solve
    them here.  The checks run first either way, in the same order."""
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if model.n_bath < 1:
        raise DimensionError("need at least one bath mode")
    if e < model.e0:
        raise BelowSaddleError(f"E = {e} is below the saddle energy e0 = {model.e0}")
    _check_monotone(model)
    if e == model.e0:
        return FluxReport(e=float(e), volume=0.0, flux=0.0, mc_samples=int(samples),
                          std_error=0.0, seed=int(seed))
    nb = model.n_bath
    if j_max is None:
        j_max = [j_max_cnf(model, e, k) for k in range(2, nb + 2)]
    box = np.array(j_max)
    box_volume = float(np.prod(box))

    n_chunks = (samples + MC_CHUNK - 1) // MC_CHUNK
    children = np.random.SeedSequence(seed).spawn(n_chunks)
    # ``uniform(0.0, box)`` computes ``0.0 + box * u``, which is ``u * box``
    # bit for bit; filling one buffer with ``random`` and scaling it in place
    # avoids numpy's broadcast path for an array-valued ``high``.
    buf = np.empty((min(MC_CHUNK, samples), nb))
    hits = 0
    remaining = samples
    for child in children:
        js = buf[:min(MC_CHUNK, remaining)]
        np.random.default_rng(child).random(out=js)
        js *= box
        hits += kernels.count_box_hits(model, js, e)
        remaining -= len(js)
    p_hat = hits / samples
    volume = box_volume * p_hat
    std_error = box_volume * math.sqrt(p_hat * (1.0 - p_hat) / samples)
    flux = (2.0 * math.pi) ** nb * volume
    return FluxReport(e=float(e), volume=volume, flux=flux, mc_samples=int(samples),
                      std_error=std_error, seed=int(seed))


def flux_quadratic_exact(model: QuadraticSaddleModel, e: float) -> FluxReport:
    """Exact simplex volume and flux for a quadratic model.

    ``V = (e - e0)^(n-1) / ((n-1)! prod_k omega_k)`` and
    ``phi = (2 pi)^(n-1) V``.
    """
    nb = model.n_bath
    if nb < 1:
        raise DimensionError("need at least one bath mode")
    if e < model.e0:
        raise BelowSaddleError(f"E = {e} is below the saddle energy e0 = {model.e0}")
    de = e - model.e0
    volume = de**nb / (math.factorial(nb) * float(np.prod(model.omegas)))
    return FluxReport(e=float(e), volume=volume, flux=(2.0 * math.pi) ** nb * volume,
                      mc_samples=0, std_error=0.0)


def energy_scan(model: CnfModel, e_min: float, e_max: float, steps: int,
                samples: int, seed: int, extra_meta: dict | None = None) -> ExperimentReport:
    """Width and flux table over a uniform energy grid.

    Row i uses seed ``seed + i`` for its Monte-Carlo volume, recorded in the
    seed column, so any row can be reproduced in isolation.  Each root
    ``J_k_max(E)`` is solved once: the width's roots are the volume's box.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if e_max < e_min:
        raise ValueError(f"e_max = {e_max} is below e_min = {e_min}")
    energies = np.linspace(e_min, e_max, steps) if steps > 1 else np.array([e_min])
    nb = model.n_bath
    columns = (
        ["E"]
        + [f"J_max_{k}" for k in range(2, nb + 2)]
        + ["c_cand", "limiting_mode", "V", "phi", "std_error", "seed"]
    )
    rows = []
    for i, e in enumerate(energies):
        width = candidate_width(model, float(e))
        row_seed = seed + i
        flux = _action_volume_mc(model, float(e), samples, row_seed, width.j_max)
        rows.append(
            (width.e, *width.j_max, width.c_cand, width.limiting_mode,
             flux.volume, flux.flux, flux.std_error, row_seed)
        )
    meta = {
        "e_min": float(e_min),
        "e_max": float(e_max),
        "steps": int(steps),
        "samples": int(samples),
        "seed": int(seed),
        "model_e0": model.e0,
        "model_terms": [[ip, list(jp), c] for ip, jp, c in model.terms],
    }
    if extra_meta:
        meta.update(extra_meta)
    return ExperimentReport(columns=tuple(columns), rows=rows, meta=meta)
