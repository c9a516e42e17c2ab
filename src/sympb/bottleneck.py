"""Bottleneck width and flux diagnostics.

On the dividing surface the admissible bath actions form the region
``{J >= 0 : K(0, J) <= E}``.  This module computes per-mode maximal actions
``J_k_max(E)``, the candidate transverse width ``c_cand = 2 pi min_k J_k_max``,
the action-space volume by seeded Monte Carlo, and the directional flux
``phi = (2 pi)^(n-1) V``.  ``action_volume_mc`` and ``energy_scan`` count
their volumes on one path, in tasks of contiguous chunk ranges that draw
blocks of MC_TILE rows into buffers made once per task, on a thread pool of
one worker per usable CPU or, for one worker, in the calling thread; each
row draws from its own seed and each chunk from its own child of that seed,
so a volume does not depend on the number of CPUs.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import (
    BelowSaddleError,
    ConvergenceError,
    DimensionError,
    RootBracketError,
    _elements,
    _finite,
    _integer,
)
from .models import CnfModel, eval_k0
from .tables import ExperimentReport

__all__ = [
    "WidthReport",
    "FluxReport",
    "j_max_cnf",
    "candidate_width",
    "action_volume_mc",
    "energy_scan",
]

# Root bracketing and refinement for j_max_cnf.
BRACKET_CAP = 1e12
ROOT_XTOL = 1e-15
ROOT_RTOL = 1e-12
BRENT_MAXITER = 100
# Per-element outcomes of the batched root solver.
_OK, _BELOW, _NO_BRACKET, _SAME_SIGN, _NAN, _MAXITER = range(6)

# Monte-Carlo chunk size: chunk i of a row's samples draws from substream i
# of the row's seed, so MC_CHUNK and the seed fix the drawn bytes.  _volumes
# splits each row's chunks into contiguous ranges and counts the ranges in
# parallel; a range draws its chunks in order, in blocks of MC_TILE rows.
MC_CHUNK = 1 << 16
# Rows of a Monte-Carlo block: _chunk_hits draws a block into one buffer and
# counts it in one count_box_hits call.  MC_TILE divides MC_CHUNK, so no
# block spans two chunks.  On the flux benchmark (2 vCPU), 32 768-row blocks
# ran about 3% slower and raised peak memory by about 1 MB, and 8 192- or
# 4 096-row blocks ran 10-30% slower, their per-call dispatch outweighing the
# smaller working set.  Drawing 16 384-row blocks instead of 32 768-row ones
# counted the same rows in about the same time (energy_scan, 3 dof, 11
# energies, 1e6 samples: medians 51.8 and 53.5 ms over 12 alternating pairs).
MC_TILE = 1 << 14


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


def j_max_cnf(model: CnfModel, e, k):
    """Smallest positive root of ``K(0, ..., J_k, ...) = e`` (other J zero).

    ``e`` is one energy or a 1-d array of energies, and ``k`` one mode or one
    mode per energy; all roots are solved in one :func:`_j_max_solve` batch.
    Bracketing starts from the linear estimate ``(e - e0) / omega_k`` and
    doubles the upper bound until the sign changes (cap 1e12), then Brent's
    method refines the root to relative tolerance 1e-12.  Returns a float for
    one energy and an array for an array, each root with the bits it gets
    alone.  Before any root is solved, :func:`~sympb.errors._elements` reads
    ``e`` and ``k``, and a DimensionError names both shapes unless there is
    one mode or one per energy, or names a mode that is no bath mode.  Then
    the lowest-index failed root raises its error: BelowSaddleError for
    ``e <= e0``, RootBracketError when no bracket is found below the cap,
    and ConvergenceError, naming E, k and the last iterate, when K is NaN or
    the refinement does not converge in 100 iterations.
    """
    roots = _j_max_solve(model, e, k)
    return float(roots[0]) if np.ndim(e) == 0 else roots


def _j_max_solve(model: CnfModel, e, k, j=None):
    """Smallest positive root ``J_k`` of ``K(0, J) = e[i]`` for every energy,
    with the other bath actions fixed at ``j[i]`` (zeros when None).

    ``e`` and ``k`` are checked as :func:`j_max_cnf` checks them, and ``j``
    broadcasts to ``(len(e), n_bath)``; its column k is ignored.  Each
    element's bracket starts at ``[0, (e - e0) / omega_k]``, and its upper
    end doubles until ``K - e`` changes sign (cap BRACKET_CAP); :func:`_brent`
    then refines every bracketed element, a zero end included.
    ``f`` is the batched ``eval_k0`` on the still-active rows only, so each
    element gets the bits it would get alone.  The whole batch runs to the
    end; then the lowest-index failed element raises its error, else the
    roots are returned.
    """
    e = _elements(e, "e")
    n = e.size
    ks = _elements(k, "k", _integer)
    if ks.size not in (1, n):
        raise DimensionError(f"modes k of shape {ks.shape} do not match energies e of shape "
                             f"{e.shape}: give one mode or one per energy")
    for mode in set(ks.ravel().tolist()):
        _check_mode(model, mode)
    e, ks = e.ravel(), np.broadcast_to(ks.ravel(), (n,))
    cols = ks - 2
    fixed = np.zeros((n, model.n_bath))
    if j is not None:
        fixed[...] = j

    def f(x, rows):
        probe = fixed[rows]
        probe[np.arange(rows.size), cols[rows]] = x
        return eval_k0(model, probe) - e[rows]

    status = np.where(e <= model.e0, _BELOW, _OK)
    lo = np.zeros(n)
    hi = (e - model.e0) / np.array(model.omegas)[cols]
    flo = np.zeros(n)
    fhi = np.zeros(n)
    # Python floats give inf or nan silently where numpy would warn.
    with np.errstate(all="ignore"):
        rows = np.flatnonzero(status == _OK)
        flo[rows] = f(lo[rows], rows)
        fhi[rows] = f(hi[rows], rows)
        grow = rows[fhi[rows] < 0.0]
        while grow.size:
            lo[grow], flo[grow] = hi[grow], fhi[grow]
            hi[grow] *= 2.0
            capped = hi[grow] > BRACKET_CAP
            status[grow[capped]] = _NO_BRACKET
            grow = grow[~capped]
            fhi[grow] = f(hi[grow], grow)
            grow = grow[fhi[grow] < 0.0]
        rows = np.flatnonzero(status == _OK)
        root = np.zeros(n)
        root[rows], status[rows] = _brent(lambda x, act: f(x, rows[act]), lo[rows], hi[rows],
                                          flo[rows], fhi[rows])
    bad = np.flatnonzero(status != _OK)
    if bad.size:
        i = int(bad[0])
        raise _root_error(model, float(e[i]), int(ks[i]), status[i], float(root[i]),
                          float(lo[i]), float(hi[i]))
    return root


def _root_error(model, e: float, k: int, status: int, x: float, lo: float, hi: float):
    """The exception of one failed element of :func:`_j_max_solve`: the
    error a root solved alone raises, naming its energy ``e`` and mode ``k``."""
    if status == _BELOW:
        return BelowSaddleError(f"E = {e} is not above the saddle energy e0 = {model.e0}")
    if status == _NO_BRACKET:
        return RootBracketError(f"no positive root of K(0, J_{k}) = {e} below {BRACKET_CAP:.0e}")
    where = f"j_max at E = {e!r}, mode k = {k}: "
    if status == _SAME_SIGN:
        return RootBracketError(where + f"f({lo!r}) and f({hi!r}) have the same sign")
    if status == _NAN:
        return ConvergenceError(where + f"f is NaN at x = {x!r}")
    return ConvergenceError(
        where + f"Brent's method did not converge in {BRENT_MAXITER} iterations; "
        f"last iterate x = {x!r}"
    )


def _brent(f, xa, xb, fa, fb):
    """Roots by Brent's method, one per element of the brackets ``[xa, xb]``,
    given ``fa = f(xa)`` and ``fb = f(xb)``.  Returns ``(x, status)``.

    ``f(x, act)`` evaluates the elements whose indices are ``act`` at ``x``.
    An elementwise port of scipy's ``brentq.c`` (Brent 1973, *Algorithms for
    Minimization without Derivatives*, ch. 4): each element takes its own
    branch through ``np.where``, using only ``+ - * /``, ``abs`` and
    comparisons, which numpy rounds as C does, and leaves the active set when
    it converges.  So for the same ``f`` every element gets the bits of
    ``scipy.optimize.brentq(f, xa, xb, xtol=ROOT_XTOL, rtol=ROOT_RTOL)`` after
    the same number of evaluations less the two endpoint ones.  ``status`` is
    ``_OK``, ``_SAME_SIGN`` (``fa`` and ``fb`` share a sign), ``_NAN`` (``f``
    is NaN at ``x``) or ``_MAXITER`` (``x`` is the last of BRENT_MAXITER
    iterates).
    """
    xa, xb, fa, fb = (np.array(v, dtype=float) for v in (xa, xb, fa, fb))
    # The scalar checks, in order: a NaN end, a zero end (xa before xb in
    # both), ends of one sign.
    nan = np.isnan(fa) | np.isnan(fb)
    zero = (fa == 0.0) | (fb == 0.0)
    same = np.signbit(fa) == np.signbit(fb)
    x = np.where(np.isnan(fa) | (~np.isnan(fb) & (fa == 0.0)), xa, xb)
    status = np.select([nan, zero, same], [_NAN, _OK, _SAME_SIGN], _OK)
    act = np.flatnonzero(~(nan | zero | same))
    xpre, xcur, fpre, fcur = xa[act], xb[act], fa[act], fb[act]
    xblk = fblk = spre = scur = np.zeros(act.size)
    with np.errstate(all="ignore"):
        for _ in range(BRENT_MAXITER):
            flip = (fpre != 0.0) & (fcur != 0.0) & (np.signbit(fpre) != np.signbit(fcur))
            xblk = np.where(flip, xpre, xblk)
            fblk = np.where(flip, fpre, fblk)
            spre = np.where(flip, xcur - xpre, spre)
            scur = np.where(flip, spre, scur)
            swap = np.abs(fblk) < np.abs(fcur)
            xpre, xcur, xblk = (np.where(swap, xcur, xpre), np.where(swap, xblk, xcur),
                                np.where(swap, xcur, xblk))
            fpre, fcur, fblk = (np.where(swap, fcur, fpre), np.where(swap, fblk, fcur),
                                np.where(swap, fcur, fblk))

            delta = (ROOT_XTOL + ROOT_RTOL * np.abs(xcur)) / 2
            sbis = (xblk - xcur) / 2
            done = (fcur == 0.0) | (np.abs(sbis) < delta)
            x[act[done]] = xcur[done]
            live = ~done
            act, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur, delta, sbis = (
                v[live] for v in (act, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur,
                                  delta, sbis))
            if not act.size:
                return x, status

            # interpolate where xpre == xblk, else extrapolate; where the
            # scalar code divides by zero it sets stry = inf, which fails the
            # step test below
            interp = xpre == xblk
            dpre = (fpre - fcur) / (xpre - xcur)
            dblk = (fblk - fcur) / (xblk - xcur)
            den = dblk * dpre * (fblk - fpre)
            stry = np.where(interp, -fcur * (xcur - xpre) / (fcur - fpre),
                            -fcur * (fblk * dblk - fpre * dpre) / den)
            by_zero = np.where(interp, fcur - fpre == 0.0,
                               (xpre - xcur == 0.0) | (xblk - xcur == 0.0) | (den == 0.0))
            stry = np.where(by_zero, np.inf, stry)
            a, b = np.abs(spre), 3 * np.abs(sbis) - delta
            good = ((np.abs(spre) > delta) & (np.abs(fcur) < np.abs(fpre))
                    & (2 * np.abs(stry) < np.where(a < b, a, b)))
            spre, scur = np.where(good, scur, sbis), np.where(good, stry, sbis)

            xpre, fpre = xcur, fcur
            xcur = xcur + np.where(np.abs(scur) > delta, scur, np.where(sbis > 0, delta, -delta))
            fcur = f(xcur, act)
            nan = np.isnan(fcur)
            x[act[nan]] = xcur[nan]
            status[act[nan]] = _NAN
            live = ~nan
            act, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur = (
                v[live] for v in (act, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur))
    x[act] = xcur
    status[act] = _MAXITER
    return x, status


def candidate_width(model: CnfModel, e):
    """Candidate transverse width ``2 pi min_k J_k_max(e)`` with the limiting
    mode index (ties resolved to the lowest mode).

    ``e`` is one energy, giving a WidthReport, or a 1-d array, giving one
    report per energy; every mode's root at every energy comes from one
    :func:`j_max_cnf` batch, which raises the lowest-index failure.  Raises
    TypeError for a model that is not a CnfModel, and the error of
    :func:`~sympb.errors._elements` for any other ``e``.
    """
    if not isinstance(model, CnfModel):
        raise TypeError(f"unsupported model type {type(model).__name__}")
    energies = _elements(e, "e")
    nb = model.n_bath
    modes = np.tile(np.arange(2, nb + 2), energies.size)
    roots = j_max_cnf(model, np.repeat(energies, nb), modes).reshape(-1, nb)
    reports = []
    for en, j_max in zip(energies.ravel().tolist(), roots.tolist()):
        arg = int(np.argmin(j_max))
        reports.append(WidthReport(e=en, j_max=tuple(j_max), c_cand=2.0 * math.pi * j_max[arg],
                                   limiting_mode=2 + arg))
    return reports[0] if energies.ndim == 0 else reports


def action_volume_mc(model: CnfModel, e: float, samples: int, seed: int) -> FluxReport:
    """Monte-Carlo action-space volume and flux at energy e.

    Samples uniformly over the bounding box ``prod_k [0, J_k_max(e)]`` and
    counts points with ``K(0, J) <= e``.  ``std_error`` is the binomial
    standard error of the volume estimate, ``box_volume *
    sqrt(p(1-p)/samples)``.  Deterministic per seed: the volume is counted
    as :func:`energy_scan` counts a row (on a pool only for two or more
    workers), and does not depend on the number of CPUs.

    Raises ValueError first unless ``samples`` is an integer >= 1, ``seed``
    one >= 0 (a bool is neither) and ``e`` a finite number, PreconditionError
    when an I-free term of ``K(0, J)`` has a negative coefficient (the box
    may then cut off part of the admissible region), and ValueError, before
    anything is drawn, when the box volume or ``(2 pi)^(n-1)`` times it is
    not finite.
    """
    samples = _integer(samples, "samples", 1)
    seed = _integer(seed, "seed", 0)
    _finite(e, "e")
    if e < model.e0:
        raise BelowSaddleError(f"E = {e} is below the saddle energy e0 = {model.e0}")
    model.check_monotone()
    if e == model.e0:
        return FluxReport(e=float(e), volume=0.0, flux=0.0, mc_samples=samples,
                          std_error=0.0, seed=seed)
    return _volumes(model, [candidate_width(model, e)], samples, seed)[0]


def _check_box(e: float, j_max) -> float:
    """The volume ``prod_k J_k_max(e)`` of the sampling box; ``errors._finite``
    refuses it, or its flux bound ``(2 pi)^nb`` times it, when not finite:
    the volume, flux and standard error would be inf or NaN."""
    with np.errstate(over="ignore"):
        box_volume = _finite(float(np.prod(j_max)), f"sampling box volume V at E = {e}")
    nb = len(j_max)
    _finite((2.0 * math.pi) ** nb * box_volume, f"flux bound (2 pi)^{nb} V at E = {e}")
    return box_volume


def _volumes(model: CnfModel, widths, samples: int, seed: int) -> list:
    """One FluxReport per WidthReport of ``widths``: row i counts ``samples``
    draws of seed ``seed + i`` over the box with edges ``widths[i].j_max``.
    The caller has checked ``samples``, ``seed`` and the model.

    Every box is checked first, so the lowest row whose box is not finite
    raises.  Then each row's chunks are split into ``min(cpus, chunks)``
    contiguous ranges, one :func:`_chunk_hits` task each, on a thread pool
    of one worker per usable CPU up to the number of tasks, or in the
    calling thread when that is one worker; a row's hits are the integer sum
    of its tasks' hits.  The tasks come back in row order, so the lowest
    failed row's error is raised, after every worker is joined.
    """
    boxes = [_check_box(width.e, width.j_max) for width in widths]
    # the CPUs this process may run on
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    n_chunks = -(-samples // MC_CHUNK)
    parts = min(cpus, n_chunks)
    tasks = [(width, seed + i, n_chunks * w // parts, n_chunks * (w + 1) // parts)
             for i, width in enumerate(widths) for w in range(parts)]
    count = lambda task: _chunk_hits(model, task[0].e, task[0].j_max, samples, *task[1:])
    if min(cpus, len(tasks)) == 1:
        hits = list(map(count, tasks))
    else:
        from concurrent.futures import ThreadPoolExecutor  # only a pooled volume loads it

        with ThreadPoolExecutor(max_workers=min(cpus, len(tasks))) as pool:
            hits = list(pool.map(count, tasks))
    nb = model.n_bath
    reports = []
    for i, (width, box_volume) in enumerate(zip(widths, boxes)):
        p_hat = sum(hits[i * parts:(i + 1) * parts]) / samples
        volume = box_volume * p_hat
        reports.append(FluxReport(
            e=width.e, volume=volume, flux=(2.0 * math.pi) ** nb * volume, mc_samples=samples,
            std_error=box_volume * math.sqrt(p_hat * (1.0 - p_hat) / samples), seed=seed + i))
    return reports


def _chunk_hits(model: CnfModel, e: float, j_max, samples: int, seed: int,
                first: int, stop: int) -> int:
    """Box hits among chunks ``first`` to ``stop - 1`` of the ``samples``
    draws of ``seed`` over the box with edges ``j_max``.

    Chunk c draws from ``SeedSequence(seed, spawn_key=(c,))``, the child c
    of ``SeedSequence(seed).spawn(n)``, so no list of children is made.
    Blocks of MC_TILE rows are drawn in turn from the generator of their
    chunk, opened at the chunk's first block; MC_TILE divides MC_CHUNK, so
    no block spans two chunks and each chunk's stream is the one it would
    give alone.  The draw buffer and the counter's buffers are made once per
    task, for one block, and one :func:`~sympb.kernels.count_box_hits` call
    counts each block of unit draws scaled by ``j_max``: ``uniform(0.0,
    box)`` computes ``0.0 + box * u``, which is ``u * box`` bit for bit.
    """
    rows = min(MC_TILE, samples)
    draws = np.empty((rows, model.n_bath))
    counter = kernels._box_counter(model, j_max, rows)
    hits = 0
    for c in range(first, stop):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(c,)))
        end = min(samples, (c + 1) * MC_CHUNK)
        for start in range(c * MC_CHUNK, end, rows):
            js = draws if end - start >= rows else draws[:end - start]
            rng.random(out=js)
            hits += kernels.count_box_hits(model, js, e, counter)
    return hits


def energy_scan(model: CnfModel, e_min: float, e_max: float, steps: int,
                samples: int, seed: int) -> ExperimentReport:
    """Width and flux table over a uniform energy grid.

    Row i uses seed ``seed + i`` for its Monte-Carlo volume, recorded in the
    seed column, so any row can be reproduced in isolation.  The inputs are
    checked first (``steps``, ``e_min <= e_max`` and their finite difference,
    ``samples``, ``seed``, then the model, as :func:`action_volume_mc` checks
    them); then every root
    ``J_k_max(E)`` is solved once, all in one batch that raises the error of
    the lowest failed root; then the lowest row whose box volume, or
    ``(2 pi)^(n-1)`` times it, is not a finite number raises ValueError; then
    :func:`_volumes` counts the rows' volumes over the widths' roots as boxes
    on one worker per usable CPU (``os.sched_getaffinity``), a thread pool
    only for two or more; the output does not depend on how many CPUs.
    """
    steps = _integer(steps, "steps", 1)
    lo, hi = _finite(e_min, "e_min"), _finite(e_max, "e_max")
    if lo > hi:
        raise ValueError(f"e_max = {e_max} is below e_min = {e_min}")
    _finite(hi - lo, "energy range e_max - e_min")
    samples = _integer(samples, "samples", 1)
    seed = _integer(seed, "seed", 0)
    model.check_monotone()
    energies = np.linspace(e_min, e_max, steps) if steps > 1 else np.array([e_min])
    nb = model.n_bath
    columns = (
        ["E"]
        + [f"J_max_{k}" for k in range(2, nb + 2)]
        + ["c_cand", "limiting_mode", "V", "phi", "std_error", "seed"]
    )
    widths = candidate_width(model, energies)
    rows = [(width.e, *width.j_max, width.c_cand, width.limiting_mode,
             flux.volume, flux.flux, flux.std_error, flux.seed)
            for width, flux in zip(widths, _volumes(model, widths, samples, seed))]
    meta = {
        "e_min": float(e_min),
        "e_max": float(e_max),
        "steps": steps,
        "samples": samples,
        "seed": seed,
        "model_e0": model.e0,
        "model_terms": model.terms,
    }
    return ExperimentReport(columns=tuple(columns), rows=rows, meta=meta)
