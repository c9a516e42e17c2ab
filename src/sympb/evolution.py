"""Linear evolution of ellipsoids and saddle-plane shadow areas.

The flow is the linearisation of a normal form at its saddle: only the
linear part of a ``CnfModel`` (``lam``, ``omegas``, ``e0``) enters, and its
state-transition matrix is exact, a hyperbolic block on the reactive pair
``(Q_1, P_1)`` and a rotation per bath mode.  A round ball of radius r,
skewed by a symplectic mixer and evolved backward in time, casts a shadow on
the saddle plane whose area ``A(tau)`` can touch but never cross the ball
capacity ``pi r^2``.

Only the saddle block of the state-transition matrix touches the rows
``0`` and ``n`` that the saddle-plane projection P keeps, so
``P Phi(-tau) S = B(-tau) P S`` with ``B`` the 2x2 hyperbolic block.  The
shadow area is therefore ``A(tau) = pi r^2 g(tau)`` with
``g = sqrt(det(B P S S^T P^T B^T))``: one factor curve per mixer serves every
radius, and it is computed for the whole tau grid at once from stacked 2x2
blocks, with the mixer checked once per curve.  Since ``det B = 1`` the
exact ``g`` is ``sqrt(det(P S S^T P^T))`` at every tau; the stacked Gram
determinant is kept only where ``c00*c11`` is at most ``CANCEL_LIMIT`` times
it, and the tau-independent value stands in everywhere else.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .bottleneck import candidate_width
from .errors import DimensionError, PreconditionError, _finite, _integer
from .linalg import is_symplectic, random_symplectic
from .models import CnfModel
from .tables import ExperimentReport, csv_text, format_column, write_text

__all__ = [
    "ProjectionAreaCurve",
    "stm",
    "min_projection_area",
    "evolved_shape_matrix",
    "default_tau_grid",
    "radius_scan_curves",
    "write_curves",
]

MIXER_TOL = 1e-10
CANCEL_LIMIT = 1e5
DEFAULT_TAU_POINTS = 600
DEFAULT_SIGMA = 0.5
CURVE_COLUMNS = ("tau", "area")


@dataclass(frozen=True)
class ProjectionAreaCurve:
    """Shadow areas A(tau) over a time grid, with the ball capacity for scale."""

    r: float
    taus: np.ndarray
    areas: np.ndarray
    min_area: float
    gromov_scale: float

    def to_report(self) -> ExperimentReport:
        """The curve as a (tau, area) table."""
        rows = list(zip(self.taus.tolist(), self.areas.tolist()))
        return ExperimentReport(columns=CURVE_COLUMNS, rows=rows, meta=_curve_meta(self))


def _curve_meta(curve: ProjectionAreaCurve) -> dict:
    return {"r": curve.r, "min_area": curve.min_area, "gromov_scale": curve.gromov_scale}


def write_curves(curves, prefix: str, meta: dict) -> None:
    """Write curve ``i`` to ``{prefix}_r{i}.csv`` as ``curve.to_report()``
    with ``meta`` and ``radius_index`` added to its metadata would write it.

    Each distinct tau grid is formatted once: curves share a formatted grid
    when their grids have the same dtype and bytes (not when they compare
    equal, since ``-0.0 == 0.0`` prints ``-0``).  The float64 area columns of
    all curves are formatted in one ``format_column`` pass over their
    concatenation, so each distinct bit pattern is formatted once per call;
    an area array of another dtype is formatted on its own."""
    grids = {}
    areas = _area_cells([curve.areas for curve in curves])
    for i, curve in enumerate(curves):
        key = (curve.taus.dtype.str, curve.taus.tobytes())
        if key not in grids:
            grids[key] = format_column(curve.taus.tolist())
        write_text(f"{prefix}_r{i}.csv",
                   csv_text({**_curve_meta(curve), **meta, "radius_index": i},
                            CURVE_COLUMNS, [grids[key], areas[i]]))


def _area_cells(columns) -> list:
    """``format_column`` of each area column, with every float64 column
    formatted in one pass over their concatenation and split back by length
    (mixing in another dtype would change its strings)."""
    wide = [column for column in columns if column.dtype == np.float64]
    strings = iter(format_column(np.concatenate(wide)) if wide else ())
    return [list(islice(strings, len(column))) if column.dtype == np.float64
            else format_column(column) for column in columns]


def stm(model: CnfModel, t: float) -> np.ndarray:
    """State-transition matrix of the model's linearisation at time t.

    Saddle block ``[[cosh lt, sinh lt], [sinh lt, cosh lt]]`` on (Q_1, P_1),
    rotation ``[[cos wt, sin wt], [-sin wt, cos wt]]`` on each bath pair,
    assembled in the global ``(q..., p...)`` ordering.  The saddle block is
    ``_saddle_blocks`` at ``tau = -t``, infinite where cosh overflows.  A
    ``t`` that is not a finite number, or whose bath angle ``omega t``
    overflows, raises ValueError.
    """
    t = _finite(t, "t")
    n = model.n_dof
    phi = np.zeros((2 * n, 2 * n))
    phi[np.ix_((0, n), (0, n))] = _saddle_blocks(model.lam, np.array([-t]))[0]
    for i, omega in enumerate(model.omegas, start=1):
        wt = omega * t
        if not math.isfinite(wt):
            raise ValueError(f"t = {t} gives a bath angle omega t = {wt}, not a finite number")
        c, s = math.cos(wt), math.sin(wt)
        phi[i, i] = c
        phi[i, n + i] = s
        phi[n + i, i] = -s
        phi[n + i, n + i] = c
    return phi


def _check_mixer(model: CnfModel, s_mix) -> np.ndarray:
    s_mix = np.asarray(s_mix, dtype=float)
    n = model.n_dof
    if s_mix.shape != (2 * n, 2 * n):
        raise DimensionError(
            f"mixer shape {s_mix.shape} does not match the model dimension {2 * n}"
        )
    if not is_symplectic(s_mix, MIXER_TOL):
        raise PreconditionError(
            f"mixing matrix is not symplectic at tolerance {MIXER_TOL:.0e}"
        )
    return s_mix


def _check_grid(tau_grid) -> np.ndarray:
    """``tau_grid`` as a float array.  Raises ValueError when it is empty,
    naming its lowest element ``tau_grid[i]`` that is not a finite number,
    and when it is not sorted ascending."""
    taus = np.asarray(tau_grid, dtype=float)
    if taus.size == 0:
        raise ValueError("tau grid must be nonempty")
    if not np.isfinite(taus).all():
        for i, tau in enumerate(taus.ravel().tolist()):
            _finite(tau, f"tau_grid[{i}]")
    if np.any(np.diff(taus) < 0):
        raise ValueError("tau grid must be sorted ascending")
    return taus


def _check_radius(r) -> float:
    """``float(r)``; refuse a radius that is not a finite number, not
    positive, whose ``pi r^2`` is not finite, or whose ``r^2`` is below the
    smallest normal float (there the areas round to 0 and the shape matrix
    ``1 / r^2`` is inf or singular)."""
    r = _finite(r, "r")
    if r <= 0:
        raise ValueError(f"radius must be > 0, got {r}")
    if not math.isfinite(math.pi * r * r):
        raise ValueError(f"radius {r} gives pi r^2 = {math.pi * r * r}, not a finite number")
    if r * r < sys.float_info.min:
        raise ValueError(
            f"radius {r} gives r^2 = {r * r}, below the smallest normal float "
            f"{sys.float_info.min}"
        )
    return r


def _cosh_sinh(lt: float) -> tuple:
    try:
        return math.cosh(lt), math.sinh(lt)
    except OverflowError:
        return math.inf, math.copysign(math.inf, lt)


def _saddle_blocks(lam: float, taus: np.ndarray) -> np.ndarray:
    """The saddle blocks ``B(-tau)`` of ``stm`` over a tau grid, stacked
    ``(T, 2, 2)``.

    ``math.cosh`` and ``math.sinh`` are mapped over the whole grid of
    ``lt = lam * -tau`` and written into the block array one entry slice at
    a time.  A point whose ``cosh`` or ``sinh`` overflows gets
    ``c, s = inf, +/-inf`` with the sign of ``lt``: when either map raises,
    the grid is redone point by point with that rule.
    """
    lts = (lam * -taus).tolist()
    blocks = np.empty((len(lts), 2, 2))
    try:
        blocks[:, 0, 0] = list(map(math.cosh, lts))
        blocks[:, 0, 1] = list(map(math.sinh, lts))
    except OverflowError:
        blocks[:, 0, 0], blocks[:, 0, 1] = zip(*map(_cosh_sinh, lts))
    blocks[:, 1, 1] = blocks[:, 0, 0]
    blocks[:, 1, 0] = blocks[:, 0, 1]
    return blocks


def _shadow_factors(model: CnfModel, s_mix, taus: np.ndarray) -> np.ndarray:
    """Area factors ``g(tau) = A(tau) / (pi r^2)`` over a whole tau grid.

    The mixer is checked once.  The blocks ``B(-tau)`` come from
    ``_saddle_blocks``, with the ``math.cosh``/``math.sinh`` values ``stm``
    uses, and ``g = B P S`` and its Gram matrices are stacked ``(T, 2, 2n)``
    and ``(T, 2, 2)`` products, so every factor equals the per-point
    ``P Phi(-tau) S`` evaluation bit for bit.
    The Gram determinant ``c00*c11 - c01*c10`` sums terms of size
    ``cosh^4``; where ``c00*c11`` is more than ``CANCEL_LIMIT`` times it
    (more than five of its sixteen digits cancelled, or a negative or NaN
    result) it is replaced by ``det(P S S^T P^T)``, its exact value since
    ``det B = 1``.  A ``cosh`` that overflows gives an infinite block, whose
    NaN determinant takes that value too.
    """
    s_mix = _check_mixer(model, s_mix)
    n = model.n_dof
    rows = s_mix[[0, n], :]
    # Overflowed or NaN entries fail the CANCEL_LIMIT test and take det0.
    with np.errstate(over="ignore", invalid="ignore"):
        g = _saddle_blocks(model.lam, taus) @ rows
        gram = g @ g.transpose(0, 2, 1)
        det = gram[:, 0, 0] * gram[:, 1, 1] - gram[:, 0, 1] * gram[:, 1, 0]
        kept = det * CANCEL_LIMIT >= gram[:, 0, 0] * gram[:, 1, 1]
    gram0 = rows @ rows.T
    det0 = gram0[0, 0] * gram0[1, 1] - gram0[0, 1] * gram0[1, 0]
    return np.sqrt(np.where(kept, det, det0))


def _curve(r: float, taus: np.ndarray, factors: np.ndarray) -> ProjectionAreaCurve:
    areas = math.pi * r * r * factors
    return ProjectionAreaCurve(
        r=r,
        taus=taus,
        areas=areas,
        min_area=float(areas.min()),
        gromov_scale=math.pi * r * r,
    )


def min_projection_area(model: CnfModel, r: float, s_mix, tau_grid) -> ProjectionAreaCurve:
    """Evaluate the saddle-plane shadow area of the mixed ball evolved
    backward to each time of a sorted grid of finite times, and record the
    curve and its minimum.

    ``A(tau) = pi r^2 sqrt(det(P Phi(-tau) S S^T Phi(-tau)^T P^T))`` where P
    selects the (Q_1, P_1) rows; a grid of one point gives one area.
    """
    taus = _check_grid(tau_grid)
    r = _check_radius(r)
    return _curve(r, taus, _shadow_factors(model, s_mix, taus))


def evolved_shape_matrix(model: CnfModel, r: float, s_mix, tau: float) -> np.ndarray:
    """Shape matrix of the evolved ellipsoid ``Phi(-tau) S_mix B(r)``.

    Returns the symmetric PD matrix M with the evolved set equal to
    ``{z : z^T M z <= 1}``; its capacity (``linalg.ellipsoid_capacity``)
    stays ``pi r^2``.  A ``tau`` that is not a finite number, or whose
    saddle block overflows, raises ValueError.
    """
    r = _check_radius(r)
    s_mix = _check_mixer(model, s_mix)
    if not math.isfinite(_cosh_sinh(model.lam * _finite(tau, "tau"))[0]):
        raise ValueError(f"tau = {tau} gives a saddle block cosh(lam tau) that is not finite")
    t = stm(model, -tau) @ s_mix
    m = np.linalg.inv(r * r * (t @ t.T))
    return 0.5 * (m + m.T)


def default_tau_grid(model: CnfModel, points: int = DEFAULT_TAU_POINTS) -> np.ndarray:
    """Uniform grid of ``points`` times on [0, 3/lambda] (a few e-foldings);
    ``points`` is an integer >= 1."""
    return np.linspace(0.0, 3.0 / model.lam, _integer(points, "points", 1))


def radius_scan_curves(model: CnfModel, radii, s_mix_seed: int, tau_grid=None,
                       sigma: float = DEFAULT_SIGMA, e_ref: float = 0.0,
                       ) -> tuple[ExperimentReport, list[ProjectionAreaCurve]]:
    """The radius-scan table and the A(tau) curve of every radius.

    One random mixer is drawn from ``s_mix_seed`` and its area factors are
    evaluated once over the grid; every radius scales the same factors.
    Returns ``(report, curves)`` with one ``ProjectionAreaCurve`` per radius.
    The report's reference column is the candidate width at the central
    energy ``e_ref``, the dashed comparison level of the infimum-scaling
    figure.
    """
    radii = [_check_radius(r) for r in radii]
    if not radii:
        raise ValueError("need at least one radius")
    if tau_grid is None:
        tau_grid = default_tau_grid(model)
    s_mix = random_symplectic(model.n_dof, sigma, s_mix_seed)
    c_ref = candidate_width(model, e_ref).c_cand
    taus = _check_grid(tau_grid)
    factors = _shadow_factors(model, s_mix, taus)
    curves = [_curve(r, taus, factors) for r in radii]
    rows = [(c.r, c.min_area, c.gromov_scale, c_ref) for c in curves]
    meta = {
        "s_mix_seed": int(s_mix_seed),
        "sigma": float(sigma),
        "e_ref": float(e_ref),
        "tau_points": int(len(taus)),
        "tau_max": float(taus[-1]),
        "lam": model.lam,
        "omegas": list(model.omegas),
        "e0": model.e0,
    }
    report = ExperimentReport(
        columns=("r", "min_area", "pi_r2", "c_cand_ref"), rows=rows, meta=meta
    )
    return report, curves

