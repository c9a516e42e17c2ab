"""Symplectic trajectory integration with energy and symplecticity monitors.

The Eckart-Morse(-Morse) Hamiltonian is separable (kinetic energy depends
only on momenta, even with the eps momentum coupling), so fixed-step
Stormer-Verlet applies.  Health checks: maximal energy drift over the
monitored samples, and the deviation ``max |M^T J M - J|`` of the
finite-difference Jacobian M of the time-t map from symplecticity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import DimensionError, DivergenceError, _finite, _integer
from .linalg import symplecticity_defect
from .models import EckartMorseParams, full_hamiltonian

__all__ = [
    "IntegratorConfig",
    "TrajectoryRecord",
    "verlet_step",
    "integrate",
    "ds_crossing_times",
]

# Largest record arrays (states of the trajectory and of its displaced rows at
# every monitored step) that integrate allocates: 1 GiB.
MAX_RECORD_BYTES = 2**30
# Largest number of Verlet steps that integrate runs: about 20 minutes at
# 12 us per batched step of 13 rows (2 shared vCPU).
MAX_STEPS = 10**8


@dataclass(frozen=True)
class IntegratorConfig:
    h: float
    t_final: float
    monitor_stride: int = 10
    fd_epsilon: float = 1e-6
    compute_jacobian: bool = True

    def __post_init__(self):
        for field in ("h", "t_final", "fd_epsilon"):
            _finite(getattr(self, field), field)
        _integer(self.monitor_stride, "monitor_stride", 1)
        if self.h <= 0:
            raise ValueError(f"step h must be > 0, got {self.h}")
        if self.t_final <= 0:
            raise ValueError(f"t_final must be > 0, got {self.t_final}")
        if not math.isfinite(self.t_final / self.h):
            raise ValueError(f"t_final / h must be a finite step count, got t_final = "
                             f"{self.t_final!r} and h = {self.h!r}")
        if self.fd_epsilon <= 0:
            raise ValueError(f"fd_epsilon must be > 0, got {self.fd_epsilon}")

    @property
    def nsteps(self) -> int:
        """Number of Verlet steps: ``t_final / h`` rounded, and at least one."""
        return max(1, int(round(self.t_final / self.h)))


@dataclass(frozen=True)
class TrajectoryRecord:
    times: np.ndarray
    states: np.ndarray
    energies: np.ndarray
    energy_drift: float
    symplecticity_error: float | None
    jacobian: np.ndarray | None = None


def _split_state(state) -> tuple:
    state = np.asarray(state, dtype=float)
    if state.ndim != 1 or state.size % 2 != 0:
        raise DimensionError(f"state must be a flat (2d,) array, got shape {state.shape}")
    d = state.size // 2
    if d not in (2, 3):
        raise DimensionError(f"supported systems have 2 or 3 degrees of freedom, got {d}")
    return state[:d].copy(), state[d:].copy()


def verlet_step(p: EckartMorseParams, state, h: float) -> np.ndarray:
    """One kick-drift-kick step of size h, a finite number (it may be
    negative, which exactly reverses a forward step)."""
    h = _finite(h, "h")
    q, mom = _split_state(state)
    qs, ps, _ = kernels.verlet_run(p, q[None], mom[None], h, 1, 1)
    return np.concatenate([qs[-1, 0], ps[-1, 0]])


def integrate(p: EckartMorseParams, state0, cfg: IntegratorConfig) -> TrajectoryRecord:
    """Fixed-step integration to t_final with monitored records.

    States are recorded every ``monitor_stride`` steps (first and last always
    included).  When ``compute_jacobian`` is set, the Jacobian of the
    time-t_final map is estimated by central differences and its
    symplecticity defect reported: the trajectory and its 4d displaced
    trajectories run as one Verlet batch of 1 + 4d rows, and each row gives
    the same bytes as on its own.  A non-finite monitored state raises
    DivergenceError carrying the time of that record; the message names an
    auxiliary trajectory when only a displaced row is non-finite there.
    A run whose records would take more than MAX_RECORD_BYTES, or that would
    take more than MAX_STEPS steps, raises ValueError before anything is
    allocated.
    """
    q0, p0 = _split_state(state0)
    d = q0.size
    nsteps = cfg.nsteps
    eps = cfg.fd_epsilon
    starts = np.concatenate([q0, p0])[None]
    if cfg.compute_jacobian:
        # rows 1 + 2c and 2 + 2c displace coordinate c by +eps and -eps
        cols = np.arange(2 * d)
        starts = np.repeat(starts, 1 + 4 * d, axis=0)
        starts[1 + 2 * cols, cols] += eps
        starts[2 + 2 * cols, cols] -= eps
    nrec = kernels.record_count(nsteps, cfg.monitor_stride)
    if nrec * starts.nbytes > MAX_RECORD_BYTES:
        raise ValueError(
            f"t_final = {cfg.t_final!r} with h = {cfg.h!r} and monitor_stride = "
            f"{cfg.monitor_stride} would record {nrec} steps of {starts.nbytes} bytes "
            f"each, above the limit MAX_RECORD_BYTES = {MAX_RECORD_BYTES} bytes; raise h "
            f"or monitor_stride"
        )
    if nsteps > MAX_STEPS:
        raise ValueError(
            f"t_final = {cfg.t_final!r} with h = {cfg.h!r} would take {nsteps} steps, "
            f"above the limit MAX_STEPS = {MAX_STEPS}; raise h or lower t_final"
        )
    times = np.append(np.arange(0, nsteps, cfg.monitor_stride), nsteps) * float(cfg.h)
    qs, ps, bad = kernels.verlet_run(
        p, starts[:, :d], starts[:, d:], cfg.h, nsteps, cfg.monitor_stride
    )
    if bad >= 0:
        main_finite = np.isfinite(qs[bad, 0]).all() and np.isfinite(ps[bad, 0]).all()
        what = "auxiliary trajectory" if main_finite else "state"
        raise DivergenceError(f"{what} became non-finite at t = {times[bad]:.6g}",
                              time=times[bad])
    states = np.hstack([qs[:, 0], ps[:, 0]])
    energies = full_hamiltonian(p, states)
    drift = float(np.max(np.abs(energies - energies[0])))
    sympl_err = None
    jac = None
    if cfg.compute_jacobian:
        final = np.hstack([qs[-1, 1:], ps[-1, 1:]])
        jac = ((final[0::2] - final[1::2]) / (2.0 * eps)).T.copy()
        sympl_err = symplecticity_defect(jac)
    return TrajectoryRecord(
        times=times,
        states=states,
        energies=energies,
        energy_drift=drift,
        symplecticity_error=sympl_err,
        jacobian=jac,
    )


def ds_crossing_times(record: TrajectoryRecord, x_star: float = 0.0) -> list:
    """Linear-interpolated times where x crosses x_star, labeled by direction.

    Returns ``(time, "forward")`` for crossings with p_x > 0 and
    ``(time, "backward")`` for p_x < 0 (interpolated momentum; exact zeros
    are skipped).  ``x_star`` is a finite number.
    """
    x_star = _finite(x_star, "x_star")
    if record.states.shape[0] < 1:
        raise ValueError("record is empty")
    d = record.states.shape[1] // 2
    x = record.states[:, 0] - x_star
    px = record.states[:, d]
    t = record.times
    out = []
    for i in range(len(x) - 1):
        if x[i] == 0.0:
            if px[i] != 0.0:
                out.append((float(t[i]), "forward" if px[i] > 0 else "backward"))
            continue
        if x[i] * x[i + 1] < 0.0:
            theta = x[i] / (x[i] - x[i + 1])
            tc = t[i] + theta * (t[i + 1] - t[i])
            pc = px[i] + theta * (px[i + 1] - px[i])
            if pc != 0.0:
                out.append((float(tc), "forward" if pc > 0 else "backward"))
    if len(x) >= 2 and x[-1] == 0.0 and px[-1] != 0.0:
        out.append((float(t[-1]), "forward" if px[-1] > 0 else "backward"))
    return out
