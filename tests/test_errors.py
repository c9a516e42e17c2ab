"""Every scalar argument check of the package is ``errors._finite`` or
``errors._integer``: one table of entry points, each refusing the same bad
values with the same ValueError, for Python and numpy scalars alike; an
array of energies names its lowest bad element."""

import math

import numpy as np
import pytest

from sympb.bottleneck import action_volume_mc, candidate_width, energy_scan, j_max_cnf
from sympb.cli import Opt, _checked
from sympb.ensembles import (EnsembleSpec, default_delta_e, sample_ensemble, scan_report,
                             transmission_scan, transmit)
from sympb.errors import DimensionError, _finite, _integer
from sympb.evolution import (default_tau_grid, evolved_shape_matrix, min_projection_area,
                             radius_scan_curves, stm)
from sympb.integrators import IntegratorConfig, ds_crossing_times, integrate, verlet_step
from sympb.kernels import substream_uniforms
from sympb.linalg import is_symplectic, random_symplectic
from sympb.models import CnfModel, EckartMorseParams, builtin_cnf, default_params

MODEL = builtin_cnf(2)


def spec(**kw):
    return EnsembleSpec(**{"n_traj": 5, "e_center": 0.0, "delta_e": 0.01, "seed": 0, **kw})


def config(**kw):
    return IntegratorConfig(**{"h": 0.1, "t_final": 1.0, **kw})


def power(i_power):
    return CnfModel(e0=0.0, terms=((0, (0,), 0.0), (i_power, (0,), 1.0), (0, (1,), 1.0)))


def flag(value):
    return _checked(Opt("e_center", float), "--e-center", value)


def mixer(**kw):
    return random_symplectic(**{"n": 2, "sigma": 0.5, "seed": 0, **kw})


def scan(**kw):
    return energy_scan(MODEL, **{"e_min": 0.0, "e_max": 0.1, "steps": 2, "samples": 100,
                                 "seed": 0, **kw})


def volume(**kw):
    return action_volume_mc(MODEL, **{"e": 0.0, "samples": 100, "seed": 0, **kw})


def roots(e):
    return j_max_cnf(MODEL, e, 2)


def mode_root(k):
    return j_max_cnf(MODEL, 0.5, k)


def width(e):
    return candidate_width(MODEL, e)


def transmitted(t_max):
    return transmit(MODEL, sample_ensemble(MODEL, spec()), t_max)


def fractions(t_max):
    return transmission_scan(MODEL, spec(), [0.5], t_max)


def scan_table(t_max):
    return scan_report(MODEL, spec(), [0.5], t_max)


def tau_grid(points):
    return default_tau_grid(MODEL, points)


def shape_matrix(**kw):
    return evolved_shape_matrix(MODEL, **{"r": 0.1, "s_mix": np.eye(4), "tau": 0.0, **kw})


def projection(r):
    return min_projection_area(MODEL, r, np.eye(4), [0.0])


def radius_scan(r):
    return radius_scan_curves(MODEL, [0.1, r], 0)


def transition(t):
    return stm(MODEL, t)


STATE = np.array([0.1, 0.0, 0.2, 0.0])


def step(h):
    return verlet_step(default_params(), STATE, h)


def crossings(x_star):
    record = integrate(default_params(), STATE, IntegratorConfig(h=0.1, t_final=1.0))
    return ds_crossing_times(record, x_star)


def symplectic(tol):
    return is_symplectic(np.eye(4), tol)


def delta_e(e_center):
    return default_delta_e(MODEL, e_center)


def uniforms(**kw):
    return substream_uniforms(**{"entropy": 0, "n": 2, "k": 2, **kw})


FINITE = "finite"
# (entry point, argument, the name its message gives, FINITE or the integer
# minimum); n of random_symplectic and the mode k of j_max_cnf have none,
# since an integer out of their range is a DimensionError
TABLE = [
    (spec, "n_traj", "n_traj", 1),
    (spec, "seed", "seed", 0),
    *[(spec, arg, arg, FINITE) for arg in ("e_center", "delta_e", "q1_range")],
    *[(config, arg, arg, FINITE) for arg in ("h", "t_final", "fd_epsilon")],
    (config, "monitor_stride", "monitor_stride", 1),
    (power, "i_power", "term 1 I power", 0),
    (flag, "value", "--e-center", FINITE),
    (mixer, "n", "n", None),
    (mixer, "sigma", "sigma", FINITE),
    (mixer, "seed", "seed", 0),
    *[(EckartMorseParams, arg, arg, FINITE)
      for arg in ("m", "eps", "A", "B", "a", "x0", "De", "aM")],
    (scan, "e_min", "e_min", FINITE),
    (scan, "e_max", "e_max", FINITE),
    (scan, "steps", "steps", 1),
    (scan, "samples", "samples", 1),
    (scan, "seed", "seed", 0),
    (volume, "e", "e", FINITE),
    (volume, "samples", "samples", 1),
    (volume, "seed", "seed", 0),
    (roots, "e", "e", FINITE),
    (mode_root, "k", "k", None),
    (width, "e", "e", FINITE),
    *[(call, "t_max", "t_max", FINITE) for call in (transmitted, fractions, scan_table)],
    (tau_grid, "points", "points", 1),
    (shape_matrix, "tau", "tau", FINITE),
    *[(call, "r", "r", FINITE) for call in (projection, shape_matrix, radius_scan)],
    (transition, "t", "t", FINITE),
    (step, "h", "h", FINITE),
    (crossings, "x_star", "x_star", FINITE),
    (symplectic, "tol", "tol", FINITE),
    (delta_e, "e_center", "e_center", FINITE),
    (uniforms, "n", "n", 0),
    (uniforms, "k", "k", 0),
]
# None asks these for their default horizon
NONE_IS_DEFAULT = {(fractions, "t_max"), (scan_table, "t_max")}
# an infinite tolerance passes every defect that is not NaN
INF_IS_ALLOWED = {(symplectic, "tol")}


def twin(value):
    """The numpy scalar of a Python bool, int or float; other values as they are."""
    for kind, scalar in ((bool, np.bool_), (int, np.int64), (float, np.float64)):
        if type(value) is kind:
            return scalar(value)
    return value


def message(what, minimum, value):
    if minimum == FINITE:
        return f"{what} must be a finite number, got {value!r}"
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        return f"{what} must be an integer, got {value!r}"
    return f"{what} must be >= {minimum}, got {value}"


@pytest.mark.parametrize("call, arg, what, minimum", TABLE,
                         ids=[f"{call.__name__}-{arg}" for call, arg, _, _ in TABLE])
def test_scalar_arguments_are_checked_by_the_one_owner(call, arg, what, minimum):
    # before: EnsembleSpec raised a bare TypeError for a str e_center or
    # q1_range and kept e_center=True; EckartMorseParams kept nan, inf and
    # True; action_volume_mc(model, nan, ...) raised ConvergenceError;
    # j_max_cnf and candidate_width parsed "1", transmission_scan counted
    # every point of an infinite horizon as transmitted, a radius of True was
    # 1 and stm(model, inf) raised "math domain error"; j_max_cnf solved mode
    # 2 for k = 2.5 or "2", verlet_step stepped to NaN for h = nan and by 1
    # for h = True, is_symplectic(m, nan) was False, default_delta_e(model,
    # nan) nan, ds_crossing_times(record, nan) [], and substream_uniforms
    # took n = 2.5 as 2 and n = True as 1
    values = [True, "1", math.nan]
    if (call, arg) not in NONE_IS_DEFAULT:
        values.insert(2, None)
    if (call, arg) not in INF_IS_ALLOWED:
        values.append(math.inf)
    if minimum != FINITE:
        values += [2.5] if minimum is None else [2.5, -1]
    for value in values + [twin(v) for v in values]:
        with pytest.raises(ValueError) as info:
            call(**{arg: value})
        assert type(info.value) is ValueError, (what, value)
        assert str(info.value) == message(what, minimum, value), (what, value)


def test_the_owner_returns_floats_and_ints():
    for value in (2, 2.5, np.float64(2.5), np.int64(-7), 2**1000):
        assert type(_finite(value, "x")) is float and _finite(value, "x") == value
    # an int beyond the float range is no finite number
    with pytest.raises(ValueError, match=r"^x must be a finite number, got 1000\d+$"):
        _finite(10**400, "x")
    for value in (np.int64(3), np.uint8(255), 2**70):
        assert type(_integer(value, "k", 0)) is int and _integer(value, "k", 0) == value
    assert _integer(-5, "k") == -5


def test_energy_arrays_name_their_lowest_bad_element():
    # before: "1" was parsed and a NaN energy failed its root with a
    # ConvergenceError
    for call in (roots, width):
        for e, i, bad in (([0.1, "1", math.nan], 1, "'1'"),
                          ([0.1, 0.2, math.inf], 2, "inf"),
                          (np.array([0.1, np.nan]), 1, "np.float64(nan)"),
                          (np.array([True, False]), 0, "np.True_"),
                          ([0.1, 10**400], 1, str(10**400))):
            with pytest.raises(ValueError) as info:
                call(e)
            assert str(info.value) == f"e[{i}] must be a finite number, got {bad}"


def test_mode_arrays_name_their_lowest_bad_element():
    # before: np.asarray(k, dtype=int) truncated 2.5 to 2 and took "3" and
    # True as modes; an integer that is no bath mode stays a DimensionError
    model = builtin_cnf(3)
    for k, i, bad in (([2, 2.5], 1, "2.5"), (["2", 3], 0, "'2'"),
                      (np.array([2.0, 3.0]), 0, "np.float64(2.0)"),
                      (np.array([True, False]), 0, "np.True_"), ([2, None], 1, "None")):
        with pytest.raises(ValueError) as info:
            j_max_cnf(model, [0.5, 0.6], k)
        assert str(info.value) == f"k[{i}] must be an integer, got {bad}"
    with pytest.raises(DimensionError, match="mode index k must be in"):
        j_max_cnf(model, [0.5, 0.6], [2, 4])
    assert j_max_cnf(model, [0.5, 0.6], np.array([3, 2], dtype=np.uint8)).tolist() == [
        j_max_cnf(model, 0.5, 3), j_max_cnf(model, 0.6, 2)]


def test_stm_refuses_a_bath_angle_that_overflows():
    # before: ValueError "math domain error" from math.cos; the saddle block
    # of a finite angle may still overflow to inf
    with pytest.raises(ValueError) as info:
        stm(MODEL, 1e308)
    wt = MODEL.omegas[0] * 1e308
    assert str(info.value) == f"t = 1e+308 gives a bath angle omega t = {wt}, not a finite number"
    phi = stm(MODEL, 1e300)
    assert math.isinf(phi[0, 0]) and np.isfinite(phi[np.ix_((1, 3), (1, 3))]).all()
