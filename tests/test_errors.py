"""Every scalar argument check of the package is ``errors._finite`` or
``errors._integer``: one table of entry points, each refusing the same bad
values with the same ValueError, for Python and numpy scalars alike."""

import math

import numpy as np
import pytest

from sympb.bottleneck import action_volume_mc, energy_scan
from sympb.cli import Opt, _checked
from sympb.ensembles import EnsembleSpec
from sympb.errors import _finite, _integer
from sympb.evolution import default_tau_grid, evolved_shape_matrix
from sympb.integrators import IntegratorConfig
from sympb.linalg import random_symplectic
from sympb.models import CnfModel, EckartMorseParams, builtin_cnf

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


def tau_grid(points):
    return default_tau_grid(MODEL, points)


def shape_matrix(tau):
    return evolved_shape_matrix(MODEL, 0.1, np.eye(4), tau)


FINITE = "finite"
# (entry point, argument, the name its message gives, FINITE or the integer
# minimum); n of random_symplectic has none, since n < 1 is a DimensionError
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
    (tau_grid, "points", "points", 1),
    (shape_matrix, "tau", "tau", FINITE),
]


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
    # True; action_volume_mc(model, nan, ...) raised ConvergenceError
    values = [True, "1", None, math.nan, math.inf]
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
