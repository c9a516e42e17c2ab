"""Every scalar argument check of the package is ``errors._finite`` or
``errors._integer``: one table of entry points, each refusing the same bad
values with the same ValueError, for Python and numpy scalars alike.  Every
argument that is one number or a 1-d list is read by ``errors._elements``:
a second table, whose lists name their lowest bad element.  A third table
refuses an empty matrix with a DimensionError naming it."""

import math

import numpy as np
import pytest

import sympb.bottleneck

from sympb.bottleneck import action_volume_mc, candidate_width, energy_scan, j_max_cnf
from sympb.cli import Opt, _checked
from sympb.ensembles import (EnsembleSpec, default_delta_e, sample_ensemble, scan_report,
                             transmission_scan, transmit)
from sympb.errors import DimensionError, _finite, _integer
from sympb.evolution import (default_tau_grid, evolved_shape_matrix, min_projection_area,
                             radius_scan_curves, stm)
from sympb.integrators import IntegratorConfig, ds_crossing_times, integrate, verlet_step
from sympb.kernels import count_box_hits, substream_uniforms
from sympb.linalg import (ellipsoid_capacity, is_symplectic, random_symplectic, standard_j,
                          symmetric_sqrt, symplectic_spectrum, symplectic_spectrum_blockdiag,
                          symplecticity_defect)
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


def box_hits(e):
    return count_box_hits(MODEL, np.zeros((2, 1)), e)


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
# minimum); n of random_symplectic and standard_j and the mode k of
# j_max_cnf have none, since an integer out of their range is a DimensionError
TABLE = [
    (spec, "n_traj", "n_traj", 1),
    (spec, "seed", "seed", 0),
    *[(spec, arg, arg, FINITE) for arg in ("e_center", "delta_e", "q1_range")],
    *[(config, arg, arg, FINITE) for arg in ("h", "t_final", "fd_epsilon")],
    (config, "monitor_stride", "monitor_stride", 1),
    (power, "i_power", "term 1 I power", 0),
    (flag, "value", "--e-center", FINITE),
    (mixer, "n", "n", None),
    (standard_j, "n", "n", None),
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
    *[(call, "r", "r", FINITE) for call in (projection, shape_matrix)],
    (radius_scan, "r", "radii[1]", FINITE),
    (transition, "t", "t", FINITE),
    (step, "h", "h", FINITE),
    (crossings, "x_star", "x_star", FINITE),
    (symplectic, "tol", "tol", FINITE),
    (delta_e, "e_center", "e_center", FINITE),
    (uniforms, "n", "n", 0),
    (uniforms, "k", "k", 0),
    (box_hits, "e", "e", FINITE),
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
    # nan) nan, ds_crossing_times(record, nan) [], substream_uniforms
    # took n = 2.5 as 2 and n = True as 1, count_box_hits counted 0 hits for
    # e = nan and K(0, J) <= 1 for e = True, and radius_scan_curves named r
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


def bands(xi):
    return sample_ensemble(MODEL, spec(), xi)


def band_scan(xis):
    return transmission_scan(MODEL, spec(), xis)


def band_table(xis):
    return scan_report(MODEL, spec(), xis)


def grid_area(tau_grid):
    return min_projection_area(MODEL, 0.1, np.eye(4), tau_grid)


def grid_scan(tau_grid):
    return radius_scan_curves(MODEL, [0.1], 0, tau_grid)


def radii_scan(radii):
    return radius_scan_curves(MODEL, radii, 0)


# (entry point, the name its messages give, a good element, FINITE or None
# for an integer as in TABLE); each entry point takes the list as its one
# argument
ARRAY_TABLE = [
    (roots, "e", 0.5, FINITE),
    (width, "e", 0.5, FINITE),
    (mode_root, "k", 2, None),
    (bands, "xi", 0.5, FINITE),
    (band_scan, "xis", 0.5, FINITE),
    (band_table, "xis", 0.5, FINITE),
    (grid_area, "tau_grid", 0.0, FINITE),
    (grid_scan, "tau_grid", 0.0, FINITE),
    (radii_scan, "radii", 0.1, FINITE),
]


@pytest.mark.parametrize("call, what, good, check", ARRAY_TABLE,
                         ids=[f"{call.__name__}-{what}" for call, what, _, _ in ARRAY_TABLE])
def test_list_arguments_are_checked_by_the_one_owner(call, what, good, check):
    # before: bottleneck._energies, the mode loop of _j_max_solve and
    # evolution._check_grid each had their own loop; min_projection_area
    # took ['0', '1'] and [False, True] as tau grids and died on [[0.0],
    # [1.0]] with a bare TypeError, sample_ensemble drew bands for '0.5' and
    # True, transmission_scan counted bands 0.5 and 1.0 for ['0.5'] and
    # [True], and radius_scan_curves iterated the string '0.1'
    values = ["1", True, None, math.nan, math.inf]
    values += [twin(v) for v in values] + [10**400 if check == FINITE else 2.5]
    for bad in values:
        cases = [([good, bad], 1), ([good, bad, "x"], 1), ([bad, good], 0), (bad, None)]
        if bad is None and call is grid_scan:
            cases.pop()  # None asks for the default grid
        for value, i in cases:
            with pytest.raises(ValueError) as info:
                call(value)
            named = what if i is None else f"{what}[{i}]"
            assert type(info.value) is ValueError, (value, str(info.value))
            assert str(info.value) == message(named, check, bad), value
    # an ndarray names its elements as numpy scalars (a float array of modes
    # is refused at its first element), and a ragged list its first list
    for value, i in ((np.array([good, math.nan]), 1 if check == FINITE else 0),
                     (np.array([True, False]), 0), ([good, [good]], 1)):
        with pytest.raises(ValueError) as info:
            call(value)
        assert str(info.value) == message(f"{what}[{i}]", check, value[i])
    for value in ([[good], [good]], np.full((1, 2, 1), good)):
        with pytest.raises(DimensionError) as info:
            call(value)
        shape = np.shape(value)
        assert str(info.value) == f"{what} must be one value or a 1-d list, got shape {shape}"


def test_mode_arrays_match_their_energies(monkeypatch):
    # before: numpy broadcast errors ("operands could not be broadcast
    # together ...", "input operand has more dimensions than allowed ...");
    # an integer that is no bath mode stays a DimensionError, and every
    # refusal comes before any root is solved
    model = builtin_cnf(3)
    evals = []
    monkeypatch.setattr(sympb.bottleneck, "eval_k0", lambda model, j: evals.append(j))
    for e, k in ((0.5, [2, 3]), ([0.5, 0.6], [2, 3, 2]), ([0.5], [3, 2]), ([], [2, 3])):
        with pytest.raises(DimensionError) as info:
            j_max_cnf(model, e, k)
        assert str(info.value) == (f"modes k of shape {np.shape(k)} do not match energies e of "
                                   f"shape {np.shape(e)}: give one mode or one per energy")
    with pytest.raises(DimensionError) as info:
        j_max_cnf(model, [0.5, 0.6], [[2], [3]])
    assert str(info.value) == "k must be one value or a 1-d list, got shape (2, 1)"
    with pytest.raises(DimensionError, match="mode index k must be in"):
        j_max_cnf(model, [0.5, 0.6], [2, 4])
    with pytest.raises(DimensionError, match=f"got {2**63 + 2}$"):
        j_max_cnf(model, 0.5, np.array([2**63 + 2], dtype=np.uint64))
    assert evals == []
    monkeypatch.undo()
    assert j_max_cnf(model, [0.5, 0.6], np.array([3, 2], dtype=np.uint8)).tolist() == [
        j_max_cnf(model, 0.5, 3), j_max_cnf(model, 0.6, 2)]
    assert j_max_cnf(model, [0.5, 0.6], [3]).tolist() == [
        j_max_cnf(model, 0.5, 3), j_max_cnf(model, 0.6, 3)]
    assert j_max_cnf(model, 0.5, [3]) == j_max_cnf(model, 0.5, 3)


def test_stm_refuses_a_bath_angle_that_overflows():
    # before: ValueError "math domain error" from math.cos; the saddle block
    # of a finite angle may still overflow to inf
    with pytest.raises(ValueError) as info:
        stm(MODEL, 1e308)
    assert str(info.value) == "bath angle omega t at t = 1e+308 must be a finite number, got inf"
    phi = stm(MODEL, 1e300)
    assert math.isinf(phi[0, 0]) and np.isfinite(phi[np.ix_((1, 3), (1, 3))]).all()


# (n, the exception and the message of standard_j); random_symplectic
# checks n through standard_j before its sigma and seed
DOF_ROWS = [
    (0, DimensionError, "need n >= 1 degrees of freedom, got n = 0"),
    (-3, DimensionError, "need n >= 1 degrees of freedom, got n = -3"),
    (np.int64(0), DimensionError, "need n >= 1 degrees of freedom, got n = 0"),
    (2.5, ValueError, "n must be an integer, got 2.5"),
    (True, ValueError, "n must be an integer, got True"),
]


@pytest.mark.parametrize("n, kind, text", DOF_ROWS, ids=[repr(row[0]) for row in DOF_ROWS])
def test_degrees_of_freedom_are_checked_by_standard_j(n, kind, text):
    # before: random_symplectic repeated standard_j's check word for word
    for call in (lambda: standard_j(n), lambda: mixer(n=n, sigma=math.nan, seed=-1)):
        with pytest.raises(kind) as info:
            call()
        assert type(info.value) is kind and str(info.value) == text


def blockdiag(a):
    return symplectic_spectrum_blockdiag(a, a)


# every entry point that takes a square matrix, and the name it gives it
MATRIX_TABLE = [(symmetric_sqrt, "M"), (symplectic_spectrum, "M"), (ellipsoid_capacity, "M"),
                (blockdiag, "A"), (symplecticity_defect, "S"), (is_symplectic, "S")]


@pytest.mark.parametrize("call, what", MATRIX_TABLE,
                         ids=[f"{call.__name__}-{what}" for call, what in MATRIX_TABLE])
def test_empty_matrices_are_refused_by_their_size(call, what):
    # before: IndexError "index -1 is out of bounds" from the eigenvalue
    # check, and for the symplectic checks "need n >= 1 degrees of freedom"
    with pytest.raises(DimensionError) as info:
        call(np.zeros((0, 0)))
    assert str(info.value) == f"{what} must not be empty, got shape (0, 0)"
