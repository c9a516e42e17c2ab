import copy
import dataclasses
import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import term_sum
from sympb import (
    CnfModel,
    DimensionError,
    EckartMorseParams,
    LyapunovSignError,
    PreconditionError,
    barrier_x,
    builtin_cnf,
    cnf_from_obj,
    default_params,
    eckart_potential,
    effective_lyapunov,
    eval_cnf,
    eval_dk_di,
    eval_k0,
    full_hamiltonian,
    grad_potential,
    kinetic_energy,
    load_cnf_model,
    load_params,
    morse_potential,
    potential,
    velocities,
)
from sympb.models import MAX_POWER, _term_sum, _value


# ---------------------------------------------------------------------------
# built-in normal-form coefficient tables
# ---------------------------------------------------------------------------


def test_builtin_2dof_values():
    model = builtin_cnf(2)
    assert eval_cnf(model, 0.0, [0.0]) == -0.9875
    assert abs(eval_cnf(model, 1.0, [0.0]) - (-0.2525)) <= 1e-12
    assert abs(eval_cnf(model, 0.0, [1.0]) - 0.8350) <= 1e-12


def test_builtin_3dof_values():
    model = builtin_cnf(3)
    assert eval_cnf(model, 0.0, [0.0, 0.0]) == -0.9875
    assert abs(eval_cnf(model, 0.0, [0.0, 1.0]) - 0.2795) <= 1e-12
    assert abs(eval_cnf(model, 0.0, [1.0, 1.0]) - 2.1020) <= 1e-12


def test_builtin_3dof_structure():
    model = builtin_cnf(3)
    assert model.n_bath == 2
    assert model.n_dof == 3
    assert model.omegas == (1.8225, 1.267)
    # the second bath mode carries no cross coupling in the stored truncation
    assert model.coefficient(1, (0, 1)) == 0.0


def test_builtin_rejects_other_dof():
    with pytest.raises(DimensionError):
        builtin_cnf(4)
    with pytest.raises(DimensionError, match="^built-in models exist for 2 or 3 dof, got 1$"):
        builtin_cnf(1)


# ---------------------------------------------------------------------------
# CnfModel semantics and validation
# ---------------------------------------------------------------------------


def test_eval_cnf_arity_check():
    model = builtin_cnf(2)
    with pytest.raises(DimensionError):
        eval_cnf(model, 0.0, [0.0, 0.0])


def test_eval_cnf_linear_in_coefficients():
    base = (
        (0, (0,), 0.0),
        (1, (0,), 1.0),
        (0, (1,), 1.0),
        (1, (2,), 0.25),
    )
    model = CnfModel(e0=0.0, terms=base)
    doubled = CnfModel(
        e0=0.0, terms=base[:-1] + ((1, (2,), 0.5),)
    )
    i, j = 0.7, [1.3]
    term = 0.25 * i * j[0] ** 2
    assert abs(eval_cnf(doubled, i, j) - eval_cnf(model, i, j) - term) <= 1e-14


def test_cnf_coefficient_sums_duplicates():
    model = CnfModel(
        e0=0.0,
        terms=((0, (0,), 0.0), (1, (0,), 0.5), (1, (0,), 0.5), (0, (1,), 2.0)),
    )
    assert model.coefficient(1, (0,)) == 1.0
    assert model.lam == 1.0
    assert model.coefficient(3, (5,)) == 0.0


def test_cnf_coefficient_reads_the_key_as_given():
    # before: int() truncated the key, so (1.7, (0.9,)) read the I**1 J**0 coefficient 0.735
    model = builtin_cnf(2)
    assert model.coefficient(1.7, (0.9,)) == 0.0
    assert model.coefficient(1, (0.9,)) == 0.0
    assert model.coefficient(1.0, (0.0,)) == 0.735
    assert model.coefficient(np.int64(1), (np.int64(0),)) == 0.735


def test_cnf_refuses_powers_above_max():
    assert MAX_POWER == 64
    with pytest.raises(ValueError, match="^term 2 J power must be at most 64, got 65$"):
        CnfModel(e0=0.0, terms=((0, (0,), 0.0), (1, (0,), 1.0), (0, (65,), 1.0)))
    with pytest.raises(ValueError,
                       match="^model term 0 key 'i' must be at most 64, got 1000000000$"):
        cnf_from_obj({"e0": 0.0, "terms": [{"i": 1e9, "j": [0], "c": 1.0}]})
    model = CnfModel(e0=0.0, terms=((0, (0,), 0.0), (1, (0,), 1.0), (0, (1,), 1.0),
                                    (0, (64,), 1.0)))
    assert eval_cnf(model, 0.0, [2.0]) == 2.0 + 2.0 ** 64


def test_cnf_requires_constant_term_matching_e0():
    with pytest.raises(ValueError):
        CnfModel(e0=-1.0, terms=((0, (0,), -0.5), (1, (0,), 1.0), (0, (1,), 1.0)))
    with pytest.raises(ValueError):
        CnfModel(e0=-1.0, terms=((1, (0,), 1.0), (0, (1,), 1.0)))


def test_cnf_requires_positive_rates():
    with pytest.raises(ValueError):
        CnfModel(e0=0.0, terms=((0, (0,), 0.0), (1, (0,), -1.0), (0, (1,), 1.0)))
    with pytest.raises(ValueError):
        CnfModel(e0=0.0, terms=((0, (0,), 0.0), (1, (0,), 1.0), (0, (1,), 0.0)))


def test_cnf_rejects_bad_powers_and_arity():
    with pytest.raises(ValueError, match="^term 2 J power must be >= 0, got -1$"):
        CnfModel(e0=0.0, terms=((0, (0,), 0.0), (1, (0,), 1.0), (0, (-1,), 1.0)))
    with pytest.raises(DimensionError):
        CnfModel(e0=0.0, terms=((0, (0,), 0.0), (1, (0, 0), 1.0), (0, (1,), 1.0)))


def test_cnf_refuses_non_integral_powers():
    # before: int() truncated 1.5 to 1 and 1.9 to 1
    with pytest.raises(ValueError, match="^term 1 I power must be an integer, got 1.5$"):
        CnfModel(e0=0.0, terms=((0, (0,), 0.0), (1.5, (0,), 1.0), (0, (1,), 1.0)))
    with pytest.raises(ValueError, match="^term 2 J power must be an integer, got 1.9$"):
        CnfModel(e0=0.0, terms=((0, (0,), 0.0), (1, (0,), 1.0), (0, (1.9,), 1.0)))
    with pytest.raises(ValueError, match="got True"):
        CnfModel(e0=0.0, terms=((0, (0,), 0.0), (True, (0,), 1.0), (0, (1,), 1.0)))
    model = CnfModel(e0=0.0, terms=((0.0, (0,), 0.0), (1.0, (0,), 1.0), (0, (np.int64(1),), 1.0)))
    assert model.terms == ((0, (0,), 0.0), (1, (0,), 1.0), (0, (1,), 1.0))
    assert all(type(p) is int for _, jp, _ in model.terms for p in jp)


def test_cnf_refuses_non_finite_numbers():
    # before: the NaN rates passed `lam <= 0`, and default_t_max returned nan
    with pytest.raises(ValueError, match="^term 1 coefficient must be a finite number, got nan$"):
        CnfModel(e0=-1.0, terms=((0, (0,), -1.0), (1, (0,), math.nan), (0, (1,), math.nan)))
    with pytest.raises(ValueError, match="^term 0 coefficient must be a finite number, got inf$"):
        CnfModel(e0=-1.0, terms=((0, (0,), math.inf), (1, (0,), 1.0), (0, (1,), 1.0)))
    with pytest.raises(ValueError, match="^e0 must be a finite number, got inf$"):
        CnfModel(e0=math.inf, terms=((0, (0,), math.inf), (1, (0,), 1.0), (0, (1,), 1.0)))
    with pytest.raises(ValueError, match="^term 2 coefficient must be a finite number, got True$"):
        CnfModel(e0=0.0, terms=((0, (0,), 0.0), (1, (0,), 1.0), (0, (1,), True)))


# ---------------------------------------------------------------------------
# compiled term tables
# ---------------------------------------------------------------------------


@st.composite
def cnf_models(draw):
    """Random CnfModels with an I**2 term, an I*J term with a negative
    coefficient, a J**3 term, up to four more terms and a duplicated
    monomial, in any order."""
    nb = draw(st.integers(1, 2))
    zero = (0,) * nb
    units = [tuple(int(i == k) for i in range(nb)) for k in range(nb)]
    coeff = st.floats(-2.0, 2.0)
    rate = st.floats(3.0, 5.0)
    terms = [(0, zero, draw(coeff)), (1, zero, draw(rate))] + [(0, u, draw(rate)) for u in units]
    terms += [(2, zero, draw(coeff)), (1, units[0], -draw(st.floats(0.0, 2.0))),
              (0, (3,) + zero[1:], draw(coeff))]
    # small enough that a duplicate of a rate leaves it positive
    terms += draw(st.lists(st.tuples(st.integers(0, 3), st.tuples(*[st.integers(0, 3)] * nb),
                                     st.floats(-0.5, 0.5)), max_size=4))
    terms.append(draw(st.sampled_from(terms)))
    terms = draw(st.permutations(terms))
    e0 = 0.0
    for i_pow, j_pows, c in terms:
        if not i_pow and not any(j_pows):
            e0 += c
    return CnfModel(e0=e0, terms=tuple(terms))


def table_sums(model, i, j):
    """K, dK/dI, K(0, J) and Lambda(J) at ``(i, j)``: the library's sums,
    each a float for one point."""
    return [eval_cnf(model, i, j), eval_dk_di(model, i, j), eval_k0(model, j),
            _value(_term_sum(model, model.lam_terms, None, j))]


def reference_sums(model, i, j):
    """The same four from the reference ``term_sum``."""
    return [term_sum(model, i, j, 0), term_sum(model, i, j, 1),
            term_sum(model, None, j, 0), term_sum(model, None, j, 1)]


@settings(max_examples=100, deadline=None)
@given(model=cnf_models(), seed=st.integers(0, 2**32 - 1))
def test_term_tables_match_the_reference_bit_for_bit(model, seed):
    rng = np.random.default_rng(seed)
    nb = model.n_bath
    j = rng.uniform(-3.0, 3.0, size=(6, nb))
    i = rng.uniform(-2.0, 2.0, size=6)
    wide = np.zeros((12, 3 * nb))
    wide[::2, ::3] = j
    j4 = j[:4]
    # the in-place sum writes into buffers of the broadcast shape: i as a
    # column, a 3-d stack and a 0-d value against a batch, j in Fortran order
    # and as a strided view, and an empty batch
    for i_case, j_case in ((i, j), (i, np.asfortranarray(j)), (i, wide[::2, ::3]),
                           (rng.uniform(-2.0, 2.0, size=(3, 1)), j4),
                           (rng.uniform(-2.0, 2.0, size=(2, 1, 1)), j4),
                           (np.array(rng.uniform(-2.0, 2.0)), j4), (i[:0], j[:0])):
        for got, want in zip(table_sums(model, i_case, j_case),
                             reference_sums(model, i_case, j_case)):
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()
    # one point gives a float with the bits of its row in the batch
    batch = table_sums(model, i, j)
    for k in range(len(j)):
        for got, want in zip(table_sums(model, float(i[k]), j[k]), batch):
            assert type(got) is float
            assert np.float64(got).tobytes() == want[k].tobytes()


@settings(max_examples=100, deadline=None)
@given(model=cnf_models(),
       j=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=4, max_size=4))
def test_k0_is_k_at_zero_for_finite_j(model, j):
    # a term that carries I adds +/-0.0 at I = 0, even where J**p overflows
    j = np.reshape(j, (-1, model.n_bath))
    with np.errstate(all="ignore"):
        assert eval_k0(model, j).tobytes() == eval_cnf(model, 0.0, j).tobytes()
        for row in j:
            assert np.float64(eval_k0(model, row)).tobytes() == \
                np.float64(eval_cnf(model, 0.0, row)).tobytes()


def compiled(model):
    return (model.n_bath, model.lam, model.omegas, model.dk_terms, model.k0_terms,
            model.lam_terms, model.coefficient(2, (0, 1)))


def test_replace_and_pickle_recompute_the_compiled_terms():
    model = builtin_cnf(3)
    terms = model.terms + ((2, (0, 1), 0.5), (1, (0, 0), 0.25), (0, (1, 0), 0.5))
    changed = dataclasses.replace(model, terms=terms)
    assert compiled(changed) == compiled(CnfModel(e0=model.e0, terms=terms))
    assert (changed.lam, changed.omegas) == (0.735 + 0.25, (1.8225 + 0.5, 1.267))
    assert changed.dk_terms[-2:] == ((1, (0, 1), 1.0), (0, (0, 0), 0.25))
    # pickles hold e0 and terms only, and loading rebuilds the tables
    data = pickle.dumps(changed)
    assert b"dk_terms" not in data and b"_monomials" not in data
    for clone in (pickle.loads(data), copy.deepcopy(changed)):
        assert clone == changed and hash(clone) == hash(changed)
        assert compiled(clone) == compiled(changed)
    assert repr(changed) == f"CnfModel(e0={model.e0!r}, terms={terms!r})"
    with pytest.raises(ValueError, match="must equal e0"):
        dataclasses.replace(model, e0=0.0)


def test_check_monotone_reads_the_summed_monomials():
    base = ((0, (0, 0), 0.0), (1, (0, 0), 1.0), (0, (1, 0), 1.0), (0, (0, 1), 1.0))
    CnfModel(e0=0.0, terms=base + ((0, (1, 1), -0.5), (0, (1, 1), 1.0))).check_monotone()
    CnfModel(e0=0.0, terms=base + ((1, (0, 2), -0.5),)).check_monotone()
    model = CnfModel(e0=0.0, terms=base + ((0, (1, 1), -1.0), (0, (0, 3), -2.0),
                                          (0, (1, 1), 0.5)))
    with pytest.raises(PreconditionError, match=r"^term -0\.5\*J_2\*J_3 makes K\(0, J\)"):
        model.check_monotone()


# ---------------------------------------------------------------------------
# effective_lyapunov
# ---------------------------------------------------------------------------


def test_effective_lyapunov_values():
    model = builtin_cnf(2)
    assert effective_lyapunov(model, [0.0]) == 0.7350
    assert abs(effective_lyapunov(model, [1.0]) - 0.7227) <= 1e-12
    assert abs(effective_lyapunov(model, [10.0]) - 0.6120) <= 1e-12


def test_effective_lyapunov_sign_guard():
    model = builtin_cnf(2)
    # 0.7350 - 0.0123 * J2 crosses zero near J2 = 59.76
    with pytest.raises(LyapunovSignError):
        effective_lyapunov(model, [100.0])


def test_effective_lyapunov_matches_finite_difference():
    rng = np.random.default_rng(3)
    model = builtin_cnf(3)
    h = 1e-6
    for _ in range(10):
        j = rng.uniform(0.0, 2.0, size=2)
        fd = (eval_cnf(model, h, j) - eval_cnf(model, -h, j)) / (2.0 * h)
        assert abs(effective_lyapunov(model, j) - fd) <= 1e-7


# ---------------------------------------------------------------------------
# JSON loading
# ---------------------------------------------------------------------------


def test_cnf_from_obj_dict_form():
    obj = {
        "e0": -1.0,
        "terms": [
            {"i": 0, "j": [0], "c": -1.0},
            {"i": 1, "j": [0], "c": 0.5},
            {"i": 0, "j": [1], "c": 2.0},
        ],
    }
    model = cnf_from_obj(obj)
    assert model.e0 == -1.0
    assert model.lam == 0.5
    assert model.omegas == (2.0,)


def test_cnf_from_obj_list_form_fills_constant():
    obj = [
        {"e0": -1.0},
        {"i": 1, "j": [0], "c": 0.5},
        {"i": 0, "j": [1], "c": 2.0},
    ]
    model = cnf_from_obj(obj)
    assert model.coefficient(0, (0,)) == -1.0
    assert eval_cnf(model, 0.0, [0.0]) == -1.0


def test_cnf_from_obj_list_missing_e0():
    with pytest.raises(ValueError):
        cnf_from_obj([{"i": 1, "j": [0], "c": 0.5}])


def test_cnf_from_obj_list_refuses_a_second_e0():
    # before: the second entry silently replaced the first
    obj = [{"e0": -2}, {"i": 1, "j": [0], "c": 0.7}, {"i": 0, "j": [1], "c": 1.3}, {"e0": -1}]
    with pytest.raises(ValueError, match=r"^model list entry 3 is a second \{'e0': \.\.\.\} entry$"):
        cnf_from_obj(obj)
    obj[0] = {"e0": None}
    with pytest.raises(ValueError, match=r"^model list entry 3 is a second \{'e0': \.\.\.\} entry$"):
        cnf_from_obj(obj)
    with pytest.raises(ValueError, match="^model key 'e0' must be a finite number, got None$"):
        cnf_from_obj(obj[:3])


def test_cnf_from_obj_and_load_params_refuse_booleans(tmp_path):
    obj = {"e0": 0.0, "terms": [{"i": 1, "j": [0], "c": True}, {"i": 0, "j": [1], "c": 1.0}]}
    with pytest.raises(ValueError, match="^model term 0 key 'c' must be a finite number, got True$"):
        cnf_from_obj(obj)
    path = tmp_path / "params.json"
    path.write_text(json.dumps({"eps": True}))
    with pytest.raises(ValueError, match="parameter 'eps' must be a finite number, got True$"):
        load_params(str(path))


@pytest.mark.parametrize("term, key, got", [
    ({"i": 1.5, "j": [0], "c": 0.7}, "i", "1.5"),
    ({"i": 0, "j": [1.9], "c": 0.7}, "j", "1.9"),
    ({"i": math.inf, "j": [0], "c": 0.7}, "i", "inf"),
    ({"i": 0, "j": [math.nan], "c": 0.7}, "j", "nan"),
    ({"i": False, "j": [1], "c": 0.7}, "i", "False"),
    ({"i": 0, "j": [-2], "c": 0.7}, "j", "-2"),
    ({"i": "2", "j": [0], "c": 0.7}, "i", "'2'"),
])
def test_cnf_from_obj_refuses_bad_powers(term, key, got):
    obj = [{"e0": -1.0}, {"i": 1, "j": [0], "c": 0.5}, {"i": 0, "j": [1], "c": 2.0}, term]
    with pytest.raises(ValueError) as info:
        cnf_from_obj(obj)
    rule = "must be >= 0" if got == "-2" else "must be an integer"
    assert str(info.value) == f"model term 2 key {key!r} {rule}, got {got}"


def test_cnf_from_obj_refuses_j_that_is_not_a_list():
    # before: a number raised TypeError (a traceback) and "12" read as the powers (1, 2)
    for j in (2, "12"):
        with pytest.raises(ValueError, match="model term 0 key 'j' must be a list of powers"):
            cnf_from_obj({"e0": 0.0, "terms": [{"i": 0, "j": j, "c": 0.7}]})


def test_cnf_from_obj_reads_integral_powers():
    obj = [{"e0": -1.0}, {"i": 1.0, "j": [0.0], "c": 0.5}, {"i": 0, "j": [1.0], "c": 2.0},
           {"i": 2.0, "j": [3.0], "c": 0.25}]
    model = cnf_from_obj(obj)
    assert model.terms[2] == (2, (3,), 0.25)
    assert all(type(ip) is int and all(type(p) is int for p in jp) for ip, jp, _ in model.terms)


def test_load_cnf_model_roundtrip(tmp_path):
    path = tmp_path / "model.json"
    obj = {
        "e0": -0.9875,
        "terms": [
            {"i": 0, "j": [0], "c": -0.9875},
            {"i": 1, "j": [0], "c": 0.7350},
            {"i": 0, "j": [1], "c": 1.8225},
            {"i": 1, "j": [1], "c": -0.0123},
        ],
    }
    path.write_text(json.dumps(obj))
    model = load_cnf_model(str(path))
    assert model == builtin_cnf(2)


# ---------------------------------------------------------------------------
# Eckart and Morse potentials
# ---------------------------------------------------------------------------


def test_eckart_asymptotics():
    p = default_params()
    left = eckart_potential(p, -500.0 * p.a)
    right = eckart_potential(p, 500.0 * p.a)
    assert np.isfinite(left) and abs(left) <= 1e-200
    assert np.isfinite(right) and abs(right - p.A) <= 1e-200


def test_eckart_no_overflow_far_out():
    p = default_params()
    for x in (-500.0 * p.a, 500.0 * p.a):
        v = eckart_potential(p, x)
        g = grad_potential(p, np.array([x, 0.0]))
        assert np.isfinite(v)
        assert np.all(np.isfinite(g))



def test_eckart_logistic_equals_scipy_expit_bits():
    from scipy.special import expit

    from sympb.models import _expit

    # dense over both overflow edges (math.exp overflows below s = -709.78)
    edge = 709.782712893384
    s = np.concatenate([
        np.linspace(-712.0, 712.0, 400_001),
        np.linspace(-edge - 1e-9, -edge + 1e-9, 2001),
        np.linspace(edge - 1e-9, edge + 1e-9, 2001),
        [np.inf, -np.inf, np.nan, 0.0, -0.0, 5e-324, -5e-324],
    ])
    assert np.array_equal(_expit(s).view(np.int64), expit(s).view(np.int64))
    p = default_params()
    x = np.linspace(-600.0 * p.a, 600.0 * p.a, 20_001)
    u = expit((x + p.x0) / p.a)
    oracle = p.A * u + p.B * u * (1.0 - u)
    assert np.array_equal(eckart_potential(p, x).view(np.int64), oracle.view(np.int64))
    assert float(eckart_potential(p, x[7])) == float(oracle[7])

def test_symmetric_eckart_peak():
    p = EckartMorseParams(A=0.0, x0=0.0)
    assert eckart_potential(p, 0.0) == p.B / 4.0
    xs = np.linspace(-10, 10, 2001)
    assert np.max(eckart_potential(p, xs)) <= p.B / 4.0


def test_morse_values():
    p = default_params()
    assert morse_potential(p, 0.0) == -p.De
    assert abs(morse_potential(p, 700.0 / p.aM)) <= 1e-300
    q = math.log(2.0) / p.aM
    assert abs(morse_potential(p, q) - (-0.75 * p.De)) <= 1e-14


def test_barrier_centered_default():
    p = default_params()
    assert barrier_x(p) == 0.0
    assert abs(grad_potential(p, np.zeros(3))[0]) <= 1e-15


def test_barrier_x_requires_dominant_b():
    with pytest.raises(ValueError):
        barrier_x(EckartMorseParams(A=-2.5, B=2.0))


def test_params_validation():
    with pytest.raises(ValueError):
        EckartMorseParams(m=0.0)
    with pytest.raises(ValueError):
        EckartMorseParams(De=-1.0)
    with pytest.raises(ValueError):
        EckartMorseParams(B=0.0)


def test_load_params_roundtrip(tmp_path):
    path = tmp_path / "params.json"
    path.write_text(json.dumps({"m": 2.0, "eps": 0.1, "De": 1.5}))
    p = load_params(str(path))
    assert p.m == 2.0 and p.eps == 0.1 and p.De == 1.5
    assert p.A == -0.5  # defaults fill the rest


# ---------------------------------------------------------------------------
# full Hamiltonian
# ---------------------------------------------------------------------------


def test_hamiltonian_potential_floor():
    p = default_params()
    state = np.array([-1e6, 0.0, 0.0, 0.0, 0.0, 0.0])
    assert abs(full_hamiltonian(p, state) - (-2.0 * p.De)) <= 1e-12


def test_hamiltonian_unit_momenta_eps_zero():
    p = dataclasses.replace(default_params(), eps=0.0)
    q = np.array([0.3, 0.2, -0.1])
    state = np.concatenate([q, np.ones(3)])
    assert abs(full_hamiltonian(p, state) - (1.5 + potential(p, q))) <= 1e-14


def test_hamiltonian_unit_momenta_default_eps():
    p = default_params()
    assert p.m == 1.0 and p.eps == 0.3
    q = np.array([0.3, 0.2, -0.1])
    state = np.concatenate([q, np.ones(3)])
    expected = 1.5 + 0.9 + potential(p, q)
    assert abs(full_hamiltonian(p, state) - expected) <= 1e-14


def test_hamiltonian_decouples_at_eps_zero():
    p = dataclasses.replace(default_params(), eps=0.0)
    q = np.array([0.4, -0.3, 0.6])
    mom = np.array([0.2, 0.9, -0.5])
    parts = (
        mom[0] ** 2 / (2 * p.m) + float(eckart_potential(p, q[0]))
        + mom[1] ** 2 / (2 * p.m) + float(morse_potential(p, q[1]))
        + mom[2] ** 2 / (2 * p.m) + float(morse_potential(p, q[2]))
    )
    assert abs(full_hamiltonian(p, np.concatenate([q, mom])) - parts) <= 1e-14


def test_hamiltonian_arity_checks():
    p = default_params()
    with pytest.raises(DimensionError):
        full_hamiltonian(p, np.zeros(5))
    with pytest.raises(DimensionError):
        full_hamiltonian(p, np.zeros(8))


@pytest.mark.parametrize("value", [1.0, [[]]], ids=["0-d", "d=0"])
def test_gradient_and_velocities_need_a_last_axis(value):
    # a scalar or an empty last axis is not a batch of (..., d) states
    p = default_params()
    with pytest.raises(DimensionError, match=r"configurations must have shape \(\.\.\., d\)"):
        grad_potential(p, value)
    with pytest.raises(DimensionError, match=r"momenta must have shape \(\.\.\., d\)"):
        velocities(p, value)


def test_gradient_matches_finite_difference():
    p = default_params()
    rng = np.random.default_rng(17)
    h = 1e-6
    for _ in range(10):
        q = rng.uniform(-1.5, 1.5, size=3)
        g = grad_potential(p, q)
        for k in range(3):
            qp, qm = q.copy(), q.copy()
            qp[k] += h
            qm[k] -= h
            fd = (potential(p, qp) - potential(p, qm)) / (2.0 * h)
            assert abs(g[k] - fd) <= 1e-7


def test_kinetic_energy_velocity_identity():
    # T is quadratic in p, so T = p . v / 2 with v = dT/dp.
    p = default_params()
    rng = np.random.default_rng(19)
    for _ in range(10):
        mom = rng.normal(size=3)
        t = kinetic_energy(p, mom)
        v = velocities(p, mom)
        assert abs(t - 0.5 * float(np.dot(mom, v))) <= 1e-13
