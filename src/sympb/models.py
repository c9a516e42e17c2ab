"""Model definitions.

Two families describe dynamics near an index-1 saddle:

* polynomial normal forms ``K(I, J_2, ..., J_n)`` in the action-like
  variables, where ``I`` is the reactive integral and the ``J_k`` are bath
  actions; the quadratic saddle-centre(-centre) model is the linear one,
  ``K = e0 + lam*I + sum_k omega_k*J_k``, and
* the Eckart-Morse(-Morse) Hamiltonian in physical coordinates, used for
  direct trajectory integration.

The built-in polynomial coefficients are a fixed table (saddle rate 0.735,
bath frequencies 1.8225 and 1.267, e0 = -0.9875).  They are not derived from
the Eckart-Morse(-Morse) Hamiltonian: at the default parameters below its
saddle has rate 0.4492, frequency 1.4078 and energy -0.71875 (2 dof), or
rate 0.4375, frequencies 1.6036 and 1.1832 and energy -1.71875 (3 dof).
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from .errors import DimensionError, LyapunovSignError, PreconditionError

__all__ = [
    "CnfModel",
    "eval_cnf",
    "eval_k0",
    "eval_dk_di",
    "effective_lyapunov",
    "builtin_cnf",
    "load_cnf_model",
    "cnf_from_obj",
    "EckartMorseParams",
    "default_params",
    "load_params",
    "eckart_potential",
    "morse_potential",
    "potential",
    "grad_potential",
    "kinetic_energy",
    "velocities",
    "full_hamiltonian",
    "barrier_x",
]

# Truncated normal-form coefficients of the built-in saddle.
E0_BUILTIN = -0.9875
LAMBDA_BUILTIN = 0.7350
OMEGA2_BUILTIN = 1.8225
B2_BUILTIN = -0.0123
OMEGA3_BUILTIN = 1.267
# Largest power of I or of a J_k in a normal-form term: each term is built by
# repeated multiplication, one product per unit of power.
MAX_POWER = 64


@dataclass(frozen=True)
class CnfModel:
    """Polynomial normal form ``K(I, J_2, ..., J_n)``.

    ``terms`` is a tuple of ``(i_power, j_powers, coeff)`` entries; the value
    of the model is ``sum coeff * I**i_power * prod J_k**j_powers[k]``.
    Required structure: finite coefficients, a constant term equal to a
    finite ``e0``, a pure-I linear term with positive coefficient (the saddle
    rate), and a positive linear term in each bath action (the bath
    frequencies).

    The terms are compiled once: ``n_bath``, ``lam`` and ``omegas`` are plain
    attributes, :meth:`coefficient` reads the summed monomials, and each
    quantity sums one term table in term order: ``terms`` for K, ``dk_terms``
    for dK/dI (I power lowered by one, coefficient times the old power), and
    their I-free rows ``k0_terms`` for K(0, J) and ``lam_terms`` for
    Lambda(J).  Equality, hashing, the repr and pickling read ``e0`` and
    ``terms`` only.
    """

    e0: float
    terms: tuple

    def __post_init__(self):
        _finite(self.e0, "e0")
        terms = tuple((_power(i_pow, f"term {n} I power"),
                       tuple(_power(p, f"term {n} J power") for p in j_pows),
                       _finite(coeff, f"term {n} coefficient"))
                      for n, (i_pow, j_pows, coeff) in enumerate(self.terms))
        if not terms:
            raise ValueError("CnfModel needs at least one term")
        nb = len(terms[0][1])
        if nb < 1:
            raise ValueError("CnfModel needs at least one bath action")
        for _, j_pows, _ in terms:
            if len(j_pows) != nb:
                raise DimensionError(f"inconsistent bath arity: expected {nb}, got {len(j_pows)}")
        monomials = {}
        for i_pow, j_pows, coeff in terms:
            monomials[i_pow, j_pows] = monomials.get((i_pow, j_pows), 0.0) + coeff
        dk_terms = tuple((i_pow - 1, j_pows, coeff * i_pow) for i_pow, j_pows, coeff in terms
                         if i_pow)
        zero = (0,) * nb
        self.__dict__.update(  # frozen: set once, here
            terms=terms, n_bath=nb, _monomials=monomials, dk_terms=dk_terms,
            k0_terms=tuple(t for t in terms if not t[0]),
            lam_terms=tuple(t for t in dk_terms if not t[0]),
            lam=monomials.get((1, zero), 0.0),
            omegas=tuple(monomials.get((0, zero[:k] + (1,) + zero[k + 1:]), 0.0)
                         for k in range(nb)))
        const = self.coefficient(0, zero)
        if const != self.e0:
            raise ValueError(f"constant term {const!r} must equal e0 = {self.e0!r}")
        if not self.lam > 0:
            raise ValueError("linear I coefficient (saddle rate) must be > 0")
        for k, w in enumerate(self.omegas):
            if not w > 0:
                raise ValueError(f"linear coefficient of J_{k + 2} must be > 0")

    def __reduce__(self):
        return CnfModel, (self.e0, self.terms)

    @property
    def n_dof(self) -> int:
        return 1 + self.n_bath

    def coefficient(self, i_power: int, j_powers) -> float:
        """Summed coefficient of the monomial I**i_power * prod J**j_powers
        (0.0 when absent, as for a power that is not a whole number)."""
        return self._monomials.get((i_power, tuple(j_powers)), 0.0)

    def check_monotone(self) -> None:
        """Raise PreconditionError when an I-free J monomial has a negative
        summed coefficient.  The axis-root box ``prod_k [0, J_k_max]`` holds
        the whole admissible region when ``K(0, J)`` is nondecreasing in every
        J_k, which nonnegative I-free coefficients guarantee."""
        for (i_pow, j_pows), coeff in self._monomials.items():
            if coeff < 0.0 and not i_pow and any(j_pows):
                monomial = "*".join(f"J_{k + 2}" + (f"^{p}" if p > 1 else "")
                                    for k, p in enumerate(j_pows) if p)
                raise PreconditionError(
                    f"term {coeff!r}*{monomial} makes K(0, J) decrease in a bath "
                    "action, so the admissible region can leave the axis-root "
                    "sampling box"
                )


def _term_sum(model: CnfModel, terms, i, j):
    """Sum of the table ``terms`` of ``model`` at ``(I, J)``, in table order.

    ``j`` has shape ``(..., n_bath)`` and the sum has ``j.shape[:-1]``
    broadcast against the reactive values ``i``.  Each term is built by
    repeated multiplication, so a batch gives the same values, bit for bit,
    as its points evaluated one at a time; one point gives a 0-d sum, which
    :func:`_value` returns as a Python float with the same bits.  The terms
    accumulate in place into one array per call: a fresh array per term made
    the Monte-Carlo counter page-fault anew on every chunk.
    """
    j = np.asarray(j, dtype=float)
    if j.ndim == 0 or j.shape[-1] != model.n_bath:
        raise DimensionError(
            f"expected {model.n_bath} bath actions, got shape {j.shape}"
        )
    cols = [j[..., k] for k in range(model.n_bath)]
    total = np.zeros(np.broadcast_shapes(np.shape(i), j.shape[:-1]))
    for i_pow, j_pows, coeff in terms:
        v = coeff
        for _ in range(i_pow):
            v = v * i
        for col, p in zip(cols, j_pows):
            for _ in range(p):
                v = v * col
        total += v
    return total


def _k0_fn(model: CnfModel, cols, total, scratch):
    """``K(0, J)`` of the bath-action columns ``cols`` as a zero-argument
    function that writes ``total`` from the values ``cols`` holds when it is
    called.  ``cols`` has shape ``(n_bath, m)``, row k the values of
    ``J_{k+2}``; ``total`` and ``scratch`` have shape ``(m,)``.

    The table ``k0_terms`` is summed as :func:`_term_sum` sums it, with the
    same operations and operands in the same order, so each entry has the
    bits of :func:`eval_k0`: ``total`` starts at zero, and each term is
    ``coeff * col`` times one more ``col`` per further power, built in
    ``scratch`` and then added to ``total``.  The constant terms that lead
    the table are added to the zero start once, here, as Python floats (the
    same double additions), and ``total`` is filled with their sum.  The
    factor rows and the 0-d coefficients are bound here too, and every
    output is passed positionally, as in :func:`_grad_fn`: the Monte-Carlo
    counter calls the function once per tile of draws and allocates nothing
    per call.
    """
    terms = list(model.k0_terms)
    start = 0.0
    while terms and not any(terms[0][1]):
        start += terms.pop(0)[2]
    steps = [(np.array(coeff, dtype=np.float64),
              [cols[k] for k, p in enumerate(j_pows) for _ in range(p)])
             for _, j_pows, coeff in terms]
    multiply, add = np.multiply, np.add

    def k0() -> None:
        total.fill(start)
        for coeff, factors in steps:
            if not factors:
                add(total, coeff, total)
                continue
            multiply(coeff, factors[0], scratch)
            for col in factors[1:]:
                multiply(scratch, col, scratch)
            add(total, scratch, total)

    return k0


def eval_cnf(model: CnfModel, i, j):
    """Evaluate ``K(I, J)`` for a CnfModel.

    Parameters
    ----------
    model : CnfModel
    i : float or array_like
        Reactive integral value(s), broadcastable against ``j.shape[:-1]``.
    j : array_like
        Bath actions, shape ``(n_bath,)`` for one point or ``(..., n_bath)``
        for a batch.

    Returns a Python float for one point (scalar ``i``, ``j`` of shape
    ``(n_bath,)``), with the bits of that point's row in a batch, and an
    array of the broadcast shape otherwise.
    """
    return _value(_term_sum(model, model.terms, np.asarray(i, dtype=float), j))


def eval_k0(model: CnfModel, j):
    """``K(0, J)`` on the dividing surface from the I-free terms alone; shapes
    as in :func:`effective_lyapunov`.  For finite ``J`` it is ``eval_cnf(model,
    0.0, j)`` bit for bit: a term that carries I adds +/-0.0 there."""
    return _value(_term_sum(model, model.k0_terms, 0.0, j))


def eval_dk_di(model: CnfModel, i, j):
    """Evaluate ``dK/dI`` at ``(I, J)``; shapes as in :func:`eval_cnf`."""
    return _value(_term_sum(model, model.dk_terms, np.asarray(i, dtype=float), j))


def effective_lyapunov(model: CnfModel, j):
    """Action-dependent unstable rate ``Lambda(J) = dK/dI at I = 0``.

    ``j`` has shape ``(n_bath,)`` or ``(..., n_bath)``; the result is a float
    or an array of shape ``j.shape[:-1]``.

    Raises
    ------
    LyapunovSignError
        If the rate is not positive at any of the given bath actions.
    """
    j = np.asarray(j, dtype=float)
    rate = _term_sum(model, model.lam_terms, 0.0, j)
    flat = np.ravel(rate)
    bad = np.flatnonzero(flat <= 0.0)
    if bad.size:
        k = bad[0]
        raise LyapunovSignError(
            f"effective rate Lambda(J) = {flat[k]:.6e} is not positive "
            f"at J = {j.reshape(-1, model.n_bath)[k].tolist()}"
        )
    return _value(rate)


def builtin_cnf(n_dof: int = 2) -> CnfModel:
    """Built-in truncated normal form (2 or 3 degrees of freedom)."""
    if n_dof == 2:
        terms = (
            (0, (0,), E0_BUILTIN),
            (1, (0,), LAMBDA_BUILTIN),
            (0, (1,), OMEGA2_BUILTIN),
            (1, (1,), B2_BUILTIN),
        )
        return CnfModel(e0=E0_BUILTIN, terms=terms)
    if n_dof == 3:
        terms = (
            (0, (0, 0), E0_BUILTIN),
            (1, (0, 0), LAMBDA_BUILTIN),
            (0, (1, 0), OMEGA2_BUILTIN),
            (0, (0, 1), OMEGA3_BUILTIN),
            (1, (1, 0), B2_BUILTIN),
        )
        return CnfModel(e0=E0_BUILTIN, terms=terms)
    raise DimensionError(f"built-in models exist for 2 or 3 dof, got {n_dof}")


def _entry(obj, key: str, what: str):
    """``obj[key]``, or a ValueError naming the key when it is absent."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object, got {obj!r}")
    if key not in obj:
        raise ValueError(f"{what} is missing the {key!r} key")
    return obj[key]


def _finite(value, what: str) -> float:
    """``float(value)``, or a ValueError naming ``what`` unless that is a
    finite number (a bool is not one)."""
    try:
        x = math.nan if isinstance(value, bool) else float(value)
    except (TypeError, ValueError):
        x = math.nan
    if not math.isfinite(x):
        raise ValueError(f"{what} must be a finite number, got {value!r}")
    return x


def _power(value, what: str) -> int:
    """A term's power: ``value`` as an int when it is a whole number from 0
    to MAX_POWER (``2.0`` reads as 2); otherwise a ValueError naming ``what``."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 0:
        raise ValueError(f"{what} must be a non-negative integer, got {value!r}")
    if value > MAX_POWER:
        raise ValueError(f"{what} must be at most {MAX_POWER}, got {value!r}")
    return int(value)


def cnf_from_obj(obj) -> CnfModel:
    """Build a CnfModel from parsed JSON.

    Accepts either ``{"e0": x, "terms": [{"i": .., "j": [..], "c": ..}, ...]}``
    or a flat list of term objects with one ``{"e0": x}`` entry.  A missing
    constant term is filled in from ``e0``.  A missing key, an ``e0`` or
    ``c`` that is not a finite number (a bool is not one), a power that is
    not a non-negative integer or a ``j`` length unlike the first term's
    raises ValueError naming the key, and a second ``{"e0": x}`` entry one
    naming its index.
    """
    if isinstance(obj, dict):
        e0 = _entry(obj, "e0", "model")
        raw_terms = _entry(obj, "terms", "model")
    elif isinstance(obj, list):
        e0 = missing = object()  # a JSON null is an e0 too, refused below
        raw_terms = []
        for n, entry in enumerate(obj):
            if not (isinstance(entry, dict) and "e0" in entry and "c" not in entry):
                raw_terms.append(entry)
            elif e0 is not missing:
                raise ValueError(f"model list entry {n} is a second {{'e0': ...}} entry")
            else:
                e0 = entry["e0"]
        if e0 is missing:
            raise ValueError("model list is missing an {'e0': ...} entry")
    else:
        raise ValueError(f"model must be a JSON object or list, got {type(obj).__name__}")
    e0 = _finite(e0, "model key 'e0'")
    terms = []
    for n, t in enumerate(raw_terms):
        key = f"model term {n} key"
        i_pow = _power(_entry(t, "i", "model term"), f"{key} 'i'")
        j_pows = _entry(t, "j", "model term")
        if not isinstance(j_pows, list):
            raise ValueError(f"{key} 'j' must be a list of powers, got {j_pows!r}")
        if terms and len(j_pows) != len(terms[0][1]):
            raise ValueError(f"{key} 'j' has {len(j_pows)} powers, expected {len(terms[0][1])}")
        terms.append((i_pow, tuple(_power(p, f"{key} 'j'") for p in j_pows),
                      _finite(_entry(t, "c", "model term"), f"{key} 'c'")))
    if terms:
        nb = len(terms[0][1])
        zero = (0,) * nb
        if not any(i == 0 and j == zero for i, j, _ in terms):
            terms.append((0, zero, e0))
    return CnfModel(e0=e0, terms=tuple(terms))


def load_cnf_model(path: str) -> CnfModel:
    with open(path) as fh:
        return cnf_from_obj(json.load(fh))


# ---------------------------------------------------------------------------
# Eckart-Morse(-Morse) Hamiltonian
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EckartMorseParams:
    """Parameters of the Eckart-Morse(-Morse) Hamiltonian.

    The reactive coordinate x moves across an Eckart barrier (asymmetry ``A``,
    scale ``B``, length ``a``, offset ``x0``); each bath coordinate sits in a
    Morse well (depth ``De``, range ``aM``); ``eps`` couples all momentum
    pairs through the kinetic energy.
    """

    m: float = 1.0
    eps: float = 0.3
    A: float = -0.5
    B: float = 2.0
    a: float = 1.0
    x0: float = 0.0
    De: float = 1.0
    aM: float = 1.0

    def __post_init__(self):
        if self.m <= 0 or self.a <= 0 or self.De <= 0 or self.aM <= 0:
            raise ValueError("m, a, De, aM must all be > 0")
        if self.B <= 0:
            raise ValueError(f"barrier scale B must be > 0, got {self.B}")


def barrier_x(p: EckartMorseParams) -> float:
    """Location of the Eckart barrier maximum, from dV/dx = 0.

    The stationary point sits at logistic argument u* = (A + B) / (2B), which
    requires ``B > |A|``.
    """
    if p.B <= abs(p.A):
        raise ValueError("no interior barrier maximum unless B > |A|")
    u_star = (p.A + p.B) / (2.0 * p.B)
    return p.a * math.log(u_star / (1.0 - u_star)) - p.x0


def default_params() -> EckartMorseParams:
    """Built-in parameter set, with x0 chosen to center the barrier at x = 0."""
    base = EckartMorseParams(x0=0.0)
    # barrier_x(p) = a*logit(u*) - p.x0, so x0 = a*logit(u*) puts the top at 0.
    return EckartMorseParams(x0=barrier_x(base))


def load_params(path: str) -> EckartMorseParams:
    """Read EckartMorseParams from a JSON object; omitted fields keep their
    defaults, and an unknown key or a value that is not a finite number
    raises ValueError naming the key."""
    with open(path) as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: parameters must be a JSON object")
    known = {f.name for f in fields(EckartMorseParams)}
    unknown = sorted(set(obj) - known)
    if unknown:
        raise ValueError(
            f"{path}: unknown parameter key {unknown[0]!r}; expected keys are {sorted(known)}"
        )
    return EckartMorseParams(**{
        key: _finite(value, f"{path}: parameter {key!r}") for key, value in obj.items()
    })


def eckart_potential(p: EckartMorseParams, x):
    """Eckart barrier ``A*u + B*u*(1-u)`` with ``u = logistic((x + x0)/a)``.

    The logistic is ``1 / (1 + math.exp(-s))`` per element; where ``math.exp``
    overflows (``s`` below about -709.78) it takes ``exp(-s) = inf``, so
    ``u = 0``.  That is scipy's ``expit`` bit for bit, with no overflow at
    arguments as far out as ``x = +/- 500 a``.
    """
    u = _expit((np.asarray(x, dtype=float) + p.x0) / p.a)
    return p.A * u + p.B * u * (1.0 - u)


def _expit(s):
    """Logistic ``1 / (1 + exp(-s))``, elementwise, with ``exp`` overflow
    read as ``inf``.

    Kept apart from the logistic inside :func:`grad_potential`: its
    ``ex / (1 + ex)`` branch for ``s < 0`` differs in the last bit, which
    would change trajectory bytes.
    """
    out = []
    for x in np.ravel(s).tolist():
        try:
            ex = math.exp(-x)
        except OverflowError:
            ex = math.inf
        out.append(1.0 / (1.0 + ex))
    return np.reshape(out, np.shape(s))


def morse_potential(p: EckartMorseParams, q):
    """Morse well ``De * (exp(-2 aM q) - 2 exp(-aM q))`` with minimum -De."""
    e = np.exp(-p.aM * np.asarray(q, dtype=float))
    return p.De * (e * e - 2.0 * e)


def _value(x):
    """A float for one point, the array for a batch."""
    return float(x) if np.ndim(x) == 0 else x


def potential(p: EckartMorseParams, q):
    """Total potential at configurations ``q = (x, y[, z])`` of shape ``(..., d)``:
    the Eckart term, then each Morse term added in order."""
    q = np.asarray(q, dtype=float)
    v = eckart_potential(p, q[..., 0])
    for i in range(1, q.shape[-1]):
        v = v + morse_potential(p, q[..., i])
    return _value(v)


def _last_axis(x: np.ndarray, what: str) -> int:
    """The length d of the last axis of ``x``; a DimensionError unless ``x``
    has shape ``(..., d)`` with d >= 1."""
    if x.ndim == 0 or x.shape[-1] == 0:
        raise DimensionError(f"{what} must have shape (..., d) with d >= 1, got shape {x.shape}")
    return x.shape[-1]


def grad_potential(p: EckartMorseParams, q) -> np.ndarray:
    """Analytic gradient of :func:`potential` for configurations of shape
    ``(..., d)``, C-ordered; each row gives the same values as on its own.

    Runs :func:`_grad_fn`'s gradient once on the transposed ``(d, N)`` views
    of the configurations and of the result.
    """
    q = np.asarray(q, dtype=float)
    d = _last_axis(q, "configurations")
    # C order whatever the input's layout, so the reshape below is a view
    g = np.empty(q.shape)
    _grad_fn(p, q.reshape(-1, d).T, g.reshape(-1, d).T)()
    return g


def _grad_fn(p: EckartMorseParams, q, g):
    """The gradient of :func:`potential` for coordinate-major configurations,
    as a zero-argument function that writes ``g`` from the values ``q`` holds
    when it is called.  ``q`` and ``g`` have shape ``(d, N)``, row 0 the
    reactive coordinate of every configuration and rows ``1:`` the Morse
    coordinates; each column gives the same values as on its own.

    The row views, the Morse scratch and the constants are made here, once,
    and the ufuncs and ``q_x.tolist`` are bound to names here too: the
    Verlet loop calls the function once per step, and numpy takes a ufunc
    operand that is a 0-d float64 array faster than a Python float, and an
    output passed positionally faster than ``out=``, with the same bits.
    The reactive row is one pass over Python floats.
    Its logistic uses ``math.exp``: ``np.exp`` differs from it in the last
    bit for some arguments, which would change trajectory bytes.  The Verlet
    loop's batches hold at most 1 + 4d columns, where numpy's per-call
    dispatch would cost more than this arithmetic.
    """
    big_a, big_b, a, x0 = p.A, p.B, p.a, p.x0
    exp = math.exp
    q_x, q_morse = q[0], q[1:]
    g_x, g_morse = g[0], g[1:]
    e = np.empty(q_morse.shape)
    neg_am = np.array(-p.aM, dtype=np.float64)
    scale = np.array(2.0 * p.De * p.aM, dtype=np.float64)
    multiply, subtract, np_exp = np.multiply, np.subtract, np.exp
    q_x_list = q_x.tolist

    def grad() -> None:
        row = []
        for x in q_x_list():
            s = (x + x0) / a
            if s >= 0.0:
                u = 1.0 / (1.0 + exp(-s))
            else:
                ex = exp(s)
                u = ex / (1.0 + ex)
            row.append(u * (1.0 - u) * (big_a + big_b * (1.0 - 2.0 * u)) / a)
        g_x[...] = row
        multiply(q_morse, neg_am, e)
        np_exp(e, e)
        multiply(e, e, g_morse)
        subtract(e, g_morse, g_morse)
        multiply(g_morse, scale, g_morse)

    return grad


def kinetic_energy(p: EckartMorseParams, mom):
    """Kinetic energy ``|p|^2 / (2m) + eps * sum_{i<j} p_i p_j`` for momenta
    of shape ``(..., d)``."""
    mom = np.asarray(mom, dtype=float)
    s = mom.sum(axis=-1)
    pp = np.einsum("...i,...i->...", mom, mom)
    return _value(pp / (2.0 * p.m) + 0.5 * p.eps * (s * s - pp))


def velocities(p: EckartMorseParams, mom) -> np.ndarray:
    """dq/dt = dH/dp for momenta of shape ``(..., d)``, with the momentum
    coupling included; C-ordered.  Runs :func:`_velocity_fn`'s velocity once
    on the transposed ``(d, N)`` views of the momenta and of the result."""
    mom = np.asarray(mom, dtype=float)
    d = _last_axis(mom, "momenta")
    v = np.empty(mom.shape)
    _velocity_fn(p, mom.reshape(-1, d).T, v.reshape(-1, d).T)()
    return v


def _velocity_fn(p: EckartMorseParams, mom, v):
    """``mom / m + eps * (s - mom)`` for coordinate-major momenta, as a
    zero-argument function that writes ``v`` from the values ``mom`` holds
    when it is called.  ``mom`` and ``v`` have shape ``(d, N)``, and ``s``
    is each column's momentum sum, ``(p_0 + p_1) + p_2``.  The scratch, the
    0-d constants and the ufuncs are bound here, once, and every output is
    passed positionally, as in :func:`_grad_fn`.

    For d < 8 numpy adds the rows in sequence, so ``s`` has the bits of a
    last-axis sum, except perhaps the sign of a sum of -0.0 entries alone;
    ``s`` enters only through ``s - mom``, which is 0.0 for either sign there.
    """
    s = np.empty(mom.shape[1])
    tmp = np.empty(mom.shape)
    eps = np.array(p.eps, dtype=np.float64)
    m = np.array(p.m, dtype=np.float64)
    add_reduce, subtract, multiply, divide, add = (
        np.add.reduce, np.subtract, np.multiply, np.divide, np.add)

    def vel() -> None:
        add_reduce(mom, 0, None, s)
        subtract(s, mom, tmp)
        multiply(tmp, eps, tmp)
        divide(mom, m, v)
        add(v, tmp, v)

    return vel


def full_hamiltonian(p: EckartMorseParams, state):
    """Energy of phase-space points ``(q_1..q_d, p_1..p_d)`` of shape
    ``(..., 2d)`` with d = 2 or 3; a float for one point."""
    state = np.asarray(state, dtype=float)
    if state.ndim == 0 or state.shape[-1] % 2 != 0:
        raise DimensionError(f"states must have shape (..., 2d), got shape {state.shape}")
    d = state.shape[-1] // 2
    if d not in (2, 3):
        raise DimensionError(f"supported systems have 2 or 3 degrees of freedom, got {d}")
    return kinetic_energy(p, state[..., d:]) + potential(p, state[..., :d])
