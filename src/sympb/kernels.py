"""Hot numeric kernels.

Monte-Carlo membership counting for action-space volumes, the
Stormer-Verlet integration loop, and the per-point seed substreams of the
transmission ensembles.  The Verlet loop steps a batch of trajectories
together and evaluates the potential gradient once per step; each row gives
the same values, bit for bit, as a batch of one.  The substream uniforms run
numpy's SeedSequence and PCG64 over all children at once, with the bits of
one Generator per child.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError
from .models import (
    CnfModel,
    EckartMorseParams,
    _grad_fn,
    _k0_fn,
    _velocity_fn,
)

__all__ = ["count_box_hits", "record_count", "substream_uniforms", "verlet_run"]

# numpy's stream-stable SeedSequence and PCG64 (NEP 19).  The SeedSequence
# constants are those of numpy/random/bit_generator.pyx, the PCG64 multiplier
# that of numpy/random/src/pcg64/pcg64.h (O'Neill 2014, XSL-RR 128/64).
POOL_SIZE = 4
INIT_A = 0x43B0D7E5
MULT_A = 0x931E8875
INIT_B = 0x8B51F9DD
MULT_B = 0x58F38DED
MIX_MULT_L = 0xCA01F9DD
MIX_MULT_R = 0x4973F715
XSHIFT = 16
MASK32 = 0xFFFFFFFF
PCG_MULT_HI = 2549297995355413924
PCG_MULT_LO = 4865540595714422341
# Rows of a Monte-Carlo block summed and counted at once.  On the flux
# benchmark (2 vCPU), 32 768-row tiles ran about 3% slower and raised peak
# memory by about 1 MB, and 8 192- or 4 096-row tiles ran 10-30% slower, their
# per-call dispatch outweighing the smaller working set.
_COUNT_TILE = 1 << 14
# The Verlet loop checks its records for finiteness once per block of at most
# _CHECK_BLOCK records and _CHECK_STEPS steps (and at least one record): a
# check costs about as much as one step of a 13-row batch, and a diverging run
# steps on to the end of its block.
_CHECK_BLOCK = 64
_CHECK_STEPS = 640


def _entropy_words(entropy) -> list:
    """The uint32 words, least significant first, that SeedSequence makes of
    a non-negative integer or a (nested) sequence of them."""
    if isinstance(entropy, (int, np.integer)):
        n = int(entropy)
        if n < 0:
            raise ValueError(f"entropy must be non-negative, got {n}")
        words = [n & MASK32]
        while n > MASK32:
            n >>= 32
            words.append(n & MASK32)
        return words
    return [w for item in entropy for w in _entropy_words(item)]


def _hashmix(value, hash_const: int, mult: int):
    """SeedSequence's ``hashmix`` (``mult`` MULT_A) or one output word of
    ``generate_state`` (``mult`` MULT_B): returns ``(value, next hash_const)``.

    ``value`` is a Python int or a uint64 array of 32-bit words; the products
    of two 32-bit words fit in 64 bits, so masking gives the uint32 bits.
    """
    value = value ^ hash_const
    hash_const = (hash_const * mult) & MASK32
    value = (value * hash_const) & MASK32
    return value ^ (value >> XSHIFT), hash_const


def _mix(x, y):
    result = (MIX_MULT_L * x - MIX_MULT_R * y) & MASK32
    return result ^ (result >> XSHIFT)


def _seed_words(entropy, n: int) -> list:
    """``SeedSequence(entropy).spawn(n)[i].generate_state(4, np.uint64)`` for
    every child ``i``: four uint64 arrays of length ``n``.

    All children share the run entropy, padded to the pool size, and differ
    only in their one spawn word, the last entropy word.  So every step before
    that word runs once on Python ints and the rest on arrays.
    """
    run = _entropy_words(entropy)
    run += [0] * (POOL_SIZE - len(run))
    words = run + [np.arange(n, dtype=np.uint64)]
    # mix_entropy
    pool = [0] * POOL_SIZE
    hash_const = INIT_A
    for i in range(POOL_SIZE):
        pool[i], hash_const = _hashmix(words[i], hash_const, MULT_A)
    for i_src in range(POOL_SIZE):
        for i_dst in range(POOL_SIZE):
            if i_src != i_dst:
                h, hash_const = _hashmix(pool[i_src], hash_const, MULT_A)
                pool[i_dst] = _mix(pool[i_dst], h)
    for word in words[POOL_SIZE:]:
        for i_dst in range(POOL_SIZE):
            h, hash_const = _hashmix(word, hash_const, MULT_A)
            pool[i_dst] = _mix(pool[i_dst], h)
    # generate_state(4, np.uint64): 8 uint32 words read as little-endian uint64
    state = []
    hash_const = INIT_B
    for i in range(2 * POOL_SIZE):
        value, hash_const = _hashmix(pool[i % POOL_SIZE], hash_const, MULT_B)
        state.append(value)
    return [state[2 * w] | (state[2 * w + 1] << 32) for w in range(POOL_SIZE)]


def _mul_hi64(a, b: int):
    """High 64 bits of the 128-bit product of uint64 ``a`` and the int ``b``,
    from 32-bit halves."""
    a0, a1 = a & MASK32, a >> 32
    b0, b1 = b & MASK32, b >> 32
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> 32) + (p01 & MASK32) + (p10 & MASK32)
    return a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)


def _add128(a_hi, a_lo, b_hi, b_lo):
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo), lo


def _pcg_step(hi, lo, inc_hi, inc_lo):
    """One step of the 128-bit LCG ``state * PCG_MULT + inc`` on two limbs."""
    prod_hi = _mul_hi64(lo, PCG_MULT_LO) + lo * PCG_MULT_HI + hi * PCG_MULT_LO
    return _add128(prod_hi, lo * PCG_MULT_LO, inc_hi, inc_lo)


def substream_uniforms(entropy, n: int, k: int) -> np.ndarray:
    """The ``(n, k)`` array whose row ``i`` is
    ``np.random.default_rng(SeedSequence(entropy).spawn(n)[i]).random(k)``,
    bit for bit, computed for all ``n`` children at once.

    ``entropy`` is a non-negative integer or a (nested) sequence of them, as
    ``SeedSequence`` takes it; a negative integer raises ValueError.  A
    child index needs one spawn word, so ``n`` may be at most 2**32.

    Each child's PCG64 is seeded as ``pcg_setseq_128_srandom_r`` does with
    ``initstate`` the first and ``initseq`` the second uint64 pair of its
    seed state; each draw steps the LCG, takes the XSL-RR output and keeps
    its top 53 bits, ``(next64 >> 11) * 2**-53``.
    """
    n = int(n)
    if not 0 <= n <= 2**32:
        raise ValueError(f"n must lie in [0, 2**32], got {n}")
    seed_hi, seed_lo, seq_hi, seq_lo = _seed_words(entropy, n)
    inc_hi = (seq_hi << 1) | (seq_lo >> 63)
    inc_lo = (seq_lo << 1) | 1
    # state 0, one step (which leaves inc), add initstate, one more step
    hi, lo = _pcg_step(*_add128(inc_hi, inc_lo, seed_hi, seed_lo), inc_hi, inc_lo)
    out = np.empty((n, k))
    for col in range(k):
        hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
        xored, rot = hi ^ lo, hi >> 58
        out[:, col] = ((xored >> rot) | (xored << ((64 - rot) & 63))) >> 11
    out *= 2.0**-53
    return out


def count_box_hits(model: CnfModel, j_samples, e: float, counter=None) -> int:
    """Number of rows of ``j_samples`` (shape ``(m, n_bath)``) whose point
    ``J`` has ``K(0, J) <= e``.

    ``K(0, J)`` is :func:`~sympb.models.eval_k0`, the I-free terms alone,
    and the count has its bits.  ``counter`` is a :func:`_box_counter` for
    ``model``, whose buffers the count then runs in; row ``u`` stands for
    the point ``J = u * box`` of the counter's box.  Without a counter the
    rows are the points, counted on buffers made for this call.  Raises
    DimensionError, when no counter is given, unless ``j_samples`` has shape
    ``(m, n_bath)``.
    """
    if counter is None:
        j_samples = np.asarray(j_samples, dtype=float)
        if j_samples.ndim != 2 or j_samples.shape[1] != model.n_bath:
            raise DimensionError(f"expected samples of shape (m, {model.n_bath}), "
                                 f"got shape {j_samples.shape}")
        counter = _box_counter(model, (1.0,) * model.n_bath, len(j_samples))
    return counter(j_samples, e)


def _box_counter(model: CnfModel, box, rows: int):
    """A function ``count(u, e)`` that returns the number of rows of ``u``,
    a float64 array of shape ``(m, n_bath)``, whose point ``J = u * box``
    has ``K(0, J) <= e``.

    ``u`` is counted in tiles of ``min(rows, _COUNT_TILE)`` rows, where
    ``rows`` is the most rows a call is expected to get, on buffers made
    here, once, for one tile: the contiguous ``(n_bath, tile)`` scaled
    columns, the sum, one term scratch and a bool mask.  For each tile,
    column k times ``box[k]`` is written into row k of the columns,
    ``K(0, J)`` is summed by :func:`~sympb.models._k0_fn` bound to these
    buffers, and the entries ``<= e`` are counted.  ``u[:, k] * box[k]`` is
    the product ``Generator.uniform(0.0, box)`` makes of its unit draws, bit
    for bit.  A tile of fewer rows, such as the end of a row's last block,
    runs on views bound for that tile.
    """
    nb = model.n_bath
    tile = max(1, min(rows, _COUNT_TILE))
    scales = [np.array(b, dtype=np.float64) for b in box]
    cols = np.empty((nb, tile))
    total = np.empty(tile)
    scratch = np.empty(tile)
    mask = np.empty(tile, dtype=bool)
    full = _k0_fn(model, cols, total, scratch)
    multiply, less_equal, count_nonzero = np.multiply, np.less_equal, np.count_nonzero

    def count(u, e) -> int:
        hits = 0
        for lo in range(0, len(u), tile):
            part = u[lo:lo + tile]
            m = len(part)
            if m == tile:
                k0, c, t, hit = full, cols, total, mask
            else:
                c, t, hit = cols[:, :m], total[:m], mask[:m]
                k0 = _k0_fn(model, c, t, scratch[:m])
            for k in range(nb):
                multiply(part[:, k], scales[k], c[k])
            k0()
            less_equal(t, e, hit)
            hits += int(count_nonzero(hit))
        return hits

    return count


def record_count(nsteps: int, stride: int) -> int:
    """Number of records of a run of ``nsteps`` steps recorded every ``stride``
    steps: step 0, every multiple of ``stride`` below ``nsteps``, and step
    ``nsteps``.  Python-int arithmetic, so any step count gives a count."""
    return -(-nsteps // stride) + 1


def _first_nonfinite(qs, ps, lo: int, hi: int) -> int:
    """Index of the first of the records ``lo:hi`` at which any entry of
    ``qs`` or ``ps`` is non-finite, or -1."""
    finite = np.isfinite(qs[lo:hi]).all(axis=(1, 2)) & np.isfinite(ps[lo:hi]).all(axis=(1, 2))
    return -1 if finite.all() else lo + int(np.argmin(finite))


def verlet_run(params: EckartMorseParams, q0, p0, h: float, nsteps: int, stride: int):
    """Kick-drift-kick Stormer-Verlet for a batch of trajectories.

    ``q0`` and ``p0`` hold ``k`` start states, shape ``(k, d)``.  States are
    recorded at step 0, every ``stride`` steps and at step ``nsteps``.

    Returns ``(qs, ps, bad)``: records of shape ``(nrec, k, d)`` and the index
    of the first record after step 0 at which any row is non-finite (the
    records stop there), or -1.  Finiteness is checked once per block of
    records, over the records written since the last check, and once more
    at the last record.  A block holds ``_CHECK_BLOCK`` records, or as many
    as fit in ``_CHECK_STEPS`` steps and at least one, so a run that
    diverges stops at the end of the block that holds its first non-finite
    record; the records past that one are dropped.

    The batch is stepped coordinate-major: ``q`` and ``p`` are C-contiguous
    ``(d, k)`` arrays, row 0 the reactive coordinate of every trajectory and
    rows ``1:`` the Morse block, and every update writes into a buffer made
    before the loop, so a step between records allocates no array.  The
    gradient and the velocity are :mod:`~sympb.models` functions bound to
    these buffers once, with their row views and constants, and the step
    sizes are 0-d float64 arrays, so no step makes a view or passes a Python
    float to a ufunc; the ufuncs are bound to local names once per run and
    take their outputs positionally.  The gradient is evaluated once before
    the loop and once per step: the closing half-kick of a step and the
    opening half-kick of the next one act at the same ``q``, so they share
    one ``kick = half_h * g``.  The two half-kicks stay separate updates,
    which keeps the bits of two gradient evaluations per step.
    """
    q = np.array(np.asarray(q0, dtype=np.float64).T, order="C")
    p = np.array(np.asarray(p0, dtype=np.float64).T, order="C")
    d, k = q.shape
    nrec = record_count(nsteps, stride)
    qs = np.empty((nrec, k, d))
    ps = np.empty((nrec, k, d))
    q_rows, p_rows = q.T, p.T
    qs[0] = q_rows
    ps[0] = p_rows
    g = np.empty((d, k))
    v = np.empty((d, k))
    kick = np.empty((d, k))
    grad = _grad_fn(params, q, g)
    vel = _velocity_fn(params, p, v)
    h, half_h = np.array(h, dtype=np.float64), np.array(0.5 * h, dtype=np.float64)
    multiply, subtract, add = np.multiply, np.subtract, np.add
    rec = 1
    # the records before `checked` are finite; the next check is when rec
    # reaches check_at
    block = max(1, min(_CHECK_BLOCK, _CHECK_STEPS // stride))
    checked, check_at = 1, min(1 + block, nrec)
    # overflow to inf/nan is detected in the records, not raised
    with np.errstate(over="ignore", invalid="ignore"):
        grad()
        multiply(g, half_h, kick)
        for step in range(1, nsteps + 1):
            subtract(p, kick, p)
            vel()
            multiply(v, h, v)
            add(q, v, q)
            grad()
            multiply(g, half_h, kick)
            subtract(p, kick, p)
            if step % stride == 0 or step == nsteps:
                qs[rec] = q_rows
                ps[rec] = p_rows
                rec += 1
                if rec == check_at:
                    bad = _first_nonfinite(qs, ps, checked, rec)
                    if bad >= 0:
                        return qs[:bad + 1], ps[:bad + 1], bad
                    checked, check_at = rec, min(rec + block, nrec)
    return qs, ps, -1
