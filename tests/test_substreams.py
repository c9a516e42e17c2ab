"""The array substream kernel against numpy's own SeedSequence and Generator.

``kernels.substream_uniforms(entropy, n, k)`` must give, bit for bit, row i
of ``default_rng(SeedSequence(entropy).spawn(n)[i]).random(k)``; the oracle
here builds those children and Generators one by one.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sympb import EnsembleSpec, builtin_cnf, sample_ensemble
from sympb.kernels import substream_uniforms

SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**128 + 17,
         31415926535897932384626433832795028841971693993751)


def oracle(entropy, n, k):
    children = np.random.SeedSequence(entropy).spawn(n)
    return np.array([np.random.default_rng(child).random(k) for child in children])


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", [1, 2, 1000])
@pytest.mark.parametrize("k", [3, 4])
def test_substream_uniforms_equal_generator_random(seed, n, k):
    got = substream_uniforms(seed, n, k)
    want = oracle(seed, n, k)
    assert got.shape == want.shape == (n, k)
    assert got.tobytes() == want.tobytes()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**160 - 1), n=st.integers(1, 40), k=st.integers(1, 6))
def test_substream_uniforms_equal_generator_random_any_seed(seed, n, k):
    assert substream_uniforms(seed, n, k).tobytes() == oracle(seed, n, k).tobytes()


def test_substream_uniforms_take_sequence_entropy_as_seedsequence_does():
    for entropy in ([1, 2], [2**40, 3, 5, 7, 9], (0,), [[4, 2**33], 6]):
        assert substream_uniforms(entropy, 17, 5).tobytes() == oracle(entropy, 17, 5).tobytes()


def test_substream_uniforms_empty_shapes():
    assert substream_uniforms(3, 0, 5).shape == (0, 5)
    assert substream_uniforms(3, 4, 0).shape == (4, 0)


def test_substream_uniforms_refuse_more_children_than_spawn_words_without_allocating():
    # a child index above 2**32 - 1 would need a second spawn word
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"n must lie in \[0, 2\*\*32\], got 4294967297"):
            substream_uniforms(0, 2**32 + 1, 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    with pytest.raises(ValueError, match="entropy must be non-negative"):
        substream_uniforms(-1, 3, 2)


@pytest.mark.parametrize("seed", [-3, -(2**70), True, False, np.bool_(True), 1.0, 3.5,
                                  np.float64(2.0), "3", None])
def test_ensemble_spec_refuses_a_seed_that_is_not_a_non_negative_integer(seed):
    with pytest.raises(ValueError) as info:
        EnsembleSpec(n_traj=5, e_center=0.0, delta_e=0.01, seed=seed)
    assert type(info.value) is ValueError
    rule = "must be >= 0" if type(seed) is int and seed < 0 else "must be an integer"
    assert str(info.value) == f"seed {rule}, got {seed!r}"


def test_ensemble_seed_is_the_substream_entropy():
    # a numpy integer seed passes and draws the substreams of its int value
    model = builtin_cnf(2)
    for seed in (0, 7, 2**64 + 5):
        want = sample_ensemble(model, EnsembleSpec(n_traj=5, e_center=0.0, delta_e=0.01,
                                                   seed=seed))
        typed = np.uint64(seed) if seed < 2**64 else seed
        got = sample_ensemble(model, EnsembleSpec(n_traj=5, e_center=0.0, delta_e=0.01,
                                                  seed=typed))
        for name in ("q1", "p1", "j", "phases", "energy"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        u = oracle(seed, 5, 3 + model.n_bath)
        e_lo, e_hi = -0.01, 0.01
        assert want.energy.tobytes() == (e_lo + (e_hi - e_lo) * u[:, 0]).tobytes()
