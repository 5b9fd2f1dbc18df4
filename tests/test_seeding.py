"""Bulk seeding: ``corpus._seeded_generators`` gives each row the generator
``np.random.default_rng(list(row))`` gives, and the bootstrap seeds its
streams through it, a batch at a time."""

import math

import numpy as np
import numpy.random.bit_generator as bit_generator
import pytest
from hypothesis import example, given, strategies as st
from reference import MASK64, MASK128, pcg64_seed, pcg64_step

from fecund import corpus, saturation
from fecund.corpus import _seeded_generators
from fecund.saturation import CountingRegime, bootstrap_bands
from fecund.synthetic import synth_corpus

# zero words, 32-bit words, words past 2**32 and past 2**64 (several words each)
_WORD = st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64, 2**64 + 7]) | st.integers(0, 2**100)
_ROW = st.lists(_WORD, min_size=1, max_size=7).map(tuple)
# a batch of equal-length rows of 32-bit ints, the bootstrap's shape
_WORD32 = st.sampled_from([0, 1, 2**31, 2**32 - 1]) | st.integers(0, 2**32 - 1)
_BLOCK = st.integers(0, 6).flatmap(
    lambda k: st.lists(st.lists(_WORD32, min_size=k, max_size=k).map(tuple), max_size=6)
)


@example([(0,), (), (2**64, 0, 3), (1, 2, 3, 4, 5, 6, 7)])
@given(st.lists(_ROW, max_size=6) | _BLOCK)
def test_states_equal_default_rng(rows):
    states = [rng.bit_generator.state for rng in _seeded_generators(rows)]
    assert states == [np.random.default_rng(list(row)).bit_generator.state for row in rows]


@given(st.lists(_ROW, min_size=1, max_size=4), st.integers(1, 50))
def test_draws_equal_default_rng(rows, n):
    draws = [
        (rng.random(3).tolist(), rng.permutation(n).tolist(),
         rng.poisson(2.5, 4).tolist(), rng.poisson(37.0, 4).tolist())  # PTRS from 10 on
        for rng in _seeded_generators(rows)
    ]
    for row, (uniform, order, small, large) in zip(rows, draws, strict=True):
        rng = np.random.default_rng(list(row))
        assert uniform == rng.random(3).tolist()
        assert order == rng.permutation(n).tolist()
        assert small == rng.poisson(2.5, 4).tolist()
        assert large == rng.poisson(37.0, 4).tolist()


def test_an_empty_batch_yields_nothing():
    assert list(_seeded_generators([])) == []


def test_a_negative_word_raises_as_seed_sequence_does():
    with pytest.raises(ValueError, match="expected non-negative integer"):
        np.random.default_rng([1, -2])
    with pytest.raises(ValueError, match="expected non-negative integer"):
        list(_seeded_generators([(1, 2), (1, -2)]))


def test_a_batch_longer_than_a_seed_chunk_equals_default_rng():
    rows = [(17, 2**32 - 1 - d, d % 7) for d in range(corpus._SEED_CHUNK + 5)]
    states = [rng.bit_generator.state for rng in _seeded_generators(rows)]
    assert states == [np.random.default_rng(list(row)).bit_generator.state for row in rows]


# --- the lanes, against PCG64 in Python ints -------------------------------------

_U64 = st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**63, MASK64]) | st.integers(0, MASK64)
# carry edges: every bit of the low word, of the high word, or of both set
_U128 = (
    st.sampled_from([MASK64, MASK64 << 64, MASK128])
    | st.builds(lambda hi, lo: hi << 64 | lo, _U64, _U64)
)
_EDGES = [(MASK64, MASK64), (MASK64 << 64, 1), (MASK128, MASK128), (MASK128, 0), (0, MASK128)]


def _as_lanes(values):
    return (np.array([v >> 64 for v in values], dtype=np.uint64),
            np.array([v & MASK64 for v in values], dtype=np.uint64))


def _as_ints(lanes):
    return [hi << 64 | lo for hi, lo in zip(lanes[0].tolist(), lanes[1].tolist())]


@example(_EDGES)
@given(st.lists(st.tuples(_U128, _U128), min_size=1, max_size=8))
def test_lane_step_equals_big_ints(pairs):
    states, incs = map(list, zip(*pairs))
    stepped = corpus._step(_as_lanes(states), _as_lanes(incs))
    assert _as_ints(stepped) == [pcg64_step(s, i) for s, i in pairs]


@example(_EDGES, 2)
@given(st.lists(st.tuples(_U128, _U128), min_size=1, max_size=9), st.integers(1, 4))
def test_lane_seeding_equals_big_ints(seeds, chunk):
    """PCG64's seeding step on lanes, from any two seed words, chunk by chunk."""

    def words(rows):  # row (i,) stands for seeds[i]: (initstate, initseq)
        initstate, initseq = (_as_lanes([seeds[i][k] for (i,) in rows]) for k in (0, 1))
        return (*initstate, *initseq)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(corpus, "_seed_words", words)
        patch.setattr(corpus, "_SEED_CHUNK", chunk)
        lanes = list(corpus._lanes([(i,) for i in range(len(seeds))]))
    assert len(lanes) == math.ceil(len(seeds) / chunk)
    seeded = [pair for state, inc in lanes for pair in zip(_as_ints(state), _as_ints(inc))]
    assert seeded == [pcg64_seed(*seed) for seed in seeds]


@given(st.lists(_ROW | st.just(()), min_size=1, max_size=9), st.integers(1, 4))
def test_seeded_states_equal_big_ints(rows, chunk):
    """Each row's (state, inc) from SeedSequence's own words and PCG64's seeding
    step in Python ints, for rows of ints past 2**32 too, chunk by chunk."""
    want = []
    for row in rows:
        w = np.random.SeedSequence(list(row)).generate_state(4, np.uint64).tolist()
        want.append(pcg64_seed(w[0] << 64 | w[1], w[2] << 64 | w[3]))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(corpus, "_SEED_CHUNK", chunk)
        states = [rng.bit_generator.state["state"] for rng in _seeded_generators(rows)]
    assert [(s["state"], s["inc"]) for s in states] == want


# --- SeedSequence constructions are O(blocks) -----------------------------------


@pytest.fixture()
def seed_sequences(monkeypatch):
    """Counts ``numpy.random.SeedSequence`` constructions: each coerces its
    empty spawn key through this module-level function once."""
    count = [0]
    real = bit_generator._coerce_to_uint32_array

    def coerce(value):
        count[0] += isinstance(value, tuple) and not value
        return real(value)

    monkeypatch.setattr(bit_generator, "_coerce_to_uint32_array", coerce)
    np.random.default_rng([1, 2, 3])
    np.random.default_rng(2**70)
    assert count == [2], "numpy no longer coerces the spawn key through this name"
    count[0] = 0
    return count


def test_the_bootstrap_seeds_per_block_not_per_iteration(seed_sequences):
    docs, _ = synth_corpus(40, seed=2, n_codes=20)
    before = seed_sequences[0]
    bootstrap_bands(docs, [CountingRegime("unique")], "human", n_iterations=2000, seed=5)
    blocks = math.ceil(2000 / (saturation._BLOCK_ELEMENTS // 40))
    assert blocks == 2 and 0 < seed_sequences[0] - before <= blocks
