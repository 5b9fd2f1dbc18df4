"""Bulk seeding: ``corpus._seeded_generators`` gives each row the generator
``np.random.default_rng(list(row))`` gives, and the mock coder and the
bootstrap seed their streams through it, a batch at a time."""

import math

import numpy as np
import numpy.random.bit_generator as bit_generator
import pytest
from hypothesis import example, given, strategies as st

from fecund import coder as coder_module, saturation
from fecund.coder import MockCoder, code_passages
from fecund.corpus import _seeded_generators
from fecund.ingest import Passage
from fecund.saturation import CountingRegime, bootstrap_bands
from fecund.synthetic import synth_corpus

# zero words, 32-bit words, words past 2**32 and past 2**64 (several words each)
_WORD = st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64, 2**64 + 7]) | st.integers(0, 2**100)
_ROW = st.lists(_WORD, min_size=1, max_size=7).map(tuple)


@example([(0,), (), (2**64, 0, 3), (1, 2, 3, 4, 5, 6, 7)])
@given(st.lists(_ROW, max_size=6))
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


@pytest.mark.parametrize("block", [50, 512])
def test_the_mock_seeds_per_block_not_per_passage(seed_sequences, monkeypatch, block):
    monkeypatch.setattr(coder_module, "_PLAN_BLOCK", block)
    passages = [
        Passage(f"a{i}", i % 3, "x" * (150 + 7 * i), (0, 150 + 7 * i)) for i in range(200)
    ]
    run = code_passages(passages, MockCoder(seed=6))
    assert len(run.results) > len(passages)  # streams: one per passage and one per slot
    assert 0 < seed_sequences[0] <= 2 * math.ceil(len(passages) / block)


def test_the_bootstrap_seeds_per_block_not_per_iteration(seed_sequences):
    docs, _ = synth_corpus(40, seed=2, n_codes=20)
    before = seed_sequences[0]
    bootstrap_bands(docs, [CountingRegime("unique")], "human", n_iterations=2000, seed=5)
    blocks = math.ceil(2000 / (saturation._BLOCK_ELEMENTS // 40))
    assert blocks == 2 and 0 < seed_sequences[0] - before <= blocks
