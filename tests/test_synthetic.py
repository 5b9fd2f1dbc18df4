import numpy as np
import pytest

from fecund.coder import MockCoder
from fecund.synthetic import synth_articles, synth_corpus, zipf_cdf, zipf_probabilities

from reference import synth_articles_loop, synth_corpus_choice


@pytest.fixture
def generators(monkeypatch):
    """Every generator ``np.random.default_rng`` builds, in order."""
    built = []
    real = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda seed: built.append(real(seed)) or built[-1])
    return built


def assert_same_corpus(got, want):
    (docs, book), (ref, ref_book) = got, want
    assert docs.ids == ref.ids
    assert docs.source_labels == ref.source_labels
    assert docs.lengths.dtype == ref.lengths.dtype and docs.lengths.tolist() == ref.lengths.tolist()
    assert docs.matrices.keys() == ref.matrices.keys()
    for source, m in docs.matrices.items():
        r = ref.matrices[source]
        assert m.labels == r.labels
        for column in ("offsets", "codes", "positions"):
            a, b = getattr(m, column), getattr(r, column)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), column
    assert book == ref_book


@pytest.mark.parametrize("seed", [0, 17, 91])
@pytest.mark.parametrize("codes_per_kchar", [0.0, 3.0])
@pytest.mark.parametrize("n_codes", [1, 60, 1000])
def test_synth_corpus_matches_choice_draws(generators, seed, codes_per_kchar, n_codes):
    """Inverse-CDF picks and ``random`` positions are the numbers
    ``Generator.choice(p=...)`` and ``Generator.uniform`` give, and the
    generator ends in the same state."""
    kwargs = dict(n_codes=n_codes, codes_per_kchar=codes_per_kchar, n_themes=7)
    got = synth_corpus(150, seed, **kwargs)
    want = synth_corpus_choice(150, seed, **kwargs)
    assert_same_corpus(got, want)
    assert generators[0].bit_generator.state == generators[1].bit_generator.state


@pytest.mark.parametrize("seed", [1, 17, 91])
@pytest.mark.parametrize(
    "kwargs",
    [
        dict(lengths=[100, 5000, 1, 30_000, 2500], n_codes=60),
        dict(n_codes=1000, zipf_exponent=0.0),  # flat; the id predates positions always drawn
        dict(mean_length=50, zipf_exponent=3.5, coder_source="ai"),
    ],
    ids=["lengths", "no-positions", "short-steep"],
)
def test_synth_corpus_options_match_choice_draws(generators, seed, kwargs):
    n_docs = len(kwargs.get("lengths", [0] * 40))
    assert_same_corpus(synth_corpus(n_docs, seed, **kwargs),
                       synth_corpus_choice(n_docs, seed, **kwargs))
    assert generators[0].bit_generator.state == generators[1].bit_generator.state


def test_synth_corpus_of_no_documents():
    docs, book = synth_corpus(0, seed=3, n_themes=4)
    assert_same_corpus((docs, book), synth_corpus_choice(0, seed=3, n_themes=4))
    assert len(docs) == 0 and book.entries == {}


@pytest.mark.parametrize("seed", [0, 17, 91])
@pytest.mark.parametrize("words", [(20, 60), (1, 2), (3, 400)])
def test_synth_articles_match_word_loop(generators, seed, words):
    got = synth_articles(60, seed, words_per_paragraph=words)
    assert got == synth_articles_loop(60, seed, words_per_paragraph=words)
    assert generators[0].bit_generator.state == generators[1].bit_generator.state
    assert synth_articles(0, seed) == []


@pytest.mark.parametrize("n, exponent", [(1, 1.1), (60, 1.1), (1000, 1.1), (7, 3.5), (50, 0.0)])
def test_zipf_cdf_is_the_cdf_choice_bisects(n, exponent):
    """The normalised cumulative weights, shared by synth_corpus and the mock coder."""
    cdf = zipf_probabilities(n, exponent).cumsum()
    cdf /= cdf[-1]
    assert zipf_cdf(n, exponent).tobytes() == cdf.tobytes()
    assert MockCoder(vocab_size=n, zipf_exponent=exponent)._cdf == cdf.tolist()
