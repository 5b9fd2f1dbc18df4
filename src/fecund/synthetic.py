"""Seeded synthetic corpora and articles for demos and the synth CLI command."""

from __future__ import annotations

import numpy as np

from .corpus import Codebook, Collection
from .errors import CodeCountError
from .ingest import RawArticle

_WORDS = (
    "border camp policy shelter transit work permit school clinic market "
    "community council minister statement protest aid agency volunteer "
    "family housing labour court ruling detention release register crossing "
    "coast boat arrival language training festival neighbourhood employer "
    "wage health vaccine census survey report editorial opinion letter"
).split()

# the most code instances one synthetic document may expect: its draws hold
# two float64 arrays of that size, so a million is some 16 MB
MAX_EXPECTED_CODES = 10**6


def zipf_probabilities(n: int, exponent: float = 1.1) -> np.ndarray:
    """Probability of each of ranks 1..n, proportional to rank**-exponent.

    Raises ValueError when the weights overflow (a large negative exponent
    over a large vocabulary) or do not sum to a positive number.
    """
    ranks = np.arange(1, n + 1, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        weights = ranks**-exponent
        total = weights.sum()
    if not (np.isfinite(total) and total > 0):
        raise ValueError(
            f"Zipf exponent {exponent:g} gives no finite, positive weights "
            f"over a vocabulary of {n} codes"
        )
    return weights / total


def zipf_cdf(n: int, exponent: float = 1.1) -> np.ndarray:
    """The normalised cumulative ``zipf_probabilities``: ``Generator.choice(p=...)``
    builds this CDF and bisects it (``side="right"``) with one uniform per pick."""
    cdf = zipf_probabilities(n, exponent).cumsum()
    cdf /= cdf[-1]
    return cdf


def synth_corpus(
    n_docs: int,
    seed: int,
    n_codes: int = 60,
    zipf_exponent: float = 1.1,
    mean_length: int = 2000,
    codes_per_kchar: float = 3.0,
    coder_source: str = "human",
    n_themes: int = 0,
    lengths: list[int] | None = None,
) -> tuple[Collection, Codebook]:
    """Corpus with Zipf-skewed code frequencies and length-scaled code counts.

    Lengths are lognormal around ``mean_length`` unless given explicitly;
    each document draws a Poisson number of code instances proportional to
    its length from a Zipf-weighted vocabulary, each at a uniform
    position. When ``n_themes`` > 0, codes map onto themes round-robin.
    A document expecting more than MAX_EXPECTED_CODES code instances raises
    CodeCountError naming it, before its count is drawn; one that takes the
    total length to 2**53, which ingest refuses, raises ValueError naming it.
    """
    rng = np.random.default_rng(seed)
    cdf = zipf_cdf(n_codes, zipf_exponent)
    log_mean = np.log(mean_length)
    vocab = [f"code {i:03d}" for i in range(1, n_codes + 1)]
    width = len(str(n_docs))
    doc_lengths, sizes, uniforms, positions = [], [], [], []
    total = 0
    for d in range(n_docs):
        if lengths is not None:
            length = lengths[d]
        else:
            length = max(100, int(rng.lognormal(log_mean, 0.5)))
        lam = codes_per_kchar * length / 1000.0
        if lam > MAX_EXPECTED_CODES:  # also keeps lam inside numpy's Poisson range
            raise CodeCountError(f"document doc-{d:0{width}d} expects {lam:g} codes, "
                                 f"past the cap of {MAX_EXPECTED_CODES:,} per document")
        total += length
        if total >= 2**53:
            raise ValueError(f"document doc-{d:0{width}d}: the total length reaches 2**53, the "
                             "cap below which every length and sum is exact in float64")
        k = int(rng.poisson(lam))
        doc_lengths.append(length)
        sizes.append(k)
        if k:  # no draw for an empty document
            uniforms.append(rng.random(k))  # what Generator.choice(p=...) draws
            # rng.random(k) is rng.uniform(size=k), 0 + 1 * u, with less argument checking
            positions.append(rng.random(k))
    label_ids = cdf.searchsorted(np.concatenate(uniforms or [np.zeros(0)]), side="right")
    rows = np.repeat(np.arange(n_docs), sizes)
    instances = (np.zeros(len(rows)), rows, label_ids, np.concatenate(positions or [np.zeros(0)]))
    docs = Collection.intern(
        [f"doc-{d:0{width}d}" for d in range(n_docs)], doc_lengths, ("synthetic",) * n_docs,
        [coder_source], instances, vocab,
    )
    used = np.flatnonzero(np.bincount(label_ids, minlength=n_codes)).tolist()
    entries = {vocab[i]: vocab[i] for i in used}
    theme_map = themes = None
    if n_themes > 0:
        theme_map = {vocab[i]: f"theme {i % n_themes + 1:02d}" for i in used}
        themes = {t: t for t in sorted(set(theme_map.values()))}
    return docs, Codebook(entries=entries, theme_map=theme_map, themes=themes)


def synth_articles(
    n_docs: int,
    seed: int,
    mean_paragraphs: int = 6,
    words_per_paragraph: tuple[int, int] = (20, 60),
) -> list[RawArticle]:
    """Articles made of word-salad paragraphs long enough to survive splitting."""
    rng = np.random.default_rng(seed)
    width = len(str(n_docs))
    articles = []
    for d in range(n_docs):
        n_paragraphs = max(1, int(rng.poisson(mean_paragraphs)))
        paragraphs = []
        for _ in range(n_paragraphs):
            n_words = int(rng.integers(*words_per_paragraph))
            words = rng.integers(0, len(_WORDS), n_words).tolist()
            paragraphs.append(" ".join(map(_WORDS.__getitem__, words)))
        articles.append(
            RawArticle(
                id=f"doc-{d:0{width}d}",
                full_text="\n".join(paragraphs),
            )
        )
    return articles
