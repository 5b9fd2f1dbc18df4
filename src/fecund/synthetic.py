"""Seeded synthetic corpora for tests, demos, and the synth CLI command."""

from __future__ import annotations

import numpy as np

from .corpus import Codebook, Collection
from .ingest import RawArticle

_WORDS = (
    "border camp policy shelter transit work permit school clinic market "
    "community council minister statement protest aid agency volunteer "
    "family housing labour court ruling detention release register crossing "
    "coast boat arrival language training festival neighbourhood employer "
    "wage health vaccine census survey report editorial opinion letter"
).split()


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
    with_positions: bool = True,
    lengths: list[int] | None = None,
) -> tuple[Collection, Codebook]:
    """Corpus with Zipf-skewed code frequencies and length-scaled code counts.

    Lengths are lognormal around ``mean_length`` unless given explicitly;
    each document draws a Poisson number of code instances proportional to
    its length from a Zipf-weighted vocabulary, with optional uniform
    positions. When ``n_themes`` > 0, codes map onto themes round-robin.
    """
    rng = np.random.default_rng(seed)
    cdf = zipf_cdf(n_codes, zipf_exponent)
    log_mean = np.log(mean_length)
    vocab = [f"code {i:03d}" for i in range(1, n_codes + 1)]
    width = len(str(n_docs))
    doc_lengths, sizes, uniforms, positions = [], [], [], []
    for d in range(n_docs):
        if lengths is not None:
            length = lengths[d]
        else:
            length = max(100, int(rng.lognormal(log_mean, 0.5)))
        k = int(rng.poisson(codes_per_kchar * length / 1000.0))
        doc_lengths.append(length)
        sizes.append(k)
        if k:  # no draw for an empty document
            uniforms.append(rng.random(k))  # what Generator.choice(p=...) draws
            # rng.random(k) is rng.uniform(size=k), 0 + 1 * u, with less argument checking
            positions.append(rng.random(k) if with_positions else np.full(k, np.nan))
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


def experiment_corpus(
    seed: int,
    n_treatment: int = 34,
    n_control: int = 14,
    control_rate: float = 1.4,
    effect_ratio: float = 2.0,
    length_range: tuple[int, int] = (1000, 3000),
    coder_source: str = "human",
) -> tuple[Collection, dict[str, str]]:
    """Two-arm corpus with a known planted fecundity effect.

    Control documents generate code instances at ``control_rate`` per 1000
    characters; treatment documents at ``effect_ratio`` times that. Every
    instance gets a fresh code id, so inverse-frequency weights are all 1
    and the expected fecundity gap is exactly control_rate*(effect_ratio-1).
    Returns documents plus an id->arm map.
    """
    rng = np.random.default_rng(seed)
    arms, lengths, sizes = {}, [], []
    for arm, count, rate in (
        ("control", n_control, control_rate),
        ("treatment", n_treatment, control_rate * effect_ratio),
    ):
        for i in range(count):
            length = int(rng.integers(length_range[0], length_range[1] + 1))
            sizes.append(int(rng.poisson(rate * length / 1000.0)))
            lengths.append(length)
            arms[f"{arm[0]}{i:03d}"] = arm
    n = sum(sizes)
    rows = np.repeat(np.arange(len(sizes)), sizes)
    instances = (np.zeros(n), rows, np.arange(n), np.full(n, np.nan))
    names = [f"fresh {j:06d}" for j in range(n)]
    docs = Collection.intern(list(arms), lengths, (None,) * len(sizes), [coder_source],
                             instances, names)
    return docs, arms


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
                source_label="synthetic",
            )
        )
    return articles
