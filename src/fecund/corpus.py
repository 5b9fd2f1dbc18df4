"""Core domain types plus the frequency and fecundity metrics built on them.

Fecundity is inverse-frequency-weighted unique codes per 1000 characters:
every instance of a code that occurs f times in the evaluated scope
contributes 1/f, so the per-document weights over a whole scope add up to
the number of distinct codes in that scope. Frequencies are always taken
over an explicit document scope because uniqueness is relative to the set
of codes being compared; callers pick the scope that matches their
comparison.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import StaleFrequencyError, UnknownCoderSourceError


@dataclass(frozen=True)
class CodeInstance:
    """One occurrence of a code in a document.

    ``position`` is the fractional location of the coded passage within the
    document (midpoint of the passage span), when known.
    """

    code_id: str
    position: float | None = None

    def __post_init__(self):
        if self.position is not None and not 0.0 <= self.position <= 1.0:
            raise ValueError(f"position {self.position} outside [0, 1]")


@dataclass(frozen=True)
class Document:
    """A unit of text with a character length and per-source code instances.

    ``codes`` maps a coder-source identifier (e.g. "human", "ai") to the
    instances that source produced for this document. Treat instances as
    immutable after construction; they are stored as tuples.
    """

    id: str
    text_length: int
    source_label: str | None = None
    codes: dict[str, tuple[CodeInstance, ...]] = field(default_factory=dict)

    def __post_init__(self):
        if self.text_length < 1:
            raise ValueError(f"document {self.id!r}: text_length must be >= 1")
        object.__setattr__(
            self, "codes", {src: tuple(insts) for src, insts in self.codes.items()}
        )

    def instances(self, coder_source: str) -> tuple[CodeInstance, ...]:
        if coder_source not in self.codes:
            raise UnknownCoderSourceError(
                f"document {self.id!r} has no codes from source {coder_source!r}"
            )
        return self.codes[coder_source]

    def code_ids(self, coder_source: str) -> list[str]:
        return [inst.code_id for inst in self.instances(coder_source)]


@dataclass(frozen=True)
class Codebook:
    """Registry of canonical code labels, optionally mapped onto themes."""

    entries: dict[str, str] = field(default_factory=dict)
    theme_map: dict[str, str] | None = None
    themes: dict[str, str] | None = None

    def __post_init__(self):
        if self.theme_map:
            unknown = [c for c in self.theme_map if c not in self.entries]
            if unknown:
                raise ValueError(f"theme_map references unknown codes: {unknown}")

    def theme_of(self, code_id: str) -> str | None:
        if not self.theme_map:
            return None
        return self.theme_map.get(code_id)


@dataclass(frozen=True, eq=False)
class CodeMatrix:
    """One coder source's code instances over a document sequence, interned.

    ``labels`` holds the sorted distinct code labels; a code's id is its
    index there. Document ``i``'s code ids, in file order and with repeats,
    are ``codes[offsets[i]:offsets[i + 1]]`` (compressed sparse rows);
    ``lengths[i]`` is its character length. All arrays are int64.
    """

    labels: tuple[str, ...]
    offsets: np.ndarray
    codes: np.ndarray
    lengths: np.ndarray

    @classmethod
    def build(cls, docs: Sequence[Document], coder_source: str) -> "CodeMatrix":
        """Intern ``docs`` in one walk; a missing source raises like ``instances``."""
        raw: list[str] = []
        offsets = [0]
        lengths = []
        for doc in docs:
            raw.extend(inst.code_id for inst in doc.instances(coder_source))
            offsets.append(len(raw))
            lengths.append(doc.text_length)
        labels = tuple(sorted(set(raw)))
        index = {label: i for i, label in enumerate(labels)}
        return cls(
            labels=labels,
            offsets=np.array(offsets, dtype=np.int64),
            codes=np.fromiter((index[c] for c in raw), dtype=np.int64, count=len(raw)),
            lengths=np.array(lengths, dtype=np.int64),
        )

    def doc_index(self) -> np.ndarray:
        """The document index of every instance, aligned with ``codes``."""
        return np.repeat(np.arange(len(self.lengths), dtype=np.int64), np.diff(self.offsets))


@dataclass(frozen=True)
class FrequencyTable:
    """Per-code instance counts over an explicit document scope."""

    scope: frozenset[str]
    counts: dict[str, int]

    def total_instances(self) -> int:
        return sum(self.counts.values())


@dataclass(frozen=True)
class FecundityReport:
    document_id: str
    unique_weight: float
    fecundity: float


@dataclass(frozen=True)
class SummaryStats:
    mean: float
    n: int
    ci95_lower: float
    ci95_upper: float
    p25: float
    p75: float


def _check_unique_ids(docs: Sequence[Document]) -> None:
    seen: set[str] = set()
    for doc in docs:
        if doc.id in seen:
            raise ValueError(f"duplicate document id {doc.id!r} in collection")
        seen.add(doc.id)


def compute_frequencies(docs: Iterable[Document], coder_source: str) -> FrequencyTable:
    """Count each code's instances across ``docs`` for one coder source.

    Every document must carry the named source (an empty instance list is
    fine); a document without it raises UnknownCoderSourceError so stale
    source names fail loudly rather than silently undercounting.
    """
    docs = list(docs)
    _check_unique_ids(docs)
    counts: Counter[str] = Counter()
    for doc in docs:
        for inst in doc.instances(coder_source):
            counts[inst.code_id] += 1
    return FrequencyTable(scope=frozenset(d.id for d in docs), counts=dict(counts))


def unique_weight(doc: Document, freq: FrequencyTable, coder_source: str) -> float:
    """Inverse-frequency weight of the document's code instances.

    Each instance of code i contributes 1/f_i, duplicates within the same
    document included, so summing over all documents in the table's scope
    recovers the number of distinct codes in scope exactly.
    """
    total = 0.0
    for inst in doc.instances(coder_source):
        f = freq.counts.get(inst.code_id)
        if f is None:
            raise StaleFrequencyError(
                f"code {inst.code_id!r} in document {doc.id!r} is missing from the "
                "frequency table; recompute frequencies over the evaluated scope"
            )
        total += 1.0 / f
    return total


def fecundity(doc: Document, freq: FrequencyTable, coder_source: str) -> FecundityReport:
    """Unique-code weight per 1000 characters of the document."""
    uw = unique_weight(doc, freq, coder_source)
    return FecundityReport(
        document_id=doc.id,
        unique_weight=uw,
        fecundity=uw / doc.text_length * 1000.0,
    )


def _quantile(sorted_values: Sequence[float], q: float) -> float:
    # Linear interpolation between order statistics.
    n = len(sorted_values)
    if n == 1:
        return float(sorted_values[0])
    h = (n - 1) * q
    lo = math.floor(h)
    hi = min(lo + 1, n - 1)
    frac = h - lo
    return sorted_values[lo] + frac * (sorted_values[hi] - sorted_values[lo])


def summary_stats(values: Sequence[float]) -> SummaryStats:
    """Mean with a normal-approximation 95% CI plus quartiles.

    The CI is mean +/- 1.96 * sd / sqrt(n) with the sample (n-1) standard
    deviation; with a single observation the CI bounds are NaN.
    """
    vals = [float(v) for v in values]
    n = len(vals)
    if n == 0:
        raise ValueError("summary_stats requires at least one value")
    mean = sum(vals) / n
    if n >= 2:
        var = sum((v - mean) ** 2 for v in vals) / (n - 1)
        half = 1.96 * math.sqrt(var) / math.sqrt(n)
        ci_lo, ci_hi = mean - half, mean + half
    else:
        ci_lo = ci_hi = math.nan
    ordered = sorted(vals)
    return SummaryStats(
        mean=mean,
        n=n,
        ci95_lower=ci_lo,
        ci95_upper=ci_hi,
        p25=_quantile(ordered, 0.25),
        p75=_quantile(ordered, 0.75),
    )
