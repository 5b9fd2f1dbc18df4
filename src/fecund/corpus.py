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
from collections.abc import Mapping
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
    immutable after construction; they are stored as tuples. A document
    returned by ``load_collection`` holds its row of the collection's
    interned matrices instead, and builds each tuple on first access.
    """

    id: str
    text_length: int
    source_label: str | None = None
    codes: Mapping[str, tuple[CodeInstance, ...]] = field(default_factory=dict)

    def __post_init__(self):
        if self.text_length < 1:
            raise ValueError(f"document {self.id!r}: text_length must be >= 1")
        stored = self.codes
        if isinstance(stored, _StoredCodes) and stored.lengths[stored.row] == self.text_length:
            return
        object.__setattr__(
            self, "codes", {src: tuple(insts) for src, insts in self.codes.items()}
        )

    def instances(self, coder_source: str) -> tuple[CodeInstance, ...]:
        if coder_source not in self.codes:
            raise UnknownCoderSourceError(
                f"document {self.id!r} has no codes from source {coder_source!r}"
            )
        return self.codes[coder_source]


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


@dataclass(frozen=True, eq=False)
class CodeMatrix:
    """One coder source's code instances over a document sequence, interned.

    ``labels`` holds sorted distinct code labels; a code's id is its index
    there. Document ``i``'s code ids, in file order and with repeats, are
    ``codes[offsets[i]:offsets[i + 1]]`` (compressed sparse rows), with
    each instance's position alongside in ``positions`` (NaN where it has
    none); ``lengths[i]`` is its character length. ``labels`` may hold
    codes no row uses (see ``take``), but ids always follow label order.
    """

    labels: tuple[str, ...]
    offsets: np.ndarray
    codes: np.ndarray
    positions: np.ndarray
    lengths: np.ndarray

    @classmethod
    def build(cls, docs: Sequence[Document], coder_source: str) -> "CodeMatrix":
        """The matrix of ``docs``; a missing source raises like ``instances``.

        Rows of one loaded collection are gathered from its matrix; other
        documents are interned in one walk over their instances.
        """
        codes = [doc.codes for doc in docs]
        if codes and all(isinstance(c, _StoredCodes) and c.store is codes[0].store for c in codes):
            if coder_source not in codes[0].store:
                docs[0].instances(coder_source)  # raises UnknownCoderSourceError
            return codes[0].store[coder_source].take([c.row for c in codes])
        ids: dict[str, int] = {}  # label -> id, in first-seen order
        instances = [
            (i, ids.setdefault(inst.code_id, len(ids)), inst.position)
            for i, doc in enumerate(docs)
            for inst in doc.instances(coder_source)
        ]
        rows, label_ids, positions = zip(*instances) if instances else ((), (), ())
        return cls.intern(rows, label_ids, positions, list(ids), [d.text_length for d in docs])

    @classmethod
    def intern(
        cls,
        rows: Sequence[int],
        label_ids: Sequence[int],
        positions: Sequence[float | None],
        names: Sequence[str],
        lengths: Sequence[int],
    ) -> "CodeMatrix":
        """The matrix of code instances given as columns, in any row order:
        each instance's document row, the index of its label in ``names`` and
        its position (None or NaN for none). Each row's instances keep their
        order; the labels are the used names, sorted."""
        rows = np.asarray(rows, dtype=np.int64)
        label_ids = np.asarray(label_ids, dtype=np.int64)
        used = np.flatnonzero(np.bincount(label_ids, minlength=len(names))).tolist()
        used.sort(key=names.__getitem__)
        rank = np.zeros(len(names), dtype=np.int64)
        rank[used] = np.arange(len(used))
        by_row = np.argsort(rows, kind="stable")
        offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=len(lengths)), out=offsets[1:])
        return cls(
            labels=tuple(names[i] for i in used),
            offsets=offsets,
            codes=rank[label_ids[by_row]],
            positions=np.asarray(positions, dtype=np.float64)[by_row],  # None reads NaN
            lengths=np.array(lengths, dtype=np.int64),
        )

    def take(self, rows: Sequence[int]) -> "CodeMatrix":
        """The given rows, in that order, gathered without re-interning:
        the result keeps these labels, so ids still follow label order."""
        rows = np.asarray(rows, dtype=np.int64)
        starts = self.offsets[rows]
        sizes = self.offsets[rows + 1] - starts
        offsets = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        index = np.repeat(starts - offsets[:-1], sizes) + np.arange(offsets[-1])
        return CodeMatrix(
            labels=self.labels,
            offsets=offsets,
            codes=self.codes[index],
            positions=self.positions[index],
            lengths=self.lengths[rows],
        )

    def doc_index(self) -> np.ndarray:
        """The document index of every instance, aligned with ``codes``."""
        return np.repeat(np.arange(len(self.lengths), dtype=np.int64), np.diff(self.offsets))


class _StoredCodes(Mapping):
    """A loaded document's ``codes``: its row of the collection's matrices,
    one per coder source, built into ``CodeInstance`` tuples on first access."""

    def __init__(self, store: dict[str, CodeMatrix], lengths: list[int], row: int):
        self.store, self.lengths, self.row = store, lengths, row
        self._built: dict[str, tuple[CodeInstance, ...]] = {}

    def __getitem__(self, source: str) -> tuple[CodeInstance, ...]:
        if source not in self._built:
            m = self.store[source]
            start, end = m.offsets[self.row], m.offsets[self.row + 1]
            self._built[source] = tuple(
                CodeInstance(m.labels[c], None if p != p else p)  # NaN: no position
                for c, p in zip(m.codes[start:end].tolist(), m.positions[start:end].tolist())
            )
        return self._built[source]

    def __iter__(self):
        return iter(self.store)

    def __len__(self) -> int:
        return len(self.store)

    def __repr__(self) -> str:
        return repr(dict(self))


@dataclass(frozen=True)
class FrequencyTable:
    """Per-code instance counts over an explicit document scope."""

    scope: frozenset[str]
    counts: dict[str, int]


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
