"""Core domain types plus the frequency and fecundity metrics built on them.

Fecundity is inverse-frequency-weighted unique codes per 1000 characters:
every instance of a code that occurs f times in the evaluated scope
contributes 1/f, so the per-document weights over a whole scope add up to
the number of distinct codes in that scope. Frequencies are taken over the
collection passed in, because uniqueness is relative to the set of codes
being compared; callers pass the scope that matches their comparison.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import UnknownCoderSourceError


@dataclass(frozen=True)
class CodeInstance:
    """One occurrence of a code in a document.

    ``position`` is the fractional location of the coded passage within the
    document (midpoint of the passage span), when known.
    """

    code_id: str
    position: float | None = None


@dataclass(frozen=True)
class Document:
    """One row of a ``Collection``: its id, character length, source label
    and the instances each coder source (e.g. "human", "ai") produced."""

    id: str
    text_length: int
    source_label: str | None = None
    codes: Mapping[str, tuple[CodeInstance, ...]] = field(default_factory=dict)

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
    none). ``labels`` may hold codes no row uses (see ``take``), but ids
    always follow label order.
    """

    labels: tuple[str, ...]
    offsets: np.ndarray
    codes: np.ndarray
    positions: np.ndarray

    def take(self, rows: Sequence[int]) -> "CodeMatrix":
        """The given rows, in that order, gathered without re-interning:
        the result keeps these labels, so ids still follow label order."""
        rows = np.asarray(rows, dtype=np.int64)
        starts = self.offsets[rows]
        sizes = self.offsets[rows + 1] - starts
        offsets = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        index = np.repeat(starts - offsets[:-1], sizes) + np.arange(offsets[-1])
        return CodeMatrix(self.labels, offsets, self.codes[index], self.positions[index])

    def doc_index(self) -> np.ndarray:
        """The document index of every instance, aligned with ``codes``."""
        return np.repeat(np.arange(len(self.offsets) - 1, dtype=np.int64), np.diff(self.offsets))

    def instances(self, row: int) -> tuple[CodeInstance, ...]:
        """Row ``row`` as ``CodeInstance`` tuples, in file order."""
        start, end = self.offsets[row : row + 2].tolist()
        return tuple(
            CodeInstance(self.labels[c], None if p != p else p)  # NaN: no position
            for c, p in zip(self.codes[start:end].tolist(), self.positions[start:end].tolist())
        )


@dataclass(frozen=True, eq=False)
class Collection(Sequence[Document]):
    """Documents as columns: the one input form every estimator reads.

    Row ``i`` is document ``ids[i]`` (ids are unique) of ``lengths[i]``
    characters, with its codes from each coder source in row ``i`` of
    ``matrices[source]``. Every row carries every source. Indexing builds
    a ``Document``.
    """

    ids: tuple[str, ...]
    lengths: np.ndarray  # int64
    source_labels: tuple[str | None, ...]
    matrices: Mapping[str, CodeMatrix]

    @classmethod
    def intern(
        cls, ids: Sequence[str], lengths: Sequence[int], source_labels: Sequence[str | None],
        sources: Sequence[str], instances: Sequence[Sequence], names: Sequence[str],
    ) -> "Collection":
        """The collection with code instances given as columns in any row order:
        index in ``sources``, row, index of the label in ``names`` and position
        (None or NaN for none). Labels are sorted; rows keep instance order.
        A repeated id, a length below 1 or a position outside [0, 1] raises
        ValueError."""
        if len(set(ids)) < len(ids):
            seen: set[str] = set()
            repeated = next(i for i in ids if i in seen or seen.add(i))
            raise ValueError(f"duplicate document id {repeated!r} in collection")
        lengths = np.array(lengths, dtype=np.int64)
        if len(lengths) and lengths.min() < 1:
            short = ids[int(np.argmin(lengths))]
            raise ValueError(f"document {short!r}: text_length must be >= 1")
        source_ids, rows, label_ids = (np.asarray(c, dtype=np.int64) for c in instances[:3])
        positions = np.asarray(instances[3], dtype=np.float64)  # None reads NaN
        outside = positions[(positions < 0.0) | (positions > 1.0)]  # NaN is neither
        if len(outside):
            raise ValueError(f"position {outside[0]} outside [0, 1]")
        n, matrices = len(ids), {}
        for s, source in enumerate(sources):
            mine = np.flatnonzero(source_ids == s)
            mine = mine[np.argsort(rows[mine], kind="stable")]
            used = np.flatnonzero(np.bincount(label_ids[mine], minlength=len(names))).tolist()
            used.sort(key=names.__getitem__)
            rank = np.zeros(len(names), dtype=np.int64)
            rank[used] = np.arange(len(used))
            offsets = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(np.bincount(rows[mine], minlength=n), out=offsets[1:])
            labels = tuple(names[i] for i in used)
            matrices[source] = CodeMatrix(labels, offsets, rank[label_ids[mine]], positions[mine])
        return cls(tuple(ids), lengths, tuple(source_labels), matrices)

    @classmethod
    def of(cls, docs: "Collection") -> "Collection":
        """``docs`` unchanged; anything but a collection raises TypeError."""
        if not isinstance(docs, cls):
            raise TypeError(
                f"expected a Collection, got {type(docs).__name__}; "
                "build one with Collection.intern"
            )
        return docs

    def matrix(self, source: str) -> CodeMatrix:
        """The codes of ``source`` over every row; a collection without the
        source raises ``UnknownCoderSourceError``, naming its first document."""
        if source in self.matrices:
            return self.matrices[source]
        if not self.ids:  # no document lacks the source
            return Collection.intern((), (), (), [source], ((),) * 4, []).matrices[source]
        raise UnknownCoderSourceError(
            f"document {self.ids[0]!r} has no codes from source {source!r}"
        )

    def take(self, rows: Sequence[int]) -> "Collection":
        """The given distinct rows, in that order, without re-interning."""
        rows = np.asarray(rows, dtype=np.int64)
        return Collection(
            tuple(map(self.ids.__getitem__, rows.tolist())),
            self.lengths[rows],
            tuple(map(self.source_labels.__getitem__, rows.tolist())),
            {source: m.take(rows) for source, m in self.matrices.items()},
        )

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self.take(range(len(self))[index])
        row = range(len(self))[index]
        codes = {source: m.instances(row) for source, m in self.matrices.items()}
        return Document(self.ids[row], int(self.lengths[row]), self.source_labels[row], codes)


@dataclass(frozen=True)
class SummaryStats:
    mean: float
    n: int
    ci95_lower: float
    ci95_upper: float
    p25: float
    p75: float


def unique_weight(docs: Collection, coder_source: str) -> np.ndarray:
    """Inverse-frequency weight of each document's code instances, one per row.

    Each instance of code i contributes 1/f_i, where f_i counts code i over
    ``docs`` itself, duplicates within a document included; so the weights
    over ``docs`` add up to its number of distinct codes. A non-empty
    collection without the named source raises UnknownCoderSourceError.
    """
    docs = Collection.of(docs)
    m = docs.matrix(coder_source)
    counts = np.bincount(m.codes, minlength=len(m.labels))
    # bincount adds each row's weights in instance order, starting from 0.0;
    # with no instance at all it returns integer zeros
    weights = np.bincount(m.doc_index(), weights=1.0 / counts[m.codes], minlength=len(docs))
    return weights.astype(np.float64, copy=False)


def fecundity(docs: Collection, coder_source: str) -> np.ndarray:
    """Each document's unique-code weight per 1000 characters, over ``docs``."""
    docs = Collection.of(docs)
    return unique_weight(docs, coder_source) / docs.lengths * 1000.0


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
