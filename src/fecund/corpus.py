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
from collections.abc import Iterable, Mapping, Sequence
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
    codes: Mapping[str, tuple[CodeInstance, ...]] = field(default_factory=dict)

    def __post_init__(self):
        if self.text_length < 1:
            raise ValueError(f"document {self.id!r}: text_length must be >= 1")
        object.__setattr__(self, "codes", {s: tuple(insts) for s, insts in self.codes.items()})

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
    """Documents as columns: the one representation every estimator reads.

    Row ``i`` is document ``ids[i]`` (ids are unique) of ``lengths[i]``
    characters, with its codes from each coder source in row ``i`` of
    ``matrices[source]``. ``carried[source]`` marks the rows carrying a source
    that some hand-built documents lack. Indexing builds a ``Document``, and a
    collection equals any sequence of equal documents.
    """

    ids: tuple[str, ...]
    lengths: np.ndarray  # int64
    source_labels: tuple[str | None, ...]
    matrices: Mapping[str, CodeMatrix]
    carried: Mapping[str, np.ndarray] = field(default_factory=dict)

    @classmethod
    def intern(
        cls, ids: Sequence[str], lengths: Sequence[int], source_labels: Sequence[str | None],
        sources: Sequence[str], instances: Sequence[Sequence], names: Sequence[str],
        carried: Mapping[str, np.ndarray] | None = None,
    ) -> "Collection":
        """The collection with code instances given as columns in any row order:
        index in ``sources``, row, index of the label in ``names`` and position
        (None or NaN for none). Labels are sorted; rows keep instance order."""
        source_ids, rows, label_ids = (np.asarray(c, dtype=np.int64) for c in instances[:3])
        positions = np.asarray(instances[3], dtype=np.float64)  # None reads NaN
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
        lengths = np.array(lengths, dtype=np.int64)
        return cls(tuple(ids), lengths, tuple(source_labels), matrices, carried or {})

    @classmethod
    def of(cls, docs: Iterable[Document]) -> "Collection":
        """``docs`` as a collection: unchanged if it is one, else interned in one
        walk over the instances. A repeated document id raises ValueError."""
        if isinstance(docs, Collection):
            return docs
        ids: dict[str, None] = {}  # in row order
        lengths, source_labels, instances = [], [], []
        names: dict[str, int] = {}  # label -> index, in first-seen order
        source_of: dict[str, int] = {}  # coder source -> index, in first-seen order
        carriers: dict[str, list[int]] = {}  # coder source -> the rows that carry it
        for row, doc in enumerate(docs):
            if doc.id in ids:
                raise ValueError(f"duplicate document id {doc.id!r} in collection")
            ids[doc.id] = None
            lengths.append(doc.text_length)
            source_labels.append(doc.source_label)
            for source, insts in doc.codes.items():
                s = source_of.setdefault(source, len(source_of))
                carriers.setdefault(source, []).append(row)
                instances.extend(
                    (s, row, names.setdefault(inst.code_id, len(names)), inst.position)
                    for inst in insts
                )
        n = len(ids)
        carried = {s: np.bincount(r, minlength=n) > 0 for s, r in carriers.items() if len(r) < n}
        columns = tuple(zip(*instances)) if instances else ((),) * 4
        sources, names = list(source_of), list(names)
        return cls.intern(list(ids), lengths, source_labels, sources, columns, names, carried)

    def matrix(self, source: str) -> CodeMatrix:
        """The codes of ``source`` over every row; a document without the
        source raises ``UnknownCoderSourceError``, naming the first one."""
        carried = self.carried.get(source)
        if source in self.matrices and (carried is None or carried.all()):
            return self.matrices[source]
        if not self.ids:  # no document lacks the source
            return Collection.intern((), (), (), [source], ((),) * 4, []).matrices[source]
        first = self.ids[0 if carried is None else int(np.argmin(carried))]
        raise UnknownCoderSourceError(f"document {first!r} has no codes from source {source!r}")

    def take(self, rows: Sequence[int]) -> "Collection":
        """The given distinct rows, in that order, without re-interning."""
        rows = np.asarray(rows, dtype=np.int64)
        return Collection(
            tuple(map(self.ids.__getitem__, rows.tolist())),
            self.lengths[rows],
            tuple(map(self.source_labels.__getitem__, rows.tolist())),
            {source: m.take(rows) for source, m in self.matrices.items()},
            {source: mask[rows] for source, mask in self.carried.items()},
        )

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self.take(range(len(self))[index])
        row = range(len(self))[index]
        codes = {
            source: m.instances(row)
            for source, m in self.matrices.items()
            if source not in self.carried or self.carried[source][row]
        }
        return Document(self.ids[row], int(self.lengths[row]), self.source_labels[row], codes)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))


@dataclass(frozen=True)
class SummaryStats:
    mean: float
    n: int
    ci95_lower: float
    ci95_upper: float
    p25: float
    p75: float


def unique_weight(docs: Iterable[Document], coder_source: str) -> np.ndarray:
    """Inverse-frequency weight of each document's code instances, one per row.

    Each instance of code i contributes 1/f_i, where f_i counts code i over
    ``docs`` itself, duplicates within a document included; so the weights
    over ``docs`` add up to its number of distinct codes. Every document must
    carry the named source (an empty instance list is fine); one without it
    raises UnknownCoderSourceError rather than silently undercounting.
    """
    docs = Collection.of(docs)
    m = docs.matrix(coder_source)
    counts = np.bincount(m.codes, minlength=len(m.labels))
    # bincount adds each row's weights in instance order, starting from 0.0;
    # with no instance at all it returns integer zeros
    weights = np.bincount(m.doc_index(), weights=1.0 / counts[m.codes], minlength=len(docs))
    return weights.astype(np.float64, copy=False)


def fecundity(docs: Iterable[Document], coder_source: str) -> np.ndarray:
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
