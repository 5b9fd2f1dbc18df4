"""Cumulative code/theme accumulation, stopping rules, and bootstrap bands.

Counting regimes
    unique            distinct codes seen so far
    hf_retrospective  codes that end up high-frequency over the whole order,
                      counted from their first appearance
    hf_iterative      codes counted only once their cumulative instance
                      count reaches the threshold
    themes            distinct themes reached via the code->theme map

Retrospective counting flattens artificially near the end of any ordering
(the first instance of a code that needs t total occurrences must appear
at least t-1 documents before the end when no document repeats a code),
so both high-frequency regimes are provided.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import Codebook, CodeMatrix, Collection


REGIME_KINDS = ("unique", "hf_retrospective", "hf_iterative", "themes")


@dataclass(frozen=True)
class CountingRegime:
    kind: str  # one of REGIME_KINDS
    hf_threshold: int = 3

    def __post_init__(self):
        if self.kind not in REGIME_KINDS:
            raise ValueError(f"unknown counting regime {self.kind!r}")
        if self.hf_threshold < 2:
            raise ValueError("hf_threshold must be >= 2")


@dataclass(frozen=True)
class CurveStep:
    doc_index: int  # 1-based
    cumulative_chars: int
    cumulative_count: int


@dataclass(frozen=True)
class SaturationCurve:
    steps: tuple[CurveStep, ...]
    regime: CountingRegime
    document_order: tuple[str, ...]

    @property
    def counts(self) -> list[int]:
        return [s.cumulative_count for s in self.steps]


@dataclass(frozen=True, eq=False)
class BootstrapBand:
    """Bootstrap mean curve with a percentile band over random orderings.

    Columns are float64 arrays indexed by step (step ``k`` at index
    ``k - 1``). ``mean_chars``, ``mean_count``, ``raw_lo95`` and
    ``raw_hi95`` cover every step; the raw band always has zero width at
    the final step because the complete corpus is order-invariant.
    ``lo95`` and ``hi95`` hold the correction-adjusted band over the
    retained steps only (the final ``truncation`` fraction is dropped).
    """

    n_iterations: int
    truncation: float
    regime: CountingRegime
    mean_chars: np.ndarray
    mean_count: np.ndarray
    lo95: np.ndarray
    hi95: np.ndarray
    raw_lo95: np.ndarray
    raw_hi95: np.ndarray


@dataclass(frozen=True)
class StoppingRuleResult:
    rule: str
    satisfied_at: int | None
    codes_at_satisfaction: int | None
    all_satisfaction_points: tuple[int, ...]


# Elements per array in one block of bootstrap iterations. Larger blocks
# save little time but raise peak memory measurably.
_BLOCK_ELEMENTS = 1 << 16


@dataclass(frozen=True, eq=False)
class _Groups:
    """What a regime counts, fixed for a collection whatever the order.

    A group (a code, or a theme) is counted at the position of its
    ``rank``-th counted instance. Counted instances are sorted by group;
    ``starts`` holds the first slot of each group with at least ``rank``
    instances, the only groups that can ever be counted.
    """

    docs: np.ndarray  # document index of each counted instance
    group: np.ndarray  # group id of each counted instance, ascending
    starts: np.ndarray
    rank: int


def _theme_map(regime: CountingRegime, codebook: Codebook | None) -> dict[str, str] | None:
    if regime.kind != "themes":
        return None
    if codebook is None or not codebook.theme_map:
        raise ValueError("themes regime requires a codebook with a theme map")
    return codebook.theme_map


def _groups(
    matrix: CodeMatrix, regime: CountingRegime, theme_map: dict[str, str] | None
) -> _Groups:
    group = matrix.codes
    keep = np.ones(len(group), dtype=bool)
    if regime.kind == "hf_retrospective":
        # High-frequency status depends only on the full collection, not the order.
        totals = np.bincount(group, minlength=len(matrix.labels))
        keep = totals[group] >= regime.hf_threshold
    elif regime.kind == "themes":
        theme_id = {t: i for i, t in enumerate(sorted(set(theme_map.values())))}
        code_theme = np.array(
            [theme_id.get(theme_map.get(c), -1) for c in matrix.labels], dtype=np.int64
        )
        group = code_theme[group]
        keep = group >= 0
    rank = regime.hf_threshold if regime.kind == "hf_iterative" else 1
    group = group[keep]
    by_group = np.argsort(group, kind="stable")
    group = group[by_group]
    docs = matrix.doc_index()[keep][by_group]
    starts = np.flatnonzero(np.diff(group, prepend=-1))
    sizes = np.diff(starts, append=len(group))
    return _Groups(docs=docs, group=group, starts=starts[sizes >= rank], rank=rank)


def _count_orders(groups: _Groups, positions: np.ndarray, out: np.ndarray) -> None:
    """Cumulative counts into ``out`` for a block of orders.

    ``positions[b, i]`` is the 0-based place of document ``i`` in order
    ``b``. Each group is counted where its ``rank``-th smallest instance
    position falls; instances in one document share that document's
    position, so repeats within a document count with multiplicity.
    """
    n_orders, n_docs = positions.shape
    counted = np.zeros((n_orders, n_docs), dtype=np.int64)
    if len(groups.starts):
        pos = positions[:, groups.docs]
        if groups.rank == 1:
            reached = np.minimum.reduceat(pos, groups.starts, axis=1)
        else:
            # Groups occupy fixed slices, so sorting by (group, position) sorts
            # each group's positions in place.
            offset = groups.group * n_docs
            slot = groups.starts + groups.rank - 1
            reached = np.sort(offset + pos, axis=1)[:, slot] - offset[slot]
        rows = np.arange(n_orders, dtype=np.int64)[:, None] * n_docs
        counted = np.bincount(
            (reached + rows).ravel(), minlength=n_orders * n_docs
        ).reshape(n_orders, n_docs)
    np.cumsum(counted, axis=1, out=out)


def cumulative_curve(
    order: Collection,
    regime: CountingRegime,
    coder_source: str,
    codebook: Codebook | None = None,
) -> SaturationCurve:
    """Cumulative accumulation counts along one document order.

    hf_retrospective judges high frequency against the codebook of the
    full order (so the curve can only be read after coding everything);
    hf_iterative credits a code at the document where its cumulative count
    first reaches the threshold.
    """
    order = Collection.of(order)
    theme_map = _theme_map(regime, codebook)
    matrix = order.matrix(coder_source)
    groups = _groups(matrix, regime, theme_map)
    counts = np.empty((1, len(order)), dtype=np.int64)
    _count_orders(groups, np.arange(len(order), dtype=np.int64)[None, :], counts)
    chars = np.cumsum(order.lengths).tolist()
    steps = tuple(
        CurveStep(doc_index=k, cumulative_chars=c, cumulative_count=n)
        for k, (c, n) in enumerate(zip(chars, counts[0].tolist()), start=1)
    )
    return SaturationCurve(
        steps=steps,
        regime=regime,
        document_order=order.ids,
    )


def detect_stopping(curve: SaturationCurve, rule: str = "10+3") -> StoppingRuleResult:
    """Find where the order satisfies the minimum-13 / 3-flat-documents rule.

    A document index k >= 13 satisfies the rule when documents k-2, k-1
    and k added no new counts, i.e. count(k) == count(k-3). All such k are
    reported; the earliest is the conventional stopping point.
    """
    if rule != "10+3":
        raise ValueError(f"unknown stopping rule {rule!r}")
    if not curve.steps:
        raise ValueError("curve has no steps")
    counts = curve.counts
    points = [
        k
        for k in range(13, len(counts) + 1)
        if counts[k - 1] == counts[k - 4]
    ]
    return StoppingRuleResult(
        rule=rule,
        satisfied_at=points[0] if points else None,
        codes_at_satisfaction=counts[points[0] - 1] if points else None,
        all_satisfaction_points=tuple(points),
    )


def bootstrap_bands(
    docs: Collection,
    regimes: Sequence[CountingRegime],
    coder_source: str,
    n_iterations: int = 2000,
    seed: int = 0,
    truncation: float = 0.10,
    codebook: Codebook | None = None,
) -> list[BootstrapBand]:
    """Mean accumulation curves with 95% bands over random document orders,
    one band per regime, all over the same orders.

    Orders are sampled without replacement (each iteration is a full
    permutation), because with-replacement resampling biases unique-count
    curves downward. The raw 2.5/97.5 percentile band collapses toward the
    final step — the complete corpus is order-invariant — so each
    half-width around the mean is divided by sqrt((N-k)/(N-1)), a finite
    population correction that undoes the without-replacement deflation.
    That ratio is 0/0 at the last step and noisy near it, so the final
    ``truncation`` fraction of steps (ceil(truncation*N)) is dropped from
    the adjusted band. X positions are the mean cumulative characters at
    each step index across iterations.

    Per-iteration seeds derive from (seed, iteration), so iterations can
    be evaluated in any order or in parallel with identical results. The
    orders are drawn once into an int32 position matrix; the regimes are
    counted in turn into one int32 count matrix, which each regime's
    percentiles partition in place and the next regime overwrites.
    """
    if n_iterations < 1:
        raise ValueError("bootstrap_bands requires n_iterations >= 1")
    if not 0.0 < truncation < 1.0:
        raise ValueError("bootstrap_bands requires 0 < truncation < 1")
    docs = Collection.of(docs)
    N = len(docs)
    if N < 2:
        raise ValueError("bootstrap_bands requires at least 2 documents")
    theme_maps = [_theme_map(regime, codebook) for regime in regimes]
    matrix = docs.matrix(coder_source)

    positions = np.empty((n_iterations, N), dtype=np.int32)
    # Integer partial sums stay below 2**53, so dividing the total gives the
    # same float64 means as averaging an iterations x N matrix of cumsums.
    chars_total = np.zeros(N, dtype=np.int64)
    places = np.arange(N, dtype=np.int32)
    block = max(1, _BLOCK_ELEMENTS // N)
    for first in range(0, n_iterations, block):
        stop = min(first + block, n_iterations)
        perms = np.stack(
            [np.random.default_rng([seed, it]).permutation(N) for it in range(first, stop)]
        )
        chars_total += np.cumsum(docs.lengths[perms], axis=1).sum(axis=0)
        np.put_along_axis(positions[first:stop], perms, places, axis=1)
    mean_chars = chars_total / n_iterations
    mean_chars.setflags(write=False)  # every band holds this one array

    retained = N - math.ceil(truncation * N)
    fpc = np.sqrt((N - np.arange(1, retained + 1)) / (N - 1))
    # Counts never exceed the number of groups, so int32 is exact; mean and
    # percentile compute in float64 as they would from int64.
    counts = np.empty((n_iterations, N), dtype=np.int32)
    bands = []
    for regime, theme_map in zip(regimes, theme_maps):
        groups = _groups(matrix, regime, theme_map)
        block = max(1, _BLOCK_ELEMENTS // max(N, len(groups.docs)))
        for first in range(0, n_iterations, block):
            _count_orders(groups, positions[first : first + block], counts[first : first + block])
        mean_count = counts.mean(axis=0)
        raw_lo, raw_hi = np.percentile(counts, [2.5, 97.5], axis=0, overwrite_input=True)
        mean = mean_count[:retained]
        lo95 = mean - np.maximum(0.0, mean - raw_lo[:retained]) / fpc
        hi95 = mean + np.maximum(0.0, raw_hi[:retained] - mean) / fpc
        columns = (mean_chars, mean_count, lo95, hi95, raw_lo, raw_hi)
        bands.append(BootstrapBand(n_iterations, truncation, regime, *columns))
    return bands


def _median_positions(matrix: CodeMatrix) -> list[float | None]:
    """Each row's median over its positioned instances; None where it has none."""
    positions, offsets = matrix.positions.tolist(), matrix.offsets.tolist()
    # NaN marks an instance without a position
    known = [[p for p in positions[s:e] if p == p] for s, e in zip(offsets, offsets[1:])]
    return [float(statistics.median(k)) if k else None for k in known]


@dataclass(frozen=True)
class TrendPoint:
    text_length: int
    median_position: float
    moving_average: float


def position_trend(
    docs: Collection, coder_source: str, window: int
) -> list[TrendPoint]:
    """Median code positions against document length, with a moving average.

    Documents are ordered by length; the average is centered with edge
    windows clipped to the available points. Documents without positioned
    codes are skipped.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    docs = Collection.of(docs)
    order = docs.take(sorted(range(len(docs)), key=lambda i: (docs.lengths[i], docs.ids[i])))
    medians = _median_positions(order.matrix(coder_source))
    rows = [(n, med) for n, med in zip(order.lengths.tolist(), medians) if med is not None]
    points = []
    n = len(rows)
    for i in range(n):
        start = max(0, i - window // 2)
        end = min(n, start + window)
        start = max(0, end - window)
        values = [m for _, m in rows[start:end]]
        points.append(
            TrendPoint(
                text_length=rows[i][0],
                median_position=rows[i][1],
                moving_average=sum(values) / len(values),
            )
        )
    return points
