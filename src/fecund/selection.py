"""Reading-corpus selection under a character-length budget.

The objective rewards covering many distinct codes while discounting
repeats: for each code the total copy count in the selected set is passed
through a concave value function (square root by default), and the
per-code values are summed. That makes the objective monotone submodular,
so greedy selection with lazy re-evaluation is both fast and near-optimal;
the tests certify it against an exhaustive oracle on small instances.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .corpus import CodeMatrix, Collection
from .errors import SampleSizeError

GAIN_FLOOR = 1e-12


@dataclass(frozen=True)
class ValueFunction:
    """Concave discount g(m) applied to the copy count m of each code.

    kinds: sqrt -> sqrt(m); log1p -> ln(1+m); unique -> min(m, 1).
    All satisfy g(0) = 0 and have diminishing marginal gains.
    """

    kind: str

    def __post_init__(self):
        if self.kind not in ("sqrt", "log1p", "unique"):
            raise ValueError(f"unknown value function {self.kind!r}")

    def g(self, m: float) -> float:
        if self.kind == "sqrt":
            return math.sqrt(m)
        if self.kind == "log1p":
            return math.log1p(m)
        return float(min(m, 1.0))

    def table(self, n: int) -> list[float]:
        """``[g(0), ..., g(n - 1)]``, through the C functions ``g`` calls."""
        if self.kind == "unique":
            return [0.0, *[1.0] * (n - 1)][:n]
        return list(map(math.sqrt if self.kind == "sqrt" else math.log1p, range(n)))


SQRT = ValueFunction("sqrt")
LOG1P = ValueFunction("log1p")
UNIQUE = ValueFunction("unique")


@dataclass(frozen=True)
class SelectionBudget:
    """Maximum total selected characters; the constraint is strict (< max_chars)."""

    max_chars: int

    def __post_init__(self):
        if self.max_chars < 1:
            raise ValueError("budget must be >= 1 character")

    @classmethod
    def from_mean_docs(cls, candidates: Collection, n_docs: int) -> "SelectionBudget":
        """Budget equal to n_docs average candidate lengths."""
        lengths = Collection.of(candidates).lengths
        if not len(lengths):
            raise ValueError("cannot derive a budget from an empty candidate set")
        mean_len = int(lengths.sum()) / len(lengths)
        return cls(max_chars=max(1, round(n_docs * mean_len)))


@dataclass(frozen=True)
class CorpusSelection:
    """An ordered selection of documents with its achieved objective value."""

    selected_ids: tuple[str, ...]
    objective_value: float
    total_chars: int
    value_function: ValueFunction
    budget: SelectionBudget | None = None
    gains: tuple[float, ...] = ()

    def __post_init__(self):
        if self.budget is not None and self.total_chars >= self.budget.max_chars:
            raise ValueError("selection violates the strict character budget")


def objective(
    selected: Collection, value_function: ValueFunction, coder_source: str
) -> float:
    """Sum over codes of g(total copies in the selection).

    Summation runs in sorted code order so structurally identical
    selections produce bitwise identical values.
    """
    matrix = Collection.of(selected).matrix(coder_source)
    g = value_function.g
    return sum((g(c) for c in np.bincount(matrix.codes).tolist()), 0.0)


def _code_copies(matrix: CodeMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each document's distinct codes with their copy counts, as CSR rows.

    Document ``i``'s items are ``codes[starts[i]:starts[i + 1]]`` with
    ``copies`` alongside, in ascending code id (that is, sorted label) order.
    """
    n_codes = max(len(matrix.labels), 1)
    keys, copies = np.unique(matrix.doc_index() * n_codes + matrix.codes, return_counts=True)
    starts = np.searchsorted(keys, np.arange(len(matrix.offsets)) * n_codes)
    return starts, keys % n_codes, copies


def _first_gains(starts: np.ndarray, copies: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Every document's gain against an empty selection: its g(copies) summed.

    Each document's terms are added left to right, one item position at a
    time, so the float additions match the scalar loop's exactly.
    """
    sizes = np.diff(starts)
    by_size = np.argsort(sizes, kind="stable")
    sorted_sizes = sizes[by_size]
    item_values = values[copies]
    gains = np.zeros(len(sizes))
    for j in range(int(sorted_sizes[-1]) if len(sizes) else 0):
        active = by_size[np.searchsorted(sorted_sizes, j, side="right"):]
        gains[active] += item_values[starts[active] + j]
    return gains


def _marginal_gain(
    i: int,
    items: tuple[list[int], list[int], list[int]],
    counts: dict[int, int],
    values: list[float],
) -> float:
    starts, codes, copies = items
    gain = 0.0
    for k in range(starts[i], starts[i + 1]):
        m = counts.get(codes[k], 0)
        gain += values[m + copies[k]] - values[m]
    return gain


def select_greedy(
    candidates: Collection,
    budget: SelectionBudget,
    value_function: ValueFunction,
    coder_source: str,
    *,
    cost_benefit: bool = True,
) -> CorpusSelection:
    """Greedy selection under the strict character budget.

    Each step adds the feasible document with the highest marginal
    objective gain per character (or raw gain when ``cost_benefit`` is
    off), stopping when nothing fits or the best gain is ~zero. Ties go to
    the shorter document, then the lexicographically smaller id. Stale
    gains wait in a priority queue and are re-evaluated on pop, which is
    sound because gains only shrink as the selection grows; it selects
    exactly what re-evaluating every candidate at every step selects.

    Density-ranked greedy can stall on one cheap low-value document while
    a single expensive high-value document fits the budget on its own, so
    the result is compared against the best feasible singleton and the
    better of the two is returned.
    """
    docs = Collection.of(candidates)
    matrix = docs.matrix(coder_source)
    starts, codes, copies = _code_copies(matrix)
    # g at every copy count a code can reach; g(0) = 0, so the first gain
    # of a document is also its value as a singleton.
    max_copies = int(np.bincount(matrix.codes).max()) if len(matrix.codes) else 0
    values = value_function.table(max_copies + 1)
    first = _first_gains(starts, copies, np.array(values, dtype=np.float64))
    items = (starts.tolist(), codes.tolist(), copies.tolist())
    lengths = docs.lengths.tolist()
    keys = list(zip(lengths, docs.ids))
    scores = -(first / docs.lengths) if cost_benefit else -first  # the IEEE ops of _score

    picked, gains = _greedy_lazy(
        lengths, keys, items, first.tolist(), scores.tolist(), budget, values, cost_benefit
    )
    obj = objective(docs.take(picked), value_function, coder_source)
    feasible = docs.lengths < budget.max_chars
    if feasible.any():
        top = first[feasible].max()
        if top > obj:
            tied = np.flatnonzero(feasible & (first == top)).tolist()
            picked = [min(tied, key=keys.__getitem__)]
            gains = [float(top)]
            obj = objective(docs.take(picked), value_function, coder_source)

    return CorpusSelection(
        selected_ids=tuple(docs.ids[i] for i in picked),
        objective_value=obj,
        total_chars=sum(lengths[i] for i in picked),
        value_function=value_function,
        budget=budget,
        gains=tuple(gains),
    )


def _score(gain: float, length: int, cost_benefit: bool) -> float:
    return gain / length if cost_benefit else gain


def _greedy_lazy(lengths, keys, items, first_gains, first_scores, budget, values, cost_benefit):
    """The rows greedy picks, in order, and their gains; ties break on ``keys``.
    ``first_scores`` are the negated scores of ``first_gains``."""
    counts: dict[int, int] = {}
    total = 0
    picked: list[int] = []
    gains: list[float] = []
    step = 0
    heap = [
        (score, key, step, gain, i)
        for i, (n, key, gain, score) in enumerate(zip(lengths, keys, first_gains, first_scores))
        if n < budget.max_chars
    ]
    heapq.heapify(heap)
    starts, codes, copies = items
    shortest = min(lengths, default=0)
    while heap and total + shortest < budget.max_chars:  # else nothing left fits
        _, key, evaluated_at, gain, i = heapq.heappop(heap)
        n = lengths[i]
        if total + n >= budget.max_chars:
            continue  # budget only shrinks, safe to drop
        if evaluated_at != step:
            gain = _marginal_gain(i, items, counts, values)
            heapq.heappush(heap, (-_score(gain, n, cost_benefit), key, step, gain, i))
            continue
        if gain <= GAIN_FLOOR:
            break
        picked.append(i)
        gains.append(gain)
        total += n
        for k in range(starts[i], starts[i + 1]):
            counts[codes[k]] = counts.get(codes[k], 0) + copies[k]
        step += 1
    return picked, gains


def select_random(
    candidates: Collection,
    n_docs: int,
    seed: int,
    coder_source: str,
    value_function: ValueFunction = SQRT,
) -> CorpusSelection:
    """Uniform sample of n_docs candidates without replacement, seed-reproducible."""
    docs = Collection.of(candidates)
    if n_docs > len(docs):
        raise SampleSizeError(
            f"cannot sample {n_docs} documents from {len(docs)} candidates"
        )
    rng = np.random.default_rng(seed)
    picked = docs.take(rng.choice(len(docs), size=n_docs, replace=False))
    return CorpusSelection(
        selected_ids=picked.ids,
        objective_value=objective(picked, value_function, coder_source),
        total_chars=int(picked.lengths.sum()),
        value_function=value_function,
        budget=None,
    )


@dataclass(frozen=True)
class ReadingEntry:
    """One slot in a blinded reading order; arm is for the unblinding file only."""

    doc_id: str
    arm: str  # "treatment" | "control" | "overlap"


def interleave_blinded(
    treatment: CorpusSelection, control: CorpusSelection, seed: int
) -> list[ReadingEntry]:
    """Randomly interleave the two arms into one blinded reading order.

    Documents selected by both arms appear once, flagged "overlap". The
    order is a uniformly random permutation of the union, reproducible
    from the seed.
    """
    t_ids = set(treatment.selected_ids)
    c_ids = set(control.selected_ids)
    arms = {}
    for doc_id in sorted(t_ids | c_ids):
        if doc_id in t_ids and doc_id in c_ids:
            arms[doc_id] = "overlap"
        elif doc_id in t_ids:
            arms[doc_id] = "treatment"
        else:
            arms[doc_id] = "control"
    ordered_ids = sorted(arms)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(ordered_ids))
    return [ReadingEntry(ordered_ids[i], arms[ordered_ids[i]]) for i in perm]
