"""Reading-corpus selection under a character-length budget.

The objective rewards covering many distinct codes while discounting
repeats: for each code the total copy count in the selected set is passed
through a concave value function (square root by default), and the
per-code values are summed. That makes the objective monotone submodular,
so greedy selection with lazy re-evaluation is both fast and near-optimal;
an exhaustive oracle is provided for small instances to certify it.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .corpus import Document
from .errors import SampleSizeError, TooManyCandidatesError

GAIN_FLOOR = 1e-12

_TIE_BREAKS = ("shortest-then-id", "id")


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
        return min(m, 1.0)

    def __call__(self, m: float) -> float:
        return self.g(m)


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
    def from_mean_docs(cls, candidates: Sequence[Document], n_docs: int) -> "SelectionBudget":
        """Budget equal to n_docs average candidate lengths."""
        if not candidates:
            raise ValueError("cannot derive a budget from an empty candidate set")
        mean_len = sum(d.text_length for d in candidates) / len(candidates)
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


def _doc_items(doc: Document, coder_source: str) -> list[tuple[str, int]]:
    counter = Counter(inst.code_id for inst in doc.instances(coder_source))
    return sorted(counter.items())


def objective(
    selected: Iterable[Document], value_function: ValueFunction, coder_source: str
) -> float:
    """Sum over codes of g(total copies in the selection).

    Summation runs in sorted code order so structurally identical
    selections produce bitwise identical values.
    """
    counts: Counter[str] = Counter()
    for doc in selected:
        for inst in doc.instances(coder_source):
            counts[inst.code_id] += 1
    g = value_function.g
    return sum(g(counts[code]) for code in sorted(counts))


def _marginal_gain(
    items: list[tuple[str, int]], counts: dict[str, int], g: Callable[[float], float]
) -> float:
    gain = 0.0
    for code, c in items:
        m = counts.get(code, 0)
        gain += g(m + c) - g(m)
    return gain


def _sort_key(doc: Document, tie_break: str) -> tuple:
    if tie_break == "shortest-then-id":
        return (doc.text_length, doc.id)
    return (doc.id,)


def _best_singleton(
    pool: list[tuple[Document, list[tuple[str, int]]]],
    budget: SelectionBudget,
    g: Callable[[float], float],
    tie_break: str,
) -> tuple[Document, float] | None:
    best = None
    for doc, items in pool:
        if doc.text_length >= budget.max_chars:
            continue
        value = sum(g(c) for _, c in items)
        key = (-value, *_sort_key(doc, tie_break))
        if best is None or key < best[0]:
            best = (key, doc, value)
    if best is None:
        return None
    return best[1], best[2]


def select_greedy(
    candidates: Sequence[Document],
    budget: SelectionBudget,
    value_function: ValueFunction,
    coder_source: str,
    tie_break: str = "shortest-then-id",
    *,
    cost_benefit: bool = True,
    singleton_fallback: bool = True,
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
    better of the two is returned (disable with ``singleton_fallback``).
    """
    if tie_break not in _TIE_BREAKS:
        raise ValueError(f"tie_break must be one of {_TIE_BREAKS}")
    pool = [(doc, _doc_items(doc, coder_source)) for doc in candidates]
    g = value_function.g

    selected_docs, gains = _greedy_lazy(pool, budget, g, tie_break, cost_benefit)
    obj = objective(selected_docs, value_function, coder_source)
    if singleton_fallback:
        single = _best_singleton(pool, budget, g, tie_break)
        if single is not None and single[1] > obj:
            selected_docs = [single[0]]
            gains = [single[1]]
            obj = objective(selected_docs, value_function, coder_source)

    return CorpusSelection(
        selected_ids=tuple(d.id for d in selected_docs),
        objective_value=obj,
        total_chars=sum(d.text_length for d in selected_docs),
        value_function=value_function,
        budget=budget,
        gains=tuple(gains),
    )


def _score(gain: float, length: int, cost_benefit: bool) -> float:
    return gain / length if cost_benefit else gain


def _greedy_lazy(pool, budget, g, tie_break, cost_benefit):
    counts: dict[str, int] = {}
    total = 0
    picked: list[Document] = []
    gains: list[float] = []
    step = 0
    heap = []
    for doc, items in pool:
        if doc.text_length >= budget.max_chars:
            continue
        gain = _marginal_gain(items, counts, g)
        heap.append(
            (-_score(gain, doc.text_length, cost_benefit), *_sort_key(doc, tie_break), step, gain, doc, items)
        )
    heapq.heapify(heap)
    while heap:
        entry = heapq.heappop(heap)
        evaluated_at, gain, doc, items = entry[-4], entry[-3], entry[-2], entry[-1]
        if total + doc.text_length >= budget.max_chars:
            continue  # budget only shrinks, safe to drop
        if evaluated_at != step:
            gain = _marginal_gain(items, counts, g)
            heapq.heappush(
                heap,
                (-_score(gain, doc.text_length, cost_benefit), *_sort_key(doc, tie_break), step, gain, doc, items),
            )
            continue
        if gain <= GAIN_FLOOR:
            break
        picked.append(doc)
        gains.append(gain)
        total += doc.text_length
        for code, c in items:
            counts[code] = counts.get(code, 0) + c
        step += 1
    return picked, gains


def select_exact(
    candidates: Sequence[Document],
    budget: SelectionBudget,
    value_function: ValueFunction,
    coder_source: str,
) -> CorpusSelection:
    """Globally optimal selection by exhaustive enumeration (<= 20 candidates).

    Ties on the objective break toward the lexicographically smallest
    sorted id tuple, so the empty set beats any zero-gain selection.
    """
    if len(candidates) > 20:
        raise TooManyCandidatesError(
            f"exact selection enumerates subsets; {len(candidates)} candidates > 20"
        )
    docs = sorted(candidates, key=lambda d: d.id)
    items = [_doc_items(d, coder_source) for d in docs]
    g = value_function.g
    best_obj = 0.0
    best_ids: tuple[str, ...] = ()
    best_chars = 0

    counts: dict[str, int] = {}
    chosen: list[int] = []

    def evaluate():
        nonlocal best_obj, best_ids, best_chars
        obj = sum(g(counts[code]) for code in sorted(counts))
        ids = tuple(docs[i].id for i in chosen)
        if obj > best_obj or (obj == best_obj and ids < best_ids):
            best_obj = obj
            best_ids = ids
            best_chars = sum(docs[i].text_length for i in chosen)

    def recurse(i: int, total: int):
        if i == len(docs):
            evaluate()
            return
        doc, doc_items = docs[i], items[i]
        if total + doc.text_length < budget.max_chars:
            chosen.append(i)
            for code, c in doc_items:
                counts[code] = counts.get(code, 0) + c
            recurse(i + 1, total + doc.text_length)
            for code, c in doc_items:
                counts[code] -= c
                if counts[code] == 0:
                    del counts[code]
            chosen.pop()
        recurse(i + 1, total)

    recurse(0, 0)
    return CorpusSelection(
        selected_ids=best_ids,
        objective_value=best_obj,
        total_chars=best_chars,
        value_function=value_function,
        budget=budget,
    )


def select_random(
    candidates: Sequence[Document],
    n_docs: int,
    seed: int,
    coder_source: str,
    value_function: ValueFunction = SQRT,
) -> CorpusSelection:
    """Uniform sample of n_docs candidates without replacement, seed-reproducible."""
    if n_docs > len(candidates):
        raise SampleSizeError(
            f"cannot sample {n_docs} documents from {len(candidates)} candidates"
        )
    rng = np.random.default_rng(seed)
    indices = rng.choice(len(candidates), size=n_docs, replace=False)
    picked = [candidates[i] for i in indices]
    return CorpusSelection(
        selected_ids=tuple(d.id for d in picked),
        objective_value=objective(picked, value_function, coder_source),
        total_chars=sum(d.text_length for d in picked),
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
