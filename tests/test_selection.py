import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from fecund.errors import SampleSizeError
from fecund.selection import (
    LOG1P,
    SQRT,
    UNIQUE,
    SelectionBudget,
    ValueFunction,
    interleave_blinded,
    objective,
    select_greedy,
    select_random,
)

from conftest import make_doc
from reference import (
    TooManyCandidatesError,
    collection,
    doc_items,
    greedy_lazy_loop,
    objective_loop,
    select_exact,
    select_greedy_loop,
    select_greedy_naive,
)


def _brute_force(docs, budget, vf, source):
    """Independent oracle: evaluate every subset under the strict budget."""
    best_obj, best_ids = 0.0, ()
    for r in range(len(docs) + 1):
        for combo in itertools.combinations(sorted(docs, key=lambda d: d.id), r):
            if sum(d.text_length for d in combo) >= budget.max_chars:
                continue
            obj = objective(collection(combo), vf, source)
            ids = tuple(d.id for d in combo)
            if obj > best_obj + 1e-12 or (abs(obj - best_obj) <= 1e-12 and ids < best_ids):
                best_obj, best_ids = obj, ids
    return best_obj, best_ids


def _random_instance(rng, max_docs=10, max_codes=15):
    n = int(rng.integers(2, max_docs + 1))
    docs = []
    for i in range(n):
        k = int(rng.integers(0, 6))
        codes = [f"c{int(c)}" for c in rng.integers(0, max_codes, k)]
        docs.append(make_doc(f"d{i:02d}", codes, length=int(rng.integers(1, 50))))
    total = sum(d.text_length for d in docs)
    budget = SelectionBudget(int(rng.integers(1, total + 2)))
    return docs, budget


# --- objective ---------------------------------------------------------------


def test_objective_sqrt_two_copies():
    doc = make_doc("A", ["x", "x"])
    assert objective(collection([doc]), SQRT, "src") == pytest.approx(math.sqrt(2))


def test_objective_empty():
    # a float like every other objective, so selection.json writes 0.0, not 0
    assert repr(objective(collection([]), SQRT, "src")) == "0.0"


def test_objective_unique_counts_distinct():
    docs = collection([make_doc("A", ["x", "x"]), make_doc("B", ["y"])])
    assert objective(docs, UNIQUE, "src") == 2


def test_value_function_kinds():
    assert SQRT.g(4) == 2.0
    assert LOG1P.g(0) == 0.0
    assert UNIQUE.g(5) == 1.0
    assert all(type(UNIQUE.g(m)) is float for m in (0, 1, 2))
    with pytest.raises(ValueError):
        ValueFunction("cubic")


@pytest.mark.parametrize("vf", [SQRT, LOG1P, UNIQUE])
@pytest.mark.parametrize("n", [0, 1, 2, 9, 4097])
def test_value_table_is_g_bit_for_bit(vf, n):
    table = vf.table(n)
    assert all(type(v) is float for v in table)
    assert [v.hex() for v in table] == [vf.g(m).hex() for m in range(n)]


# --- select_greedy -----------------------------------------------------------


def three_doc_instance():
    return collection([
        make_doc("A", ["x", "x"], length=10),
        make_doc("B", ["y"], length=10),
        make_doc("C", ["x"], length=10),
    ])


def test_greedy_worked_example():
    docs = three_doc_instance()
    budget = SelectionBudget(21)
    sel = select_greedy(docs, budget, SQRT, "src")
    assert set(sel.selected_ids) == {"A", "B"}
    assert sel.objective_value == pytest.approx(math.sqrt(2) + 1)
    # agrees with the independent enumeration oracle
    oracle_obj, oracle_ids = _brute_force(docs, budget, SQRT, "src")
    assert sel.objective_value == pytest.approx(oracle_obj)
    assert tuple(sorted(sel.selected_ids)) == oracle_ids


def test_greedy_nothing_fits():
    docs = collection([make_doc("A", ["x"], length=2), make_doc("B", ["y"], length=3)])
    sel = select_greedy(docs, SelectionBudget(1), SQRT, "src")
    assert sel.selected_ids == ()
    assert sel.objective_value == 0.0


def test_greedy_single_doc_under_budget():
    docs = collection([make_doc("A", ["x"], length=5)])
    sel = select_greedy(docs, SelectionBudget(6), SQRT, "src")
    assert sel.selected_ids == ("A",)


def test_greedy_budget_strict():
    # total exactly equal to the budget is not allowed
    docs = collection([make_doc("A", ["x"], length=10), make_doc("B", ["y"], length=10)])
    sel = select_greedy(docs, SelectionBudget(20), SQRT, "src")
    assert len(sel.selected_ids) == 1


def test_greedy_skips_zero_gain_docs():
    docs = collection([make_doc("A", ["x"], length=10), make_doc("B", [], length=1)])
    sel = select_greedy(docs, SelectionBudget(100), SQRT, "src")
    assert sel.selected_ids == ("A",)


def test_greedy_gains_telescope_to_objective():
    rng = np.random.default_rng(7)
    docs, budget = _random_instance(rng)
    sel = select_greedy(collection(docs), budget, SQRT, "src")
    assert sum(sel.gains) == pytest.approx(sel.objective_value, abs=1e-9)


def test_singleton_fallback_rescues_density_trap():
    # the cheap document has the best gain/char but blocks the valuable one
    big = make_doc("big", [f"v{i}" for i in range(10)], length=100)
    tiny = make_doc("tiny", ["x"], length=1)
    budget = SelectionBudget(101)
    pool = [(doc, doc_items(doc, "src")) for doc in (big, tiny)]
    trapped, _ = greedy_lazy_loop(pool, budget, SQRT.g, cost_benefit=True)
    assert [doc.id for doc in trapped] == ["tiny"]
    rescued = select_greedy(collection([big, tiny]), budget, SQRT, "src")
    assert rescued.selected_ids == ("big",)
    assert rescued.objective_value > objective_loop(trapped, SQRT, "src")


def test_plain_gain_mode():
    big = make_doc("big", [f"v{i}" for i in range(10)], length=100)
    tiny = make_doc("tiny", ["x"], length=1)
    sel = select_greedy(collection([big, tiny]), SelectionBudget(101), SQRT, "src", cost_benefit=False)
    assert sel.selected_ids[0] == "big"


def test_lazy_equals_naive_on_random_instances():
    rng = np.random.default_rng(42)
    for _ in range(120):
        docs, budget = _random_instance(rng)
        docs = collection(docs)
        for vf in (SQRT, LOG1P, UNIQUE):
            lazy = select_greedy(docs, budget, vf, "src")
            naive = select_greedy_naive(docs, budget, vf, "src")
            assert lazy.selected_ids == naive.selected_ids
            assert lazy.total_chars < budget.max_chars


@st.composite
def _greedy_instances(draw):
    ids = draw(st.lists(st.text("abcxyz", min_size=1, max_size=3), max_size=14, unique=True))
    docs = [
        make_doc(
            doc_id,
            draw(st.lists(st.sampled_from([f"c{i}" for i in range(8)]), max_size=8)),
            length=draw(st.integers(1, 60)),
        )
        for doc_id in ids
    ]
    return docs, SelectionBudget(draw(st.integers(1, 200)))


def _greedy_outcome(sel):
    return sel.selected_ids, repr(sel.objective_value), repr(sel.gains), sel.total_chars


_DENSITY_TRAP = (
    [make_doc("big", [f"v{i}" for i in range(10)], length=100), make_doc("tiny", ["x"], length=1)],
    SelectionBudget(101),
)
# the fallback must break the tie between two equally valuable singletons
_TIED_TRAP = (
    [
        make_doc("big2", [f"v{i}" for i in range(10)], length=100),
        make_doc("tiny", ["x"], length=1),
        make_doc("big1", [f"w{i}" for i in range(10)], length=100),
    ],
    SelectionBudget(101),
)


@given(
    instance=_greedy_instances(),
    vf=st.sampled_from([SQRT, LOG1P, UNIQUE]),
    cost_benefit=st.booleans(),
)
@example(instance=_DENSITY_TRAP, vf=SQRT, cost_benefit=True)
@example(instance=_DENSITY_TRAP, vf=UNIQUE, cost_benefit=True)
@example(instance=_TIED_TRAP, vf=LOG1P, cost_benefit=True)
@example(instance=([], SelectionBudget(5)), vf=SQRT, cost_benefit=True)
def test_greedy_bit_identical_to_loop_oracle(instance, vf, cost_benefit):
    docs, budget = instance
    fast = select_greedy(collection(docs), budget, vf, "src", cost_benefit=cost_benefit)
    loop = select_greedy_loop(docs, budget, vf, "src", cost_benefit=cost_benefit)
    assert _greedy_outcome(fast) == _greedy_outcome(loop)


@given(
    instance=_greedy_instances(),
    vf=st.sampled_from([SQRT, LOG1P, UNIQUE]),
    cost_benefit=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(instance=_DENSITY_TRAP, vf=SQRT, cost_benefit=True, seed=0)
@example(instance=_TIED_TRAP, vf=LOG1P, cost_benefit=True, seed=0)
def test_greedy_ignores_row_order(instance, vf, cost_benefit, seed):
    """Ties break on (length, id) and ids are unique, so the rows' order
    cannot change the selection: ``superset_sweep`` selects the full set once."""
    docs, budget = instance
    rows = collection(docs)
    perm = np.random.default_rng(seed).permutation(len(docs))
    before = select_greedy(rows, budget, vf, "src", cost_benefit=cost_benefit)
    after = select_greedy(rows.take(perm), budget, vf, "src", cost_benefit=cost_benefit)
    assert before == after
    assert _greedy_outcome(before) == _greedy_outcome(after)


def test_greedy_deterministic_tie_break():
    # identical gain/char: shorter doc wins, then smaller id
    docs = collection([
        make_doc("b", ["x"], length=5),
        make_doc("a", ["y"], length=5),
        make_doc("c", ["z"], length=3),
    ])
    sel = select_greedy(docs, SelectionBudget(100), UNIQUE, "src", cost_benefit=False)
    assert sel.selected_ids == ("c", "a", "b")


# --- select_exact ------------------------------------------------------------


def test_exact_worked_example():
    docs = three_doc_instance()
    sel = select_exact(docs, SelectionBudget(21), SQRT, "src")
    assert sel.selected_ids == ("A", "B")
    assert sel.objective_value == pytest.approx(math.sqrt(2) + 1)


def test_exact_matches_brute_force_oracle():
    rng = np.random.default_rng(11)
    for _ in range(40):
        docs, budget = _random_instance(rng, max_docs=7)
        sel = select_exact(docs, budget, SQRT, "src")
        oracle_obj, oracle_ids = _brute_force(docs, budget, SQRT, "src")
        assert sel.objective_value == pytest.approx(oracle_obj, abs=1e-9)
        assert sel.selected_ids == oracle_ids


def test_exact_all_exceed_budget():
    docs = [make_doc("A", ["x"], length=10), make_doc("B", ["y"], length=12)]
    sel = select_exact(docs, SelectionBudget(5), SQRT, "src")
    assert sel.selected_ids == ()
    assert sel.objective_value == 0.0


def test_exact_identical_docs_lexicographic():
    docs = [make_doc(i, ["x"], length=10) for i in ("B", "A", "C")]
    sel = select_exact(docs, SelectionBudget(11), SQRT, "src")
    assert sel.selected_ids == ("A",)


def test_exact_rejects_large_instances():
    docs = [make_doc(f"d{i}", ["x"], length=1) for i in range(21)]
    with pytest.raises(TooManyCandidatesError):
        select_exact(docs, SelectionBudget(5), SQRT, "src")


# --- greedy vs exact quality ---------------------------------------------------


def test_greedy_near_exact_on_random_instances():
    rng = np.random.default_rng(5)
    ratios = []
    for _ in range(60):
        docs, budget = _random_instance(rng)
        exact = select_exact(docs, budget, SQRT, "src")
        if exact.objective_value == 0.0:
            continue
        greedy = select_greedy(collection(docs), budget, SQRT, "src")
        ratios.append(greedy.objective_value / exact.objective_value)
    assert min(ratios) >= 0.5
    assert sum(ratios) / len(ratios) >= 0.95


# --- submodularity / monotonicity ---------------------------------------------


def test_submodularity_and_monotonicity():
    rng = np.random.default_rng(99)
    for _ in range(60):
        docs, _ = _random_instance(rng, max_docs=8)
        for vf in (SQRT, LOG1P):
            perm = list(rng.permutation(len(docs)))
            cut_a = int(rng.integers(0, len(docs)))
            cut_b = int(rng.integers(cut_a, len(docs)))
            A = [docs[i] for i in perm[:cut_a]]
            B = [docs[i] for i in perm[:cut_b]]
            rest = [docs[i] for i in perm[cut_b:]]
            if not rest:
                continue
            d = rest[0]
            value = lambda docs: objective(collection(docs), vf, "src")
            gain_a = value(A + [d]) - value(A)
            gain_b = value(B + [d]) - value(B)
            assert gain_a >= gain_b - 1e-9
            assert value(A) <= value(B) + 1e-9


# --- select_random ----------------------------------------------------------------


def test_random_full_set():
    docs = collection([make_doc(f"d{i}", ["x"], length=5) for i in range(4)])
    sel = select_random(docs, 4, seed=1, coder_source="src")
    assert sorted(sel.selected_ids) == list(docs.ids)


def test_random_empty():
    docs = collection([make_doc("d0", ["x"])])
    sel = select_random(docs, 0, seed=1, coder_source="src")
    assert sel.selected_ids == ()
    assert sel.objective_value == 0.0


def test_random_seed_deterministic():
    docs = collection([make_doc(f"d{i}", ["x"], length=5) for i in range(10)])
    a = select_random(docs, 4, seed=7, coder_source="src")
    b = select_random(docs, 4, seed=7, coder_source="src")
    assert a.selected_ids == b.selected_ids


def test_random_oversample_errors():
    with pytest.raises(SampleSizeError):
        select_random(collection([make_doc("d", ["x"])]), 2, seed=1, coder_source="src")


# --- interleave_blinded --------------------------------------------------------


def _selection_of(ids):
    docs = collection([make_doc(i, ["x"], length=5) for i in ids])
    return select_random(docs, len(docs), seed=0, coder_source="src")


def test_interleave_covers_both_orders():
    t, c = _selection_of(["T1"]), _selection_of(["C1"])
    seen = {tuple(e.doc_id for e in interleave_blinded(t, c, seed=s)) for s in range(20)}
    assert ("T1", "C1") in seen and ("C1", "T1") in seen


def test_interleave_flags_overlap_once():
    t, c = _selection_of(["X", "T1"]), _selection_of(["X", "C1"])
    entries = interleave_blinded(t, c, seed=3)
    assert len(entries) == 3
    flags = {e.doc_id: e.arm for e in entries}
    assert flags == {"X": "overlap", "T1": "treatment", "C1": "control"}


def test_interleave_empty_control():
    t = _selection_of(["T1", "T2", "T3"])
    c = _selection_of([])
    entries = interleave_blinded(t, c, seed=1)
    assert sorted(e.doc_id for e in entries) == ["T1", "T2", "T3"]
    assert all(e.arm == "treatment" for e in entries)


def test_interleave_seed_reproducible():
    t, c = _selection_of(["T1", "T2"]), _selection_of(["C1", "C2"])
    a = interleave_blinded(t, c, seed=9)
    b = interleave_blinded(t, c, seed=9)
    assert a == b


# --- budget derivation -----------------------------------------------------------


def test_budget_from_mean_docs():
    docs = collection([make_doc("a", [], length=10), make_doc("b", [], length=30)])
    assert SelectionBudget.from_mean_docs(docs, 3).max_chars == 60


def test_budget_positive():
    with pytest.raises(ValueError):
        SelectionBudget(0)
