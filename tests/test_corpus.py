import math
import os
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fecund.corpus import (
    CodeInstance,
    Codebook,
    Collection,
    Document,
    fecundity,
    summary_stats,
    unique_weight,
)
from fecund.errors import UnknownCoderSourceError
from fecund.ingest import load_collection, write_collection
from fecund.saturation import CountingRegime, bootstrap_bands, cumulative_curve, position_trend
from fecund.selection import SQRT, SelectionBudget, objective, select_greedy, select_random
from fecund.stats import IDENTITY_MAP, corpus_code_density, superset_sweep
from fecund.synthetic import synth_corpus

from conftest import make_doc
from reference import collection, unique_weight_loop


# --- strategies ---------------------------------------------------------

code_ids = st.sampled_from([f"c{i}" for i in range(12)])


@st.composite
def corpora(draw, min_docs=1, max_docs=12):
    n = draw(st.integers(min_docs, max_docs))
    docs = []
    for i in range(n):
        codes = draw(st.lists(code_ids, max_size=8))
        length = draw(st.integers(1, 5000))
        docs.append(make_doc(f"d{i}", codes, length=length))
    return docs


# --- unique_weight and fecundity: frequencies over the collection passed in ---


def test_frequencies_direct_count():
    """a occurs three times and b and c once each, over the collection passed in."""
    docs = collection([make_doc("D1", ["a", "b"]), make_doc("D2", ["a"]), make_doc("D3", ["c", "a"])])
    assert unique_weight(docs, "src").tolist() == [1 / 3 + 1, 1 / 3, 1 + 1 / 3]
    assert unique_weight(docs[1:], "src").tolist() == [0.5, 1 + 0.5]


def test_frequencies_empty_docs():
    for measure in (unique_weight, fecundity):
        result = measure(collection([]), "src")
        assert result.dtype == np.float64 and result.shape == (0,)


def test_frequencies_duplicates_within_doc_count():
    """Both instances of a count towards its frequency: each weighs 1/2."""
    docs = collection([make_doc("D1", ["a", "a", "b"])])
    assert unique_weight(docs, "src").tolist() == [0.5 + 0.5 + 1]


def test_frequencies_unknown_source_names_it():
    for measure in (unique_weight, fecundity):
        with pytest.raises(UnknownCoderSourceError, match="nosuch"):
            measure(collection([make_doc("D1", ["a"])]), "nosuch")


def test_unique_weight_hand_cases():
    docs = collection([make_doc("D1", ["a", "b"]), make_doc("D2", ["a"])])
    assert unique_weight(docs, "src").tolist() == pytest.approx([1.5, 0.5])


def test_unique_weight_empty_doc():
    weights = unique_weight(collection([make_doc("D", [])]), "src")
    assert weights.dtype == np.float64 and weights.tolist() == [0.0]


@given(corpora(min_docs=0))
def test_weights_equal_the_loop(docs):
    """Column weights are the loop's floats exactly, empty documents included."""
    weights = unique_weight_loop(docs, "src")
    assert unique_weight(collection(docs), "src").tolist() == weights
    expected = [w / d.text_length * 1000.0 for w, d in zip(weights, docs)]
    assert fecundity(collection(docs), "src").tolist() == expected


@given(corpora())
def test_conservation_identity(docs):
    """Weights over the scope add up to the distinct-code count."""
    distinct = {inst.code_id for d in docs for inst in d.instances("src")}
    assert unique_weight(collection(docs), "src").sum() == pytest.approx(len(distinct), abs=1e-9)


@given(corpora())
def test_doubling_instances_preserves_weights(docs):
    doubled = [
        Document(
            id=d.id,
            text_length=d.text_length,
            codes={"src": d.codes["src"] + d.codes["src"]},
        )
        for d in docs
    ]
    assert unique_weight(collection(doubled), "src").tolist() == pytest.approx(
        unique_weight(collection(docs), "src").tolist(), abs=1e-9
    )


@given(corpora())
def test_unique_weight_bounds(docs):
    counts = Counter(inst.code_id for d in docs for inst in d.instances("src"))
    if not counts:
        return
    max_f = max(counts.values())
    for d, uw in zip(docs, unique_weight(collection(docs), "src").tolist()):
        distinct = len({inst.code_id for inst in d.instances("src")})
        assert uw <= distinct + 1e-9
        assert uw >= distinct / max_f - 1e-9


@given(corpora())
def test_fecundity_invariant_to_relabeling(docs):
    relabel = {f"c{i}": f"z{i}" for i in range(12)}
    renamed = [
        Document(
            id=d.id,
            text_length=d.text_length,
            codes={
                "src": tuple(
                    CodeInstance(relabel[i.code_id], i.position) for i in d.codes["src"]
                )
            },
        )
        for d in docs
    ]
    assert fecundity(collection(renamed), "src").tolist() == fecundity(collection(docs), "src").tolist()


def test_fecundity_unit_scale():
    """a occurs twice in the scope and b once: 1.5 per 1000 characters."""
    docs = collection([make_doc("D", ["a", "b"], length=1000), make_doc("E", ["a"])])
    assert fecundity(docs, "src")[0] == pytest.approx(1.5)


def test_fecundity_quarter_length():
    docs = collection([make_doc("D", ["a"], length=250), make_doc("E", ["a"])])
    assert fecundity(docs, "src")[0] == pytest.approx(2.0)


def test_fecundity_no_codes():
    docs = collection([make_doc("D", [], length=777)])
    assert fecundity(docs, "src").tolist() == [0.0]
    assert unique_weight(docs, "src").tolist() == [0.0]


# --- Collection ----------------------------------------------------------------

_BAD_INPUT = {  # case -> (ids, lengths, position, message)
    "duplicate-id": (("D1", "D2", "D1"), (10, 10, 10), 0.5, "^duplicate document id 'D1' in collection$"),
    "length-below-one": (("D1", "D2"), (10, 0), 0.5, "^document 'D2': text_length must be >= 1$"),
    "position-outside-unit": (("D1",), (10,), 1.5, r"^position 1\.5 outside \[0, 1\]$"),
}


@pytest.mark.parametrize("case", sorted(_BAD_INPUT))
def test_intern_rejects_bad_input(case):
    ids, lengths, position, message = _BAD_INPUT[case]
    instances = ((0,), (0,), (0,), (position,))  # one instance of "a", on the first row
    with pytest.raises(ValueError, match=message):
        Collection.intern(ids, lengths, (None,) * len(ids), ["src"], instances, ["a"])


_POSITIONS = st.one_of(st.none(), st.sampled_from([0.0, 0.25, 1.0]))


@st.composite
def mixed_sources(draw):
    """1-8 hand-built documents, all carrying the same subset of two coder sources."""
    sources = draw(st.lists(st.sampled_from(["human", "ai"]), unique=True, max_size=2))
    docs = []
    for i in range(draw(st.integers(1, 8))):
        codes = {
            source: tuple(CodeInstance(c, p) for c, p in draw(st.lists(st.tuples(code_ids, _POSITIONS), max_size=5)))
            for source in sources
        }
        length = draw(st.integers(1, 500))
        docs.append(Document(f"d{i}", length, draw(st.sampled_from([None, "x"])), codes))
    return docs


def _walk_error(docs, source):
    """The message the first document without ``source`` raises, or None."""
    for doc in docs:
        if source not in doc.codes:
            with pytest.raises(UnknownCoderSourceError) as err:
                doc.instances(source)
            return str(err.value)
    return None


@given(mixed_sources(), st.data())
def test_collection_of_hand_built_documents(docs, data):
    built = collection(docs)
    assert list(built) == docs
    assert Collection.of(built) is built
    assert list(built[::-1]) == docs[::-1] and built[-1] == docs[-1]
    rows = data.draw(st.lists(st.integers(0, len(docs) - 1), unique=True))
    picked = [docs[i] for i in rows]
    taken = built.take(rows)
    assert list(taken) == picked
    for scope, walked in ((built, docs), (taken, picked)):
        for source in ("human", "ai", "other"):
            message = _walk_error(walked, source)
            if message is None:
                matrix = scope.matrix(source)
                instances = [matrix.instances(i) for i in range(len(walked))]
                assert instances == [d.instances(source) for d in walked]
                assert unique_weight(scope, source).tolist() == unique_weight_loop(walked, source)
            else:
                with pytest.raises(UnknownCoderSourceError) as err:
                    scope.matrix(source)
                assert str(err.value) == message
    partial = docs + [Document("partial", 1, None, {"other": ()})]
    with pytest.raises(ValueError, match="lacks coder source"):
        collection(partial)


def test_loaded_estimators_build_no_documents(tmp_path, monkeypatch):
    docs, codebook = synth_corpus(40, seed=3, n_themes=4)
    paths = [tmp_path / "documents.jsonl", tmp_path / "codes.csv", tmp_path / "themes.csv"]
    write_collection(docs, codebook, *paths)
    loaded, codebook = load_collection(*paths)
    built = []
    monkeypatch.setattr(Document, "__init__", lambda self, *args, **kwargs: built.append(self))
    select_greedy(loaded, SelectionBudget.from_mean_docs(loaded, 5), SQRT, "human")
    regimes = [CountingRegime(kind) for kind in ("unique", "hf_iterative", "themes")]
    bootstrap_bands(loaded, regimes, "human", n_iterations=5, codebook=codebook)
    superset_sweep(loaded, "human", IDENTITY_MAP, seed=1, sizes=[10, 40], replicates=2,
                   n_budget_docs=5)
    fecundity(loaded, "human")
    assert built == []


_ESTIMATORS = {
    "unique_weight": lambda docs: unique_weight(docs, "src"),
    "fecundity": lambda docs: fecundity(docs, "src"),
    "objective": lambda docs: objective(docs, SQRT, "src"),
    "select_greedy": lambda docs: select_greedy(docs, SelectionBudget(100), SQRT, "src"),
    "select_random": lambda docs: select_random(docs, 1, seed=0, coder_source="src"),
    "from_mean_docs": lambda docs: SelectionBudget.from_mean_docs(docs, 1),
    "cumulative_curve": lambda docs: cumulative_curve(docs, CountingRegime("unique"), "src"),
    "bootstrap_bands": lambda docs: bootstrap_bands(docs, [CountingRegime("unique")], "src"),
    "position_trend": lambda docs: position_trend(docs, "src", window=1),
    "corpus_code_density": lambda docs: corpus_code_density(docs, "src"),
    "superset_sweep": lambda docs: superset_sweep(docs, "src", IDENTITY_MAP, seed=0, sizes=[2]),
    "write_collection": lambda docs: write_collection(docs, Codebook(), os.devnull),
}


@pytest.mark.parametrize("estimator", sorted(_ESTIMATORS))
def test_estimators_reject_repeated_ids(estimator):
    """A plain list of documents, here one that repeats an id, is refused
    whole: estimators read only collections, whose ids ``Collection.intern``
    has checked."""
    docs = [make_doc("D1", ["a"]), make_doc("D2", ["b"]), make_doc("D1", ["c"])]
    with pytest.raises(TypeError, match="^expected a Collection, got list; build one with Collection.intern$"):
        _ESTIMATORS[estimator](docs)


# --- summary_stats -------------------------------------------------------------


def test_summary_constant():
    s = summary_stats([3, 3, 3, 3])
    assert (s.mean, s.ci95_lower, s.ci95_upper, s.p25, s.p75) == (3, 3, 3, 3, 3)


def test_summary_interpolated_percentiles():
    s = summary_stats([1, 2, 3, 4, 5])
    assert s.mean == 3
    assert s.p25 == 2
    assert s.p75 == 4


def test_summary_midpoint():
    assert summary_stats([0, 10]).mean == 5


def test_summary_single_value_has_nan_ci():
    s = summary_stats([4.0])
    assert s.mean == 4.0 and s.n == 1
    assert math.isnan(s.ci95_lower) and math.isnan(s.ci95_upper)


def test_summary_empty_errors():
    with pytest.raises(ValueError):
        summary_stats([])
