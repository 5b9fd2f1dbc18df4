from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from fecund import saturation
from fecund.corpus import Codebook
from fecund.saturation import (
    CountingRegime,
    bootstrap_bands,
    cumulative_curve,
    detect_stopping,
    position_trend,
)

from conftest import make_doc
from reference import collection, reference_band, reference_counts

WORKED_ORDER = lambda: collection([
    make_doc("D1", ["a"]),
    make_doc("D2", ["a"]),
    make_doc("D3", ["a", "b"]),
    make_doc("D4", ["b"]),
    make_doc("D5", ["b"]),
])


# --- cumulative_curve -------------------------------------------------------


@pytest.mark.parametrize(
    "kind,expected",
    [
        ("unique", [1, 1, 2, 2, 2]),
        ("hf_retrospective", [1, 1, 2, 2, 2]),
        ("hf_iterative", [0, 0, 1, 1, 2]),
    ],
)
def test_worked_example(kind, expected):
    curve = cumulative_curve(WORKED_ORDER(), CountingRegime(kind, 3), "src")
    assert curve.counts == expected


def test_curve_chars_accumulate():
    docs = collection([make_doc("a", ["x"], length=5), make_doc("b", ["y"], length=7)])
    curve = cumulative_curve(docs, CountingRegime("unique"), "src")
    assert [s.cumulative_chars for s in curve.steps] == [5, 12]
    assert [s.doc_index for s in curve.steps] == [1, 2]


def test_themes_regime():
    codebook = Codebook(
        entries={"a": "a", "b": "b", "c": "c"},
        theme_map={"a": "t1", "b": "t1", "c": "t2"},
        themes={"t1": "t1", "t2": "t2"},
    )
    docs = collection([make_doc("d1", ["a"]), make_doc("d2", ["b"]), make_doc("d3", ["c"])])
    curve = cumulative_curve(docs, CountingRegime("themes"), "src", codebook=codebook)
    assert curve.counts == [1, 1, 2]


def test_themes_regime_requires_map():
    with pytest.raises(ValueError, match="theme map"):
        cumulative_curve(collection([make_doc("d", ["a"])]), CountingRegime("themes"), "src")


def test_regime_validation():
    with pytest.raises(ValueError):
        CountingRegime("bogus")
    with pytest.raises(ValueError):
        CountingRegime("unique", hf_threshold=1)


@st.composite
def random_orderings(draw):
    n = draw(st.integers(1, 15))
    code_pool = [f"c{i}" for i in range(8)]
    return [
        make_doc(f"d{i}", draw(st.lists(st.sampled_from(code_pool), max_size=5)))
        for i in range(n)
    ]


@given(random_orderings())
def test_iterative_below_retrospective_below_unique(order):
    thr = 3
    order = collection(order)
    unique = cumulative_curve(order, CountingRegime("unique", thr), "src").counts
    retro = cumulative_curve(order, CountingRegime("hf_retrospective", thr), "src").counts
    iterative = cumulative_curve(order, CountingRegime("hf_iterative", thr), "src").counts
    for k in range(len(order)):
        assert iterative[k] <= retro[k] <= unique[k]
    assert iterative[-1] == retro[-1]


@given(random_orderings())
def test_final_count_is_order_invariant(order):
    regime = CountingRegime("unique")
    base = cumulative_curve(collection(order), regime, "src").counts
    rng = np.random.default_rng(0)
    perm = [order[i] for i in rng.permutation(len(order))]
    assert cumulative_curve(collection(perm), regime, "src").counts[-1] == base[-1]


def test_retrospective_pathology():
    """With at most one instance of a code per document, the last
    threshold-1 documents of any order add no new retrospective HF codes."""
    rng = np.random.default_rng(123)
    thr = 3
    for _ in range(50):
        n = int(rng.integers(4, 12))
        pool = [f"c{i}" for i in range(int(rng.integers(2, 10)))]
        docs = []
        for i in range(n):
            k = int(rng.integers(0, min(5, len(pool)) + 1))
            picks = list(rng.choice(pool, size=k, replace=False))
            docs.append(make_doc(f"d{i}", picks))
        for _ in range(4):
            order = [docs[i] for i in rng.permutation(n)]
            counts = cumulative_curve(
                collection(order), CountingRegime("hf_retrospective", thr), "src"
            ).counts
            assert counts[-1] == counts[-(thr - 1) - 1]


REGIMES = ("unique", "hf_retrospective", "hf_iterative", "themes")
POOL = [f"c{i}" for i in range(8)]


@st.composite
def coded_collections(draw, min_docs=1):
    """Documents in random order, with empty documents, repeated codes
    within a document, and codes that have no theme."""
    n = draw(st.integers(min_docs, 12))
    docs = [
        make_doc(
            f"d{i}",
            draw(st.lists(st.sampled_from(POOL), max_size=6)),
            length=draw(st.integers(1, 50)),
        )
        for i in range(n)
    ]
    themed = draw(st.lists(st.sampled_from(POOL), min_size=1, unique=True))
    theme_map = {c: draw(st.sampled_from(["t0", "t1", "t2"])) for c in themed}
    codebook = Codebook(
        entries={c: c for c in POOL},
        theme_map=theme_map,
        themes={t: t for t in set(theme_map.values())},
    )
    return draw(st.permutations(docs)), codebook


# No code reaches the threshold and no instance has a theme: zero groups.
ZERO_GROUPS = (
    [make_doc("d0", ["c0", "c0"]), make_doc("d1", []), make_doc("d2", ["c1", "c0"])],
    Codebook(entries={c: c for c in POOL}, theme_map={"c7": "t0"}, themes={"t0": "t0"}),
)


@given(coded_collections(), st.sampled_from(REGIMES), st.integers(2, 4))
@example(ZERO_GROUPS, "hf_retrospective", 4)
@example(ZERO_GROUPS, "hf_iterative", 4)
@example(ZERO_GROUPS, "themes", 2)
def test_curve_matches_reference_loop(coded, kind, threshold):
    order, codebook = coded
    regime = CountingRegime(kind, threshold)
    curve = cumulative_curve(collection(order), regime, "src", codebook=codebook)
    assert curve.counts == reference_counts(order, regime, "src", codebook)


# --- detect_stopping --------------------------------------------------------


def test_stopping_earliest_legal_index():
    counts = list(range(1, 11)) + [10] * 5  # constant from doc 10 over 15 docs
    curve = _fixture_curve(counts)
    result = detect_stopping(curve)
    assert result.satisfied_at == 13
    assert result.all_satisfaction_points[0] == 13


def test_stopping_never_satisfied_when_growing():
    curve = _fixture_curve(list(range(1, 16)))
    result = detect_stopping(curve)
    assert result.satisfied_at is None
    assert result.all_satisfaction_points == ()


def test_stopping_plateau_then_growth():
    counts = list(range(1, 11)) + [10, 10, 10, 11, 11, 11, 11]
    curve = _fixture_curve(counts)
    result = detect_stopping(curve)
    assert result.all_satisfaction_points == (13, 17)
    assert result.satisfied_at == 13
    assert result.codes_at_satisfaction == 10


def test_stopping_never_before_13():
    curve = _fixture_curve([1] * 12)
    assert detect_stopping(curve).satisfied_at is None


def _fixture_curve(counts):
    """Build a document order whose unique-count curve equals ``counts``."""
    docs = []
    prev = 0
    for i, c in enumerate(counts):
        assert c >= prev
        new = [f"n{i}_{j}" for j in range(c - prev)] or ["n0_0" if prev else "filler"]
        if c == prev:
            new = ["n0_0"] if prev else ["filler"]
        docs.append(make_doc(f"d{i:03d}", new))
        prev = c
    curve = cumulative_curve(collection(docs), CountingRegime("unique"), "src")
    assert curve.counts == counts
    return curve


# --- bootstrap_bands -----------------------------------------------------------

BAND_COLUMNS = ("mean_chars", "mean_count", "lo95", "hi95", "raw_lo95", "raw_hi95")


def _unique_band(docs, coder_source="src", **kwargs):
    [band] = bootstrap_bands(docs, [CountingRegime("unique")], coder_source, **kwargs)
    return band


def test_band_identical_documents_zero_width():
    docs = collection([make_doc(f"d{i}", ["only"], length=10) for i in range(10)])
    band = _unique_band(docs, n_iterations=50, seed=1)
    assert np.array_equal(band.lo95, band.mean_count[: len(band.lo95)])
    assert np.array_equal(band.hi95, band.lo95)
    assert np.array_equal(band.raw_hi95, band.raw_lo95)


def test_band_two_disjoint_docs():
    docs = collection([
        make_doc("d1", ["a"], length=10),
        make_doc("d2", ["b"], length=20),
    ])
    band = _unique_band(docs, n_iterations=100, seed=2)
    assert len(band.lo95) == len(band.hi95) == 1  # ceil(0.1*2) = 1 step dropped
    assert band.mean_count[0] == 1.0
    assert len(band.mean_chars) == len(band.raw_lo95) == len(band.raw_hi95) == 2


def test_band_raw_final_step_always_degenerate():
    rng = np.random.default_rng(4)
    docs = collection([
        make_doc(f"d{i}", [f"c{int(c)}" for c in rng.integers(0, 10, rng.integers(0, 6))])
        for i in range(9)
    ])
    band = _unique_band(docs, n_iterations=200, seed=4)
    assert band.raw_hi95[-1] - band.raw_lo95[-1] == 0.0


def test_band_truncation_count():
    docs = collection([make_doc(f"d{i}", ["x"], length=5) for i in range(30)])
    band = _unique_band(docs, n_iterations=20, seed=0)
    assert len(band.lo95) == len(band.hi95) == 27  # floor(0.9 * 30)


@pytest.mark.parametrize("truncation", [0.0, 1.0, -0.1, 1.5])
def test_band_requires_truncation_inside_unit_interval(truncation):
    docs = collection([make_doc("a", ["x"]), make_doc("b", ["y"])])
    with pytest.raises(ValueError, match="truncation"):
        _unique_band(docs, n_iterations=5, truncation=truncation)


def test_band_mean_within_bounds_and_nondecreasing():
    rng = np.random.default_rng(8)
    docs = collection([
        make_doc(f"d{i}", [f"c{int(c)}" for c in rng.integers(0, 40, rng.integers(0, 8))])
        for i in range(20)
    ])
    band = _unique_band(docs, n_iterations=400, seed=8)
    means = band.mean_count[: len(band.lo95)]
    assert np.all(np.diff(means) >= 0)
    assert np.all((band.lo95 <= means) & (means <= band.hi95))
    assert np.all(np.diff(band.mean_chars) > 0)


def test_band_mean_concave_trending_on_iid_corpus():
    from fecund.synthetic import synth_corpus

    docs, _ = synth_corpus(25, seed=9, n_codes=50)
    band = _unique_band(docs, "human", n_iterations=2000, seed=3)
    diffs = np.diff(band.mean_count[: len(band.lo95)])
    # marginal additions shrink, up to bootstrap sampling noise
    assert (np.diff(diffs) <= 1e-6).all()


def test_band_seed_deterministic():
    docs = collection([make_doc(f"d{i}", [f"c{i % 4}"]) for i in range(8)])
    a = _unique_band(docs, n_iterations=50, seed=9)
    b = _unique_band(docs, n_iterations=50, seed=9)
    for column in BAND_COLUMNS:
        assert np.array_equal(getattr(a, column), getattr(b, column))


def test_band_requires_two_docs():
    with pytest.raises(ValueError):
        _unique_band(collection([make_doc("d", ["a"])]), seed=0)


@pytest.mark.parametrize("iterations", [0, -3])
def test_band_requires_an_iteration(iterations):
    docs = collection([make_doc("a", ["x"]), make_doc("b", ["y"])])
    with pytest.raises(ValueError, match="n_iterations"):
        _unique_band(docs, n_iterations=iterations)


@given(
    coded_collections(min_docs=2),
    st.lists(st.sampled_from(REGIMES), min_size=1, unique=True),
    st.integers(2, 4),
    st.integers(0, 2**32 - 1),
)
@example(ZERO_GROUPS, list(REGIMES), 4, 0)
def test_band_matches_reference_loop(coded, kinds, threshold, seed):
    """One call over several regimes gives each the loop's band, every raw
    and adjusted column equal, however iterations are blocked."""
    docs, codebook = coded
    regimes = [CountingRegime(kind, threshold) for kind in kinds]
    expected = [reference_band(docs, r, "src", 23, seed, codebook=codebook) for r in regimes]
    for block_elements in (1, 40, 1 << 16):
        with mock.patch.object(saturation, "_BLOCK_ELEMENTS", block_elements):
            bands = bootstrap_bands(
                collection(docs), regimes, "src", n_iterations=23, seed=seed, codebook=codebook
            )
        assert [band.regime for band in bands] == regimes
        for band, want in zip(bands, expected):
            for column in BAND_COLUMNS:
                got = getattr(band, column)
                assert got.dtype == np.float64
                assert np.array_equal(got, want[column]), (block_elements, band.regime, column)


def _rarefaction(docs, coder_source):
    """Exact mean and variance of the distinct-code count after k random
    documents, k = 1..N (Hurlbert 1971; Heck, van Belle & Simberloff 1975).

    r(u, k) = C(N-u, k) / C(N, k) is the chance that k random documents
    include none of u given ones. With n_c documents holding code c and
    n_cd holding both c and d: E[S_k] = sum_c 1 - r(n_c, k) and
    Var[S_k] = sum_{c,d} r(n_c + n_d - n_cd, k) - (sum_c r(n_c, k))^2.
    """
    labels = sorted({inst.code_id for d in docs for inst in d.instances(coder_source)})
    column = {c: j for j, c in enumerate(labels)}
    N = len(docs)
    incidence = np.zeros((N, len(labels)), dtype=np.int64)
    for i, doc in enumerate(docs):
        incidence[i, [column[inst.code_id] for inst in doc.instances(coder_source)]] = 1
    both = incidence.T @ incidence
    n = np.diag(both)
    union_sizes = np.bincount((n[:, None] + n[None, :] - both).ravel(), minlength=N + 1)
    u = np.arange(N + 1)
    r = np.ones(N + 1)
    mean, var = [], []
    for k in range(1, N + 1):
        r = r * np.clip(N - u - (k - 1), 0, None) / (N - (k - 1))
        missed = r[n].sum()
        mean.append(len(labels) - missed)
        var.append(union_sizes @ r - missed**2)
    return np.array(mean), np.array(var)


def test_band_mean_matches_rarefaction():
    from fecund.synthetic import synth_corpus

    iterations = 2000
    docs, _ = synth_corpus(300, seed=3, n_codes=300)
    band = _unique_band(docs, "human", n_iterations=iterations, seed=3)
    expected, var = _rarefaction(docs, "human")
    assert expected[-1] > 200
    # Iterations are independent orders, so the mean's standard error is
    # sd / sqrt(iterations); five of them bound 300 correlated steps.
    tolerance = 5 * np.sqrt(np.maximum(var, 0.0) / iterations) + 1e-9
    assert np.all(np.abs(band.mean_count - expected) <= tolerance)


# --- positions ----------------------------------------------------------------


def _median_position(doc):
    """The document's median code position, as ``position_trend`` reports it."""
    return [t.median_position for t in position_trend(collection([doc]), "src", window=1)]


def test_median_position_odd():
    doc = make_doc("d", ["a", "b", "c"], positions=[0.2, 0.5, 0.9])
    assert _median_position(doc) == [0.5]


def test_median_position_even():
    doc = make_doc("d", ["a", "b"], positions=[0.2, 0.6])
    assert _median_position(doc) == [pytest.approx(0.4)]


def test_median_position_absent():
    """A document without positioned codes has no median and is skipped."""
    assert _median_position(make_doc("d", ["a"])) == []
    assert _median_position(make_doc("d", [])) == []


def test_trend_constant():
    docs = collection([
        make_doc(f"d{i}", ["a"], length=100 + i, positions=[0.5]) for i in range(6)
    ])
    trend = position_trend(docs, "src", window=3)
    assert all(t.moving_average == pytest.approx(0.5) for t in trend)


def test_trend_single_doc():
    docs = collection([make_doc("d", ["a"], length=50, positions=[0.3])])
    trend = position_trend(docs, "src", window=5)
    assert len(trend) == 1
    assert trend[0].moving_average == pytest.approx(0.3)


def test_trend_monotone_for_linear_medians():
    docs = collection([
        make_doc(f"d{i}", ["a"], length=100 + 10 * i, positions=[i / 10])
        for i in range(10)
    ])
    trend = position_trend(docs, "src", window=3)
    avgs = [t.moving_average for t in trend]
    assert all(a <= b + 1e-12 for a, b in zip(avgs, avgs[1:]))
