"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import csv
import filecmp
import math
import time
from pathlib import Path

import numpy as np

from fecund.cli import EXIT_OK, main
from fecund.corpus import fecundity, unique_weight
from fecund.saturation import CountingRegime, bootstrap_bands, cumulative_curve, detect_stopping
from fecund.selection import (
    LOG1P,
    SQRT,
    SelectionBudget,
    objective,
    select_greedy,
)
from fecund.ingest import load_collection
from fecund.stats import (
    IDENTITY_MAP, RegressionSpec, arm_data, ols, superset_sweep, treatment_table,
)
from fecund.synthetic import synth_corpus

from conftest import make_doc
import golden
from prompt_fragments import FINAL_FEWSHOT_FRAGMENTS, ROUND1_FRAGMENTS
from reference import collection, experiment_corpus, select_exact, select_greedy_naive


def report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS — {detail}")


# 1 ---------------------------------------------------------------------------


def test_01_conservation_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    for _ in range(100):
        n = int(rng.integers(5, 51))
        docs, _ = synth_corpus(n, seed=int(rng.integers(0, 2**31)), n_codes=40)
        total = unique_weight(docs, "human").sum()
        assert abs(total - len(np.unique(docs.matrix("human").codes))) <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, f"100 corpora conserve distinct-code count within 1e-9 in {elapsed:.2f}s")


# 2 ---------------------------------------------------------------------------


def _random_instance(rng):
    n = int(rng.integers(2, 11))
    docs = []
    for i in range(n):
        k = int(rng.integers(0, 6))
        codes = [f"c{int(c)}" for c in rng.integers(0, 15, k)]
        docs.append(make_doc(f"d{i:02d}", codes, length=int(rng.integers(1, 50))))
    total = sum(d.text_length for d in docs)
    return collection(docs), SelectionBudget(int(rng.integers(1, total + 2)))


def test_02_greedy_vs_exact_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(2002)
    ratios = []
    for _ in range(200):
        docs, budget = _random_instance(rng)
        lazy = select_greedy(docs, budget, SQRT, "src")
        naive = select_greedy_naive(docs, budget, SQRT, "src")
        assert lazy.selected_ids == naive.selected_ids
        exact = select_exact(docs, budget, SQRT, "src")
        if exact.objective_value == 0.0:
            continue
        ratio = lazy.objective_value / exact.objective_value
        assert ratio >= 0.5
        ratios.append(ratio)
    mean_ratio = sum(ratios) / len(ratios)
    assert mean_ratio >= 0.95
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(
        2,
        f"{len(ratios)} nontrivial instances: min ratio {min(ratios):.3f}, "
        f"mean {mean_ratio:.4f}, lazy == naive, in {elapsed:.2f}s",
    )


# 3 ---------------------------------------------------------------------------


def test_03_submodularity_monotonicity():
    start = time.perf_counter()
    rng = np.random.default_rng(3003)
    checked = 0
    while checked < 1000:
        n = int(rng.integers(2, 9))
        docs = [
            make_doc(
                f"d{i}", [f"c{int(c)}" for c in rng.integers(0, 10, rng.integers(0, 6))]
            )
            for i in range(n)
        ]
        perm = list(rng.permutation(n))
        cut_a = int(rng.integers(0, n))
        cut_b = int(rng.integers(cut_a, n))
        if cut_b == n:
            continue
        A = [docs[i] for i in perm[:cut_a]]
        B = [docs[i] for i in perm[:cut_b]]
        d = docs[perm[cut_b]]
        for vf in (SQRT, LOG1P):
            value = lambda docs: objective(collection(docs), vf, "src")
            obj_a, obj_b = value(A), value(B)
            gain_a = value(A + [d]) - obj_a
            gain_b = value(B + [d]) - obj_b
            assert gain_a >= gain_b - 1e-9, "submodularity violated"
            assert obj_a <= obj_b + 1e-9, "monotonicity violated"
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(3, f"1000 (A ⊆ B, d) triples pass for sqrt and log1p in {elapsed:.2f}s")


# 4 ---------------------------------------------------------------------------


def test_04_counting_regime_oracle():
    order = collection([
        make_doc("D1", ["a"]),
        make_doc("D2", ["a"]),
        make_doc("D3", ["a", "b"]),
        make_doc("D4", ["b"]),
        make_doc("D5", ["b"]),
    ])
    expected = {
        "unique": [1, 1, 2, 2, 2],
        "hf_retrospective": [1, 1, 2, 2, 2],
        "hf_iterative": [0, 0, 1, 1, 2],
    }
    for kind, counts in expected.items():
        got = cumulative_curve(order, CountingRegime(kind, 3), "src").counts
        assert got == counts, f"{kind}: {got} != {counts}"
    report(4, "worked 5-document example matches all three hand-derived vectors")


# 5 ---------------------------------------------------------------------------


def test_05_retrospective_pathology():
    rng = np.random.default_rng(5005)
    threshold = 3
    violations = 0
    for _ in range(100):
        n = int(rng.integers(4, 15))
        pool = [f"c{i}" for i in range(int(rng.integers(2, 12)))]
        docs = []
        for i in range(n):
            k = int(rng.integers(0, min(6, len(pool)) + 1))
            docs.append(
                make_doc(f"d{i}", list(rng.choice(pool, size=k, replace=False)))
            )
        for _ in range(5):
            order = collection([docs[i] for i in rng.permutation(n)])
            counts = cumulative_curve(
                order, CountingRegime("hf_retrospective", threshold), "src"
            ).counts
            if counts[-1] != counts[-threshold]:
                violations += 1
    assert violations == 0
    report(5, "0 violations over 100 corpora x 5 orderings (threshold 3)")


# 6 ---------------------------------------------------------------------------


def test_06_bootstrap_degeneracy_and_speed():
    rng = np.random.default_rng(6006)
    # arbitrary corpus: raw band must close at the final step
    docs = collection([
        make_doc(
            f"d{i}", [f"c{int(c)}" for c in rng.integers(0, 25, rng.integers(0, 7))],
            length=int(rng.integers(50, 500)),
        )
        for i in range(18)
    ])
    unique = [CountingRegime("unique")]
    [band] = bootstrap_bands(docs, unique, "src", n_iterations=300, seed=6)
    assert band.raw_hi95[-1] - band.raw_lo95[-1] == 0.0
    assert len(band.lo95) == math.floor(0.9 * 18)
    assert len(band.raw_lo95) == 18

    same = collection([make_doc(f"s{i}", ["one"], length=10) for i in range(12)])
    [same_band] = bootstrap_bands(same, unique, "src", n_iterations=300, seed=6)
    retained = len(same_band.lo95)
    assert np.array_equal(same_band.lo95, same_band.mean_count[:retained])
    assert np.array_equal(same_band.hi95, same_band.lo95)

    timed = collection([
        make_doc(
            f"t{i}", [f"c{int(c)}" for c in rng.integers(0, 60, rng.integers(0, 8))],
            length=int(rng.integers(100, 4000)),
        )
        for i in range(30)
    ])
    start = time.perf_counter()
    [big] = bootstrap_bands(timed, unique, "src", n_iterations=2000, seed=60)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    assert len(big.lo95) == 27
    report(
        6,
        f"raw final-step width 0, identical-docs band zero everywhere, "
        f"2000x30 bootstrap in {elapsed:.2f}s",
    )


# 7 ---------------------------------------------------------------------------


def _order_with_counts(counts):
    docs = []
    prev = 0
    for i, c in enumerate(counts):
        new = [f"n{i}_{j}" for j in range(c - prev)] or ["n0_0"]
        docs.append(make_doc(f"d{i:03d}", new))
        prev = c
    return collection(docs)


def test_07_stopping_rule():
    rng = np.random.default_rng(7007)
    for _ in range(50):
        n = int(rng.integers(1, 30))
        counts = np.cumsum(rng.integers(0, 3, n))
        counts[0] = max(counts[0], 1)
        docs = _order_with_counts(list(np.maximum.accumulate(counts)))
        curve = cumulative_curve(docs, CountingRegime("unique"), "src")
        result = detect_stopping(curve)
        if result.satisfied_at is not None:
            assert result.satisfied_at >= 13
        for point in result.all_satisfaction_points:
            assert point >= 13

    plateau = list(range(1, 11)) + [10, 10, 10, 11, 11, 11, 11]
    curve = cumulative_curve(_order_with_counts(plateau), CountingRegime("unique"), "src")
    assert curve.counts == plateau
    result = detect_stopping(curve)
    assert result.all_satisfaction_points == (13, 17)
    assert result.satisfied_at == 13
    report(7, "never satisfied before 13; plateau fixture yields points {13, 17}")


# 8 ---------------------------------------------------------------------------


def test_08_regression_oracle():
    fit = ols({"y": [1, 2, 2, 3], "x": [0, 0, 1, 1]}, RegressionSpec("y", ("x",)))
    assert abs(fit.coefficients["const"] - 1.5) <= 1e-9
    assert abs(fit.coefficients["x"] - 1.0) <= 1e-9

    rng = np.random.default_rng(8008)
    data = {
        "y": rng.normal(size=25),
        "x": rng.normal(size=25),
        "w": np.ones(25),
    }
    plain = ols(data, RegressionSpec("y", ("x",)))
    weighted = ols(data, RegressionSpec("y", ("x",), weights="w"))
    for name in plain.param_names:
        assert abs(plain.coefficients[name] - weighted.coefficients[name]) <= 1e-12
        assert abs(plain.standard_errors[name] - weighted.standard_errors[name]) <= 1e-12

    k, df = plain.f_df
    identity = (plain.r2 / k) / ((1 - plain.r2) / df)
    assert abs(plain.f_statistic - identity) <= 1e-9
    report(8, "hand-solved OLS, unit-weight WLS equality, and F/R2 identity hold")


# 9 ---------------------------------------------------------------------------


def test_09_paper_mimicking_simulation():
    start = time.perf_counter()
    planted = 1.4  # control rate 1.4/kchar doubled in treatment
    n_seeds = 200
    significant = covered = 0
    for seed in range(n_seeds):
        docs, arms = experiment_corpus(seed, n_treatment=34, n_control=14)
        assert len(docs) == 48
        n = len(docs)
        data = {
            "fecundity": fecundity(docs, "human").tolist(),
            "ai_selected": [1.0 if arms[i] == "treatment" else 0.0 for i in docs.ids],
            "index": list(range(1, n + 1)),
            "round": [0.0] * n,
            "length": docs.lengths.astype(float).tolist(),
            "overlap": [False] * n,
            "old_random": [False] * n,
        }
        fit = treatment_table(data)[1]
        if fit.coefficients["ai_selected"] > 0 and fit.p_values["ai_selected"] < 0.05:
            significant += 1
        lo, hi = fit.ci95("ai_selected")
        if lo <= planted <= hi:
            covered += 1
    elapsed = time.perf_counter() - start
    assert significant >= 0.90 * n_seeds, f"power {significant}/{n_seeds}"
    assert covered >= 0.93 * n_seeds, f"coverage {covered}/{n_seeds}"
    assert elapsed < 60.0
    report(
        9,
        f"power {significant}/200, CI coverage {covered}/200 for planted effect "
        f"{planted}, in {elapsed:.1f}s",
    )


# 10 ---------------------------------------------------------------------------


def test_10_superset_sweep_shape():
    start = time.perf_counter()
    docs, _ = synth_corpus(2530, seed=42, n_codes=2000, coder_source="ai")
    points = superset_sweep(
        docs,
        "ai",
        IDENTITY_MAP,
        seed=7,
        sizes=(50, 100, 250, 500, 1000, 2530),
        replicates=10,
        n_budget_docs=20,
    )
    elapsed = time.perf_counter() - start
    baseline, rest = points[0], points[1:]
    assert baseline.normalized_pct == 100.0
    assert [p.size for p in rest] == [50, 100, 250, 500, 1000, 2530]
    assert rest[0].normalized_pct > 100.0
    assert rest[-1].normalized_pct > rest[0].normalized_pct
    pcts = [p.normalized_pct for p in rest]
    assert all(a <= b for a, b in zip(pcts, pcts[1:])), f"not monotone: {pcts}"
    assert elapsed < 120.0
    report(
        10,
        "normalized % over sizes 50..2530: "
        + " -> ".join(f"{p:.1f}" for p in pcts)
        + f", in {elapsed:.1f}s",
    )


# 11 ---------------------------------------------------------------------------


def _run_pipeline(root: Path) -> list[Path]:
    corpus, coded, sel, sat, ana = (root / n for n in ("corpus", "coded", "sel", "sat", "ana"))
    steps = [
        ["synth", "--out", corpus, "--seed", 17, "--n-docs", 24, "--with-text"],
        ["code", "--docs", corpus / "documents.jsonl", "--backend", "mock",
         "--seed", 17, "--out", coded],
        ["select", "--docs", corpus / "documents.jsonl", "--codes", coded / "ai_codes.csv",
         "--coder-source", "ai", "--seed", 17, "--budget-docs", 6, "--control-docs", 6,
         "--out", sel],
        ["saturate", "--docs", corpus / "documents.jsonl", "--codes", corpus / "codes.csv",
         "--coder-source", "human", "--seed", 17, "--order", sel / "manifest.csv",
         "--regimes", "unique,hf_iterative", "--bootstrap", "--iterations", 300,
         "--plot", "--out", sat],
        ["analyze", "--docs", corpus / "documents.jsonl",
         "--codes", f"{corpus / 'codes.csv'},{coded / 'ai_codes.csv'}",
         "--manifest", sel / "manifest.csv", "--unblinding", sel / "unblinding.csv",
         "--outcome-source", "human", "--density-source", "ai", "--out", ana],
    ]
    for step in steps:
        assert main([str(a) for a in step]) == EXIT_OK, f"step failed: {step[0]}"
    return sorted(
        p for p in root.rglob("*") if p.is_file() and p.name != "run_meta.json"
    )


def test_11_end_to_end_determinism(tmp_path):
    files_a = _run_pipeline(tmp_path / "run_a")
    files_b = _run_pipeline(tmp_path / "run_b")
    rel_a = [f.relative_to(tmp_path / "run_a") for f in files_a]
    rel_b = [f.relative_to(tmp_path / "run_b") for f in files_b]
    assert rel_a == rel_b
    assert len(rel_a) >= 10
    differing = [
        str(ra)
        for ra, fa, fb in zip(rel_a, files_a, files_b)
        if not filecmp.cmp(fa, fb, shallow=False)
    ]
    assert differing == [], f"files differ between runs: {differing}"
    golden.check("test_11", tmp_path / "run_a")
    report(11, f"{len(rel_a)} pipeline output files byte-identical across two runs")


def _csv_rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


def test_11_treatment_table_refits_in_process(tmp_path):
    """``treatment_table(arm_data(...))`` on the pipeline's files gives every
    coefficient, standard error and p-value cell of its ``treatment_table.csv``
    (a cell is the float's repr), and the same skipped specifications."""
    _run_pipeline(tmp_path)
    corpus, coded, sel = (tmp_path / n for n in ("corpus", "coded", "sel"))
    docs, _ = load_collection(corpus / "documents.jsonl",
                              [corpus / "codes.csv", coded / "ai_codes.csv"])
    row_of = {doc_id: i for i, doc_id in enumerate(docs.ids)}
    ordered = docs.take([row_of[r["doc_id"]] for r in _csv_rows(sel / "manifest.csv")])
    arms = {r["doc_id"]: r["arm"] for r in _csv_rows(sel / "unblinding.csv")}
    data = arm_data(ordered, arms, fecundity(ordered, "human"), fecundity(ordered, "ai"))
    fits = treatment_table(data)
    rows = _csv_rows(tmp_path / "ana" / "treatment_table.csv")
    assert sorted({int(r["spec"]) for r in rows}) == sorted(fits)
    for row in rows:
        fit = fits[int(row["spec"])]
        if not row["param"]:
            assert fit == row["skipped"]
            continue
        param = row["param"]
        cells = (fit.coefficients[param], fit.standard_errors[param], fit.p_values[param])
        assert (row["coef"], row["se"], row["p"]) == tuple(map(repr, cells))
    assert sum(bool(r["param"]) for r in rows) > 0


# 12 ---------------------------------------------------------------------------


def test_12_prompt_fidelity():
    from fecund.coder import render_prompt

    round1 = render_prompt("round1", {"summary": "SUM", "excerpt": "EXC"})
    for fragment in ROUND1_FRAGMENTS:
        assert fragment in round1, f"round1 missing fragment: {fragment[:50]}..."
    final = render_prompt(
        "final_fewshot", {"summary": "SUM", "excerpt": "EXC", "relevant": "REL"}
    )
    for fragment in FINAL_FEWSHOT_FRAGMENTS:
        assert fragment in final, f"final_fewshot missing fragment: {fragment[:50]}..."
    report(
        12,
        f"{len(ROUND1_FRAGMENTS)} round-1 and {len(FINAL_FEWSHOT_FRAGMENTS)} "
        "few-shot fixed substrings all present",
    )
