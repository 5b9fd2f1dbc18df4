"""Golden outputs of what ``test_11_end_to_end_determinism``'s pipeline
leaves out: ``sweep``, plain ``saturate`` with positions and plots, the
``hf_retrospective`` and ``themes`` regimes, greedy ties, and ``select`` on a
corpus large enough to be cached, loaded once cold and once from the cache;
and ``analyze`` with an experiment file, which fits specifications 4 and 5
and writes ``length_residuals.txt``."""

import pytest

import golden
from fecund import ingest
from fecund.cli import EXIT_OK, main


def _run(*argv) -> None:
    assert main([str(a) for a in argv]) == EXIT_OK, f"step failed: {argv[0]}"


@pytest.mark.parametrize("seed", [17, 91])
def test_outputs_match_golden(tmp_path, seed):
    corpus = tmp_path / "corpus"
    docs, codes, themes = (corpus / n for n in ("documents.jsonl", "codes.csv", "themes.csv"))
    collection = ["--docs", docs, "--codes", codes, "--coder-source", "human"]
    _run("synth", "--out", corpus, "--seed", seed, "--n-docs", 1000, "--n-codes", 100)
    assert docs.stat().st_size + codes.stat().st_size >= ingest._CACHE_FLOOR
    for out in ("sel_cold", "sel_warm"):
        _run("select", *collection, "--seed", seed, "--budget-docs", 20, "--control-docs", 20,
             "--out", tmp_path / out)
        assert (corpus / ".fecund-cache").is_dir()
    # whole-number gains tie often, so this selection depends on the tie rule
    _run("select", *collection, "--seed", seed, "--value-function", "unique", "--plain-gain",
         "--out", tmp_path / "sel_ties")
    _run("saturate", *collection, "--themes", themes, "--order", tmp_path / "sel_cold/manifest.csv",
         "--regimes", "unique,hf_retrospective,hf_iterative,themes", "--positions", "--plot",
         "--out", tmp_path / "sat")
    _run("saturate", *collection, "--themes", themes, "--regimes", "hf_retrospective,themes",
         "--bootstrap", "--iterations", 50, "--seed", seed, "--plot", "--out", tmp_path / "boot")
    _run("sweep", *collection, "--seed", seed, "--sizes", "100,1000", "--replicates", 2,
         "--quadratic", "0,1,0", "--plot", "--out", tmp_path / "sweep")
    golden.check(f"seed{seed}", tmp_path)


@pytest.mark.parametrize("seed", [17, 91])
def test_analyze_with_an_experiment_matches_golden(tmp_path, seed):
    """Rounds that vary fit specifications 4 and 5, and an AI density source
    writes ``length_residuals.txt``; some documents are old random ones, and
    some have no experiment row (round 0, not old random)."""
    corpus, coded, sel = (tmp_path / n for n in ("corpus", "coded", "sel"))
    docs = corpus / "documents.jsonl"
    _run("synth", "--out", corpus, "--seed", seed, "--n-docs", 40, "--with-text")
    _run("code", "--docs", docs, "--backend", "mock", "--seed", seed, "--out", coded)
    _run("select", "--docs", docs, "--codes", coded / "ai_codes.csv", "--coder-source", "ai",
         "--seed", seed, "--budget-docs", 8, "--control-docs", 8, "--out", sel)
    ids = [line.split(",")[1] for line in (sel / "manifest.csv").read_text().splitlines()[1:]]
    rows = [f"{doc_id},{i % 2},{str(i % 5 == 0).lower()}" for i, doc_id in enumerate(ids)]
    experiment = tmp_path / "experiment.csv"
    experiment.write_text("doc_id,round,old_random\n" + "\n".join(rows[:-3]) + "\n")
    _run("analyze", "--docs", docs, "--codes", f"{corpus / 'codes.csv'},{coded / 'ai_codes.csv'}",
         "--manifest", sel / "manifest.csv", "--unblinding", sel / "unblinding.csv",
         "--experiment", experiment, "--outcome-source", "human", "--density-source", "ai",
         "--out", tmp_path / "ana")
    assert (tmp_path / "ana/length_residuals.txt").is_file()
    golden.check(f"analyze{seed}", tmp_path)
