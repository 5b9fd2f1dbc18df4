import contextlib
import csv
import importlib
import io
import json
import math
import textwrap
from collections import Counter

import numpy as np
import pytest
from conftest import run_python
from hypothesis import example, given, settings, strategies as st
from reference import band_csv_rows, mock_plan_loop

from fecund import cli, coder, ingest, synthetic
from fecund.cli import EXIT_DATA, EXIT_IO, EXIT_OK, EXIT_REMOTE, EXIT_USAGE, main
from fecund.corpus import CodeInstance, Document
from fecund.errors import CodeCountError
from fecund.ingest import load_collection
from fecund.saturation import BootstrapBand, CountingRegime, cumulative_curve


def run(*argv):
    return main([str(a) for a in argv])


def _read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture()
def corpus_dir(tmp_path):
    out = tmp_path / "corpus"
    assert run("synth", "--out", out, "--seed", 5, "--n-docs", 30, "--with-text") == EXIT_OK
    return out


def test_synth_output_loads(corpus_dir):
    docs, codebook = load_collection(
        corpus_dir / "documents.jsonl", corpus_dir / "codes.csv", corpus_dir / "themes.csv"
    )
    assert len(docs) == 30
    assert codebook.entries
    assert codebook.theme_map


def test_ingest_summary(corpus_dir, tmp_path):
    out = tmp_path / "ing"
    code = run(
        "ingest", "--docs", corpus_dir / "documents.jsonl", "--codes",
        corpus_dir / "codes.csv", "--out", out,
    )
    assert code == EXIT_OK
    summary = json.loads((out / "collection_summary.json").read_text())
    assert summary["documents"] == 30
    assert summary["coder_sources"] == ["human"]


def test_missing_input_exit_code(tmp_path):
    assert run("ingest", "--docs", tmp_path / "absent.jsonl", "--out", tmp_path) == EXIT_IO


def test_corrupt_input_exit_code(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("{not json}\n", encoding="utf-8")
    assert run("ingest", "--docs", bad, "--out", tmp_path) == EXIT_DATA


def test_select_three_doc_fixture(tmp_path):
    docs = tmp_path / "documents.jsonl"
    docs.write_text(
        "\n".join(
            json.dumps({"id": i, "text_length": 10, "source": None}) for i in "ABC"
        )
        + "\n",
        encoding="utf-8",
    )
    codes = tmp_path / "codes.csv"
    codes.write_text(
        "doc_id,coder_source,code_label,position\n"
        "A,ai,x,\nA,ai,x,\nB,ai,y,\nC,ai,x,\n",
        encoding="utf-8",
    )
    out = tmp_path / "sel"
    code = run(
        "select", "--docs", docs, "--codes", codes, "--coder-source", "ai",
        "--budget-chars", 21, "--control-docs", 1, "--seed", 3, "--out", out,
    )
    assert code == EXIT_OK
    payload = json.loads((out / "selection.json").read_text())
    assert sorted(payload["selected_ids"]) == ["A", "B"]
    assert payload["total_chars"] == 20
    assert len(payload["gains"]) == 2
    manifest = _read_csv(out / "manifest.csv")
    assert {r["doc_id"] for r in manifest} >= {"A", "B"}
    arms = {r["doc_id"]: r["arm"] for r in _read_csv(out / "unblinding.csv")}
    assert set(arms.values()) <= {"treatment", "control", "overlap"}


def test_select_seed_reproducible(corpus_dir, tmp_path):
    outs = []
    for name in ("s1", "s2"):
        out = tmp_path / name
        assert (
            run(
                "select", "--docs", corpus_dir / "documents.jsonl", "--codes",
                corpus_dir / "codes.csv", "--coder-source", "human", "--seed", 9,
                "--budget-docs", 6, "--control-docs", 6, "--out", out,
            )
            == EXIT_OK
        )
        outs.append((out / "manifest.csv").read_bytes())
    assert outs[0] == outs[1]


def test_saturate_plain_matches_library(corpus_dir, tmp_path):
    out = tmp_path / "sat"
    assert (
        run(
            "saturate", "--docs", corpus_dir / "documents.jsonl", "--codes",
            corpus_dir / "codes.csv", "--coder-source", "human", "--seed", 1,
            "--regimes", "unique", "--out", out,
        )
        == EXIT_OK
    )
    rows = _read_csv(out / "curve_unique.csv")
    docs, _ = load_collection(corpus_dir / "documents.jsonl", corpus_dir / "codes.csv")
    curve = cumulative_curve(docs, CountingRegime("unique"), "human")
    assert [int(r["cumulative_count"]) for r in rows] == curve.counts
    assert [int(r["cumulative_chars"]) for r in rows] == curve.chars


def test_saturate_bootstrap_columns(corpus_dir, tmp_path):
    out = tmp_path / "sb"
    assert (
        run(
            "saturate", "--docs", corpus_dir / "documents.jsonl", "--codes",
            corpus_dir / "codes.csv", "--coder-source", "human", "--seed", 1,
            "--regimes", "unique", "--bootstrap", "--iterations", 50, "--out", out,
        )
        == EXIT_OK
    )
    rows = _read_csv(out / "curve_unique.csv")
    assert set(rows[0]) == {"step", "mean_chars", "mean_count", "lo95", "hi95"}
    assert len(rows) == 27  # floor(0.9 * 30)


# integral, at and past 1e16 (repr turns to exponents), 1e-5, 0.1 + 0.2, -0.0
_AWKWARD = np.array([3.0, 1e16, 2.5e17, 1e-05, 0.1 + 0.2, -0.0, 1 / 3, 12345.678, 1e22])


@pytest.mark.parametrize("retained", [0, 1, len(_AWKWARD)])
def test_saturate_bootstrap_writes_the_bytes_of_the_row_writer(
    corpus_dir, tmp_path, monkeypatch, retained
):
    """The curves, formatted a column at a time with the chars column shared
    across regimes, are the bytes one csv.writer row per step writes."""

    def awkward_bands(order, regimes, *args, **kwargs):
        bands = []
        for k, regime in enumerate(regimes):
            count, lo, hi = (np.roll(_AWKWARD, k + j) for j in (1, 2, 3))
            bands.append(
                BootstrapBand(
                    25, 0.1, regime, _AWKWARD, count, lo[:retained], hi[:retained], lo, hi
                )
            )
        return bands

    monkeypatch.setattr(cli, "bootstrap_bands", awkward_bands)
    out = tmp_path / "sb"
    assert run(
        "saturate", "--docs", corpus_dir / "documents.jsonl", "--codes",
        corpus_dir / "codes.csv", "--themes", corpus_dir / "themes.csv",
        "--coder-source", "human", "--seed", 1, "--bootstrap", "--iterations", 25,
        "--regimes", "unique,themes", "--out", out,
    ) == EXIT_OK
    for band in awkward_bands(None, [CountingRegime("unique"), CountingRegime("themes")]):
        path = out / f"curve_{band.regime.kind}.csv"
        band_csv_rows(tmp_path / "rows.csv", band)
        assert path.read_bytes() == (tmp_path / "rows.csv").read_bytes()
        assert len(_read_csv(path)) == retained


@pytest.mark.parametrize("iterations", [0, -3])
def test_saturate_rejects_bad_iterations(corpus_dir, tmp_path, capsys, iterations):
    with pytest.raises(SystemExit) as exc:
        run(
            "saturate", "--docs", corpus_dir / "documents.jsonl", "--codes",
            corpus_dir / "codes.csv", "--bootstrap", "--iterations", iterations,
            "--seed", 1, "--out", tmp_path / "sat",
        )
    assert exc.value.code == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"--iterations: must be >= 1, got {iterations}" in err
    assert "Traceback" not in err


def test_saturate_bootstrap_draws_each_order_once(corpus_dir, tmp_path, monkeypatch):
    """Every regime counts the same orders: one generator per iteration,
    seeded with ``[seed, it]``."""
    seeds = []
    real = np.random.default_rng

    def recording(seed=None):
        seeds.append(seed)
        return real(seed)

    monkeypatch.setattr(np.random, "default_rng", recording)
    assert run(
        "saturate", "--docs", corpus_dir / "documents.jsonl", "--codes",
        corpus_dir / "codes.csv", "--themes", corpus_dir / "themes.csv",
        "--coder-source", "human", "--seed", 1, "--bootstrap", "--iterations", 37,
        "--regimes", "unique,hf_retrospective,hf_iterative,themes", "--out", tmp_path / "sb",
    ) == EXIT_OK
    assert seeds == [[1, it] for it in range(37)]
    assert sorted(p.name for p in (tmp_path / "sb").glob("curve_*.csv")) == [
        "curve_hf_iterative.csv", "curve_hf_retrospective.csv",
        "curve_themes.csv", "curve_unique.csv",
    ]


def test_ai_codes_do_not_depend_on_how_the_mock_plans(corpus_dir, tmp_path, monkeypatch):
    """``code`` writes the same ai_codes.csv for plan blocks of 1, 7, 512 and
    the default 4,096, on the threaded path that plans the whole batch at
    once, and with every passage planned by the loop oracle."""

    def ai_codes(name):
        out = tmp_path / name
        assert run("code", "--docs", corpus_dir / "documents.jsonl", "--seed", 5,
                   "--out", out) == EXIT_OK
        return (out / "ai_codes.csv").read_bytes()

    want = ai_codes("default")
    assert want.count(b"\n") > 20
    for block in (1, 7, 512):
        monkeypatch.setattr(coder, "_PLAN_BLOCK", block)
        assert ai_codes(f"block-{block}") == want
    monkeypatch.undo()
    config = coder.RemoteConfig(url="", model="", max_in_flight=3)
    monkeypatch.setattr(coder.MockCoder, "config", config, raising=False)
    assert ai_codes("threaded") == want
    monkeypatch.undo()
    monkeypatch.setattr(coder.MockCoder, "plan", lambda self, ps: mock_plan_loop(self, ps, 1.1))
    assert ai_codes("loop-oracle") == want


def _code_passages(corpus_dir):
    """The passages ``code`` codes, in the order it codes them."""
    articles = ingest.load_articles(corpus_dir / "documents.jsonl")
    passages = [p for a in articles for p in ingest.split_passages(a, min_len=100)]
    return sorted(passages, key=coder.passage_key)


def test_code_formats_each_passage_key_once(corpus_dir, tmp_path, monkeypatch):
    """The batch sorts by each passage's key and records it, and ``code`` reads
    each result's passage, not its key: one ``passage_key`` call per passage."""
    passages = _code_passages(corpus_dir)
    formatted = Counter()
    real = coder.passage_key

    def counting(passage):
        formatted[passage] += 1
        return real(passage)

    monkeypatch.setattr(coder, "passage_key", counting)
    assert run("code", "--docs", corpus_dir / "documents.jsonl", "--seed", 5,
               "--out", tmp_path / "out") == EXIT_OK
    assert formatted == Counter(passages) and set(formatted.values()) == {1}


@pytest.mark.parametrize("rate", ["1e300", "1.7e308"], ids=["huge", "infinite-lambda"])
def test_code_gives_six_slots_where_codes_per_kchar_is_huge(corpus_dir, tmp_path, capsys, rate):
    """A λ whose e^-λ underflows, or whose product overflows to inf, is past
    every F(k): each passage gets the cap of 6 slots, with no warning."""
    passages = _code_passages(corpus_dir)
    if rate == "1.7e308":
        assert math.isinf(float(rate) * max(len(p.text) for p in passages) / 1000.0)
    capsys.readouterr()
    assert run("code", "--docs", corpus_dir / "documents.jsonl", "--seed", 5,
               "--codes-per-kchar", rate, "--out", tmp_path / "out") == EXIT_OK
    assert capsys.readouterr().err == ""
    rows = _read_csv(tmp_path / "out" / "ai_codes.csv")
    want = Counter(p.article_id for p in passages for _ in range(6))
    assert Counter(r["doc_id"] for r in rows) == want


@pytest.mark.parametrize("given,missing", [("--clusters", "--exemplars"),
                                           ("--exemplars", "--clusters")])
def test_code_refuses_half_of_the_few_shot_pair(corpus_dir, tmp_path, capsys, given, missing):
    side = tmp_path / "side.csv"
    side.write_text("passage_id,cluster_id,code_label\n", encoding="utf-8")
    capsys.readouterr()
    assert run("code", "--docs", corpus_dir / "documents.jsonl", "--seed", 5, "--chain",
               "fewshot", given, side, "--out", tmp_path / "out") == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"{missing} is missing" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_saturate_themes_without_map_errors(corpus_dir, tmp_path, capsys):
    """A themes file with no rows maps no code: the themes regime has nothing
    to count. (Leaving out ``--themes`` is a usage error, in ``_BAD_INPUTS``.)"""
    themes = tmp_path / "themes.csv"
    themes.write_text("code_label,theme_label\n", encoding="utf-8")
    code = run(
        "saturate", "--docs", corpus_dir / "documents.jsonl", "--codes",
        corpus_dir / "codes.csv", "--themes", themes, "--coder-source", "human", "--seed", 1,
        "--regimes", "themes", "--out", tmp_path / "st",
    )
    assert code == EXIT_DATA
    assert capsys.readouterr().err == (f"error: invalid collection: {themes}: maps no code to a "
                                       "theme, so the themes regime has nothing to count\n")


def test_sweep_oversized_errors(corpus_dir, tmp_path):
    code = run(
        "sweep", "--docs", corpus_dir / "documents.jsonl", "--codes",
        corpus_dir / "codes.csv", "--coder-source", "human", "--seed", 1,
        "--sizes", "500", "--quadratic", "0,1,0", "--out", tmp_path / "sw",
    )
    assert code == EXIT_DATA


def test_config_file_supplies_defaults(corpus_dir, tmp_path):
    config = tmp_path / "run.toml"
    config.write_text('seed = 9\nbudget_docs = 6\ncontrol_docs = 6\n', encoding="utf-8")
    out = tmp_path / "cfg"
    code = run(
        "select", "--docs", corpus_dir / "documents.jsonl", "--codes",
        corpus_dir / "codes.csv", "--coder-source", "human",
        "--config", config, "--out", out,
    )
    assert code == EXIT_OK
    direct = tmp_path / "direct"
    run(
        "select", "--docs", corpus_dir / "documents.jsonl", "--codes",
        corpus_dir / "codes.csv", "--coder-source", "human", "--seed", 9,
        "--budget-docs", 6, "--control-docs", 6, "--out", direct,
    )
    assert (out / "manifest.csv").read_bytes() == (direct / "manifest.csv").read_bytes()


@pytest.mark.parametrize(
    "line", ["seed 9", "budget_docs: 6"], ids=["no-equals", "colon"]
)
def test_config_line_without_equals_exits_usage(corpus_dir, tmp_path, capsys, line):
    config = tmp_path / "run.toml"
    config.write_text(f"# comment\n\n{line}\n", encoding="utf-8")
    code = run(
        "select", "--docs", corpus_dir / "documents.jsonl", "--codes",
        corpus_dir / "codes.csv", "--config", config, "--out", tmp_path / "cfg",
    )
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"error: {config}:3: expected key = value" in err
    assert "Traceback" not in err


def test_config_not_utf8_names_its_file_and_line(corpus_dir, tmp_path, capsys):
    config = tmp_path / "run.toml"
    config.write_bytes(b"# comment\nseed = 9\nbudget_docs = \xff6\n")
    code = run(
        "select", "--docs", corpus_dir / "documents.jsonl", "--codes",
        corpus_dir / "codes.csv", "--config", config, "--out", tmp_path / "cfg",
    )
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(
        f"error: {config}:3: not UTF-8 text: 'utf-8' codec can't decode byte 0xff"
    )
    assert "Traceback" not in err
    assert not (tmp_path / "cfg").exists()


def test_trailing_config_without_path_exits_usage(corpus_dir, tmp_path, capsys):
    code = run(
        "select", "--docs", corpus_dir / "documents.jsonl", "--codes",
        corpus_dir / "codes.csv", "--seed", 1, "--out", tmp_path / "cfg", "--config",
    )
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "error: --config needs a path" in err
    assert "Traceback" not in err


def test_config_equals_form_is_read(corpus_dir, tmp_path, capsys):
    config = tmp_path / "run.toml"
    config.write_text("seed = 9\n", encoding="utf-8")
    select = [
        "select", "--docs", corpus_dir / "documents.jsonl", "--codes",
        corpus_dir / "codes.csv", "--coder-source", "human", "--out", tmp_path / "cfg",
    ]
    assert run(*select, f"--config={config}") == EXIT_OK
    meta = json.loads((tmp_path / "cfg" / "run_meta.json").read_text())
    assert meta["args"]["seed"] == 9
    capsys.readouterr()
    assert run(*select, "--config=") == EXIT_USAGE
    assert "error: --config needs a path" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["true", "false", "TRUE", "False", "yes", "1", "ture", "''"])
def test_config_sets_a_valueless_flag_only_when_true(corpus_dir, tmp_path, capsys, value):
    """``true`` sets the flag and ``false`` leaves it off, in any case; any
    other value exits 2 naming the key, before any output."""
    config = tmp_path / "run.toml"
    config.write_text(f"plot = {value}\n", encoding="utf-8")
    out = tmp_path / "sw"
    capsys.readouterr()
    code = run(
        "sweep", "--docs", corpus_dir / "documents.jsonl", "--codes", corpus_dir / "codes.csv",
        "--coder-source", "human", "--seed", 1, "--quadratic", "0,1,0", "--config", config,
        "--out", out,
    )
    if value.lower() in ("true", "false"):
        assert code == EXIT_OK
        assert (out / "sweep.svg").exists() == (value.lower() == "true")
    else:
        assert code == EXIT_USAGE
        given = value.strip("'")
        assert capsys.readouterr().err == (
            f"error: config key plot must be true or false, got {given!r}\n"
        )
        assert not out.exists()


@pytest.mark.parametrize("key, value", [("help", "true"), ("config", "other.toml")])
def test_config_refuses_help_and_config_keys(tmp_path, capsys, key, value):
    """``help = true`` would print the usage and exit 0 having run nothing,
    and a config file cannot name another: each exits 2 naming the key,
    before any output."""
    config = tmp_path / "h.toml"
    config.write_text(f"{key} = {value}\n", encoding="utf-8")
    out = tmp_path / "o"
    capsys.readouterr()
    assert run("synth", "--seed", 1, "--n-docs", 2, "--out", out, "--config", config) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: config key {key} cannot be set in a config file\n"
    assert not out.exists()


@pytest.mark.parametrize("config_key, given", [
    ("quadratic = \"0,1,0\"", ["--pairs", "{pairs}"]),
    ("pairs = \"{pairs}\"", ["--quadratic", "0,1,0"]),
], ids=["config-quadratic-flag-pairs", "config-pairs-flag-quadratic"])
def test_an_explicit_map_wins_over_a_config_value_for_the_other(corpus_dir, tmp_path,
                                                                config_key, given):
    """A flag on the command line wins over a config value for the other
    flag of its exclusive pair: the run writes what the flag alone writes.
    A config file holding both maps still exits 2."""
    pairs = tmp_path / "pairs.csv"
    pairs.write_text("ai_density,human_density\n0,0.5\n1,1.5\n2,3\n3,5\n", encoding="utf-8")
    given = [arg.format(pairs=pairs) for arg in given]
    config = tmp_path / "map.toml"
    config.write_text(config_key.format(pairs=pairs) + "\n", encoding="utf-8")
    sweep = ["sweep", "--docs", corpus_dir / "documents.jsonl", "--codes", corpus_dir / "codes.csv",
             "--coder-source", "human", "--seed", 1, "--sizes", "10,30", "--replicates", 2,
             "--budget-docs", 5, *given]
    assert run(*sweep, "--out", tmp_path / "alone") == EXIT_OK
    assert run(*sweep, "--config", config, "--out", tmp_path / "both") == EXIT_OK
    assert (tmp_path / "both/sweep.csv").read_bytes() == (tmp_path / "alone/sweep.csv").read_bytes()
    config.write_text(f"quadratic = \"0,1,0\"\npairs = \"{pairs}\"\n", encoding="utf-8")
    with pytest.raises(SystemExit) as raised:
        run(*sweep[:-2], "--config", config, "--out", tmp_path / "two")
    assert raised.value.code == EXIT_USAGE


@pytest.mark.parametrize("command", ["synth", "ingest", "code", "select", "analyze"])
def test_plot_is_only_a_flag_of_the_commands_that_draw(corpus_dir, tmp_path, capsys, command):
    argv = {
        "synth": ["synth", "--n-docs", 3, "--seed", 1],
        "ingest": ["ingest", "--docs", corpus_dir / "documents.jsonl"],
        "code": ["code", "--docs", corpus_dir / "documents.jsonl", "--seed", 1],
        "select": ["select", "--docs", corpus_dir / "documents.jsonl", "--codes",
                   corpus_dir / "codes.csv", "--coder-source", "human", "--seed", 1],
    }
    if command == "analyze":
        _select_human(corpus_dir, tmp_path / "sel")
        argv["analyze"] = _analyze_argv(corpus_dir, tmp_path / "sel", tmp_path / "out")[:-2]
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run(*argv[command], "--plot", "--out", tmp_path / "out")
    assert exc.value.code == EXIT_USAGE
    assert "unrecognized arguments: --plot" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    # a config file's plot = true is passed only to the commands that take it
    config = tmp_path / "run.toml"
    config.write_text("plot = true\n", encoding="utf-8")
    assert run(*argv[command], "--config", config, "--out", tmp_path / "out") == EXIT_OK
    assert not list((tmp_path / "out").glob("*.svg"))


def _select_human(corpus_dir, out):
    assert (
        run("select", "--docs", corpus_dir / "documents.jsonl", "--codes",
            corpus_dir / "codes.csv", "--coder-source", "human", "--seed", 5,
            "--budget-docs", 6, "--control-docs", 6, "--out", out)
        == EXIT_OK
    )


def _analyze_argv(corpus_dir, sel, out, manifest=None):
    return [
        "analyze", "--docs", corpus_dir / "documents.jsonl", "--codes",
        corpus_dir / "codes.csv", "--manifest", manifest or sel / "manifest.csv",
        "--unblinding", sel / "unblinding.csv", "--outcome-source", "human",
        "--out", out,
    ]


def test_analyze_writes_treatment_table(corpus_dir, tmp_path):
    sel = tmp_path / "sel"
    _select_human(corpus_dir, sel)
    ana = tmp_path / "ana"
    assert run(*_analyze_argv(corpus_dir, sel, ana)) == EXIT_OK
    rows = _read_csv(ana / "treatment_table.csv")
    fitted = [r for r in rows if r["param"]]
    assert {r["spec"] for r in fitted} == {"1", "2", "3", "6"}
    assert all(0.0 <= float(r["p"]) <= 1.0 for r in fitted)


def test_analyze_reads_old_random_in_any_case(corpus_dir, tmp_path):
    """``true``/``false`` in any case, and a blank cell as false."""
    sel = tmp_path / "sel"
    _select_human(corpus_dir, sel)
    ids = [r["doc_id"] for r in _read_csv(sel / "manifest.csv")]
    tables = []
    for name, true, false in (("lower", "true", "false"), ("upper", "TRUE", "False"),
                              ("blank", "True", "")):
        experiment = tmp_path / f"experiment-{name}.csv"
        rows = [f"{d},0,{true if i % 3 == 0 else false}" for i, d in enumerate(ids)]
        experiment.write_text("doc_id,round,old_random\n" + "\n".join(rows) + "\n")
        out = tmp_path / name
        argv = _analyze_argv(corpus_dir, sel, out) + ["--experiment", experiment]
        assert run(*argv) == EXIT_OK
        tables.append((out / "treatment_table.csv").read_bytes())
    assert run(*_analyze_argv(corpus_dir, sel, tmp_path / "none")) == EXIT_OK
    assert tables[0] == tables[1] == tables[2]
    assert tables[0] != (tmp_path / "none" / "treatment_table.csv").read_bytes()


def test_analyze_reads_blank_round_as_zero(corpus_dir, tmp_path):
    """A blank ``round`` cell reads 0, like a row that ends before the column."""
    sel = tmp_path / "sel"
    _select_human(corpus_dir, sel)
    ids = [r["doc_id"] for r in _read_csv(sel / "manifest.csv")]
    tables = []
    for name, zero in (("zero", "0"), ("blank", "")):
        experiment = tmp_path / f"experiment-{name}.csv"
        rows = [f"{d},{zero if i % 2 else 2},false" for i, d in enumerate(ids)]
        experiment.write_text("doc_id,round,old_random\n" + "\n".join(rows) + "\n")
        out = tmp_path / name
        assert run(*_analyze_argv(corpus_dir, sel, out), "--experiment", experiment) == EXIT_OK
        tables.append((out / "treatment_table.csv").read_bytes())
    assert tables[0] == tables[1]


@pytest.mark.parametrize("spec5_fits", [True, False])
def test_analyze_reports_a_skipped_residual_check_and_finishes(tmp_path, spec5_fits):
    """AI density 0 in every manifest document leaves the residual check's
    first stage rank deficient, and the check extends specification 5, so
    it is skipped when that is (a round equal to the reading index is
    collinear with its order control): either way the check is reported
    skipped, and analyze still writes every file and exits 0."""
    corpus = tmp_path / "corpus"
    assert run("synth", "--out", corpus, "--seed", 5, "--n-docs", 50, "--with-text") == EXIT_OK
    sel = tmp_path / "sel"
    assert run(
        "select", "--docs", corpus / "documents.jsonl", "--codes", corpus / "codes.csv",
        "--coder-source", "human", "--seed", 5, "--budget-docs", 10, "--control-docs", 10,
        "--out", sel,
    ) == EXIT_OK
    ids = [r["doc_id"] for r in _read_csv(sel / "manifest.csv")]
    docs, _ = load_collection(corpus / "documents.jsonl")
    outside = next(doc_id for doc_id in docs.ids if doc_id not in ids)
    ai_codes = tmp_path / "ai_codes.csv"
    ai_codes.write_text(f"doc_id,coder_source,code_label,position\n{outside},ai,c1,0.5\n")
    experiment = tmp_path / "experiment.csv"
    rows = [f"{doc_id},{i % 3 if spec5_fits else i + 1},false" for i, doc_id in enumerate(ids)]
    experiment.write_text("doc_id,round,old_random\n" + "\n".join(rows) + "\n")
    ana = tmp_path / "ana"
    assert run(
        "analyze", "--docs", corpus / "documents.jsonl",
        "--codes", f"{corpus / 'codes.csv'},{ai_codes}", "--manifest", sel / "manifest.csv",
        "--unblinding", sel / "unblinding.csv", "--outcome-source", "human",
        "--density-source", "ai", "--experiment", experiment, "--out", ana,
    ) == EXIT_OK
    columns = ["ai_density"] if spec5_fits else ["round", "index"]
    assert (ana / "length_residuals.txt").read_text() == (
        f"skipped: design matrix is rank deficient; collinear columns: {columns}\n"
    )
    fitted = {r["spec"] for r in _read_csv(ana / "treatment_table.csv") if r["param"]}
    assert fitted == {"1", "2", "3", "4", "6"} | ({"5"} if spec5_fits else set())
    assert (ana / "arm_summary.csv").exists()


def test_saturate_plain_curve_needs_no_seed(corpus_dir, tmp_path):
    """Plain curves make no random draw, so ``--seed`` is optional and changes nothing."""
    data = ["--docs", corpus_dir / "documents.jsonl", "--codes", corpus_dir / "codes.csv",
            "--coder-source", "human", "--regimes", "unique,hf_retrospective"]
    assert run("saturate", *data, "--out", tmp_path / "plain") == EXIT_OK
    assert run("saturate", *data, "--seed", 4, "--out", tmp_path / "seeded") == EXIT_OK
    for kind in ("unique", "hf_retrospective"):
        name = f"curve_{kind}.csv"
        assert (tmp_path / "plain" / name).read_bytes() == (tmp_path / "seeded" / name).read_bytes()


def test_analyze_unknown_manifest_id_exits_data(corpus_dir, tmp_path, capsys):
    sel = tmp_path / "sel"
    _select_human(corpus_dir, sel)
    rows = _read_csv(sel / "manifest.csv")
    manifest = tmp_path / "manifest.csv"
    with open(manifest, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["reading_index", "doc_id"])
        writer.writerow([1, rows[0]["doc_id"]])
        writer.writerow([2, "no-such-doc"])
    capsys.readouterr()
    assert run(*_analyze_argv(corpus_dir, sel, tmp_path / "ana", manifest)) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"{manifest}:3: manifest references unknown document 'no-such-doc'" in err
    assert "Traceback" not in err


# header of a side file that lacks a column its command reads
_BAD_SIDE_FILES = {
    "unblinding": "doc_id,group\nd0001,treatment\n",
    "experiment": "id,round\nd0001,1\n",
    "pairs": "ai,human_density\n1.0,2.0\n",
    "summaries": "id,summary\nd0001,text\n",
    "clusters": "passage_id,cluster\nd0001:0000,1\n",
    "exemplars": "cluster,code_label\n1,x\n",
}


@pytest.mark.parametrize("flag", sorted(_BAD_SIDE_FILES))
def test_side_file_missing_column_exits_data(corpus_dir, tmp_path, capsys, flag):
    bad = tmp_path / f"{flag}.csv"
    bad.write_text(_BAD_SIDE_FILES[flag], encoding="utf-8")
    clusters = tmp_path / "clusters_ok.csv"
    clusters.write_text("passage_id,cluster_id\nd0001:0000,1\n", encoding="utf-8")
    exemplars = tmp_path / "exemplars_ok.csv"
    exemplars.write_text("cluster_id,code_label\n1,x\n", encoding="utf-8")
    out = tmp_path / "out"
    code = ["code", "--docs", corpus_dir / "documents.jsonl", "--seed", 5, "--out", out]
    if flag in ("unblinding", "experiment"):
        _select_human(corpus_dir, tmp_path / "sel")
        argv = _analyze_argv(corpus_dir, tmp_path / "sel", out) + [f"--{flag}", bad]
    elif flag == "pairs":
        argv = [
            "sweep", "--docs", corpus_dir / "documents.jsonl", "--codes",
            corpus_dir / "codes.csv", "--coder-source", "human", "--seed", 1,
            "--pairs", bad, "--out", out,
        ]
    elif flag == "summaries":
        argv = code + ["--summaries", bad]
    elif flag == "clusters":
        argv = code + ["--clusters", bad, "--exemplars", exemplars]
    else:
        argv = code + ["--clusters", clusters, "--exemplars", bad]
    capsys.readouterr()
    assert run(*argv) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"{bad}:1: missing column(s)" in err
    assert "Traceback" not in err


# files the bad-input cases read, written into the test's directory
_CASE_FILES = {
    "cfg.toml": "seed = 9\n",
    "replicates0.toml": "replicates = 0\n",
    "sizes20.toml": "sizes = 20\n",
    "sizes500.toml": "sizes = 500\n",
    "pairs.csv": "ai_density,human_density\n1.0,2.0\nx,3\n",
    "pairs-nan.csv": "ai_density,human_density\n1.0,2.0\nnan,3\n",
    "pairs-inf.csv": "ai_density,human_density\n1.0,2.0\n2.0,3\n3.0,inf\n",
    "pairs-two-rows.csv": "ai_density,human_density\n1.0,2.0\n2.0,3.0\n",
    "pairs-equal-ai.csv": "ai_density,human_density\n1.0,2.0\n1.0,3.0\n1.0,4.0\n",
    "manifest-no-doc-id.csv": "reading_index,id\n1,doc-00\n",
    "manifest-repeat.csv": "reading_index,doc_id\n1,doc-00\n2,doc-00\n",
    "unblinding.csv": "doc_id,arm\ndoc-00,treatment\n",
    "manifest.csv": "reading_index,doc_id\n1,doc-00\n2,doc-01\n",
    "manifest-empty.csv": "reading_index,doc_id\n",
    "manifest-one.csv": "reading_index,doc_id\n1,doc-00\n",
    "experiment.csv": "doc_id,round,old_random\ndoc-00,1,false\ndoc-01,x,false\n",
    "experiment-old-random.csv": "doc_id,round,old_random\ndoc-00,1,TRUE\ndoc-01,1,\ndoc-02,1,1\n",
    "codes-long-label.csv": "doc_id,coder_source,code_label\ndoc-00,human," + "x" * 200_000 + "\n",
    "codes-latin1.csv": "doc_id,coder_source,code_label\ndoc-00,human,café\n".encode("latin-1"),
    "manifest-latin1.csv": "reading_index,doc_id\n1,doc-00\n2,café\n".encode("latin-1"),
    "unblinding-typo.csv": "doc_id,arm\ndoc-00,treatment\ndoc-01,treatmnet\n",
    "unblinding-repeat.csv": "doc_id,arm\ndoc-00,treatment\ndoc-00,control\n",
    "budget0.toml": "budget_chars = 0\n",
    "experiment-repeat.csv": "doc_id,round,old_random\ndoc-00,1,false\ndoc-00,0,true\n",
    "experiment-round-nan.csv": "doc_id,round,old_random\ndoc-00,1,false\ndoc-01,nan,false\n",
    "docs-length-1e20.jsonl": '{"id": "d0", "text_length": 100000000000000000000}\n',
    "docs-length-2p62.jsonl": "".join(
        f'{{"id": "d{i}", "text_length": {2**62}}}\n' for i in range(3)
    ),
    "codes-d0.csv": "doc_id,coder_source,code_label\nd0,human,x\n",
    "one-doc.jsonl": '{"id": "d0", "text_length": 100}\n',
    "seed-negative.toml": "seed = -3\n",
    "bootstrap-yes.toml": "bootstrap = yes\nseed = 3\niterations = 5\n",
    "bootstap.toml": "bootstap = true\nseed = 3\niterations = 5\n",
    # the id on line 2 escapes a lone surrogate, which no UTF-8 output can hold
    "docs-surrogate.jsonl": (
        '{"id": "d0", "text_length": 100}\n{"id": "d1\\ud800", "text_length": 100}\n'
    ),
    "docs-surrogate-text.jsonl": (
        '{"id": "d0", "text": "abc"}\n{"id": "d1\\ud800", "text": "abc"}\n'
    ),
    "docs-no-id.jsonl": '{"id": "d0", "text": "abc"}\n{"text": "abc"}\n',
    "docs-length-disagrees.jsonl": '{"id": "d0", "text_length": 5, "text": "%s"}\n' % ("x" * 300),
    "docs-text-int.jsonl": '{"id": "d0", "text": 5}\n',
    "docs-id-null.jsonl": '{"id": "d0", "text_length": 100}\n{"id": null, "text_length": 100}\n',
    "docs-id-false.jsonl": '{"id": false, "text": "abc"}\n',
    "docs-latin1.jsonl": '{"id": "d0", "text": "abc"}\n{"id": "caf\xe9", "text": "abc"}\n'.encode(
        "latin-1"
    ),
}

_NEGATIVE_SEED = "argument --seed: must be >= 0, got -3"

# bad input -> (argv after the command's --docs/--codes/--out, exit code, stderr text);
# {tmp} is the test's directory, which holds _CASE_FILES
_BAD_INPUTS = {
    "config-prefix": (
        ["select", "--coder-source", "human", "--seed", "1", "--conf", "{tmp}/cfg.toml"],
        EXIT_USAGE,
        "unrecognized arguments: --conf",
    ),
    "flag-prefix": (
        ["saturate", "--coder-source", "human", "--seed", "1", "--iter", "5"],
        EXIT_USAGE,
        "unrecognized arguments: --iter",
    ),
    "pairs-non-numeric": (
        ["sweep", "--coder-source", "human", "--seed", "1", "--pairs", "{tmp}/pairs.csv"],
        EXIT_DATA,
        "{tmp}/pairs.csv:3: could not convert string to float: 'x'",
    ),
    "replicates-zero": (
        ["sweep", "--seed", "1", "--quadratic", "0,1,0", "--replicates", "0"],
        EXIT_USAGE,
        "argument --replicates: must be >= 1, got 0",
    ),
    "pairs-nan": (
        ["sweep", "--coder-source", "human", "--seed", "1", "--pairs", "{tmp}/pairs-nan.csv"],
        EXIT_DATA,
        "{tmp}/pairs-nan.csv:3: densities must be finite numbers, got 'nan', '3'",
    ),
    "pairs-inf": (
        ["sweep", "--coder-source", "human", "--seed", "1", "--pairs", "{tmp}/pairs-inf.csv"],
        EXIT_DATA,
        "{tmp}/pairs-inf.csv:4: densities must be finite numbers, got '3.0', 'inf'",
    ),
    "pairs-two-rows": (
        ["sweep", "--coder-source", "human", "--seed", "1", "--pairs", "{tmp}/pairs-two-rows.csv"],
        EXIT_DATA,
        "error: invalid collection: {tmp}/pairs-two-rows.csv: "
        "need at least 3 points to fit a quadratic",
    ),
    "pairs-equal-ai": (
        ["sweep", "--coder-source", "human", "--seed", "1", "--pairs", "{tmp}/pairs-equal-ai.csv"],
        EXIT_DATA,
        "error: invalid collection: {tmp}/pairs-equal-ai.csv: design matrix is rank deficient",
    ),
    "quadratic-nan": (
        ["sweep", "--coder-source", "human", "--seed", "1", "--quadratic", "nan,1,0"],
        EXIT_USAGE,
        "argument --quadratic: must be a finite number, got nan",
    ),
    "quadratic-two-values": (
        ["sweep", "--seed", "1", "--quadratic", "0,1"],
        EXIT_USAGE,
        "argument --quadratic: expected three numbers a,b,c, got '0,1'",
    ),
    "sizes-not-int": (
        ["sweep", "--seed", "1", "--quadratic", "0,1,0", "--sizes", "10,x"],
        EXIT_USAGE,
        "argument --sizes: invalid int value: 'x'",
    ),
    "config-replicates-zero": (
        ["sweep", "--seed", "1", "--quadratic", "0,1,0", "--config", "{tmp}/replicates0.toml"],
        EXIT_USAGE,
        "argument --replicates: must be >= 1, got 0",
    ),
    "config-sizes-one-int": (
        ["sweep", "--coder-source", "human", "--seed", "1", "--quadratic", "0,1,0",
         "--config", "{tmp}/sizes20.toml"],
        EXIT_OK,
        "",
    ),
    "config-size-too-large": (
        ["sweep", "--coder-source", "human", "--seed", "1", "--quadratic", "0,1,0",
         "--config", "{tmp}/sizes500.toml"],
        EXIT_DATA,
        "subset size(s) [500] exceed the full set (30)",
    ),
    "config-flag-wins": (
        ["sweep", "--coder-source", "human", "--seed", "1", "--quadratic", "0,1,0",
         "--config", "{tmp}/sizes500.toml", "--sizes", "20"],
        EXIT_OK,
        "",
    ),
    "manifest-missing-column": (
        ["saturate", "--coder-source", "human", "--seed", "1",
         "--order", "{tmp}/manifest-no-doc-id.csv"],
        EXIT_DATA,
        "{tmp}/manifest-no-doc-id.csv:1: missing column(s) ['doc_id']",
    ),
    "manifest-repeated-id": (
        ["saturate", "--coder-source", "human", "--seed", "1",
         "--order", "{tmp}/manifest-repeat.csv"],
        EXIT_DATA,
        "{tmp}/manifest-repeat.csv:3: manifest repeats document 'doc-00'",
    ),
    "manifest-repeated-id-analyze": (
        ["analyze", "--outcome-source", "human", "--manifest", "{tmp}/manifest-repeat.csv",
         "--unblinding", "{tmp}/unblinding.csv"],
        EXIT_DATA,
        "{tmp}/manifest-repeat.csv:3: manifest repeats document 'doc-00'",
    ),
    "experiment-round-non-numeric": (
        ["analyze", "--outcome-source", "human", "--manifest", "{tmp}/manifest.csv",
         "--unblinding", "{tmp}/unblinding.csv", "--experiment", "{tmp}/experiment.csv"],
        EXIT_DATA,
        "{tmp}/experiment.csv:3: could not convert string to float: 'x'",
    ),
    "experiment-round-nan": (
        ["analyze", "--outcome-source", "human", "--manifest", "{tmp}/manifest.csv",
         "--unblinding", "{tmp}/unblinding.csv", "--experiment", "{tmp}/experiment-round-nan.csv"],
        EXIT_DATA,
        "{tmp}/experiment-round-nan.csv:3: round must be a finite number, got nan",
    ),
    "experiment-old-random-not-boolean": (
        ["analyze", "--outcome-source", "human", "--manifest", "{tmp}/manifest.csv",
         "--unblinding", "{tmp}/unblinding.csv", "--experiment",
         "{tmp}/experiment-old-random.csv"],
        EXIT_DATA,
        "{tmp}/experiment-old-random.csv:4: old_random must be true or false, got '1'",
    ),
    "regimes-unknown": (
        ["saturate", "--coder-source", "human", "--seed", "1", "--regimes", "unique,bogus"],
        EXIT_USAGE,
        "argument --regimes: expected distinct names from unique, hf_retrospective, "
        "hf_iterative, themes, got 'unique,bogus'",
    ),
    "regimes-empty": (
        ["saturate", "--coder-source", "human", "--seed", "1", "--regimes", ",,"],
        EXIT_USAGE,
        "argument --regimes: expected distinct names from unique, hf_retrospective, "
        "hf_iterative, themes, got ',,'",
    ),
    "regimes-repeated": (
        ["saturate", "--coder-source", "human", "--seed", "1", "--bootstrap",
         "--regimes", "unique,unique"],
        EXIT_USAGE,
        "argument --regimes: expected distinct names from unique, hf_retrospective, "
        "hf_iterative, themes, got 'unique,unique'",
    ),
    "threshold-below-two": (
        ["saturate", "--coder-source", "human", "--seed", "1", "--threshold", "1"],
        EXIT_USAGE,
        "argument --threshold: must be >= 2, got 1",
    ),
    "text-length-over-int64": (
        ["select", "--coder-source", "human", "--seed", "1", "--budget-docs", "2",
         "--control-docs", "0", "--docs", "{tmp}/docs-length-1e20.jsonl",
         "--codes", "{tmp}/codes-d0.csv"],
        EXIT_DATA,
        "{tmp}/docs-length-1e20.jsonl:1: document 'd0': the total text_length reaches 2**53",
    ),
    "text-length-sum-wraps-int64": (
        ["select", "--coder-source", "human", "--seed", "1", "--budget-docs", "2",
         "--control-docs", "0", "--docs", "{tmp}/docs-length-2p62.jsonl",
         "--codes", "{tmp}/codes-d0.csv"],
        EXIT_DATA,
        "{tmp}/docs-length-2p62.jsonl:1: document 'd0': the total text_length reaches 2**53",
    ),
    "codes-field-over-limit": (
        ["saturate", "--coder-source", "human", "--codes", "{tmp}/codes-long-label.csv"],
        EXIT_DATA,
        "{tmp}/codes-long-label.csv:2: unreadable CSV: field larger than field limit (131072)",
    ),
    "documents-not-utf8-select": (
        ["select", "--coder-source", "human", "--seed", "1", "--docs", "{tmp}/docs-latin1.jsonl"],
        EXIT_DATA,
        "{tmp}/docs-latin1.jsonl:2: not UTF-8 text: 'utf-8' codec can't decode byte 0xe9",
    ),
    "documents-not-utf8-code": (
        ["code", "--seed", "1", "--docs", "{tmp}/docs-latin1.jsonl"],
        EXIT_DATA,
        "{tmp}/docs-latin1.jsonl:2: not UTF-8 text: 'utf-8' codec can't decode byte 0xe9",
    ),
    "codes-not-utf8": (
        ["saturate", "--coder-source", "human", "--codes", "{tmp}/codes-latin1.csv"],
        EXIT_DATA,
        "{tmp}/codes-latin1.csv:2: not UTF-8 text: 'utf-8' codec can't decode byte 0xe9",
    ),
    "manifest-not-utf8": (
        ["saturate", "--coder-source", "human", "--order", "{tmp}/manifest-latin1.csv"],
        EXIT_DATA,
        "{tmp}/manifest-latin1.csv:3: not UTF-8 text: 'utf-8' codec can't decode byte 0xe9",
    ),
    "bootstrap-without-seed": (
        ["saturate", "--coder-source", "human", "--bootstrap", "--iterations", "5"],
        EXIT_USAGE,
        "--bootstrap requires --seed",
    ),
    "themes-regime-without-themes": (
        ["saturate", "--coder-source", "human", "--seed", "1", "--regimes", "unique,themes"],
        EXIT_USAGE,
        "error: --regimes themes requires --themes",
    ),
    "bootstrap-empty-order": (
        ["saturate", "--coder-source", "human", "--seed", "1", "--bootstrap", "--iterations", "5",
         "--order", "{tmp}/manifest-empty.csv"],
        EXIT_DATA,
        "{tmp}/manifest-empty.csv: --bootstrap needs at least 2 documents, got 0",
    ),
    "bootstrap-one-document-order": (
        ["saturate", "--coder-source", "human", "--seed", "1", "--bootstrap", "--iterations", "5",
         "--order", "{tmp}/manifest-one.csv"],
        EXIT_DATA,
        "{tmp}/manifest-one.csv: --bootstrap needs at least 2 documents, got 1",
    ),
    "bootstrap-one-document": (
        ["saturate", "--coder-source", "human", "--seed", "1", "--bootstrap", "--iterations", "5",
         "--docs", "{tmp}/one-doc.jsonl", "--codes", "{tmp}/codes-d0.csv"],
        EXIT_DATA,
        "{tmp}/one-doc.jsonl: --bootstrap needs at least 2 documents, got 1",
    ),
    "positions-window-zero": (
        ["saturate", "--coder-source", "human", "--seed", "1", "--positions",
         "--positions-window", "0"],
        EXIT_USAGE,
        "argument --positions-window: must be >= 1, got 0",
    ),
    "unblinding-unknown-arm": (
        ["analyze", "--outcome-source", "human", "--manifest", "{tmp}/manifest.csv",
         "--unblinding", "{tmp}/unblinding-typo.csv"],
        EXIT_DATA,
        "{tmp}/unblinding-typo.csv:3: arm must be treatment, control or overlap, got 'treatmnet'",
    ),
    "unblinding-repeated-id": (
        ["analyze", "--outcome-source", "human", "--manifest", "{tmp}/manifest.csv",
         "--unblinding", "{tmp}/unblinding-repeat.csv"],
        EXIT_DATA,
        "{tmp}/unblinding-repeat.csv:3: unblinding repeats document 'doc-00'",
    ),
    "budget-chars-zero": (
        ["select", "--coder-source", "human", "--seed", "1", "--budget-chars", "0"],
        EXIT_USAGE,
        "argument --budget-chars: must be >= 1, got 0",
    ),
    "config-budget-chars-zero": (
        ["select", "--coder-source", "human", "--seed", "1", "--config", "{tmp}/budget0.toml"],
        EXIT_USAGE,
        "argument --budget-chars: must be >= 1, got 0",
    ),
    "budget-docs-negative": (
        ["select", "--coder-source", "human", "--seed", "1", "--budget-docs", "-2"],
        EXIT_USAGE,
        "argument --budget-docs: must be >= 1, got -2",
    ),
    "control-docs-negative": (
        ["select", "--coder-source", "human", "--seed", "1", "--control-docs", "-1"],
        EXIT_USAGE,
        "argument --control-docs: must be >= 0, got -1",
    ),
    "unblinding-missing-document": (
        ["analyze", "--outcome-source", "human", "--manifest", "{tmp}/manifest.csv",
         "--unblinding", "{tmp}/unblinding.csv"],
        EXIT_DATA,
        "{tmp}/unblinding.csv: no row for manifest document 'doc-01'",
    ),
    "experiment-repeated-id": (
        ["analyze", "--outcome-source", "human", "--manifest", "{tmp}/manifest.csv",
         "--unblinding", "{tmp}/unblinding.csv", "--experiment", "{tmp}/experiment-repeat.csv"],
        EXIT_DATA,
        "{tmp}/experiment-repeat.csv:3: experiment repeats document 'doc-00'",
    ),
    "seed-negative-code": (["code", "--seed", "-3"], EXIT_USAGE, _NEGATIVE_SEED),
    "seed-negative-select": (
        ["select", "--coder-source", "human", "--seed", "-3"], EXIT_USAGE, _NEGATIVE_SEED,
    ),
    "seed-negative-saturate-bootstrap": (
        ["saturate", "--coder-source", "human", "--bootstrap", "--seed", "-3"],
        EXIT_USAGE,
        _NEGATIVE_SEED,
    ),
    "seed-negative-sweep": (
        ["sweep", "--coder-source", "human", "--quadratic", "0,1,0", "--seed", "-3"],
        EXIT_USAGE,
        _NEGATIVE_SEED,
    ),
    "seed-negative-in-config": (
        ["select", "--coder-source", "human", "--config", "{tmp}/seed-negative.toml"],
        EXIT_USAGE,
        _NEGATIVE_SEED,
    ),
    "document-id-lone-surrogate": (
        ["select", "--coder-source", "human", "--seed", "1", "--budget-docs", "2",
         "--control-docs", "0", "--docs", "{tmp}/docs-surrogate.jsonl",
         "--codes", "{tmp}/codes-d0.csv"],
        EXIT_DATA,
        "{tmp}/docs-surrogate.jsonl:2: document id 'd1\\ud800' holds a lone surrogate",
    ),
    "code-document-without-id": (
        ["code", "--seed", "1", "--docs", "{tmp}/docs-no-id.jsonl"],
        EXIT_DATA,
        "{tmp}/docs-no-id.jsonl:2: missing document id",
    ),
    "code-document-id-lone-surrogate": (
        ["code", "--seed", "1", "--docs", "{tmp}/docs-surrogate-text.jsonl"],
        EXIT_DATA,
        "{tmp}/docs-surrogate-text.jsonl:2: document id 'd1\\ud800' holds a lone surrogate",
    ),
    "code-text-length-disagrees": (
        ["code", "--seed", "1", "--docs", "{tmp}/docs-length-disagrees.jsonl"],
        EXIT_DATA,
        "{tmp}/docs-length-disagrees.jsonl:1: document 'd0': text_length 5 != len(text) 300",
    ),
    "ingest-text-not-a-string": (
        ["ingest", "--docs", "{tmp}/docs-text-int.jsonl"],
        EXIT_DATA,
        "{tmp}/docs-text-int.jsonl:1: document 'd0': text must be a string",
    ),
    "ingest-document-id-null": (
        ["ingest", "--docs", "{tmp}/docs-id-null.jsonl"],
        EXIT_DATA,
        "{tmp}/docs-id-null.jsonl:2: document id None is not a string",
    ),
    "code-document-id-false": (
        ["code", "--seed", "1", "--docs", "{tmp}/docs-id-false.jsonl"],
        EXIT_DATA,
        "{tmp}/docs-id-false.jsonl:1: document id False is not a string",
    ),
    "sweep-no-map": (
        ["sweep", "--coder-source", "human", "--seed", "1"],
        EXIT_USAGE,
        "one of the arguments --quadratic --pairs is required",
    ),
    "sweep-both-maps": (
        ["sweep", "--coder-source", "human", "--seed", "1", "--quadratic", "0,1,0",
         "--pairs", "{tmp}/pairs.csv"],
        EXIT_USAGE,
        "argument --pairs: not allowed with argument --quadratic",
    ),
    "code-remote-no-url": (
        ["code", "--seed", "1", "--backend", "remote", "--model", "m"],
        EXIT_USAGE,
        "error: remote backend requires --url and --model",
    ),
    "config-bootstrap-yes": (
        ["saturate", "--coder-source", "human", "--config", "{tmp}/bootstrap-yes.toml"],
        EXIT_USAGE,
        "error: config key bootstrap must be true or false, got 'yes'",
    ),
    "config-unknown-key": (
        ["saturate", "--coder-source", "human", "--config", "{tmp}/bootstap.toml"],
        EXIT_USAGE,
        "error: config key bootstap is no flag of any command",
    ),
    "sweep-budget-docs-negative": (
        ["sweep", "--coder-source", "human", "--seed", "1", "--quadratic", "0,1,0",
         "--budget-docs", "-2"],
        EXIT_USAGE,
        "argument --budget-docs: must be >= 1, got -2",
    ),
}


@pytest.mark.parametrize("case", sorted(_BAD_INPUTS))
def test_bad_input_exits_with_documented_code(corpus_dir, tmp_path, capsys, case):
    for name, text in _CASE_FILES.items():
        (tmp_path / name).write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    argv, expected, message = _BAD_INPUTS[case]
    command, *rest = [a.format(tmp=tmp_path) for a in argv]
    capsys.readouterr()
    codes = [] if command == "code" else ["--codes", corpus_dir / "codes.csv"]  # code has none
    try:
        code = run(
            command, "--docs", corpus_dir / "documents.jsonl", *codes,
            "--out", tmp_path / "out", *rest,
        )
    except SystemExit as exc:  # argparse rejects bad arguments by exiting
        code = exc.code
    assert code == expected
    err = capsys.readouterr().err
    assert message.format(tmp=tmp_path) in err
    assert "Traceback" not in err
    if expected == EXIT_USAGE:  # rejected while parsing, before any output
        assert not (tmp_path / "out").exists()


def test_a_usage_error_is_refused_before_any_input_is_read(tmp_path, capsys):
    """The flag rules are checked before ``--docs`` is opened: a remote
    backend without ``--url`` exits 2, not 3 for the missing file."""
    capsys.readouterr()
    assert run("code", "--docs", tmp_path / "missing.jsonl", "--seed", 1, "--backend", "remote",
               "--out", tmp_path / "out") == EXIT_USAGE
    assert capsys.readouterr().err == "error: remote backend requires --url and --model\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("case", sorted(_BAD_INPUTS))
def test_bad_input_with_every_load_cached(corpus_dir, tmp_path, capsys, monkeypatch, case):
    """With every collection cached, each case exits and reports as uncached,
    also when run again, and a collection that fails to load caches nothing."""
    monkeypatch.setattr(ingest, "_CACHE_FLOOR", 0)
    for _ in range(2):  # the second run may rebuild the collection from the cache
        test_bad_input_exits_with_documented_code(corpus_dir, tmp_path, capsys, case)
    _, expected, message = _BAD_INPUTS[case]
    if expected == EXIT_USAGE or message.startswith(("{tmp}/docs-", "{tmp}/codes-")):
        assert not list(tmp_path.rglob(".fecund-cache"))


# documents.jsonl lines for `code`: objects with ids, texts and lengths of
# any JSON type, lines that are not objects, and bytes that are not UTF-8
_json_values = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 10**4), st.floats(allow_nan=False),
    st.lists(st.integers(0, 3), max_size=2),
)
_texts = st.text(st.sampled_from("ab \n\r\u0000\ud800é難"), max_size=300)
_documents = st.builds(
    lambda doc_id, text, length, keys: {
        k: v for k, v in {"id": doc_id, "text": text, "text_length": length}.items() if k in keys
    },
    st.one_of(st.text(st.sampled_from("d0\u0000\ud800\r"), max_size=4), _json_values),
    st.one_of(_texts, _json_values),
    st.one_of(st.integers(0, 400), _json_values, st.text(max_size=3)),
    st.sets(st.sampled_from(["id", "text", "text_length"])),
)
_good_documents = st.builds(
    lambda i, text: {"id": f"d{i}", "text": text, "text_length": len(text)},
    st.integers(0, 9), _texts,
)
_bad_lines = st.one_of(
    st.tuples(_documents, st.booleans()).map(
        # with ensure_ascii a lone surrogate is an escape; without it, invalid UTF-8
        lambda d: json.dumps(d[0], ensure_ascii=d[1]).encode("utf-8", "surrogatepass")
    ),
    st.sampled_from([b"", b"[1, 2]", b'"text"', b"42", b"null", b'{"id": "d0"', b"{}",
                     b"\xff\xfe", b'{"id": "d\xe9"}', b"\x00"]),
    st.binary(max_size=12),
)


def _documents_file(bom, good, bad, at, newline, last):
    lines = [json.dumps(d).encode() for d in good]
    return bom + newline.join(lines[:at] + bad + lines[at:]) + last


# well-formed documents, now and then with one bad line among them
_documents_files = st.builds(
    _documents_file,
    st.sampled_from([b"", b"", b"", b"\xef\xbb\xbf"]),
    st.lists(_good_documents, max_size=4, unique_by=lambda d: d["id"]),
    st.one_of(st.just([]), _bad_lines.map(lambda line: [line])),
    st.integers(0, 4),
    st.sampled_from([b"\n", b"\r\n"]),
    st.sampled_from([b"", b"\n", b"\r\n"]),
)


@given(data=_documents_files)
@example(data=b'\xef\xbb\xbf{"id": "d0", "text": "a b", "text_length": 3}\r\n')
@example(data=b'{"id": "d0", "text": "\\u0000 aid", "text_length": 5}\n')
@example(data=b'{"id": "d0", "text": "\xff"}\n[1]\n')
@settings(max_examples=200, deadline=None)
def test_code_exits_with_a_documented_code_on_any_documents_file(tmp_path_factory, data):
    """`code` reads any documents.jsonl bytes to a documented exit code,
    never a traceback."""
    root = tmp_path_factory.mktemp("code-fuzz")
    (root / "documents.jsonl").write_bytes(data)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = run("code", "--docs", root / "documents.jsonl", "--seed", "1",
                   "--min-passage-len", "1", "--out", root / "out")
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_IO, EXIT_DATA, EXIT_REMOTE)
    assert "Traceback" not in err.getvalue()


def test_a_carriage_return_in_an_id_survives_the_manifest(tmp_path):
    """select quotes an id holding a bare \\r, so saturate reads the manifest back."""
    docs, codes = tmp_path / "documents.jsonl", tmp_path / "codes.csv"
    docs.write_text("".join(
        json.dumps({"id": doc_id, "text_length": 100}) + "\n" for doc_id in ("d0\rx", "d1", "d2")
    ), encoding="utf-8")
    codes.write_bytes(b'doc_id,coder_source,code_label\n"d0\rx",human,a\nd1,human,b\nd2,human,a\n')
    data = ["--docs", docs, "--codes", codes, "--coder-source", "human"]
    assert run("select", *data, "--seed", 1, "--budget-docs", 2, "--control-docs", 1,
               "--out", tmp_path / "sel") == EXIT_OK
    manifest = tmp_path / "sel" / "manifest.csv"
    assert "d0\rx" in [row["doc_id"] for row in _read_csv(manifest)]
    assert run("saturate", *data, "--order", manifest, "--out", tmp_path / "sat") == EXIT_OK


def test_saturate_plots_an_empty_order(corpus_dir, tmp_path):
    """A budget no document fits gives a header-only manifest; saturate on it
    writes a header-only curve and draws empty axes."""
    data = ["--docs", corpus_dir / "documents.jsonl", "--codes", corpus_dir / "codes.csv",
            "--coder-source", "human"]
    assert run("select", *data, "--seed", 1, "--budget-chars", 1, "--control-docs", 0,
               "--out", tmp_path / "sel") == EXIT_OK
    manifest = tmp_path / "sel" / "manifest.csv"
    assert manifest.read_text(encoding="utf-8") == "reading_index,doc_id\n"
    out = tmp_path / "sat"
    assert run("saturate", *data, "--order", manifest, "--plot", "--out", out) == EXIT_OK
    curve = (out / "curve_unique.csv").read_text(encoding="utf-8")
    assert curve == "step,doc_id,cumulative_chars,cumulative_count\n"
    assert '<polyline points=""' in (out / "curve_unique.svg").read_text(encoding="utf-8")


# generator flag out of range -> the message argparse prints; each exits 2
_BAD_GENERATOR_FLAGS = {
    "code-vocab-size-zero": (
        ["code", "--vocab-size", "0"], "argument --vocab-size: must be >= 1, got 0"),
    "code-codes-per-kchar-negative": (
        ["code", "--codes-per-kchar", "-1"],
        "argument --codes-per-kchar: must be a finite number >= 0, got -1"),
    "synth-seed-negative": (["synth", "--seed", "-3"], _NEGATIVE_SEED),
    "synth-n-docs-negative": (
        ["synth", "--n-docs", "-3"], "argument --n-docs: must be >= 0, got -3"),
    "synth-mean-len-negative": (
        ["synth", "--mean-len", "-5"], "argument --mean-len: must be >= 1, got -5"),
    "synth-mean-len-zero": (
        ["synth", "--mean-len", "0"], "argument --mean-len: must be >= 1, got 0"),
    "synth-codes-per-kchar-negative": (
        ["synth", "--codes-per-kchar", "-1"],
        "argument --codes-per-kchar: must be a finite number >= 0, got -1"),
    "synth-codes-per-kchar-nan": (
        ["synth", "--codes-per-kchar", "nan"],
        "argument --codes-per-kchar: must be a finite number >= 0, got nan"),
    "synth-codes-per-kchar-not-a-number": (
        ["synth", "--codes-per-kchar", "x"],
        "argument --codes-per-kchar: invalid float value: 'x'"),
    "synth-themes-count-negative": (
        ["synth", "--themes-count", "-1"], "argument --themes-count: must be >= 0, got -1"),
    "synth-zipf-nan": (["synth", "--zipf", "nan"], "argument --zipf: must be a finite number, got nan"),
    "synth-zipf-inf": (["synth", "--zipf=-inf"], "argument --zipf: must be a finite number, got -inf"),
    "synth-zipf-nan-in-config": (
        ["synth", "--config", "{tmp}/zipf-nan.toml"], "argument --zipf: must be a finite number, got nan"),
    "code-zipf-nan": (["code", "--zipf", "nan"], "argument --zipf: must be a finite number, got nan"),
    "code-zipf-not-a-number": (["code", "--zipf", "x"], "argument --zipf: invalid float value: 'x'"),
    "code-zipf-nan-in-config": (
        ["code", "--config", "{tmp}/zipf-nan.toml"], "argument --zipf: must be a finite number, got nan"),
    "code-retries-zero": (["code", "--retries", "0"], "argument --retries: must be >= 1, got 0"),
    "code-retries-negative": (["code", "--retries", "-1"], "argument --retries: must be >= 1, got -1"),
    "code-retries-zero-in-config": (
        ["code", "--config", "{tmp}/retries0.toml"], "argument --retries: must be >= 1, got 0"),
    "code-max-in-flight-zero": (
        ["code", "--max-in-flight", "0"], "argument --max-in-flight: must be >= 1, got 0"),
    "code-min-passage-len-negative": (
        ["code", "--min-passage-len", "-5"], "argument --min-passage-len: must be >= 0, got -5"),
    "code-timeout-negative": (
        ["code", "--timeout", "-1"], "argument --timeout: must be a finite number > 0, got -1"),
    "code-timeout-zero": (
        ["code", "--timeout", "0"], "argument --timeout: must be a finite number > 0, got 0"),
    "code-timeout-nan": (
        ["code", "--timeout", "nan"], "argument --timeout: must be a finite number > 0, got nan"),
    "code-timeout-inf": (
        ["code", "--timeout", "inf"], "argument --timeout: must be a finite number > 0, got inf"),
    "code-timeout-nan-in-config": (
        ["code", "--config", "{tmp}/timeout-nan.toml"],
        "argument --timeout: must be a finite number > 0, got nan"),
    "code-temperature-nan": (
        ["code", "--temperature", "nan"],
        "argument --temperature: must be a finite number >= 0, got nan"),
    "code-temperature-negative": (
        ["code", "--temperature", "-0.5"],
        "argument --temperature: must be a finite number >= 0, got -0.5"),
    "code-temperature-nan-in-config": (
        ["code", "--config", "{tmp}/temperature-nan.toml"],
        "argument --temperature: must be a finite number >= 0, got nan"),
}


@pytest.mark.parametrize("case", sorted(_BAD_GENERATOR_FLAGS))
def test_generator_flags_are_checked_while_parsing(tmp_path, capsys, case):
    (tmp_path / "zipf-nan.toml").write_text("zipf = nan\n", encoding="utf-8")
    (tmp_path / "retries0.toml").write_text("retries = 0\n", encoding="utf-8")
    (tmp_path / "timeout-nan.toml").write_text("timeout = nan\n", encoding="utf-8")
    (tmp_path / "temperature-nan.toml").write_text("temperature = nan\n", encoding="utf-8")
    (command, *flags), message = _BAD_GENERATOR_FLAGS[case]
    flags = [flag.format(tmp=tmp_path) for flag in flags]
    docs = ["--docs", tmp_path / "documents.jsonl"] if command == "code" else []
    with pytest.raises(SystemExit) as exc:
        run(command, *docs, "--out", tmp_path / "out", "--seed", 1, *flags)
    assert exc.value.code == EXIT_USAGE
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_synth_accepts_zero_counts(tmp_path):
    out = tmp_path / "out"
    assert run("synth", "--out", out, "--seed", 1, "--n-docs", 0, "--themes-count", 0,
               "--codes-per-kchar", 0) == EXIT_OK
    assert (out / "documents.jsonl").read_text() == ""
    assert (out / "codes.csv").read_text() == "doc_id,coder_source,code_label,position\n"
    assert not (out / "themes.csv").exists()


def test_synth_rejects_an_empty_vocabulary(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run("synth", "--out", tmp_path / "corpus", "--seed", 1, "--n-codes", 0)
    assert exc.value.code == EXIT_USAGE
    assert "argument --n-codes: must be >= 1, got 0" in capsys.readouterr().err
    assert not (tmp_path / "corpus").exists()


def test_code_records_unreadable_reply_per_passage(corpus_dir, tmp_path, monkeypatch, capsys):
    replies = iter(["not a dictionary"])

    def transport(url, headers, body, timeout):
        content = next(replies, '{"1. Theme": "Aid access", "4. Valence": "N/A"}')
        return 200, json.dumps({"choices": [{"message": {"content": content}}]})

    monkeypatch.setattr(
        cli, "RemoteCoder", lambda config: coder.RemoteCoder(config, transport=transport)
    )
    out = tmp_path / "coded"
    code = run(
        "code", "--docs", corpus_dir / "documents.jsonl", "--backend", "remote",
        "--url", "http://example.invalid/v1/chat", "--model", "m", "--max-in-flight", 1,
        "--seed", 5, "--out", out,
    )
    assert code == EXIT_REMOTE
    lines = (out / "coding_errors.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "passage_id,error"
    assert lines[1:] == [
        "doc-00:0000,ResponseParseError: no dictionary-shaped region in reply: not a dictionary"
    ]
    assert len(_read_csv(out / "ai_codes.csv")) > 1  # every other passage was coded
    assert "Traceback" not in capsys.readouterr().err


# every key the chain reads, so this one reply serves every step
_EVERY_KEY = json.dumps({
    "1. disclaimer?": False, "2. caption?": False, "Body?": True,
    "1. Refugees?": "Yes.", "2. Malaysia?": "Yes.", "1. Relevant?": "Yes.", "2. Why Not?": None,
    "1. Theme": "Camp access", "2. Whose Attitude?": "NGOs", "3. Target": "UNHCR",
    "4. Valence": "N/A",
})
# a passage whose text holds the marker gets this status and body at every step
_HTTP_MARKS = {
    "mark429": (429, "slow down"),
    "mark500": (500, "server down"),
    "mark400": (400, "bad request body"),
    "markjunk": (200, "<html>not json</html>"),
}


def test_code_over_http_records_each_refused_passage(tmp_path, monkeypatch, capsys):
    """``code --backend remote`` through the real urllib transport, against a
    loopback chat-completion server: a 429, a 500, a 400 with a body and a
    200 that is not JSON each cost only their passage, and every request
    carries the bearer token."""
    import http.server
    import threading

    seen = []

    class Handler(http.server.BaseHTTPRequestHandler):
        def do_POST(self):
            request = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
            prompt = request["messages"][0]["content"]
            seen.append((self.headers["Authorization"], request["model"]))
            mark = next((m for m in _HTTP_MARKS if m in prompt), None)
            status, body = _HTTP_MARKS[mark] if mark else (
                200, json.dumps({"choices": [{"message": {"content": _EVERY_KEY}}]}))
            data = body.encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def log_message(self, *args):
            pass

    for name in ("http_proxy", "https_proxy", "all_proxy", "no_proxy"):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)
    monkeypatch.setenv("FECUND_TEST_TOKEN", "s3cret")
    names = ["plain-a", *_HTTP_MARKS, "plain-b", "plain-c"]
    docs = tmp_path / "documents.jsonl"
    docs.write_text("".join(
        json.dumps({"id": name, "text": f"A passage about {name} and aid. " + "x" * 150}) + "\n"
        for name in names
    ), encoding="utf-8")
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        out = tmp_path / "coded"
        code = run(
            "code", "--docs", docs, "--backend", "remote",
            "--url", f"http://127.0.0.1:{server.server_address[1]}/v1/chat/completions",
            "--model", "m", "--token-env", "FECUND_TEST_TOKEN", "--retries", 1,
            "--max-in-flight", 2, "--seed", 1, "--out", out,
        )
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive() and code == EXIT_REMOTE
    rows = _read_csv(out / "ai_codes.csv")
    assert [row["doc_id"] for row in rows] == ["plain-a", "plain-b", "plain-c"]
    assert {row["code_label"] for row in rows} == {"Camp access"}
    errors = {row["passage_id"]: row["error"] for row in _read_csv(out / "coding_errors.csv")}
    assert errors == {
        "mark429:0000": "RateLimitError: rate/budget limit (HTTP 429)",
        "mark500:0000": "TransportError: server error (HTTP 500)",
        "mark400:0000": "TransportError: HTTP 400: bad request body",
        "markjunk:0000": "TransportError: malformed completion payload: <html>not json</html>",
    }
    # five socratic steps per coded passage, one refused call per marked one
    assert len(seen) == 5 * 3 + len(_HTTP_MARKS)
    assert set(seen) == {("Bearer s3cret", "m")}
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("case,expected", [("ok", EXIT_OK), ("failed-passages", EXIT_REMOTE),
                                           ("missing", EXIT_IO), ("corrupt", EXIT_DATA)])
def test_run_meta_is_written_once_the_command_returns(corpus_dir, tmp_path, monkeypatch,
                                                      case, expected):
    """A run that finishes, a code batch with failed passages among them,
    gets its run_meta.json; one that fails on an input (exit 3 or 4) leaves
    no ``--out`` that it made."""
    bad = tmp_path / "bad.jsonl"
    bad.write_text("{not json}\n", encoding="utf-8")
    unreadable = json.dumps({"choices": [{"message": {"content": "not a dictionary"}}]})
    monkeypatch.setattr(cli, "RemoteCoder", lambda config: coder.RemoteCoder(
        config, transport=lambda url, headers, body, timeout: (200, unreadable)))
    out = tmp_path / "out"
    argv = {
        "ok": ["ingest", "--docs", corpus_dir / "documents.jsonl"],
        "failed-passages": ["code", "--docs", corpus_dir / "documents.jsonl", "--seed", 5,
                            "--backend", "remote", "--url", "http://example.invalid/v1/chat",
                            "--model", "m", "--max-in-flight", 1],
        "missing": ["ingest", "--docs", tmp_path / "absent.jsonl"],
        "corrupt": ["ingest", "--docs", bad],
    }[case]
    assert run(*argv, "--out", out) == expected
    if expected in (EXIT_OK, EXIT_REMOTE):
        meta = json.loads((out / "run_meta.json").read_text(encoding="utf-8"))
        assert meta["command"] == argv[0] and meta["args"]["out"] == str(out)
    else:
        assert not out.exists()


def test_a_failed_synth_leaves_no_out_it_made(tmp_path, capsys):
    """``main`` removes each directory of ``--out`` that it made, from the
    deepest up, when the command fails."""
    capsys.readouterr()
    assert run("synth", "--seed", 1, "--n-docs", 3, "--mean-len", 4503599627370496,
               "--codes-per-kchar", 0, "--out", tmp_path / "od/a/b") == EXIT_DATA
    assert "the total length reaches 2**53" in capsys.readouterr().err
    assert not (tmp_path / "od").exists()


def _saturate_without_theme_map(corpus_dir, tmp_path):
    themes = tmp_path / "themes.csv"
    themes.write_text("code_label,theme_label\n", encoding="utf-8")  # the header alone
    return ["saturate", "--docs", corpus_dir / "documents.jsonl", "--codes",
            corpus_dir / "codes.csv", "--themes", themes, "--coder-source", "human",
            "--regimes", "themes"]


def test_a_failed_saturate_leaves_no_out_it_made(corpus_dir, tmp_path):
    assert run(*_saturate_without_theme_map(corpus_dir, tmp_path),
               "--out", tmp_path / "st") == EXIT_DATA
    assert not (tmp_path / "st").exists()


def test_a_failed_command_keeps_what_was_there(corpus_dir, tmp_path):
    """A directory that existed before the run stays, empty or not, and so
    does every file; only the directories the run made go."""
    saturate = _saturate_without_theme_map(corpus_dir, tmp_path)
    kept = tmp_path / "kept"
    (kept / "empty").mkdir(parents=True)
    (kept / "note.txt").write_text("mine\n", encoding="utf-8")
    assert run(*saturate, "--out", kept / "empty") == EXIT_DATA
    assert run(*saturate, "--out", kept / "new/deeper") == EXIT_DATA
    assert run(*saturate, "--out", kept) == EXIT_DATA
    assert sorted(p.name for p in kept.rglob("*")) == ["empty", "note.txt"]
    assert (kept / "note.txt").read_text(encoding="utf-8") == "mine\n"


@pytest.mark.parametrize(
    "bad, recorded",
    [
        ("{'1. Theme': 'bad \\ud83d'}", "{'1. Theme': 'bad \\ud83d'}"),  # a Python escape
        ('{"1. Theme": "bad \ud83d"}', '{"1. Theme": "bad \\ud83d"}'),  # the character itself
    ],
    ids=["escaped", "character"],
)
def test_code_records_lone_surrogate_per_passage(
    corpus_dir, tmp_path, monkeypatch, capsys, bad, recorded
):
    good = '{"1. Theme": "Aid access", "4. Valence": "N/A"}'
    replies = iter([good] * 4 + [bad])  # the first passage's last chain step

    def transport(url, headers, body, timeout):
        content = next(replies, good)
        return 200, json.dumps({"choices": [{"message": {"content": content}}]})

    monkeypatch.setattr(
        cli, "RemoteCoder", lambda config: coder.RemoteCoder(config, transport=transport)
    )
    out = tmp_path / "coded"
    code = run(
        "code", "--docs", corpus_dir / "documents.jsonl", "--backend", "remote",
        "--url", "http://example.invalid/v1/chat", "--model", "m", "--max-in-flight", 1,
        "--seed", 5, "--out", out,
    )
    assert code == EXIT_REMOTE
    assert _read_csv(out / "coding_errors.csv") == [
        {"passage_id": "doc-00:0000",
         "error": f"ResponseParseError: reply holds a lone surrogate: {recorded}"}
    ]
    stdout = capsys.readouterr().out
    n_passages = int(stdout.split("coded ")[1].split(" passages")[0])
    codes = _read_csv(out / "ai_codes.csv")
    assert len(codes) == n_passages - 1  # every other passage was coded
    assert {row["code_label"] for row in codes} == {"Aid access"}
    assert (out / "run_meta.json").exists()


def test_cli_import_loads_no_scipy_or_http(corpus_dir, tmp_path):
    """Start-up cost guard: importing the CLI must not load scipy or the
    HTTP stack, and analyze computes its p-values without scipy."""
    sel = tmp_path / "sel"
    _select_human(corpus_dir, sel)
    script = textwrap.dedent(
        """\
        import sys
        import fecund.cli
        print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"
                     or m in ("urllib.request", "http.client")))
        code = fecund.cli.main(sys.argv[1:])
        print(code, "scipy.special" in sys.modules, "scipy.stats" in sys.modules)
        """
    )
    proc = run_python(script, *_analyze_argv(corpus_dir, sel, tmp_path / "ana"))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "[]"
    assert lines[-1] == "0 False False"
    assert (tmp_path / "ana" / "treatment_table.csv").exists()


def test_every_command_runs_without_scipy(corpus_dir, tmp_path):
    """scipy is only a test dependency: with every scipy import refused,
    each command still exits 0."""
    script = textwrap.dedent(
        """\
        import json, sys

        class RefuseScipy:
            def find_spec(self, name, path=None, target=None):
                if name.split(".")[0] == "scipy":
                    raise ImportError(f"scipy is refused here: {name}")

        sys.meta_path.insert(0, RefuseScipy())
        import fecund.cli
        argvs = json.loads(sys.argv[1])
        print(json.dumps({command: fecund.cli.main(argv) for command, argv in argvs.items()}))
        """
    )
    argvs = _every_command(corpus_dir, tmp_path)
    proc = run_python(script, json.dumps(argvs))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == dict.fromkeys(argvs, EXIT_OK)


def test_treatment_table_csv_holds_plain_floats(corpus_dir, tmp_path):
    """Every number cell reads back with ``float()`` (or is empty): a numpy
    scalar would be written as ``np.float64(...)``."""
    argv = _every_command(corpus_dir, tmp_path)["analyze"]
    assert main(argv) == EXIT_OK
    rows = _read_csv(tmp_path / "analyze" / "treatment_table.csv")
    assert {r["spec"] for r in rows} >= {"1", "4", "5"}
    for row in rows:
        for column in ("coef", "se", "t", "p", "r2", "f_stat"):
            cell = row[column]
            assert not cell.startswith("np.")
            if cell:
                float(cell)


def _every_command(corpus_dir, tmp_path):
    """One argument list per command, each writing to ``tmp_path / command``;
    saturate and sweep plot, and analyze fits the residual check."""
    sel = tmp_path / "sel"
    _select_human(corpus_dir, sel)
    ids = [r["doc_id"] for r in _read_csv(sel / "manifest.csv")]
    experiment = tmp_path / "experiment.csv"
    experiment.write_text("doc_id,round,old_random\n" + "".join(
        f"{d},{i % 2},false\n" for i, d in enumerate(ids)))
    docs = ["--docs", corpus_dir / "documents.jsonl"]
    data = [*docs, "--codes", corpus_dir / "codes.csv", "--coder-source", "human"]
    argvs = {
        "synth": ["synth", "--seed", 1, "--n-docs", 5, "--with-text"],
        "ingest": ["ingest", *docs, "--codes", corpus_dir / "codes.csv"],
        "code": ["code", *docs, "--backend", "mock", "--seed", 1],
        "select": ["select", *data, "--seed", 1, "--budget-docs", 5, "--control-docs", 5],
        "saturate": ["saturate", *data, "--themes", corpus_dir / "themes.csv", "--order",
                     sel / "manifest.csv", "--regimes", "unique,themes", "--bootstrap",
                     "--iterations", 20, "--seed", 1, "--plot"],
        "analyze": ["analyze", *docs, "--codes", corpus_dir / "codes.csv", "--manifest",
                    sel / "manifest.csv", "--unblinding", sel / "unblinding.csv",
                    "--experiment", experiment, "--outcome-source", "human",
                    "--density-source", "human"],
        "sweep": ["sweep", *data, "--seed", 1, "--sizes", "10,30", "--replicates", 2,
                  "--budget-docs", 5, "--quadratic", "0,1,0", "--plot"],
    }
    return {c: [str(a) for a in (*argv, "--out", tmp_path / c)] for c, argv in argvs.items()}


# The layers beyond corpus, errors and ingest that each command loads. The
# mock coder draws from synthetic's Zipf weights, and stats imports selection.
_COMMAND_LAYERS = {
    "synth": ["synthetic"],
    "ingest": [],
    "code": ["coder", "synthetic"],
    "select": ["selection"],
    "saturate": ["saturation", "svgplot"],
    "analyze": ["selection", "stats"],
    "sweep": ["selection", "stats", "svgplot"],
}


@pytest.mark.parametrize("command", sorted(_COMMAND_LAYERS))
def test_command_loads_only_its_layers(corpus_dir, tmp_path, command):
    """Start-up cost guard: importing the package or the CLI loads no layer
    past corpus, errors and ingest; a command then loads exactly its own."""
    script = textwrap.dedent(
        """\
        import json, sys
        layers = ("coder", "saturation", "selection", "stats", "svgplot", "synthetic")
        def loaded():
            return [layer for layer in layers if "fecund." + layer in sys.modules]
        import fecund
        print(json.dumps(loaded()))
        import fecund.cli
        print(json.dumps(loaded()))
        code = fecund.cli.main(sys.argv[1:])
        scipy = sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")
        print(json.dumps([code, loaded(), "concurrent.futures" in sys.modules, scipy]))
        """
    )
    proc = run_python(script, *_every_command(corpus_dir, tmp_path)[command])
    assert proc.returncode == 0, proc.stderr
    lines = [json.loads(line) for line in proc.stdout.splitlines()[:2]]
    code, layers, threads, scipy = json.loads(proc.stdout.splitlines()[-1])
    assert lines == [[], []]
    assert (code, layers) == (EXIT_OK, _COMMAND_LAYERS[command])
    assert scipy == []  # scipy is a test oracle, never a run-time import
    if command == "code":  # only a remote run with --max-in-flight > 1 uses threads
        assert not threads


# Each name the benchmark's traced run replaces on fecund.cli, by the
# command that calls it: a command must call the module attribute, so the
# replacement sees (and times) every call.
_PATCHED_NAMES = {
    "synth": ("synth_articles", "synth_corpus"),
    "ingest": ("load_collection",),
    "code": ("load_articles", "split_passages", "code_passages"),
    "select": ("load_collection", "select_greedy", "select_random", "interleave_blinded"),
    "saturate": ("load_collection", "bootstrap_bands", "line_chart"),
    "analyze": ("load_collection", "fecundity", "treatment_table", "length_residual_check"),
    "sweep": ("load_collection", "superset_sweep", "line_chart"),
}


@pytest.mark.parametrize("command", sorted(_PATCHED_NAMES))
def test_command_calls_the_names_patched_onto_cli(corpus_dir, tmp_path, monkeypatch, command):
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in _PATCHED_NAMES[command]:
        monkeypatch.setattr(cli, name, counting(name, getattr(cli, name)))
    assert main(_every_command(corpus_dir, tmp_path)[command]) == EXIT_OK
    assert sorted(calls) == sorted(_PATCHED_NAMES[command])


def test_cli_names_resolve_to_their_layers():
    for layer, names in cli._LAZY.items():
        module = importlib.import_module(f"fecund.{layer}")
        for name in names:
            assert getattr(cli, name) is getattr(module, name)
    assert not hasattr(cli, "no_such_name")


def test_chain_choices_are_the_coder_chains():
    _, commands = cli.build_parser()
    (chain,) = [a for a in commands["code"]._actions if a.dest == "chain"]
    assert list(chain.choices) == sorted(coder.CHAINS)


@pytest.mark.filterwarnings("error")  # numpy's overflow warning fails the test
@pytest.mark.parametrize("command", ["synth", "code"])
def test_overflowing_zipf_exponent_exits_data(corpus_dir, tmp_path, capsys, command):
    argv = [command, "--seed", 1, "--zipf", -1000, "--out", tmp_path / "out"]
    if command == "code":
        argv += ["--docs", corpus_dir / "documents.jsonl"]
    capsys.readouterr()
    assert run(*argv) == EXIT_DATA
    err = capsys.readouterr().err
    vocabulary = 80 if command == "synth" else 200  # each command's default
    message = "Zipf exponent -1000 gives no finite, positive weights"
    assert f"{message} over a vocabulary of {vocabulary} codes" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("mean_len", [2**53, 9_000_000_000_000_000_000, 10**21])
def test_synth_refuses_a_mean_len_past_the_length_cap(tmp_path, capsys, mean_len):
    """A mean length of 2**53 or more exits 2 naming ``--mean-len``; with
    ``--codes-per-kchar 0`` no code instance would have been drawn."""
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run("synth", "--seed", 1, "--n-docs", 5, "--mean-len", mean_len,
            "--codes-per-kchar", 0, "--out", tmp_path / "out")
    assert exc.value.code == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"argument --mean-len: must be below 2**53, got {mean_len}" in err
    assert "Traceback" not in err and not (tmp_path / "out").exists()


@pytest.mark.parametrize("with_text", [False, True])
def test_synth_names_the_document_an_oversized_codes_per_kchar_breaks(tmp_path, capsys,
                                                                      with_text):
    """Every document's λ is past the cap on expected codes, so the first
    one drawn, doc-0, is named, and no code instance is drawn."""
    rng = np.random.default_rng(1)
    length = (len(synthetic.synth_articles(5, 1)[0].full_text) if with_text
              else max(100, int(rng.lognormal(np.log(2000), 0.5))))
    capsys.readouterr()
    argv = ["synth", "--seed", 1, "--n-docs", 5, "--codes-per-kchar", "1e300",
            "--out", tmp_path / "out"] + ["--with-text"] * with_text
    assert run(*argv) == EXIT_DATA
    err = capsys.readouterr().err
    flags = "--codes-per-kchar 1e+300" + ("" if with_text else ", --mean-len 2000")
    assert err == (
        f"error: {flags}: document doc-0 expects {1e300 * length / 1000.0:g} "
        "codes, past the cap of 1,000,000 per document\n"
    )


def test_synth_refuses_a_document_past_the_code_cap(tmp_path, capsys):
    """A mean length below the length cap can still ask for more code
    instances than one document may hold: exit 4 naming the document and
    its expected count, with no array of that size allocated."""
    capsys.readouterr()
    assert run("synth", "--seed", 1, "--n-docs", 2, "--mean-len", 2**52,
               "--out", tmp_path / "out") == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error: --codes-per-kchar 3, --mean-len 4503599627370496: "
                          "document doc-0 expects ")
    assert err.endswith(" codes, past the cap of 1,000,000 per document\n")
    assert not (tmp_path / "out" / "run_meta.json").exists()


@pytest.mark.parametrize("with_text", [False, True])
def test_synth_blames_mean_len_only_when_it_sets_the_lengths(tmp_path, capsys, with_text):
    """The default --codes-per-kchar times a huge --mean-len is past the cap, so
    the refusal names --mean-len; with --with-text the articles set the
    lengths, --mean-len is not read, and the run succeeds."""
    capsys.readouterr()
    argv = ["synth", "--seed", 1, "--n-docs", 2, "--mean-len", 2**52,
            "--out", tmp_path / "out"] + ["--with-text"] * with_text
    code = run(*argv)
    err = capsys.readouterr().err
    if with_text:
        assert code == EXIT_OK and err == ""
    else:
        assert code == EXIT_DATA
        lam = 3.0 * int(np.random.default_rng(1).lognormal(np.log(2**52), 0.5)) / 1000.0
        assert err == (f"error: --codes-per-kchar 3, --mean-len {2**52}: document doc-0 "
                       f"expects {lam:g} codes, past the cap of 1,000,000 per document\n")


def test_synth_refuses_a_total_length_that_ingest_would_refuse(tmp_path, capsys):
    """--mean-len is below 2**53, but the lengths drawn around it sum past it:
    the document at which the total reaches that cap is named and no file is
    written. With no codes per kchar, no Poisson count is drawn."""
    capsys.readouterr()
    assert run("synth", "--seed", 1, "--n-docs", 3, "--mean-len", 2**52,
               "--codes-per-kchar", 0, "--out", tmp_path / "out") == EXIT_DATA
    assert capsys.readouterr().err == (
        "error: document doc-1: the total length reaches 2**53, the cap below which every "
        "length and sum is exact in float64\n"
    )
    assert not list((tmp_path / "out").glob("*"))


def test_synth_corpus_names_the_first_document_past_the_code_cap():
    """The cap is checked per document, before that document's draw."""
    lengths = [1000, 2000 * synthetic.MAX_EXPECTED_CODES]  # λ = 1, then 2e6
    with pytest.raises(CodeCountError, match="^document doc-1 expects 2e[+]06 codes, past the cap"):
        synthetic.synth_corpus(2, seed=3, codes_per_kchar=1.0, lengths=lengths)


def test_select_and_sweep_leave_numpy_ma_unloaded(corpus_dir, tmp_path):
    """Start-up cost guard: ``np.unique`` without ``return_counts`` imports
    ``numpy.ma``, and so does ``np.percentile``; neither ``select``, ``sweep``
    nor a plotted bootstrap ``saturate`` may pay for it, nor for
    ``statistics``, which only ``saturate --positions`` needs."""
    data = ["--docs", corpus_dir / "documents.jsonl", "--codes", corpus_dir / "codes.csv",
            "--coder-source", "human", "--seed", 3]
    script = textwrap.dedent(
        """\
        import json, sys
        import fecund.cli
        for argv in json.loads(sys.argv[1]):
            code = fecund.cli.main(argv)
            print("loaded:", argv[0], code, "numpy.ma" in sys.modules, "statistics" in sys.modules)
        """
    )
    commands = [
        ["select", *data, "--budget-docs", 5, "--control-docs", 5, "--out", tmp_path / "sel"],
        ["sweep", *data, "--sizes", "10,30", "--replicates", 2, "--budget-docs", 5,
         "--quadratic", "0,1,0", "--out", tmp_path / "sw"],
        ["saturate", *data, "--bootstrap", "--iterations", 50, "--plot", "--out", tmp_path / "sat"],
    ]
    proc = run_python(script, json.dumps([[str(a) for a in c] for c in commands]))
    assert proc.returncode == 0, proc.stderr
    loaded = [line for line in proc.stdout.splitlines() if line.startswith("loaded:")]
    assert loaded == ["loaded: select 0 False False", "loaded: sweep 0 False False",
                      "loaded: saturate 0 False False"]


def test_mock_code_leaves_numpy_random_unloaded(corpus_dir, tmp_path):
    """The mock builds no generator, so ``code`` imports no ``numpy.random``
    beyond what ``import numpy`` loads (numpy 2 loads it lazily), and the
    process is about 5 MB smaller."""
    script = textwrap.dedent(
        """\
        import sys
        import numpy
        eager = "numpy.random" in sys.modules
        import fecund.cli
        code = fecund.cli.main(sys.argv[1:])
        print("loaded:", code, "numpy.random" in sys.modules and not eager)
        """
    )
    proc = run_python(script, "code", "--docs", corpus_dir / "documents.jsonl", "--seed", 3,
                      "--out", tmp_path / "coded")
    assert proc.returncode == 0, proc.stderr
    assert [line for line in proc.stdout.splitlines() if line.startswith("loaded:")] == [
        "loaded: 0 False"
    ]


def test_full_pipeline_and_analyze(corpus_dir, tmp_path):
    coded = tmp_path / "coded"
    assert (
        run("code", "--docs", corpus_dir / "documents.jsonl", "--backend", "mock",
            "--seed", 5, "--out", coded)
        == EXIT_OK
    )
    rows = _read_csv(coded / "ai_codes.csv")
    assert rows and all(r["coder_source"] == "ai" for r in rows)
    assert all(0.0 <= float(r["position"]) <= 1.0 for r in rows)

    sel = tmp_path / "sel"
    assert (
        run("select", "--docs", corpus_dir / "documents.jsonl", "--codes",
            coded / "ai_codes.csv", "--coder-source", "ai", "--seed", 5,
            "--budget-docs", 6, "--control-docs", 6, "--out", sel)
        == EXIT_OK
    )
    ana = tmp_path / "ana"
    assert (
        run("analyze", "--docs", corpus_dir / "documents.jsonl", "--codes",
            str(corpus_dir / "codes.csv") + "," + str(coded / "ai_codes.csv"),
            "--manifest", sel / "manifest.csv", "--unblinding", sel / "unblinding.csv",
            "--outcome-source", "human", "--density-source", "ai", "--out", ana)
        == EXIT_OK
    )
    table = (ana / "treatment_table.txt").read_text()
    assert "AI-selected" in table
    assert (ana / "treatment_table.csv").exists()
    assert (ana / "arm_summary.csv").exists()


def test_code_merges_into_collection(corpus_dir, tmp_path):
    coded = tmp_path / "coded"
    run("code", "--docs", corpus_dir / "documents.jsonl", "--backend", "mock",
        "--seed", 5, "--out", coded)
    docs, codebook = load_collection(
        corpus_dir / "documents.jsonl",
        [corpus_dir / "codes.csv", coded / "ai_codes.csv"],
    )
    assert len(docs.matrix("ai").codes)
    assert all(set(d.codes) == {"human", "ai"} for d in docs)


def test_loaded_commands_build_no_code_instances(tmp_path, monkeypatch):
    """synth writes its corpus from columns, and select, saturate, analyze and
    sweep work on the interned matrices of the loaded collection; none of them
    turns a row into a Document or a code row into a CodeInstance."""
    built = []
    for row_type in (CodeInstance, Document):
        monkeypatch.setattr(row_type, "__init__", lambda self, *args, **kwargs: built.append(self))
    corpus_dir = tmp_path / "corpus"
    assert run("synth", "--out", corpus_dir, "--seed", 5, "--n-docs", 30, "--with-text") == EXIT_OK
    data = ["--docs", corpus_dir / "documents.jsonl", "--codes", corpus_dir / "codes.csv",
            "--coder-source", "human", "--seed", 3]
    _select_human(corpus_dir, tmp_path / "sel")
    ids = [r["doc_id"] for r in _read_csv(tmp_path / "sel" / "manifest.csv")]
    experiment = tmp_path / "experiment.csv"
    experiment.write_text("doc_id,round,old_random\n" + "".join(
        f"{d},{i % 2},{str(i % 3 == 0).lower()}\n" for i, d in enumerate(ids)))
    assert run(*_analyze_argv(corpus_dir, tmp_path / "sel", tmp_path / "ana"), "--experiment",
               experiment, "--density-source", "human") == EXIT_OK
    assert run("saturate", *data, "--themes", corpus_dir / "themes.csv",
               "--order", tmp_path / "sel" / "manifest.csv", "--regimes",
               "unique,hf_retrospective,hf_iterative,themes", "--bootstrap",
               "--iterations", 20, "--positions", "--out", tmp_path / "sat") == EXIT_OK
    assert run("sweep", *data, "--sizes", "10,30", "--replicates", 2,
               "--budget-docs", 5, "--quadratic", "0,1,0", "--out", tmp_path / "sw") == EXIT_OK
    assert built == []
