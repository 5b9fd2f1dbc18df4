import csv
import importlib
import json
import textwrap
from collections import Counter

import numpy as np
import pytest
from conftest import run_python

from fecund import cli, coder
from fecund.cli import EXIT_DATA, EXIT_IO, EXIT_OK, EXIT_REMOTE, EXIT_USAGE, main
from fecund.corpus import CodeInstance, Document
from fecund.ingest import load_collection
from fecund.saturation import CountingRegime, cumulative_curve


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
    assert [int(r["cumulative_chars"]) for r in rows] == [
        s.cumulative_chars for s in curve.steps
    ]


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
    """Every regime counts the same orders: one generator per iteration."""
    built = []
    real = np.random.default_rng

    def counting(seed):
        built.append(seed)
        return real(seed)

    monkeypatch.setattr(np.random, "default_rng", counting)
    assert run(
        "saturate", "--docs", corpus_dir / "documents.jsonl", "--codes",
        corpus_dir / "codes.csv", "--themes", corpus_dir / "themes.csv",
        "--coder-source", "human", "--seed", 1, "--bootstrap", "--iterations", 37,
        "--regimes", "unique,hf_retrospective,hf_iterative,themes", "--out", tmp_path / "sb",
    ) == EXIT_OK
    assert len(built) == 37
    assert sorted(p.name for p in (tmp_path / "sb").glob("curve_*.csv")) == [
        "curve_hf_iterative.csv", "curve_hf_retrospective.csv",
        "curve_themes.csv", "curve_unique.csv",
    ]


def test_saturate_themes_without_map_errors(corpus_dir, tmp_path):
    code = run(
        "saturate", "--docs", corpus_dir / "documents.jsonl", "--codes",
        corpus_dir / "codes.csv", "--coder-source", "human", "--seed", 1,
        "--regimes", "themes", "--out", tmp_path / "st",
    )
    assert code == EXIT_DATA


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


@pytest.mark.parametrize("value", ["true", "false"])
def test_config_sets_a_valueless_flag_only_when_true(corpus_dir, tmp_path, value):
    config = tmp_path / "run.toml"
    config.write_text(f"plot = {value}\n", encoding="utf-8")
    out = tmp_path / "sw"
    assert run(
        "sweep", "--docs", corpus_dir / "documents.jsonl", "--codes", corpus_dir / "codes.csv",
        "--coder-source", "human", "--seed", 1, "--quadratic", "0,1,0", "--config", config,
        "--out", out,
    ) == EXIT_OK
    assert (out / "sweep.svg").exists() == (value == "true")


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
    "manifest-no-doc-id.csv": "reading_index,id\n1,doc-00\n",
    "manifest-repeat.csv": "reading_index,doc_id\n1,doc-00\n2,doc-00\n",
    "unblinding.csv": "doc_id,arm\ndoc-00,treatment\n",
    "manifest.csv": "reading_index,doc_id\n1,doc-00\n2,doc-01\n",
    "experiment.csv": "doc_id,round,old_random\ndoc-00,1,false\ndoc-01,x,false\n",
    "experiment-old-random.csv": "doc_id,round,old_random\ndoc-00,1,TRUE\ndoc-01,1,\ndoc-02,1,1\n",
    "codes-long-label.csv": "doc_id,coder_source,code_label\ndoc-00,human," + "x" * 200_000 + "\n",
    "codes-latin1.csv": "doc_id,coder_source,code_label\ndoc-00,human,café\n".encode("latin-1"),
    "manifest-latin1.csv": "reading_index,doc_id\n1,doc-00\n2,café\n".encode("latin-1"),
    "unblinding-typo.csv": "doc_id,arm\ndoc-00,treatment\ndoc-01,treatmnet\n",
    "unblinding-repeat.csv": "doc_id,arm\ndoc-00,treatment\ndoc-00,control\n",
    "budget0.toml": "budget_chars = 0\n",
    "experiment-repeat.csv": "doc_id,round,old_random\ndoc-00,1,false\ndoc-00,0,true\n",
}

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
    "codes-field-over-limit": (
        ["saturate", "--coder-source", "human", "--codes", "{tmp}/codes-long-label.csv"],
        EXIT_DATA,
        "{tmp}/codes-long-label.csv:2: unreadable CSV: field larger than field limit (131072)",
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
    try:
        code = run(
            command, "--docs", corpus_dir / "documents.jsonl", "--codes",
            corpus_dir / "codes.csv", "--out", tmp_path / "out", *rest,
        )
    except SystemExit as exc:  # argparse rejects bad arguments by exiting
        code = exc.code
    assert code == expected
    err = capsys.readouterr().err
    assert message.format(tmp=tmp_path) in err
    assert "Traceback" not in err
    if expected == EXIT_USAGE:  # rejected while parsing, before any output
        assert not (tmp_path / "out").exists()


# generator flag out of range -> the message argparse prints; each exits 2
_BAD_GENERATOR_FLAGS = {
    "code-vocab-size-zero": (
        ["code", "--vocab-size", "0"], "argument --vocab-size: must be >= 1, got 0"),
    "code-codes-per-kchar-negative": (
        ["code", "--codes-per-kchar", "-1"],
        "argument --codes-per-kchar: must be a finite number >= 0, got -1"),
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
    HTTP stack; analyze then loads scipy.special, never scipy.stats."""
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
    assert lines[-1] == "0 True False"
    assert (tmp_path / "ana" / "treatment_table.csv").exists()


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
        print(json.dumps([code, loaded(), "concurrent.futures" in sys.modules]))
        """
    )
    proc = run_python(script, *_every_command(corpus_dir, tmp_path)[command])
    assert proc.returncode == 0, proc.stderr
    lines = [json.loads(line) for line in proc.stdout.splitlines()[:2]]
    code, layers, threads = json.loads(proc.stdout.splitlines()[-1])
    assert lines == [[], []]
    assert (code, layers) == (EXIT_OK, _COMMAND_LAYERS[command])
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


def test_select_and_sweep_leave_numpy_ma_unloaded(corpus_dir, tmp_path):
    """Start-up cost guard: ``np.unique`` without ``return_counts`` imports
    ``numpy.ma``; neither ``select`` nor ``sweep`` may pay for it."""
    data = ["--docs", corpus_dir / "documents.jsonl", "--codes", corpus_dir / "codes.csv",
            "--coder-source", "human", "--seed", 3]
    script = textwrap.dedent(
        """\
        import json, sys
        import fecund.cli
        for argv in json.loads(sys.argv[1]):
            code = fecund.cli.main(argv)
            print("loaded:", argv[0], code, "numpy.ma" in sys.modules)
        """
    )
    commands = [
        ["select", *data, "--budget-docs", 5, "--control-docs", 5, "--out", tmp_path / "sel"],
        ["sweep", *data, "--sizes", "10,30", "--replicates", 2, "--budget-docs", 5,
         "--quadratic", "0,1,0", "--out", tmp_path / "sw"],
    ]
    proc = run_python(script, json.dumps([[str(a) for a in c] for c in commands]))
    assert proc.returncode == 0, proc.stderr
    loaded = [line for line in proc.stdout.splitlines() if line.startswith("loaded:")]
    assert loaded == ["loaded: select 0 False", "loaded: sweep 0 False"]


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
    monkeypatch.setattr(CodeInstance, "__post_init__", lambda self: built.append(self))
    monkeypatch.setattr(Document, "__post_init__", lambda self: built.append(self))
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
