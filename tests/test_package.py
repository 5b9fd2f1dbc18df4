"""The package's public names, which resolve on first use, are the ones it
has always exported, each the object its module defines."""

import importlib
import textwrap

import pytest
from conftest import run_python

import fecund

EXPORTS = {
    "corpus": (
        "Codebook", "CodeInstance", "Collection", "Document", "SummaryStats", "fecundity",
        "summary_stats", "unique_weight",
    ),
    "ingest": (
        "Passage", "RawArticle", "canonicalize_code", "load_articles", "load_collection",
        "split_passages", "write_collection",
    ),
    "saturation": (
        "BootstrapBand", "CountingRegime", "SaturationCurve", "StoppingRuleResult",
        "bootstrap_bands", "cumulative_curve", "detect_stopping", "position_trend",
    ),
    "selection": (
        "LOG1P", "SQRT", "UNIQUE", "CorpusSelection", "ReadingEntry", "SelectionBudget",
        "ValueFunction", "interleave_blinded", "objective", "select_greedy", "select_random",
    ),
    "stats": (
        "IDENTITY_MAP", "QuadraticMap", "RegressionFit", "RegressionSpec", "SweepPoint",
        "corpus_code_density", "fit_quadratic", "length_residual_check", "ols",
        "superset_sweep", "treatment_table",
    ),
}
NAMES = {name for names in EXPORTS.values() for name in names}


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_each_name_is_its_module_object(module):
    owner = importlib.import_module(f"fecund.{module}")
    for name in EXPORTS[module]:
        assert getattr(fecund, name) is getattr(owner, name)


def test_all_dir_and_star_import_list_the_names():
    assert sorted(fecund.__all__) == sorted(NAMES)
    assert NAMES <= set(dir(fecund))
    namespace = {}
    exec("from fecund import *", namespace)
    assert set(namespace) - {"__builtins__"} == NAMES


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(fecund, "no_such_name")


def test_fresh_import_resolves_names_and_layers_on_use():
    script = textwrap.dedent(
        """\
        import sys
        import fecund
        assert "fecund.stats" not in sys.modules
        assert fecund.ols is sys.modules["fecund.stats"].ols
        assert fecund.errors.FecundError and fecund.saturation.bootstrap_bands
        from fecund import *
        assert select_greedy is fecund.selection.select_greedy
        print(fecund.__version__)
        """
    )
    proc = run_python(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0.1.0\n"
