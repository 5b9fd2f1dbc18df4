"""Diversity-maximizing corpus selection and coding-saturation analytics.

Each public name is imported from its module on first use (PEP 562), so
``import fecund`` loads no layer that the caller does not touch.
"""

from importlib import import_module

_EXPORTS = {  # module -> the names it exports here
    "corpus": (
        "Codebook", "CodeInstance", "Collection", "Document", "SummaryStats", "fecundity",
        "summary_stats", "unique_weight",
    ),
    "errors": (),  # exports no name; listed so that ``fecund.errors`` resolves
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
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:  # a submodule not imported yet
        return import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
