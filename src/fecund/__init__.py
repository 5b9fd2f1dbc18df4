"""Diversity-maximizing corpus selection and coding-saturation analytics."""

from .corpus import (
    Codebook,
    CodeInstance,
    Collection,
    Document,
    SummaryStats,
    fecundity,
    summary_stats,
    unique_weight,
)
from .ingest import (
    Passage,
    RawArticle,
    canonicalize_code,
    load_articles,
    load_collection,
    split_passages,
    write_collection,
)
from .saturation import (
    BootstrapBand,
    CountingRegime,
    SaturationCurve,
    StoppingRuleResult,
    bootstrap_bands,
    cumulative_curve,
    detect_stopping,
    median_code_position,
    position_trend,
)
from .selection import (
    LOG1P,
    SQRT,
    UNIQUE,
    CorpusSelection,
    ReadingEntry,
    SelectionBudget,
    ValueFunction,
    interleave_blinded,
    objective,
    select_greedy,
    select_random,
)
from .stats import (
    IDENTITY_MAP,
    QuadraticMap,
    RegressionFit,
    RegressionSpec,
    SweepPoint,
    corpus_code_density,
    fit_quadratic,
    length_residual_check,
    ols,
    superset_sweep,
    treatment_table,
)

__version__ = "0.1.0"
