"""Regression analytics and the superset-size extrapolation sweep.

The treatment table fits six related least-squares specifications of the
fecundity outcome on an AI-selection dummy: the base contrast, inclusion
of overlap documents, reading-order controls (index and its square), a
round dummy with earlier-round documents, both together, and a
length-weighted variant. Standard errors are classical homoskedastic
ones; a robust flag exists but is off by default.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .corpus import Collection
from .errors import MissingVariableError, RankDeficiencyError, SampleSizeError
from .selection import SQRT, SelectionBudget, ValueFunction, select_greedy

STAR_THRESHOLDS = (0.1, 0.05, 0.01)


def _stars(p: float) -> str:
    """One star per threshold of ``STAR_THRESHOLDS`` that ``p`` falls below."""
    return "*" * sum(p < threshold for threshold in STAR_THRESHOLDS)


@dataclass(frozen=True)
class RegressionSpec:
    outcome: str
    regressors: tuple[str, ...]
    weights: str | None = None

    def __post_init__(self):
        if self.outcome in self.regressors:
            raise ValueError("outcome cannot appear among the regressors")


@dataclass(frozen=True)
class RegressionFit:
    param_names: tuple[str, ...]
    coefficients: dict[str, float]
    standard_errors: dict[str, float]
    t_stats: dict[str, float]
    p_values: dict[str, float]
    r2: float
    adj_r2: float
    residual_std_error: float
    df_resid: int
    f_statistic: float
    f_df: tuple[int, int]
    n_obs: int
    residuals: tuple[float, ...]
    weighted: bool = False

    def stars(self, name: str) -> str:
        return _stars(self.p_values[name])

    def ci95(self, name: str) -> tuple[float, float]:
        half = 1.96 * self.standard_errors[name]
        return self.coefficients[name] - half, self.coefficients[name] + half


def _collinear_columns(X: np.ndarray, names: Sequence[str]) -> list[str]:
    rank = np.linalg.matrix_rank(X)
    involved = []
    for j in range(X.shape[1]):
        reduced = np.delete(X, j, axis=1)
        if np.linalg.matrix_rank(reduced) == rank:
            involved.append(names[j])
    return involved or list(names)


def ols(
    data: Mapping[str, Sequence[float]], spec: RegressionSpec, robust: bool = False
) -> RegressionFit:
    """Classical (weighted) least squares with an implicit intercept.

    Weighted fits scale rows by sqrt(weight); with unit weights the code
    path is numerically identical to the unweighted fit. R-squared uses the
    (weighted) centered total sum of squares and is defined as 0 for a
    constant outcome. ``robust`` switches to HC1 sandwich standard errors;
    the default is the conventional homoskedastic estimator.
    """
    for name in (spec.outcome, *spec.regressors):
        if name not in data:
            raise MissingVariableError(name)
    y = np.asarray(data[spec.outcome], dtype=float)
    n = y.shape[0]
    X = np.column_stack(
        [np.ones(n)] + [np.asarray(data[r], dtype=float) for r in spec.regressors]
    )
    names = ("const", *spec.regressors)
    p = X.shape[1]
    if n <= p:
        raise ValueError(f"need more observations ({n}) than parameters ({p})")

    w = None
    if spec.weights is not None:
        if spec.weights not in data:
            raise MissingVariableError(spec.weights)
        w = np.asarray(data[spec.weights], dtype=float)
        if np.any(w <= 0):
            raise ValueError("weights must be strictly positive")
        # mean-1 normalization keeps the residual SE on the outcome scale;
        # estimates, SEs, R2 and F are invariant to weight scaling
        w = w * (n / w.sum())

    if w is not None:
        sw = np.sqrt(w)
        Xw = X * sw[:, None]
        yw = y * sw
    else:
        Xw, yw = X, y

    if np.linalg.matrix_rank(Xw) < p:
        raise RankDeficiencyError(_collinear_columns(Xw, names))

    beta, _, _, _ = np.linalg.lstsq(Xw, yw, rcond=None)
    fitted = X @ beta
    resid = y - fitted
    wr = resid * w if w is not None else resid
    rss = float(resid @ wr)
    df_resid = n - p
    sigma2 = rss / df_resid
    xtx_inv = np.linalg.inv(Xw.T @ Xw)
    if robust:
        ew = resid * np.sqrt(w) if w is not None else resid
        meat = (Xw * ew[:, None] ** 2).T @ Xw
        sandwich = xtx_inv @ meat @ xtx_inv * (n / df_resid)
        se = np.sqrt(np.clip(np.diag(sandwich), 0.0, None))
    else:
        se = np.sqrt(np.clip(sigma2 * np.diag(xtx_inv), 0.0, None))

    wmean = float(np.average(y, weights=w)) if w is not None else float(y.mean())
    centered = y - wmean
    tss = float(centered @ (centered * w if w is not None else centered))
    r2 = 0.0 if tss == 0.0 else 1.0 - rss / tss
    k = p - 1
    adj_r2 = 1.0 - (1.0 - r2) * (n - 1) / df_resid if df_resid > 0 else math.nan

    with np.errstate(divide="ignore", invalid="ignore"):
        tvals = np.where(se > 0, beta / se, np.where(beta == 0, 0.0, np.inf))
    pvals = [_p_two_sided(t, df_resid) for t in tvals]
    if k >= 1:
        f_stat = math.inf if r2 >= 1.0 else (r2 / k) / ((1.0 - r2) / df_resid)
    else:
        f_stat = math.nan

    return RegressionFit(
        param_names=names,
        coefficients=dict(zip(names, map(float, beta))),
        standard_errors=dict(zip(names, map(float, se))),
        t_stats=dict(zip(names, map(float, tvals))),
        p_values=dict(zip(names, pvals)),
        r2=r2,
        adj_r2=adj_r2,
        residual_std_error=math.sqrt(sigma2),
        df_resid=df_resid,
        f_statistic=f_stat,
        f_df=(k, df_resid),
        n_obs=n,
        residuals=tuple(map(float, resid)),
        weighted=w is not None,
    )


def _p_two_sided(t: float, df: int) -> float:
    """P(|T| > |t|) for Student's t with ``df`` degrees of freedom: the
    incomplete beta I_x(df/2, 1/2) at x = df/(df + t²)."""
    t = abs(float(t))
    if not math.isfinite(t):
        return 0.0
    q = t * t / df
    # past |t| ≈ 1.3e154 t² overflows, and log1p(q) = log(q) to the last bit
    log1p_q = math.log1p(q) if q < math.inf else 2.0 * math.log(t) - math.log(df)
    return _beta_tail(df / 2.0, 0.5, q, log1p_q)


# Stirling's series for log Γ(z) − [(z − ½)·log z − z + ½·log 2π]: B_2k / (2k(2k − 1))
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188)


def _stirling_tail(z: float) -> float:
    return sum(c / z ** (2 * k + 1) for k, c in enumerate(_STIRLING))


def _log_beta(a: float, b: float) -> float:
    small, big = sorted((a, b))
    if big < 20.0:  # from 20 on, five terms of Stirling's series hold 1e-16
        return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    # log Γ(big + small) − log Γ(big) as a Stirling difference: two lgammas
    # of size big·log(big) would cancel to the last few digits
    ratio = (
        small * math.log(big) + (big + small - 0.5) * math.log1p(small / big) - small
        + _stirling_tail(big + small) - _stirling_tail(big)
    )
    return math.lgamma(small) - ratio


def _beta_tail(a: float, b: float, q: float, log1p_q: float) -> float:
    """I_x(a, b) at x = 1/(1 + q), ``log1p_q`` = log(1 + q), q ≥ 0.

    The prefactor x^a·(1 − x)^b / B(a, b) is taken in log space from q, so
    neither x nor 1 − x is rounded before its logarithm; the rest is the
    continued fraction of Numerical Recipes §6.4, on whichever side of the
    mean it converges fast.
    """
    if q == 0.0:
        return 1.0
    x = 1.0 / (1.0 + q)
    if q <= 1.0:
        y, log_y = q / (1.0 + q), math.log(q) - log1p_q
    else:
        y, log_y = 1.0 / (1.0 + 1.0 / q), -math.log1p(1.0 / q)
    front = math.exp(b * log_y - a * log1p_q - _log_beta(a, b))
    if x < (a + 1.0) / (a + b + 2.0):
        return front / (a * _beta_fraction(a, b, x, y))
    return 1.0 - front / (b * _beta_fraction(b, a, y, x))


def _beta_fraction(a: float, b: float, x: float, y: float) -> float:
    """1 + d1/(1 + d2/(1 + ...)), the incomplete beta's continued fraction
    at x, with y = 1 − x.

    It is evaluated from its tail inward, two terms a step, and the depth
    doubles until two depths agree. Near the mean 1 + d_(2m+1) nears 0, so
    for x > ½ it is formed from y, as DiDonato & Morris (1992) form their λ:
    formed from x it would lose about a·ε.
    """
    depth, previous = 8, 0.0
    while True:
        g = 1.0
        for m in range(depth, -1, -1):
            h = (m + 1) * (b - m - 1) * x / ((a + 2 * m + 1) * (a + 2 * m + 2) * g)
            den = (a + 2 * m) * (a + 2 * m + 1)
            c = (a + m) * (a + b + m)
            if x > 0.5:  # 1 − c·x/den = (den − c + c·y)/den, den − c expanded
                odd = (a * (1 - b + 2 * m) + m * (3 * m + 2 - b) + c * y) / den
            else:
                odd = 1.0 - c * x / den
            g = (odd + h) / (1.0 + h)
        if abs(g - previous) <= 1e-15 * g or depth > 1 << 15:
            return g
        depth, previous = 2 * depth, g


TREATMENT_SPECS: dict[int, dict] = {
    1: {"regressors": ("ai_selected",), "sample": "base", "weights": None},
    2: {"regressors": ("ai_selected",), "sample": "with_overlap", "weights": None},
    3: {"regressors": ("ai_selected", "index", "index_sq"), "sample": "base", "weights": None},
    4: {"regressors": ("ai_selected", "round"), "sample": "all", "weights": None},
    5: {
        "regressors": ("ai_selected", "round", "index", "index_sq"),
        "sample": "all",
        "weights": None,
    },
    6: {"regressors": ("ai_selected",), "sample": "base", "weights": "length"},
}


def _column(data: Mapping[str, Sequence], name: str, spec_no: int) -> np.ndarray:
    if name not in data:
        raise MissingVariableError(name, spec=spec_no)
    return np.asarray(data[name], dtype=float)


def _sample_mask(data: Mapping[str, Sequence], sample: str, spec_no: int) -> np.ndarray:
    overlap = _column(data, "overlap", spec_no).astype(bool)
    old_random = _column(data, "old_random", spec_no).astype(bool)
    if sample == "base":
        return ~overlap & ~old_random
    if sample == "with_overlap":
        return ~old_random
    return np.ones(overlap.shape[0], dtype=bool)


def treatment_table(
    data: Mapping[str, Sequence], specs: Sequence[int] = (1, 2, 3, 4, 5, 6)
) -> dict[int, RegressionFit]:
    """Fit the six treatment-effect specifications.

    ``data`` is a column mapping with, per document: fecundity,
    ai_selected (0/1), index (reading order), round (0/1 dummy), length,
    overlap (in both arms' selections) and old_random (carried over from
    the earlier round). Uncentered index and index-squared are used for
    the order controls.
    """
    fits: dict[int, RegressionFit] = {}
    for spec_no in specs:
        if spec_no not in TREATMENT_SPECS:
            raise ValueError(f"unknown specification {spec_no}")
        layout = TREATMENT_SPECS[spec_no]
        mask = _sample_mask(data, layout["sample"], spec_no)
        columns: dict[str, np.ndarray] = {
            "fecundity": _column(data, "fecundity", spec_no)[mask]
        }
        for reg in layout["regressors"]:
            base = "index" if reg == "index_sq" else reg
            col = _column(data, base, spec_no)[mask]
            columns[reg] = col**2 if reg == "index_sq" else col
        if layout["weights"]:
            columns[layout["weights"]] = _column(data, layout["weights"], spec_no)[mask]
        fits[spec_no] = ols(
            columns,
            RegressionSpec(
                outcome="fecundity",
                regressors=layout["regressors"],
                weights=layout["weights"],
            ),
        )
    return fits


@dataclass(frozen=True)
class LengthResidualResult:
    """Two-stage check that AI code density is not just proxying length."""

    stage1: RegressionFit
    fit: RegressionFit
    residual_dropped: bool

    @property
    def stage1_r2(self) -> float:
        return self.stage1.r2


def length_residual_check(data: Mapping[str, Sequence]) -> LengthResidualResult:
    """Regress length on AI density, then add the residuals to the order-
    and round-controlled treatment specification.

    If AI density determines length exactly the residual column is
    degenerate; it is then dropped with a warning so the second stage
    stays full rank.
    """
    stage1 = ols(
        {"length": _column(data, "length", 0), "ai_density": _column(data, "ai_density", 0)},
        RegressionSpec(outcome="length", regressors=("ai_density",)),
    )
    resid = np.asarray(stage1.residuals)
    index = _column(data, "index", 5)
    columns = {
        "fecundity": _column(data, "fecundity", 5),
        "ai_selected": _column(data, "ai_selected", 5),
        "round": _column(data, "round", 5),
        "index": index,
        "index_sq": index**2,
        "length_resid": resid,
    }
    regressors = ("ai_selected", "round", "index", "index_sq", "length_resid")
    dropped = False
    scale = max(1.0, float(np.abs(np.asarray(data["length"], dtype=float)).max()))
    if float(np.abs(resid).max()) <= 1e-9 * scale:
        warnings.warn(
            "length residuals are numerically zero; dropping the residual regressor"
        )
        del columns["length_resid"]
        regressors = regressors[:-1]
        dropped = True
    fit = ols(columns, RegressionSpec(outcome="fecundity", regressors=regressors))
    return LengthResidualResult(stage1=stage1, fit=fit, residual_dropped=dropped)


_PARAM_LABELS = {
    "const": "Constant",
    "ai_selected": "AI-selected",
    "round": "Round",
    "index": "Index",
    "index_sq": "Ind^2",
    "length_resid": "Length Residuals",
}


def _f_stars(fit: RegressionFit) -> str:
    k, df = fit.f_df
    if k < 1 or not math.isfinite(fit.f_statistic):
        return ""
    q = k * fit.f_statistic / df
    return _stars(_beta_tail(df / 2.0, k / 2.0, q, math.log1p(q)))


def format_treatment_table(fits: Mapping[int, RegressionFit | str]) -> str:
    """Aligned-text rendering of the six-specification table.

    Cells show coefficient with significance stars over the standard
    error in parentheses; a fit replaced by a string renders as a skipped
    column with that reason.
    """
    spec_nos = sorted(fits)
    params = ["const", "ai_selected", "round", "index", "index_sq", "length_resid"]
    used = [
        p
        for p in params
        if any(
            isinstance(f, RegressionFit) and p in f.param_names for f in fits.values()
        )
    ]
    header = ["", *[f"({n})" for n in spec_nos]]
    rows: list[list[str]] = [header]
    for param in used:
        top = [_PARAM_LABELS.get(param, param)]
        bottom = [""]
        for n in spec_nos:
            fit = fits[n]
            if isinstance(fit, RegressionFit) and param in fit.param_names:
                top.append(f"{fit.coefficients[param]:.3f}{fit.stars(param)}")
                bottom.append(f"({fit.standard_errors[param]:.3f})")
            else:
                top.append("")
                bottom.append("")
        rows.append(top)
        rows.append(bottom)

    def stat_row(label: str, fn) -> list[str]:
        out = [label]
        for n in spec_nos:
            fit = fits[n]
            out.append(fn(fit, n) if isinstance(fit, RegressionFit) else "skipped")
        return out

    rows.append(stat_row("Observations", lambda f, n: str(f.n_obs)))
    rows.append(stat_row("R2", lambda f, n: f"{f.r2:.3f}"))
    rows.append(stat_row("Adjusted R2", lambda f, n: f"{f.adj_r2:.3f}"))
    rows.append(
        stat_row(
            "Residual Std. Error",
            lambda f, n: f"{f.residual_std_error:.3f} (df={f.df_resid})",
        )
    )
    rows.append(
        stat_row(
            "F Statistic",
            lambda f, n: f"{f.f_statistic:.3f}{_f_stars(f)} (df={f.f_df[0]}; {f.f_df[1]})",
        )
    )
    layouts = {
        n: TREATMENT_SPECS[n] for n in spec_nos if n in TREATMENT_SPECS
    }
    flag_rows = (
        ("Overlap selected Articles", lambda l: l["sample"] != "base"),
        ("Old random articles", lambda l: l["sample"] == "all"),
        ("Article order controls", lambda l: "index" in l["regressors"]),
        ("Weighted by article length", lambda l: l["weights"] is not None),
    )
    for label, judge in flag_rows:
        row = [label]
        for n in spec_nos:
            row.append(str(judge(layouts[n])) if n in layouts else "")
        rows.append(row)

    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    lines = ["  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip() for row in rows]
    lines.append("")
    lines.append("Note: *p<0.1; **p<0.05; ***p<0.01")
    skipped = [n for n in spec_nos if isinstance(fits[n], str)]
    for n in skipped:
        lines.append(f"Specification ({n}) skipped: {fits[n]}")
    return "\n".join(lines) + "\n"


def treatment_table_rows(fits: Mapping[int, RegressionFit | str]) -> list[dict]:
    """Tidy per-parameter rows (for CSV export)."""
    rows = []
    for n in sorted(fits):
        fit = fits[n]
        if isinstance(fit, str):
            rows.append({"spec": n, "param": "", "skipped": fit})
            continue
        for param in fit.param_names:
            rows.append(
                {
                    "spec": n,
                    "param": param,
                    "coef": fit.coefficients[param],
                    "se": fit.standard_errors[param],
                    "t": fit.t_stats[param],
                    "p": fit.p_values[param],
                    "stars": fit.stars(param),
                    "n_obs": fit.n_obs,
                    "r2": fit.r2,
                    "adj_r2": fit.adj_r2,
                    "resid_se": fit.residual_std_error,
                    "df_resid": fit.df_resid,
                    "f_stat": fit.f_statistic,
                    "skipped": "",
                }
            )
    return rows


@dataclass(frozen=True)
class QuadraticMap:
    """y = a + b*x + c*x^2 fitted by least squares."""

    a: float
    b: float
    c: float

    def __call__(self, x: float) -> float:
        return self.a + self.b * x + self.c * x * x


IDENTITY_MAP = QuadraticMap(0.0, 1.0, 0.0)


def fit_quadratic(pairs: Sequence[tuple[float, float]]) -> QuadraticMap:
    if len(pairs) < 3:
        raise ValueError("need at least 3 points to fit a quadratic")
    x = np.asarray([p[0] for p in pairs], dtype=float)
    y = np.asarray([p[1] for p in pairs], dtype=float)
    X = np.column_stack([np.ones_like(x), x, x**2])
    if np.linalg.matrix_rank(X) < 3:
        raise RankDeficiencyError(["const", "x", "x^2"])
    beta, _, _, _ = np.linalg.lstsq(X, y, rcond=None)
    return QuadraticMap(*map(float, beta))


@dataclass(frozen=True)
class SweepPoint:
    size: int
    mean_ai_density: float
    predicted_human_density: float
    normalized_pct: float


def corpus_code_density(docs: Collection, coder_source: str) -> float:
    """Distinct codes per 1000 characters over a whole corpus.

    Equals the length-weighted aggregate of per-document fecundity when
    frequencies are taken over the same corpus.
    """
    docs = Collection.of(docs)
    if not docs:
        return 0.0
    distinct = int(np.count_nonzero(np.bincount(docs.matrix(coder_source).codes)))
    return distinct / int(docs.lengths.sum()) * 1000.0


def superset_sweep(
    full_set: Collection,
    coder_source: str,
    quadratic_map: QuadraticMap,
    seed: int,
    sizes: Sequence[int] | None = None,
    replicates: int = 10,
    n_budget_docs: int = 20,
    value_function: ValueFunction = SQRT,
) -> list[SweepPoint]:
    """Predicted benefit of selecting from supersets of varying sizes.

    For each size, ``replicates`` random subsets are drawn; the selection
    method runs on each under a budget of ``n_budget_docs`` mean subset
    lengths, and the mean selected-corpus code density is mapped through
    the fitted quadratic to a predicted human density. The baseline is a
    random corpus of ``n_budget_docs`` documents, or of the whole set when
    it is smaller (selection from a superset of the same size, where
    everything is taken), normalized to 100%; it is returned as the first
    point, labelled with the size sampled.
    """
    full = Collection.of(full_set)
    row_of = {doc_id: i for i, doc_id in enumerate(full.ids)}
    N = len(full)
    if sizes is None:
        sizes = sorted({s for s in (50, 100, 250, 500, 1000) if s <= N} | {N})
    else:
        bad = [s for s in sizes if s > N]
        if bad:
            raise SampleSizeError(f"subset size(s) {bad} exceed the full set ({N})")
        sizes = sorted(set(sizes))

    def mean_density(size: int) -> float:
        densities = []
        for rep in range(replicates):
            rng = np.random.default_rng([seed, size, rep])
            subset = full.take(rng.choice(N, size=size, replace=False))
            if size > n_budget_docs:
                budget = SelectionBudget.from_mean_docs(subset, n_budget_docs)
                selection = select_greedy(subset, budget, value_function, coder_source)
                subset = full.take([row_of[doc_id] for doc_id in selection.selected_ids])
            densities.append(corpus_code_density(subset, coder_source))
        return sum(densities) / len(densities)

    baseline_size = min(n_budget_docs, N)
    baseline_density = mean_density(baseline_size)
    baseline_pred = quadratic_map(baseline_density)
    if baseline_pred <= 0:
        raise ValueError("quadratic map gives a nonpositive baseline prediction")
    points = [SweepPoint(baseline_size, baseline_density, baseline_pred, 100.0)]
    for size in sizes:
        d = mean_density(size)
        pred = quadratic_map(d)
        points.append(SweepPoint(size, d, pred, pred / baseline_pred * 100.0))
    return points
