import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from fecund.errors import MissingVariableError, RankDeficiencyError, SampleSizeError
from fecund.stats import (
    IDENTITY_MAP,
    RegressionSpec,
    _beta_tail,
    _f_stars,
    _p_two_sided,
    _stars,
    corpus_code_density,
    fit_quadratic,
    format_treatment_table,
    length_residual_check,
    ols,
    superset_sweep,
    treatment_table,
)
from fecund.synthetic import synth_corpus

from conftest import make_doc
from reference import collection, f_upper_k2, t_two_sided_closed


# --- ols -----------------------------------------------------------------


def test_ols_hand_solved():
    fit = ols({"y": [1, 2, 2, 3], "x": [0, 0, 1, 1]}, RegressionSpec("y", ("x",)))
    assert fit.coefficients["const"] == pytest.approx(1.5, abs=1e-9)
    assert fit.coefficients["x"] == pytest.approx(1.0, abs=1e-9)


def test_ols_perfect_fit():
    x = [1, 2, 3, 4, 5]
    fit = ols({"y": [2 * v for v in x], "x": x}, RegressionSpec("y", ("x",)))
    assert fit.coefficients["x"] == pytest.approx(2.0, abs=1e-9)
    assert fit.r2 == pytest.approx(1.0, abs=1e-12)
    assert fit.residual_std_error == pytest.approx(0.0, abs=1e-9)


def test_ols_constant_outcome():
    fit = ols({"y": [4, 4, 4, 4], "x": [0, 1, 2, 3]}, RegressionSpec("y", ("x",)))
    assert fit.coefficients["x"] == pytest.approx(0.0, abs=1e-12)
    assert fit.r2 == 0.0


def test_wls_unit_weights_equals_ols():
    rng = np.random.default_rng(3)
    data = {
        "y": rng.normal(size=30),
        "x": rng.normal(size=30),
        "z": rng.normal(size=30),
        "w": np.ones(30),
    }
    plain = ols(data, RegressionSpec("y", ("x", "z")))
    weighted = ols(data, RegressionSpec("y", ("x", "z"), weights="w"))
    for name in plain.param_names:
        assert abs(plain.coefficients[name] - weighted.coefficients[name]) <= 1e-12
        assert abs(plain.standard_errors[name] - weighted.standard_errors[name]) <= 1e-12
    assert abs(plain.r2 - weighted.r2) <= 1e-12
    assert abs(plain.f_statistic - weighted.f_statistic) <= 1e-9


def test_ols_residual_identities():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(8, 40))
        data = {
            "y": rng.normal(size=n),
            "x1": rng.normal(size=n),
            "x2": rng.normal(size=n),
        }
        fit = ols(data, RegressionSpec("y", ("x1", "x2")))
        resid = np.asarray(fit.residuals)
        assert abs(resid.sum()) <= 1e-9
        for reg in ("x1", "x2"):
            assert abs(resid @ np.asarray(data[reg])) <= 1e-8


def test_f_r2_identity():
    rng = np.random.default_rng(7)
    n = 40
    data = {"y": rng.normal(size=n), "x1": rng.normal(size=n), "x2": rng.normal(size=n)}
    fit = ols(data, RegressionSpec("y", ("x1", "x2")))
    k, df = fit.f_df
    expected = (fit.r2 / k) / ((1 - fit.r2) / df)
    assert fit.f_statistic == pytest.approx(expected, abs=1e-9)
    assert fit.adj_r2 <= fit.r2


def test_ols_rank_deficiency_names_columns():
    x = [0.0, 1.0, 2.0, 3.0, 4.0]
    data = {"y": [1, 2, 3, 4, 5], "x": x, "x_copy": x}
    with pytest.raises(RankDeficiencyError) as err:
        ols(data, RegressionSpec("y", ("x", "x_copy")))
    assert "x" in err.value.columns and "x_copy" in err.value.columns


def test_ols_nonpositive_weight_errors():
    data = {"y": [1, 2, 3, 4], "x": [0, 1, 2, 3], "w": [1, 1, 0, 1]}
    with pytest.raises(ValueError, match="weight"):
        ols(data, RegressionSpec("y", ("x",), weights="w"))


def test_ols_missing_variable():
    with pytest.raises(MissingVariableError, match="x"):
        ols({"y": [1, 2, 3]}, RegressionSpec("y", ("x",)))


def test_robust_flag_changes_only_inference():
    rng = np.random.default_rng(23)
    x = rng.normal(size=60)
    data = {"y": 2 * x + rng.normal(size=60) * (1 + np.abs(x)), "x": x}
    plain = ols(data, RegressionSpec("y", ("x",)))
    robust = ols(data, RegressionSpec("y", ("x",)), robust=True)
    assert robust.coefficients == plain.coefficients
    assert robust.standard_errors != plain.standard_errors
    # HC1 matches the direct sandwich computation
    X = np.column_stack([np.ones(60), x])
    e = np.asarray(plain.residuals)
    xtx_inv = np.linalg.inv(X.T @ X)
    sandwich = xtx_inv @ ((X * e[:, None] ** 2).T @ X) @ xtx_inv * (60 / 58)
    assert robust.standard_errors["x"] == pytest.approx(
        float(np.sqrt(sandwich[1, 1])), rel=1e-10
    )


def test_spec_rejects_outcome_as_regressor():
    with pytest.raises(ValueError):
        RegressionSpec("y", ("y",))


# --- p-values against closed forms, mpmath and scipy ------------------------
#
# ``_p_two_sided`` and the F tail behind ``_f_stars`` are one regularized
# incomplete beta. The tight oracles are the integer-df closed forms and
# mpmath; scipy's own ``stdtr`` is off by 4e-11 at df = 1, t = 1.3e-6 (and
# by more nearer 0), so it serves only as a loose cross-check.


def _stars_oracle(p):
    return "***" if p < 0.01 else "**" if p < 0.05 else "*" if p < 0.1 else ""


def _assert_tail_close(p, ref, rel):
    """``p`` is a plain float within ``rel`` of ``ref`` wherever the tail is
    at least 1e-300; below that both may underflow."""
    assert type(p) is float
    if ref >= 1e-300:
        assert abs(p - ref) <= rel * ref, (p, ref)
    else:
        assert 0.0 <= p < 1e-300


def _mpmath_t_tail(mpmath, t, df):
    x = df / (df + mpmath.mpf(t) ** 2)
    return float(mpmath.betainc(mpmath.mpf(df) / 2, mpmath.mpf(1) / 2, 0, x, regularized=True))


@pytest.mark.parametrize("n", [6, 40, 203, 204, 600])
def test_ols_p_values_match_scipy_stats_t(n):
    # n = 203 leaves exactly 200 residual degrees of freedom; larger n used
    # to take a normal approximation, and must now use the t distribution too
    from scipy import stats as spstats

    rng = np.random.default_rng(n)
    x = rng.normal(size=n)
    z = rng.normal(size=n)
    data = {"y": 0.2 * x + rng.normal(size=n), "x": x, "z": z}
    fit = ols(data, RegressionSpec("y", ("x", "z")))
    assert fit.df_resid == n - 3
    for name in fit.param_names:
        t = fit.t_stats[name]
        ref = float(2.0 * spstats.t.sf(abs(t), fit.df_resid))
        _assert_tail_close(fit.p_values[name], ref, 1e-10)


@pytest.mark.parametrize("df", [1, 7, 200, 201, 5000])
@pytest.mark.parametrize("t", [0.0, 1e-300, 0.3, 1.96, -2.5, 8.0, 40.0, 1e300])
def test_p_two_sided_matches_scipy_stats_t(t, df):
    from scipy import stats as spstats

    _assert_tail_close(_p_two_sided(t, df), float(2.0 * spstats.t.sf(abs(t), df)), 1e-10)


def test_p_two_sided_keeps_the_cauchy_tail_past_overflow():
    # t² overflows, yet at df = 1 the tail is (2/π)·atan(1/t) = 2/(π·t)
    assert _p_two_sided(1e300, 1) == pytest.approx(2.0 / (math.pi * 1e300), rel=1e-12, abs=0)


@pytest.mark.parametrize("df", [1, 2, 3, 4, 5, 7, 10, 30])
@pytest.mark.parametrize("t", [0.0, 1e-8, 0.3, 1.0, 1.96, -3.0])
def test_p_two_sided_matches_closed_forms(t, df):
    # in floats 1 − A(t|df) keeps 1e-12 only while the tail stays above 1e-3
    _assert_tail_close(_p_two_sided(t, df), t_two_sided_closed(t, df), 1e-12)


@pytest.mark.parametrize("df", [1, 2, 3, 7, 30, 201, 1000, 3000])
def test_p_two_sided_matches_closed_forms_in_mpmath(df):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(340):  # 1 − A(t|df) resolved down to 1e-300
        for t in [10.0 ** (e / 8) for e in range(-40, 81)] + [10.0**e for e in range(20, 301, 20)]:
            ref = t_two_sided_closed(mpmath.mpf(t), df, mpmath)
            _assert_tail_close(_p_two_sided(t, df), float(ref), 1e-12)
            if ref < 1e-300:  # and so for every larger t
                break


@pytest.mark.parametrize("df", [10_000, 31_623, 100_000])
@pytest.mark.parametrize("t", [1e-8, 0.3, 1.96, 5.0, 20.0, 37.0])
def test_p_two_sided_matches_mpmath_at_large_df(t, df):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        _assert_tail_close(_p_two_sided(t, df), _mpmath_t_tail(mpmath, t, df), 1e-11)


@pytest.mark.parametrize("df", [3000, 100_000])
def test_p_two_sided_keeps_its_digits_near_the_mean(df):
    # near t² = 3 the continued fraction's 1 + d_1 nears 0; formed from x
    # instead of 1 − x it lost about (df/2)·ε, 5e-12 at df = 100,000
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for t in np.linspace(1.4, 2.2, 41).tolist():
            _assert_tail_close(_p_two_sided(t, df), _mpmath_t_tail(mpmath, t, df), 1e-13)


@settings(max_examples=300, deadline=None)
@given(st.floats(-4.0, 3.0), st.integers(1, 100_000))
def test_p_two_sided_cross_checks_scipy_stdtr(log_t, df):
    from scipy import special

    t = 10.0**log_t
    ref = float(2.0 * special.stdtr(df, -t))
    assume(ref >= 1e-300)
    _assert_tail_close(_p_two_sided(t, df), ref, 1e-10)


@settings(max_examples=300, deadline=None)
@given(st.floats(-4.0, 3.0), st.integers(1, 10), st.integers(1, 100_000))
def test_f_tail_cross_checks_scipy_fdtrc(log_f, k, df):
    from scipy import special

    f = 10.0**log_f
    ref = float(special.fdtrc(k, df, f))
    assume(ref >= 1e-300)
    q = k * f / df
    _assert_tail_close(_beta_tail(df / 2, k / 2, q, math.log1p(q)), ref, 1e-10)


@pytest.mark.parametrize("df", [1, 4, 38, 200])
@pytest.mark.parametrize("f", [0.0, 0.01, 1.0, 3.5, 40.0, 1e4])
def test_f_tail_matches_closed_form_at_two_numerator_df(f, df):
    q = 2 * f / df
    _assert_tail_close(_beta_tail(df / 2, 1.0, q, math.log1p(q)), f_upper_k2(f, df), 1e-12)


@pytest.mark.parametrize("t", [math.inf, -math.inf])
def test_p_two_sided_non_finite_t_is_zero(t):
    assert _p_two_sided(t, 12) == 0.0


@pytest.mark.parametrize("df", [4, 38, 200, 450])
@pytest.mark.parametrize("k", [1, 3])
def test_f_stars_match_scipy_stats_f(k, df):
    from scipy import stats as spstats

    rng = np.random.default_rng(k * 1000 + df)
    n = df + k + 1
    columns = {f"x{j}": rng.normal(size=n) for j in range(k)}
    fit = ols({"y": rng.normal(size=n), **columns}, RegressionSpec("y", tuple(columns)))
    assert fit.f_df == (k, df)
    # F statistics just either side of each star threshold, plus extremes
    for p in (0.9, 0.1001, 0.0999, 0.0501, 0.0499, 0.0101, 0.0099, 1e-9):
        f_stat = float(spstats.f.isf(p, k, df))
        probe = dataclasses.replace(fit, f_statistic=f_stat)
        assert _f_stars(probe) == _stars_oracle(float(spstats.f.sf(f_stat, k, df)))
        assert _f_stars(probe) == _stars_oracle(p)
    assert _f_stars(dataclasses.replace(fit, f_statistic=math.inf)) == ""
    assert _f_stars(fit) == _stars_oracle(float(spstats.f.sf(fit.f_statistic, k, df)))


@pytest.mark.parametrize("p", [1.0, 0.1, 0.0999, 0.05, 0.0499, 0.01, 0.0099, 0.0, math.nan])
def test_stars_follow_the_star_thresholds(p):
    # a p-value at a threshold earns no star for it: the table's note says p < 0.1
    assert _stars(p) == _stars_oracle(p)


# --- treatment_table ------------------------------------------------------


def sim_table(
    seed,
    effect=1.3,
    noise_sd=1.4,
    n_treat=34,
    n_control=14,
    base=1.382,
    n_overlap=0,
    n_old_random=0,
):
    """Direct outcome simulation matching the experiment's shape.

    Overlap documents are earlier-round AI selections; old_random ones are
    earlier-round controls. Both carry round = 1.
    """
    rng = np.random.default_rng(seed)
    n = n_treat + n_control + n_old_random
    arm = np.array([0.0] * n_control + [1.0] * n_treat + [0.0] * n_old_random)
    overlap = np.zeros(n, dtype=bool)
    overlap[n_control : n_control + n_overlap] = True
    old_random = np.zeros(n, dtype=bool)
    old_random[n_control + n_treat :] = True
    rounds = (overlap | old_random).astype(float)
    order = rng.permutation(n)
    index = np.empty(n)
    index[order] = np.arange(1, n + 1)
    return {
        "fecundity": base + effect * arm + rng.normal(0, noise_sd, n),
        "ai_selected": arm,
        "index": index,
        "round": rounds,
        "length": rng.integers(500, 5000, n).astype(float),
        "overlap": overlap,
        "old_random": old_random,
    }


def test_treatment_spec1_recovers_effect():
    data = sim_table(seed=2024)
    fit = treatment_table(data, specs=(1,))[1]
    lo, hi = fit.ci95("ai_selected")
    assert lo <= 1.3 <= hi
    assert fit.n_obs == 48


def test_treatment_zero_effect_size_check():
    hits = 0
    for seed in range(500):
        data = sim_table(seed=seed, effect=0.0)
        fit = treatment_table(data, specs=(1,))[1]
        if abs(fit.t_stats["ai_selected"]) < 1.96:
            hits += 1
    assert hits >= 450  # |t| < 1.96 in at least 90% of seeds


def test_order_controls_leave_effect_stable():
    data = sim_table(seed=77)
    fits = treatment_table(data, specs=(1, 3))
    delta = abs(fits[1].coefficients["ai_selected"] - fits[3].coefficients["ai_selected"])
    assert delta < 0.2
    assert fits[3].param_names == ("const", "ai_selected", "index", "index_sq")


def test_treatment_samples_respect_flags():
    data = sim_table(seed=5, n_treat=30, n_control=14, n_overlap=3, n_old_random=4)
    fits = treatment_table(data)
    assert fits[1].n_obs == 41  # drops overlap and old-random rows
    assert fits[2].n_obs == 44  # keeps overlap
    assert fits[4].n_obs == 48
    assert fits[5].n_obs == 48
    assert fits[6].weighted


def test_planted_effect_recovered_within_two_se():
    """The experiment simulation recovers its planted effect in >= 95% of seeds."""
    from fecund.corpus import fecundity
    from fecund.synthetic import experiment_corpus

    planted = 1.4  # control rate x (ratio - 1)
    hits = 0
    n_seeds = 500
    for seed in range(n_seeds):
        docs, arms = experiment_corpus(seed)
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
        fit = treatment_table(data, specs=(1,))[1]
        if abs(fit.coefficients["ai_selected"] - planted) <= 2 * fit.standard_errors["ai_selected"]:
            hits += 1
    assert hits >= 0.95 * n_seeds


def test_treatment_missing_variable_names_spec():
    data = sim_table(seed=1)
    del data["round"]
    with pytest.raises(MissingVariableError) as err:
        treatment_table(data, specs=(4,))
    assert err.value.variable == "round"
    assert err.value.spec == 4


def test_format_table_renders_stars_note():
    data = sim_table(seed=2024, n_overlap=3, n_old_random=4)
    text = format_treatment_table(treatment_table(data))
    assert "*p<0.1; **p<0.05; ***p<0.01" in text
    assert "AI-selected" in text and "(1)" in text and "(6)" in text
    assert "Weighted by article length" in text


# --- length_residual_check ---------------------------------------------------


def _with_density(data, density):
    data = dict(data)
    data["ai_density"] = density
    return data


def test_length_residuals_orthogonal_to_fitted():
    data = sim_table(seed=9, n_overlap=3, n_old_random=4)
    rng = np.random.default_rng(9)
    data = _with_density(data, rng.normal(3, 1, len(data["fecundity"])))
    result = length_residual_check(data)
    resid = np.asarray(result.stage1.residuals)
    fitted = np.asarray(data["length"], dtype=float) - resid
    assert abs(resid @ fitted) <= 1e-6 * np.abs(fitted).max() * np.abs(resid).max()
    assert not result.residual_dropped
    assert "length_resid" in result.fit.param_names


def test_length_residuals_orthogonal_density_matches_spec5():
    # when AI density carries no length signal, adding residuals barely moves the arm coefficient
    data = sim_table(seed=21, n_overlap=3, n_old_random=4)
    rng = np.random.default_rng(21)
    data = _with_density(data, rng.normal(3, 1, len(data["fecundity"])))
    result = length_residual_check(data)
    assert result.stage1_r2 < 0.15
    spec5 = treatment_table(data, specs=(5,))[5]
    assert result.fit.coefficients["ai_selected"] == pytest.approx(
        spec5.coefficients["ai_selected"], abs=0.25
    )


def test_length_residuals_degenerate_dropped():
    data = sim_table(seed=13, n_overlap=3, n_old_random=4)
    data = _with_density(data, np.asarray(data["length"], dtype=float) * 0.5)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = length_residual_check(data)
    assert result.residual_dropped
    assert any("residual" in str(w.message) for w in caught)
    assert "length_resid" not in result.fit.param_names


# --- fit_quadratic -------------------------------------------------------------


def test_quadratic_exact_square():
    qmap = fit_quadratic([(x, x * x) for x in (-2.0, -1.0, 0.0, 1.0, 2.0)])
    assert (qmap.a, qmap.b, qmap.c) == pytest.approx((0, 0, 1), abs=1e-9)


def test_quadratic_constant():
    qmap = fit_quadratic([(x, 3.0) for x in (0.0, 1.0, 2.0)])
    assert (qmap.a, qmap.b, qmap.c) == pytest.approx((3, 0, 0), abs=1e-9)


def test_quadratic_matches_normal_equations():
    rng = np.random.default_rng(17)
    x = rng.normal(size=5)
    y = rng.normal(size=5)
    qmap = fit_quadratic(list(zip(x, y)))
    X = np.column_stack([np.ones(5), x, x**2])
    beta = np.linalg.solve(X.T @ X, X.T @ y)
    assert (qmap.a, qmap.b, qmap.c) == pytest.approx(tuple(beta), abs=1e-8)


def test_quadratic_needs_three_distinct_x():
    with pytest.raises(ValueError):
        fit_quadratic([(1.0, 1.0), (2.0, 2.0)])
    with pytest.raises(RankDeficiencyError):
        fit_quadratic([(1.0, 1.0), (1.0, 2.0), (1.0, 3.0)])


# --- superset_sweep --------------------------------------------------------------


def test_sweep_identity_constant_density_is_flat():
    # one fresh code per equal-length doc: any selection has the same density
    docs = collection(
        [make_doc(f"d{i:03d}", [f"u{i}"], length=100, source="ai") for i in range(60)]
    )
    points = superset_sweep(
        docs, "ai", IDENTITY_MAP, seed=4, sizes=(30, 60), replicates=3, n_budget_docs=10
    )
    assert all(p.normalized_pct == pytest.approx(100.0) for p in points)


def test_sweep_baseline_first_and_deterministic():
    docs, _ = synth_corpus(80, seed=6, coder_source="ai", n_codes=40)
    a = superset_sweep(docs, "ai", IDENTITY_MAP, seed=1, sizes=(40, 80), replicates=3,
                       n_budget_docs=10)
    b = superset_sweep(docs, "ai", IDENTITY_MAP, seed=1, sizes=(40, 80), replicates=3,
                       n_budget_docs=10)
    assert a == b
    assert a[0].size == 10 and a[0].normalized_pct == 100.0
    assert [p.size for p in a[1:]] == [40, 80]


def test_sweep_baseline_labels_the_size_sampled():
    """A budget of more documents than the set holds samples the whole set,
    and the baseline point says so."""
    docs, _ = synth_corpus(30, seed=6, coder_source="ai", n_codes=40)
    points = superset_sweep(docs, "ai", IDENTITY_MAP, seed=1, sizes=(10,), replicates=2,
                            n_budget_docs=40)
    assert [p.size for p in points] == [30, 10]
    assert points[0].normalized_pct == 100.0


def test_sweep_larger_supersets_help():
    docs, _ = synth_corpus(120, seed=31, coder_source="ai", n_codes=60)
    points = superset_sweep(
        docs, "ai", IDENTITY_MAP, seed=2, sizes=(40, 120), replicates=4, n_budget_docs=8
    )
    assert points[1].normalized_pct > 100.0
    assert points[2].normalized_pct >= points[1].normalized_pct


def test_sweep_oversized_subset_errors():
    docs = collection([make_doc(f"d{i}", ["x"], source="ai") for i in range(10)])
    with pytest.raises(SampleSizeError):
        superset_sweep(docs, "ai", IDENTITY_MAP, seed=0, sizes=(50,))


def test_corpus_density_conservation_view():
    docs = collection([
        make_doc("a", ["x", "y"], length=500, source="ai"),
        make_doc("b", ["x"], length=500, source="ai"),
    ])
    assert corpus_code_density(docs, "ai") == pytest.approx(2 / 1000 * 1000)
    # a Python float: sweep.csv writes repr(), which spells a numpy scalar out
    assert type(corpus_code_density(docs, "ai")) is float
