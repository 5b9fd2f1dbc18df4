"""Command-line pipeline: synth -> code -> select -> saturate -> analyze -> sweep.

Every stochastic command takes a mandatory --seed and writes byte-stable
outputs; timestamps live only in the run_meta.json sidecar. Config files
are flat key = value pairs (TOML-compatible) keyed by flag names with
underscores; command-line flags win over config values.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
import time
from pathlib import Path

from . import __version__
from .coder import (
    FEWSHOT_CHAIN,
    ROUND1_CHAIN,
    SOCRATIC_CHAIN,
    MockCoder,
    RemoteCoder,
    RemoteConfig,
    code_passages,
    passage_key,
)
from .corpus import fecundity, summary_stats
from .errors import (
    CollectionFormatError,
    FecundError,
    RankDeficiencyError,
    TransportError,
)
from .ingest import _read_csv, load_articles, load_collection, split_passages, write_collection
from .saturation import (
    CountingRegime,
    REGIME_KINDS,
    bootstrap_bands,
    cumulative_curve,
    position_trend,
)
from .selection import (
    SelectionBudget,
    ValueFunction,
    interleave_blinded,
    select_greedy,
    select_random,
)
from .stats import (
    QuadraticMap,
    fit_quadratic,
    format_treatment_table,
    length_residual_check,
    superset_sweep,
    treatment_table,
    treatment_table_rows,
)
from .svgplot import line_chart
from .synthetic import synth_articles, synth_corpus

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_DATA = 4
EXIT_REMOTE = 5

CHAINS = {"socratic": SOCRATIC_CHAIN, "fewshot": FEWSHOT_CHAIN, "round1": ROUND1_CHAIN}


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_meta(out: Path, args) -> None:
    meta = {
        "command": args.command,
        "version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "args": {k: v for k, v in sorted(vars(args).items()) if k != "func"},
    }
    (out / "run_meta.json").write_text(
        json.dumps(meta, indent=2, default=str) + "\n", encoding="utf-8"
    )


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _fmt(value) -> str:
    # repr keeps float round-trips exact and byte-stable across platforms
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _load(args):
    codes = [p for p in (args.codes or "").split(",") if p]
    return load_collection(args.docs, codes or None, getattr(args, "themes", None))


# --- synth -----------------------------------------------------------------


def cmd_synth(args) -> int:
    out = _out_dir(args)
    texts = None
    lengths = None
    if args.with_text:
        articles = synth_articles(args.n_docs, args.seed)
        texts = {a.id: a.full_text for a in articles}
        lengths = [len(a.full_text) for a in articles]
    docs, codebook = synth_corpus(
        args.n_docs,
        seed=args.seed,
        n_codes=args.n_codes,
        zipf_exponent=args.zipf,
        mean_length=args.mean_len,
        codes_per_kchar=args.codes_per_kchar,
        coder_source=args.coder_source,
        n_themes=args.themes_count,
        lengths=lengths,
    )
    write_collection(
        docs,
        codebook,
        out / "documents.jsonl",
        out / "codes.csv",
        (out / "themes.csv") if args.themes_count > 0 else None,
        texts=texts,
    )
    _write_meta(out, args)
    print(f"wrote {len(docs)} documents to {out}")
    return EXIT_OK


# --- ingest ----------------------------------------------------------------


def cmd_ingest(args) -> int:
    docs, codebook = _load(args)
    out = _out_dir(args)
    lengths = docs.lengths.tolist()
    summary = {
        "documents": len(docs),
        "codes": len(codebook.entries),
        "themes": len(codebook.themes or {}),
        "coder_sources": sorted(docs.matrices),
        "length": vars(summary_stats(lengths)) if lengths else None,
    }
    (out / "collection_summary.json").write_text(
        json.dumps(summary, indent=2) + "\n", encoding="utf-8"
    )
    _write_meta(out, args)
    print(json.dumps(summary, indent=2))
    return EXIT_OK


# --- code ------------------------------------------------------------------


def _load_summaries(path: str | None) -> dict[str, str]:
    if not path:
        return {}
    return {doc_id: summary for _, (doc_id, summary) in _read_csv(path, ("doc_id", "summary"))}


def _load_fewshot(clusters_path: str | None, exemplars_path: str | None) -> dict[str, str]:
    if not clusters_path or not exemplars_path:
        return {}
    exemplars: dict[str, list[str]] = {}
    for _, (cluster_id, code_label) in _read_csv(exemplars_path, ("cluster_id", "code_label")):
        exemplars.setdefault(cluster_id, []).append(code_label)
    context = {}
    for _, (passage_id, cluster_id) in _read_csv(clusters_path, ("passage_id", "cluster_id")):
        labels = exemplars.get(cluster_id, [])
        context[passage_id] = json.dumps(labels, ensure_ascii=False)
    return context


def cmd_code(args) -> int:
    out = _out_dir(args)
    articles = load_articles(args.docs)
    passages = [
        p for a in articles for p in split_passages(a, min_len=args.min_passage_len)
    ]
    summaries = _load_summaries(args.summaries)
    for article in articles:
        # offline stand-in for model-written abstracts
        summaries.setdefault(article.id, article.full_text[:120])
    if args.backend == "mock":
        backend = MockCoder(
            seed=args.seed,
            vocab_size=args.vocab_size,
            zipf_exponent=args.zipf,
            mean_codes_per_kchar=args.codes_per_kchar,
        )
    else:
        if not args.url or not args.model:
            print("error: remote backend requires --url and --model", file=sys.stderr)
            return EXIT_USAGE
        backend = RemoteCoder(
            RemoteConfig(
                url=args.url,
                model=args.model,
                token_env=args.token_env,
                timeout=args.timeout,
                max_retries=args.retries,
                temperature=args.temperature,
                max_in_flight=args.max_in_flight,
            )
        )
    run = code_passages(
        passages,
        backend,
        CHAINS[args.chain],
        summaries=summaries,
        fewshot_context=_load_fewshot(args.clusters, args.exemplars),
    )
    by_key = {passage_key(p): p for p in passages}
    article_len = {a.id: len(a.full_text) for a in articles}
    rows = []
    for key, response in run:
        if response.theme is None:
            continue
        passage = by_key[key]
        midpoint = (passage.char_span[0] + passage.char_span[1]) / 2
        position = midpoint / max(1, article_len[passage.article_id])
        rows.append(
            [passage.article_id, args.coder_source, response.theme, repr(min(1.0, position))]
        )
    _write_csv(out / "ai_codes.csv", ["doc_id", "coder_source", "code_label", "position"], rows)
    if run.errors:
        _write_csv(out / "coding_errors.csv", ["passage_id", "error"], [list(e) for e in run.errors])
        print(f"{len(run.errors)} passage(s) failed; see coding_errors.csv", file=sys.stderr)
    _write_meta(out, args)
    print(f"coded {len(passages)} passages -> {len(rows)} codes ({out / 'ai_codes.csv'})")
    return EXIT_OK if not run.errors else EXIT_REMOTE


# --- select ----------------------------------------------------------------


def cmd_select(args) -> int:
    out = _out_dir(args)
    docs, _ = _load(args)
    vf = ValueFunction(args.value_function)
    if args.budget_chars is not None:
        budget = SelectionBudget(args.budget_chars)
    else:
        budget = SelectionBudget.from_mean_docs(docs, args.budget_docs)
    treatment = select_greedy(
        docs, budget, vf, args.coder_source, cost_benefit=not args.plain_gain
    )
    control = select_random(
        docs, args.control_docs, seed=args.seed, coder_source=args.coder_source,
        value_function=vf,
    )
    reading_order = interleave_blinded(treatment, control, seed=args.seed)

    payload = {
        "selected_ids": list(treatment.selected_ids),
        "objective_value": treatment.objective_value,
        "total_chars": treatment.total_chars,
        "gains": list(treatment.gains),
        "value_function": vf.kind,
        "budget_chars": budget.max_chars,
        "control": {
            "selected_ids": list(control.selected_ids),
            "objective_value": control.objective_value,
            "total_chars": control.total_chars,
        },
        "n_overlap": sum(1 for e in reading_order if e.arm == "overlap"),
    }
    (out / "selection.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )
    _write_csv(
        out / "manifest.csv",
        ["reading_index", "doc_id"],
        [[i + 1, e.doc_id] for i, e in enumerate(reading_order)],
    )
    _write_csv(
        out / "unblinding.csv",
        ["doc_id", "arm"],
        [[e.doc_id, e.arm] for e in reading_order],
    )
    _write_meta(out, args)
    print(
        f"selected {len(treatment.selected_ids)} docs "
        f"({treatment.total_chars} chars, objective {treatment.objective_value:.4f}); "
        f"manifest of {len(reading_order)} docs written to {out}"
    )
    return EXIT_OK


# --- saturate ----------------------------------------------------------------


def _manifest_order(docs, manifest_path: str):
    row_of = {doc_id: i for i, doc_id in enumerate(docs.ids)}
    rows = {}
    for lineno, (doc_id,) in _read_csv(manifest_path, ("doc_id",)):
        if doc_id not in row_of:
            raise CollectionFormatError(
                f"manifest references unknown document {doc_id!r}", manifest_path, lineno
            )
        if doc_id in rows:
            raise CollectionFormatError(
                f"manifest repeats document {doc_id!r}", manifest_path, lineno
            )
        rows[doc_id] = row_of[doc_id]
    return docs.take(list(rows.values()))


def cmd_saturate(args) -> int:
    out = _out_dir(args)
    docs, codebook = _load(args)
    order = _manifest_order(docs, args.order) if args.order else docs
    regimes = [CountingRegime(kind, hf_threshold=args.threshold) for kind in args.regimes]
    if args.bootstrap:
        bands = bootstrap_bands(
            order,
            regimes,
            args.coder_source,
            n_iterations=args.iterations,
            seed=args.seed,
            codebook=codebook,
        )
    for i, regime in enumerate(regimes):
        kind = regime.kind
        if args.bootstrap:
            band = bands[i]
            retained = len(band.lo95)
            columns = (band.mean_chars, band.mean_count, band.lo95, band.hi95)
            x, y, lo, hi = (c[:retained].tolist() for c in columns)
            header = ["step", "mean_chars", "mean_count", "lo95", "hi95"]
            rows = list(zip(range(1, retained + 1), *(map(repr, c) for c in (x, y, lo, hi))))
            shaded, title = (lo, hi), f"Cumulative {kind} (bootstrap mean, 95% band)"
        else:
            curve = cumulative_curve(order, regime, args.coder_source, codebook=codebook)
            x = [s.cumulative_chars for s in curve.steps]
            y = [s.cumulative_count for s in curve.steps]
            header = ["step", "doc_id", "cumulative_chars", "cumulative_count"]
            rows = list(zip(range(1, len(order) + 1), curve.document_order, x, y))
            shaded, title = None, f"Cumulative {kind}"
        _write_csv(out / f"curve_{kind}.csv", header, rows)
        if args.plot:
            line_chart(
                out / f"curve_{kind}.svg",
                x,
                y,
                band=shaded,
                title=title,
                x_label="cumulative characters",
                y_label="cumulative count",
            )
    if args.positions:
        trend = position_trend(order, args.coder_source, window=args.positions_window)
        _write_csv(
            out / "positions.csv",
            ["text_length", "median_position", "moving_average"],
            [[t.text_length, _fmt(t.median_position), _fmt(t.moving_average)] for t in trend],
        )
    _write_meta(out, args)
    print(f"wrote saturation curve(s) for {', '.join(args.regimes)} to {out}")
    return EXIT_OK


# --- analyze -----------------------------------------------------------------


def cmd_analyze(args) -> int:
    out = _out_dir(args)
    docs, _ = _load(args)
    ordered = _manifest_order(docs, args.manifest)
    arms = {}
    for lineno, (doc_id, arm) in _read_csv(args.unblinding, ("doc_id", "arm")):
        if arm not in ("treatment", "control", "overlap"):
            message = f"arm must be treatment, control or overlap, got {arm!r}"
            raise CollectionFormatError(message, args.unblinding, lineno)
        if doc_id in arms:
            message = f"unblinding repeats document {doc_id!r}"
            raise CollectionFormatError(message, args.unblinding, lineno)
        arms[doc_id] = arm
    extra = {}  # doc_id -> (round, old_random); 0.0 and False when not given
    if args.experiment:
        rows = _read_csv(args.experiment, ("doc_id",), ("round", "old_random"))
        for lineno, (doc_id, round_, old_random) in rows:
            flag = (old_random or "false").lower()
            try:
                if flag not in ("true", "false"):
                    raise ValueError(f"old_random must be true or false, got {old_random!r}")
                if doc_id in extra:
                    raise ValueError(f"experiment repeats document {doc_id!r}")
                extra[doc_id] = (float(round_ or 0), flag == "true")
            except ValueError as exc:
                raise CollectionFormatError(str(exc), args.experiment, lineno) from None
    unassigned = next((doc_id for doc_id in ordered.ids if doc_id not in arms), None)
    if unassigned is not None:
        message = f"no row for manifest document {unassigned!r}"
        raise CollectionFormatError(message, args.unblinding)

    doc_arms = [arms[doc_id] for doc_id in ordered.ids]
    given = [extra.get(doc_id, (0.0, False)) for doc_id in ordered.ids]
    data: dict[str, list] = {
        "fecundity": fecundity(ordered, args.outcome_source).tolist(),
        "ai_selected": [1.0 if arm in ("treatment", "overlap") else 0.0 for arm in doc_arms],
        "index": [float(i) for i in range(1, len(ordered) + 1)],
        "length": ordered.lengths.astype(float).tolist(),
        "overlap": [arm == "overlap" for arm in doc_arms],
        "old_random": [old_random for _, old_random in given],
        "round": [round_ for round_, _ in given],
        "ai_density": [],
    }
    with_density = bool(args.density_source) and args.density_source in ordered.matrices
    if with_density:
        data["ai_density"] = fecundity(ordered, args.density_source).tolist()

    feasible = [1, 2, 3, 6]
    fits: dict[int, object] = {}
    if len(set(data["round"])) > 1:
        feasible += [4, 5]
    else:
        fits[4] = "round has no variation in the provided data"
        fits[5] = "round has no variation in the provided data"
    for spec_no in feasible:
        try:
            fits.update(treatment_table(data, specs=(spec_no,)))
        except (RankDeficiencyError, ValueError) as exc:
            fits[spec_no] = str(exc)

    table_text = format_treatment_table(fits)
    (out / "treatment_table.txt").write_text(table_text, encoding="utf-8")
    rows = treatment_table_rows(fits)
    header = [
        "spec", "param", "coef", "se", "t", "p", "stars", "n_obs", "r2",
        "adj_r2", "resid_se", "df_resid", "f_stat", "skipped",
    ]
    _write_csv(
        out / "treatment_table.csv",
        header,
        [[_fmt(r.get(h, "")) for h in header] for r in rows],
    )

    if with_density and 5 in feasible:
        check = length_residual_check(data)
        lines = [
            f"stage-1 R2 (length on AI density): {check.stage1.r2:.3f}",
            "residual regressor dropped: " + str(check.residual_dropped),
            "",
            format_treatment_table({5: check.fit}),
        ]
        (out / "length_residuals.txt").write_text("\n".join(lines), encoding="utf-8")

    arm_rows = []
    for arm in ("control", "treatment", "overlap"):
        members = [i for i, a in enumerate(doc_arms) if a == arm]
        if not members:
            continue
        for var, column in (("fecundity", "fecundity"), ("text_length", "length")):
            s = summary_stats([data[column][i] for i in members])
            arm_rows.append(
                [arm, var, _fmt(s.mean), s.n, _fmt(s.ci95_lower), _fmt(s.ci95_upper),
                 _fmt(s.p25), _fmt(s.p75)]
            )
    _write_csv(
        out / "arm_summary.csv",
        ["arm", "variable", "mean", "n", "ci95_lower", "ci95_upper", "p25", "p75"],
        arm_rows,
    )
    _write_meta(out, args)
    print(table_text)
    return EXIT_OK


# --- sweep -------------------------------------------------------------------


def cmd_sweep(args) -> int:
    out = _out_dir(args)
    docs, _ = _load(args)
    if args.quadratic:
        qmap = QuadraticMap(*args.quadratic)
    elif args.pairs:
        pairs = []
        for lineno, (ai, human) in _read_csv(args.pairs, ("ai_density", "human_density")):
            try:
                pairs.append((float(ai), float(human)))
            except ValueError as exc:
                raise CollectionFormatError(str(exc), args.pairs, lineno) from None
        qmap = fit_quadratic(pairs)
    else:
        print("error: sweep requires --quadratic a,b,c or --pairs FILE", file=sys.stderr)
        return EXIT_USAGE
    points = superset_sweep(
        docs,
        args.coder_source,
        qmap,
        seed=args.seed,
        sizes=args.sizes,
        replicates=args.replicates,
        n_budget_docs=args.budget_docs,
        value_function=ValueFunction(args.value_function),
    )
    _write_csv(
        out / "sweep.csv",
        ["size", "mean_ai_density", "predicted_human_density", "normalized_pct"],
        [
            [p.size, _fmt(p.mean_ai_density), _fmt(p.predicted_human_density), _fmt(p.normalized_pct)]
            for p in points
        ],
    )
    if args.plot:
        line_chart(
            out / "sweep.svg",
            [p.size for p in points],
            [p.normalized_pct for p in points],
            title="Predicted benefit vs. superset size",
            x_label="superset size",
            y_label="normalized predicted density (%)",
            points=True,
        )
    _write_meta(out, args)
    for p in points:
        print(f"size {p.size:>6}: density {p.mean_ai_density:.4f} -> {p.normalized_pct:.1f}%")
    return EXIT_OK


# --- wiring ------------------------------------------------------------------


def _parse_flat_config(path: str) -> dict[str, str]:
    """Each key's value, unquoted; argparse checks it as the flag's value."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        value = value.strip()
        if value.startswith(("'", '"')) and value.endswith(value[0]) and len(value) >= 2:
            value = value[1:-1]
        values[key.strip().replace("-", "_")] = value
    return values


def _int_at_least(text: str, minimum: int = 1) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < minimum:
        raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
    return value


def _finite_float(text: str, minimum: float = -math.inf) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not (math.isfinite(value) and value >= minimum):  # also rejects NaN
        at_least = "" if minimum == -math.inf else f" >= {minimum:g}"
        raise argparse.ArgumentTypeError(f"must be a finite number{at_least}, got {text}")
    return value


_int_at_least_zero = functools.partial(_int_at_least, minimum=0)
_non_negative_float = functools.partial(_finite_float, minimum=0.0)


def _positive_ints(text: str) -> list[int]:
    return [_int_at_least(part) for part in text.split(",")]


def _regimes(text: str) -> list[str]:
    kinds = [part.strip() for part in text.split(",") if part.strip()]
    if not kinds or len(set(kinds)) < len(kinds) or not set(kinds) <= set(REGIME_KINDS):
        raise argparse.ArgumentTypeError(
            f"expected distinct names from {', '.join(REGIME_KINDS)}, got {text!r}"
        )
    return kinds


def _quadratic(text: str) -> tuple[float, float, float]:
    try:
        a, b, c = (float(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected three numbers a,b,c, got {text!r}") from None
    return a, b, c


def _add_common(parser: argparse.ArgumentParser, seed: bool = True) -> None:
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--config", help="flat key = value config file")
    parser.add_argument("--plot", action="store_true", help="also write SVG plots")
    if seed:
        parser.add_argument("--seed", type=int, required=True, help="RNG seed (mandatory)")


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="fecund",
        description="Corpus selection by code diversity and saturation analytics",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    # no flag prefixes: main() finds --config in argv by its exact spelling
    exact = functools.partial(argparse.ArgumentParser, allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=exact)
    commands: dict[str, argparse.ArgumentParser] = {}

    p = sub.add_parser("synth", help="generate a synthetic coded corpus")
    _add_common(p)
    p.add_argument("--n-docs", type=_int_at_least_zero, default=60)
    p.add_argument("--n-codes", type=_int_at_least, default=80)
    p.add_argument("--zipf", type=_finite_float, default=1.1)
    p.add_argument("--mean-len", type=_int_at_least, default=2000)
    p.add_argument("--codes-per-kchar", type=_non_negative_float, default=3.0)
    p.add_argument("--coder-source", default="human")
    p.add_argument("--themes-count", type=_int_at_least_zero, default=8)
    p.add_argument("--with-text", action="store_true")
    p.set_defaults(func=cmd_synth)
    commands["synth"] = p

    p = sub.add_parser("ingest", help="validate a collection and summarize it")
    _add_common(p, seed=False)
    p.add_argument("--docs", required=True)
    p.add_argument("--codes")
    p.add_argument("--themes")
    p.set_defaults(func=cmd_ingest)
    commands["ingest"] = p

    p = sub.add_parser("code", help="produce AI codes for article passages")
    _add_common(p)
    p.add_argument("--docs", required=True, help="documents.jsonl with text")
    p.add_argument("--backend", choices=("mock", "remote"), default="mock")
    p.add_argument("--chain", choices=sorted(CHAINS), default="socratic")
    p.add_argument("--coder-source", default="ai")
    p.add_argument("--min-passage-len", type=int, default=100)
    p.add_argument("--vocab-size", type=_int_at_least, default=200)
    p.add_argument("--zipf", type=_finite_float, default=1.1)
    p.add_argument("--codes-per-kchar", type=_non_negative_float, default=3.0)
    p.add_argument("--summaries", help="csv: doc_id,summary")
    p.add_argument("--clusters", help="csv: passage_id,cluster_id")
    p.add_argument("--exemplars", help="csv: cluster_id,code_label")
    p.add_argument("--url")
    p.add_argument("--model")
    p.add_argument("--token-env", default="CODER_API_TOKEN")
    p.add_argument("--timeout", type=float, default=30.0)
    p.add_argument("--retries", type=_int_at_least, default=3)
    p.add_argument("--temperature", type=float, default=0.0)
    p.add_argument("--max-in-flight", type=_int_at_least, default=4)
    p.set_defaults(func=cmd_code)
    commands["code"] = p

    p = sub.add_parser("select", help="select a reading corpus and a blinded order")
    _add_common(p)
    p.add_argument("--docs", required=True)
    p.add_argument("--codes", required=True, help="codes.csv (comma-separate to merge)")
    p.add_argument("--coder-source", default="ai")
    p.add_argument("--value-function", choices=("sqrt", "log1p", "unique"), default="sqrt")
    p.add_argument("--budget-chars", type=_int_at_least)
    p.add_argument("--budget-docs", type=_int_at_least, default=20)
    p.add_argument("--control-docs", type=_int_at_least_zero, default=20)
    p.add_argument("--plain-gain", action="store_true", help="rank by raw gain, not gain/char")
    p.set_defaults(func=cmd_select)
    commands["select"] = p

    p = sub.add_parser("saturate", help="cumulative code/theme curves, optional bootstrap")
    _add_common(p, seed=False)
    p.add_argument("--seed", type=int, help="RNG seed (mandatory with --bootstrap)")
    p.add_argument("--docs", required=True)
    p.add_argument("--codes", required=True)
    p.add_argument("--themes")
    p.add_argument("--coder-source", default="human")
    p.add_argument("--regimes", type=_regimes, default="unique")
    p.add_argument("--threshold", type=functools.partial(_int_at_least, minimum=2), default=3)
    p.add_argument("--order", help="manifest.csv fixing the document order")
    p.add_argument("--bootstrap", action="store_true")
    p.add_argument("--iterations", type=_int_at_least, default=2000)
    p.add_argument("--positions", action="store_true", help="also write positions.csv")
    p.add_argument("--positions-window", type=_int_at_least, default=5)
    p.set_defaults(func=cmd_saturate)
    commands["saturate"] = p

    p = sub.add_parser("analyze", help="treatment-effect regression tables")
    _add_common(p, seed=False)
    p.add_argument("--docs", required=True)
    p.add_argument("--codes", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--unblinding", required=True)
    p.add_argument("--experiment", help="csv: doc_id,round,old_random")
    p.add_argument("--outcome-source", default="human")
    p.add_argument("--density-source", default="ai")
    p.set_defaults(func=cmd_analyze)
    commands["analyze"] = p

    p = sub.add_parser("sweep", help="predicted benefit vs. superset size")
    _add_common(p)
    p.add_argument("--docs", required=True)
    p.add_argument("--codes", required=True)
    p.add_argument("--coder-source", default="ai")
    p.add_argument("--sizes", type=_positive_ints, help="comma-separated subset sizes")
    p.add_argument("--replicates", type=_int_at_least, default=10)
    p.add_argument("--budget-docs", type=_int_at_least, default=20)
    p.add_argument("--value-function", choices=("sqrt", "log1p", "unique"), default="sqrt")
    p.add_argument("--quadratic", type=_quadratic, help="a,b,c mapping AI density to human density")
    p.add_argument("--pairs", help="csv: ai_density,human_density to fit the quadratic")
    p.set_defaults(func=cmd_sweep)
    commands["sweep"] = p

    return parser, commands


def _config_path(argv: list[str]) -> str | None:
    """The path given as ``--config PATH`` or ``--config=PATH``; "" when it is missing."""
    for i, token in enumerate(argv):
        if token == "--config":
            return argv[i + 1] if i + 1 < len(argv) else ""
        if token.startswith("--config="):
            return token[len("--config="):]
    return None


def _config_argv(values: dict[str, str], parser: argparse.ArgumentParser) -> list[str]:
    """The config entries ``parser`` knows, as flags (a valueless flag when "true").

    Placed before the user's arguments, they are checked like typed flags,
    and a flag the user gives, parsed later, wins.
    """
    tokens = []
    for action in parser._actions:
        if action.dest not in values:
            continue
        flag, value = action.option_strings[-1], values[action.dest]
        if action.nargs != 0:
            tokens.append(f"{flag}={value}")
        elif value.lower() == "true":
            tokens.append(flag)
    return tokens


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, commands = build_parser()
    config = _config_path(argv)
    if config == "":
        print("error: --config needs a path", file=sys.stderr)
        return EXIT_USAGE
    if config is not None:
        try:
            values = _parse_flat_config(config)
        except OSError as exc:
            print(f"error: cannot read config: {exc}", file=sys.stderr)
            return EXIT_IO
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        at = next((i + 1 for i, token in enumerate(argv) if token in commands), None)
        if at is not None:
            argv[at:at] = _config_argv(values, commands[argv[at - 1]])
    args = parser.parse_args(argv)
    if getattr(args, "bootstrap", False) and args.seed is None:
        commands[args.command].error("--bootstrap requires --seed")
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename or exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"error: I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO
    except TransportError as exc:
        print(f"error: remote coder: {exc}", file=sys.stderr)
        return EXIT_REMOTE
    except (CollectionFormatError,) as exc:
        print(f"error: invalid collection: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (FecundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
