"""Command-line pipeline: synth -> code -> select -> saturate -> analyze -> sweep.

Every stochastic command takes a mandatory --seed and writes byte-stable
outputs; timestamps live only in the run_meta.json sidecar. Config files
are flat key = value pairs (TOML-compatible) keyed by flag names with
underscores; command-line flags win over config values, also over one for
the other flag of an exclusive pair.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import json
import math
import sys
import time
from pathlib import Path

from . import __version__
from .errors import CodeCountError, CollectionFormatError, FecundError, TransportError
from .ingest import (
    _CODES_HEADER, _decode, _read_csv, _write_csv, load_articles, load_collection,
    split_passages, write_collection,
)

# The other layers are imported only by the commands that run them: `_bind`
# sets each layer's names below as globals of this module, where the
# commands look them up. A name already set, such as a wrapper patched onto
# this module, is kept.
_LAZY = {
    "coder": ("CHAINS", "MockCoder", "RemoteCoder", "RemoteConfig", "code_passages"),
    "corpus": ("fecundity", "summary_stats"),
    "saturation": (
        "CountingRegime", "REGIME_KINDS", "bootstrap_bands", "cumulative_curve", "position_trend",
    ),
    "selection": (
        "SelectionBudget", "ValueFunction", "interleave_blinded", "select_greedy", "select_random",
    ),
    "stats": (
        "ROUND_CONSTANT", "QuadraticMap", "arm_data", "arm_summaries", "fit_quadratic",
        "format_treatment_table", "length_residual_check", "superset_sweep", "treatment_table",
        "treatment_table_rows",
    ),
    "svgplot": ("line_chart",),
    "synthetic": ("synth_articles", "synth_corpus"),
}
_LAYER_OF = {name: layer for layer, names in _LAZY.items() for name in names}
_LAYERS = {  # command -> the layers it runs
    "synth": ("synthetic",),
    "ingest": ("corpus",),
    "code": ("coder",),
    "select": ("selection",),
    "saturate": ("saturation", "svgplot"),
    "analyze": ("stats", "corpus"),
    "sweep": ("selection", "stats", "svgplot"),
}


def _bind(layer: str) -> None:
    module = importlib.import_module(f".{layer}", __package__)
    for name in _LAZY[layer]:
        globals().setdefault(name, getattr(module, name))


def __getattr__(name: str):
    if name not in _LAYER_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind(_LAYER_OF[name])
    return globals()[name]


EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_DATA = 4
EXIT_REMOTE = 5


def _write_json(path: Path, obj) -> None:
    """``obj`` as indented JSON; a value JSON cannot hold, such as a path, as its str."""
    path.write_text(json.dumps(obj, indent=2, default=str) + "\n", encoding="utf-8")


def _write_meta(out: Path, args) -> None:
    _write_json(out / "run_meta.json", {
        "command": args.command,
        "version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "args": {k: v for k, v in sorted(vars(args).items()) if k != "func"},
    })


def _load(args):
    codes = [p for p in (args.codes or "").split(",") if p]
    return load_collection(args.docs, codes or None, getattr(args, "themes", None))


# --- synth -----------------------------------------------------------------


def cmd_synth(args, out: Path) -> int:
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
    print(f"wrote {len(docs)} documents to {out}")
    return EXIT_OK


# --- ingest ----------------------------------------------------------------


def cmd_ingest(args, out: Path) -> int:
    docs, codebook = _load(args)
    lengths = docs.lengths.tolist()
    summary = {
        "documents": len(docs),
        "codes": len(codebook.entries),
        "themes": len(codebook.themes or {}),
        "coder_sources": sorted(docs.matrices),
        "length": vars(summary_stats(lengths)) if lengths else None,
    }
    _write_json(out / "collection_summary.json", summary)
    print(json.dumps(summary, indent=2))
    return EXIT_OK


# --- code ------------------------------------------------------------------


def _unique_rows(path: str, columns: tuple[str, str], what: str) -> dict[str, str]:
    """The CSV's second column keyed by its first; a repeated key raises with file:line."""
    values: dict[str, str] = {}
    for lineno, (key, value) in _read_csv(path, columns):
        if key in values:
            raise CollectionFormatError(f"{what} {key!r}", path, lineno)
        values[key] = value
    return values


def _load_summaries(path: str | None) -> dict[str, str]:
    return _unique_rows(path, ("doc_id", "summary"), "summaries repeat document") if path else {}


def _load_fewshot(clusters_path: str | None, exemplars_path: str | None) -> dict[str, str]:
    if not clusters_path:  # main refuses one of the pair without the other
        return {}
    exemplars: dict[str, list[str]] = {}
    for _, (cluster_id, code_label) in _read_csv(exemplars_path, ("cluster_id", "code_label")):
        exemplars.setdefault(cluster_id, []).append(code_label)
    clusters = _unique_rows(clusters_path, ("passage_id", "cluster_id"), "clusters repeat passage")
    return {passage_id: json.dumps(exemplars.get(cluster_id, []), ensure_ascii=False)
            for passage_id, cluster_id in clusters.items()}


def cmd_code(args, out: Path) -> int:
    articles = load_articles(args.docs)
    passages = [p for a in articles for p in split_passages(a, min_len=args.min_passage_len)]
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
    context = _load_fewshot(args.clusters, args.exemplars)
    run = code_passages(passages, backend, CHAINS[args.chain], summaries, context)
    article_len = {a.id: len(a.full_text) for a in articles}
    ids, labels, positions = [], [], []
    for passage, response in run:
        if response.theme is None:
            continue
        midpoint = (passage.char_span[0] + passage.char_span[1]) / 2
        ids.append(passage.article_id)
        labels.append(response.theme)
        positions.append(repr(min(1.0, midpoint / max(1, article_len[passage.article_id]))))
    _write_csv(out / "ai_codes.csv", _CODES_HEADER,
               [ids, [args.coder_source] * len(ids), labels, positions])
    if run.errors:
        _write_csv(out / "coding_errors.csv", ["passage_id", "error"], list(zip(*run.errors)))
        print(f"{len(run.errors)} passage(s) failed; see coding_errors.csv", file=sys.stderr)
    print(f"coded {len(passages)} passages -> {len(ids)} codes ({out / 'ai_codes.csv'})")
    return EXIT_OK if not run.errors else EXIT_REMOTE


# --- select ----------------------------------------------------------------


def cmd_select(args, out: Path) -> int:
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
    _write_json(out / "selection.json", payload)
    ids = [e.doc_id for e in reading_order]
    steps = list(map(str, range(1, len(ids) + 1)))
    _write_csv(out / "manifest.csv", ["reading_index", "doc_id"], [steps, ids])
    _write_csv(out / "unblinding.csv", ["doc_id", "arm"], [ids, [e.arm for e in reading_order]])
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


def cmd_saturate(args, out: Path) -> int:
    docs, codebook = _load(args)
    if "themes" in args.regimes and not codebook.theme_map:
        message = "maps no code to a theme, so the themes regime has nothing to count"
        raise CollectionFormatError(message, args.themes)
    order = _manifest_order(docs, args.order) if args.order else docs
    regimes = [CountingRegime(kind, hf_threshold=args.threshold) for kind in args.regimes]
    steps = list(map(str, range(1, len(order) + 1)))
    if args.bootstrap:
        if len(order) < 2:
            message = f"--bootstrap needs at least 2 documents, got {len(order)}"
            raise CollectionFormatError(message, args.order or args.docs)
        bands = bootstrap_bands(
            order,
            regimes,
            args.coder_source,
            n_iterations=args.iterations,
            seed=args.seed,
            codebook=codebook,
        )
        retained = len(bands[0].lo95)
        x = bands[0].mean_chars[:retained].tolist()  # every band holds this one array
        lead = [steps[:retained], list(map(repr, x))]
    for i, regime in enumerate(regimes):
        kind = regime.kind
        path = out / f"curve_{kind}.csv"
        if args.bootstrap:
            band = bands[i]
            y, lo, hi = (c[:retained].tolist() for c in (band.mean_count, band.lo95, band.hi95))
            header = ["step", "mean_chars", "mean_count", "lo95", "hi95"]
            _write_csv(path, header, [*lead, *(list(map(repr, c)) for c in (y, lo, hi))])
            shaded, title = (lo, hi), f"Cumulative {kind} (bootstrap mean, 95% band)"
        else:
            curve = cumulative_curve(order, regime, args.coder_source, codebook=codebook)
            x, y = curve.chars, curve.counts
            header = ["step", "doc_id", "cumulative_chars", "cumulative_count"]
            counts = (list(map(str, c)) for c in (x, y))
            _write_csv(path, header, [steps, curve.document_order, *counts])
            shaded, title = None, f"Cumulative {kind}"
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
        header = ["text_length", "median_position", "moving_average"]
        columns = [[str(getattr(t, h)) for t in trend] for h in header]
        _write_csv(out / "positions.csv", header, columns)
    print(f"wrote saturation curve(s) for {', '.join(args.regimes)} to {out}")
    return EXIT_OK


# --- analyze -----------------------------------------------------------------


def cmd_analyze(args, out: Path) -> int:
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
                round_ = float(round_ or 0)
                if not math.isfinite(round_):
                    raise ValueError(f"round must be a finite number, got {round_}")
                extra[doc_id] = (round_, flag == "true")
            except ValueError as exc:
                raise CollectionFormatError(str(exc), args.experiment, lineno) from None
    unassigned = next((doc_id for doc_id in ordered.ids if doc_id not in arms), None)
    if unassigned is not None:
        message = f"no row for manifest document {unassigned!r}"
        raise CollectionFormatError(message, args.unblinding)

    outcome = fecundity(ordered, args.outcome_source)
    with_density = bool(args.density_source) and args.density_source in ordered.matrices
    density = fecundity(ordered, args.density_source) if with_density else None
    data = arm_data(ordered, arms, outcome, density, extra)

    fits = treatment_table(data)
    table_text = format_treatment_table(fits)
    (out / "treatment_table.txt").write_text(table_text, encoding="utf-8")
    _write_csv(out / "treatment_table.csv", *treatment_table_rows(fits))
    if args.density_source and fits[5] != ROUND_CONSTANT:  # the check extends specification 5
        text = (_length_residuals(data, fits[5]) if with_density else
                f"skipped: no --codes file gives density source {args.density_source!r}\n")
        (out / "length_residuals.txt").write_text(text, encoding="utf-8")
    _write_csv(out / "arm_summary.csv", *arm_summaries(data))
    print(table_text)
    return EXIT_OK


def _length_residuals(data: dict[str, list], spec5) -> str:
    """``length_residuals.txt``: the residual check's fit, or why it was skipped."""
    if isinstance(spec5, str):  # the check adds a column to specification 5's design
        return f"skipped: {spec5}\n"
    try:
        check = length_residual_check(data)
    except ValueError as exc:  # RankDeficiencyError among them
        return f"skipped: {exc}\n"
    lines = [
        f"stage-1 R2 (length on AI density): {check.stage1.r2:.3f}",
        "residual regressor dropped: " + str(check.residual_dropped),
        "",
        format_treatment_table({5: check.fit}),
    ]
    return "\n".join(lines)


# --- sweep -------------------------------------------------------------------


def cmd_sweep(args, out: Path) -> int:
    docs, _ = _load(args)
    if args.quadratic:
        qmap = QuadraticMap(*args.quadratic)
    else:  # argparse takes exactly one of the two maps
        pairs = []
        for lineno, (ai, human) in _read_csv(args.pairs, ("ai_density", "human_density")):
            try:
                pairs.append((float(ai), float(human)))
                if not all(map(math.isfinite, pairs[-1])):
                    raise ValueError(f"densities must be finite numbers, got {ai!r}, {human!r}")
            except ValueError as exc:
                raise CollectionFormatError(str(exc), args.pairs, lineno) from None
        try:
            qmap = fit_quadratic(pairs)
        except ValueError as exc:  # too few rows, or too few distinct ai_density values
            raise CollectionFormatError(str(exc), args.pairs) from None
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
    header = ["size", "mean_ai_density", "predicted_human_density", "normalized_pct"]
    _write_csv(out / "sweep.csv", header, [[str(getattr(p, h)) for p in points] for h in header])
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
    for p in points:
        print(f"size {p.size:>6}: density {p.mean_ai_density:.4f} -> {p.normalized_pct:.1f}%")
    return EXIT_OK


# --- wiring ------------------------------------------------------------------


def _parse_flat_config(path: str) -> dict[str, str]:
    """Each key's value, unquoted; argparse checks it as the flag's value."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(_decode(Path(path).read_bytes(), path).splitlines(), 1):
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


def _finite_float(text: str, minimum: float = -math.inf, strict: bool = False) -> float:
    """A finite float of at least ``minimum`` (above it when ``strict``)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    in_range = value > minimum if strict else value >= minimum
    if not (math.isfinite(value) and in_range):  # also rejects NaN
        bound = "" if minimum == -math.inf else f" {'>' if strict else '>='} {minimum:g}"
        raise argparse.ArgumentTypeError(f"must be a finite number{bound}, got {text}")
    return value


_int_at_least_zero = functools.partial(_int_at_least, minimum=0)
_non_negative_float = functools.partial(_finite_float, minimum=0.0)
_positive_float = functools.partial(_finite_float, minimum=0.0, strict=True)


def _mean_len(text: str) -> int:
    """At least 1 and below 2**53, the cap on a collection's total length,
    which ``synth_corpus`` checks on the lengths drawn around this mean."""
    value = _int_at_least(text)
    if value >= 2**53:
        raise argparse.ArgumentTypeError(f"must be below 2**53, got {value}")
    return value


def _positive_ints(text: str) -> list[int]:
    return [_int_at_least(part) for part in text.split(",")]


def _regimes(text: str) -> list[str]:
    _bind("saturation")  # parsing runs before main binds the command's layers
    kinds = [part.strip() for part in text.split(",") if part.strip()]
    if not kinds or len(set(kinds)) < len(kinds) or not set(kinds) <= set(REGIME_KINDS):
        raise argparse.ArgumentTypeError(
            f"expected distinct names from {', '.join(REGIME_KINDS)}, got {text!r}"
        )
    return kinds


def _quadratic(text: str) -> tuple[float, float, float]:
    try:
        a, b, c = text.split(",")
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected three numbers a,b,c, got {text!r}") from None
    return _finite_float(a), _finite_float(b), _finite_float(c)


def _add_common(parser: argparse.ArgumentParser, seed: bool = True, plot: bool = False) -> None:
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--config", help="flat key = value config file")
    if plot:  # only the commands that draw take it
        parser.add_argument("--plot", action="store_true", help="also write SVG plots")
    if seed:
        parser.add_argument(
            "--seed", type=_int_at_least_zero, required=True, help="RNG seed (mandatory)"
        )


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

    p = sub.add_parser("synth", help="generate a synthetic coded corpus")
    _add_common(p)
    p.add_argument("--n-docs", type=_int_at_least_zero, default=60)
    p.add_argument("--n-codes", type=_int_at_least, default=80)
    p.add_argument("--zipf", type=_finite_float, default=1.1)
    p.add_argument("--mean-len", type=_mean_len, default=2000)
    p.add_argument("--codes-per-kchar", type=_non_negative_float, default=3.0)
    p.add_argument("--coder-source", default="human")
    p.add_argument("--themes-count", type=_int_at_least_zero, default=8)
    p.add_argument("--with-text", action="store_true")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("ingest", help="validate a collection and summarize it")
    _add_common(p, seed=False)
    p.add_argument("--docs", required=True)
    p.add_argument("--codes")
    p.add_argument("--themes")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("code", help="produce AI codes for article passages")
    _add_common(p)
    p.add_argument("--docs", required=True, help="documents.jsonl with text")
    p.add_argument("--backend", choices=("mock", "remote"), default="mock")
    # literal, so that parsing imports no coder; equal to sorted(coder.CHAINS)
    p.add_argument("--chain", choices=("fewshot", "round1", "socratic"), default="socratic")
    p.add_argument("--coder-source", default="ai")
    p.add_argument("--min-passage-len", type=_int_at_least_zero, default=100)
    p.add_argument("--vocab-size", type=_int_at_least, default=200)
    p.add_argument("--zipf", type=_finite_float, default=1.1)
    p.add_argument("--codes-per-kchar", type=_non_negative_float, default=3.0)
    p.add_argument("--summaries", help="csv: doc_id,summary")
    p.add_argument("--clusters", help="csv: passage_id,cluster_id")
    p.add_argument("--exemplars", help="csv: cluster_id,code_label")
    p.add_argument("--url")
    p.add_argument("--model")
    p.add_argument("--token-env", default="CODER_API_TOKEN")
    p.add_argument("--timeout", type=_positive_float, default=30.0)
    p.add_argument("--retries", type=_int_at_least, default=3)
    p.add_argument("--temperature", type=_non_negative_float, default=0.0)
    p.add_argument("--max-in-flight", type=_int_at_least, default=4)
    p.set_defaults(func=cmd_code)

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

    p = sub.add_parser("saturate", help="cumulative code/theme curves, optional bootstrap")
    _add_common(p, seed=False, plot=True)
    p.add_argument(
        "--seed", type=_int_at_least_zero, help="RNG seed (mandatory with --bootstrap)"
    )
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

    p = sub.add_parser("sweep", help="predicted benefit vs. superset size")
    _add_common(p, plot=True)
    p.add_argument("--docs", required=True)
    p.add_argument("--codes", required=True)
    p.add_argument("--coder-source", default="ai")
    p.add_argument("--sizes", type=_positive_ints, help="comma-separated subset sizes")
    p.add_argument("--replicates", type=_int_at_least, default=10)
    p.add_argument("--budget-docs", type=_int_at_least, default=20)
    p.add_argument("--value-function", choices=("sqrt", "log1p", "unique"), default="sqrt")
    g = p.add_mutually_exclusive_group(required=True)  # exactly one map
    g.add_argument("--quadratic", type=_quadratic, help="a,b,c mapping AI density to human density")
    g.add_argument("--pairs", help="csv: ai_density,human_density to fit the quadratic")
    p.set_defaults(func=cmd_sweep)

    return parser, sub.choices


def _config_path(argv: list[str]) -> str | None:
    """The path given as ``--config PATH`` or ``--config=PATH``; "" when it is missing."""
    for i, token in enumerate(argv):
        if token == "--config":
            return argv[i + 1] if i + 1 < len(argv) else ""
        if token.startswith("--config="):
            return token[len("--config="):]
    return None


def _config_argv(
    values: dict[str, str], parser: argparse.ArgumentParser, argv: list[str]
) -> list[str]:
    """The config entries ``parser`` knows, as flags (a valueless flag when "true").

    Placed before the user's arguments ``argv``, they are checked like typed
    flags, and a flag the user gives, parsed later, wins. An entry whose
    mutually exclusive group has a flag in ``argv`` is left out, so that
    flag wins over the other flags of its group too. A valueless flag's
    value must be true or false, in any case; anything else raises ValueError.
    """
    if refused := [key for key in ("help", "config") if key in values]:
        raise ValueError(f"config key {refused[0]} cannot be set in a config file")
    given = {token.partition("=")[0] for token in argv}
    tokens = []
    for action in parser._actions:
        if action.dest not in values or any(
            given.intersection(other.option_strings)
            for group in parser._mutually_exclusive_groups if action in group._group_actions
            for other in group._group_actions
        ):
            continue
        flag, value = action.option_strings[-1], values[action.dest]
        if action.nargs != 0:
            tokens.append(f"{flag}={value}")
        elif value.lower() not in ("true", "false"):
            raise ValueError(f"config key {action.dest} must be true or false, got {value!r}")
        elif value.lower() == "true":
            tokens.append(flag)
    return tokens


def _usage_error(args) -> str | None:
    """The first rule tying one flag to another that ``args`` breaks, if any."""
    if bool(getattr(args, "clusters", None)) != bool(getattr(args, "exemplars", None)):
        missing = "--exemplars" if args.clusters else "--clusters"
        return f"--clusters and --exemplars go together; {missing} is missing"
    if getattr(args, "backend", None) == "remote" and not (args.url and args.model):
        return "remote backend requires --url and --model"
    if getattr(args, "bootstrap", False) and args.seed is None:
        return "--bootstrap requires --seed"
    if "themes" in getattr(args, "regimes", ()) and not args.themes:
        return "--regimes themes requires --themes"
    return None


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
            known = {action.dest for command in commands.values() for action in command._actions}
            if unknown := [key for key in values if key not in known]:
                raise ValueError(f"config key {unknown[0]} is no flag of any command")
            at = next((i + 1 for i, token in enumerate(argv) if token in commands), None)
            if at is not None:
                argv[at:at] = _config_argv(values, commands[argv[at - 1]], argv[at:])
        except OSError as exc:
            print(f"error: cannot read config: {exc}", file=sys.stderr)
            return EXIT_IO
        except (ValueError, CollectionFormatError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
    args = parser.parse_args(argv)
    error = _usage_error(args)  # before any layer, output directory or input
    if error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_USAGE
    for layer in _LAYERS[args.command]:
        _bind(layer)
    out = Path(args.out)
    made = [path for path in (out, *out.parents) if not path.exists()]  # deepest first
    code = _run(args, out)
    if code not in (EXIT_OK, EXIT_REMOTE):  # a failed run leaves no directory it made
        for path in made:  # rmdir refuses one that is not empty, and so each above it
            with contextlib.suppress(OSError):
                path.rmdir()
    return code


def _run(args: argparse.Namespace, out: Path) -> int:
    """Run the parsed command into ``out``, made first, and its exit code."""
    try:
        out.mkdir(parents=True, exist_ok=True)
        code = args.func(args, out)
        _write_meta(out, args)  # a code batch with failed passages (exit 5) is a run too
        return code
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename or exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"error: I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO
    except TransportError as exc:
        print(f"error: remote coder: {exc}", file=sys.stderr)
        return EXIT_REMOTE
    except CodeCountError as exc:  # synth's cap: λ is --codes-per-kchar times a length
        flags = f"--codes-per-kchar {args.codes_per_kchar:g}"
        if not args.with_text:  # the lengths come from --mean-len
            flags += f", --mean-len {args.mean_len}"
        print(f"error: {flags}: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (CollectionFormatError,) as exc:
        print(f"error: invalid collection: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (FecundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
