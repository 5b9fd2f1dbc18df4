"""The traced run: `fecund.cli.main` in-process, with spans around each layer.

Nothing in the package changes. Before a traced pass, each public function
is replaced, in the namespace where its caller looks it up, by a wrapper
that records a span (name, start, end, parent span, run id) and counts the
work it was given; after the pass the originals are put back. Spans stay in
memory and are written out when the run ends. A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import io
import json
import statistics
import time
import traceback
from collections import Counter, defaultdict
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from checks import check_output, digests
from workloads import TIMED_COMMANDS, Workload, fill, options


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _after_load_collection(tracer, args, kwargs, result):
    docs, _ = result
    tracer.count("ingest.code_rows", sum(len(v) for d in docs for v in d.codes.values()))


def _after_split_passages(tracer, args, kwargs, result):
    tracer.count("ingest.passages", len(result))


def _after_code_passages(tracer, args, kwargs, result):
    coded = [key for key, response in result if response.theme is not None]
    tracer.count("coder.passages", len(args[0]))
    tracer.count("coder.coded_passages", len(set(coded)))
    tracer.count("coder.codes_out", len(coded))


def _after_select_greedy(tracer, args, kwargs, result):
    tracer.count("selection.candidates", len(args[0]))
    tracer.count("selection.selected", len(result.selected_ids))


def _after_bootstrap_band(tracer, args, kwargs, result):
    n_docs = len(args[0])
    iterations = _arg(args, kwargs, 3, "n_iterations", 2000)
    tracer.count("saturation.doc_steps", iterations * n_docs)
    # computed, not measured: the count and chars matrices are iterations x N int64
    tracer.peak("saturation.matrix_bytes", 2 * iterations * n_docs * 8)


def _bootstrap_name(args, kwargs):
    return "saturation.bootstrap_band." + _arg(args, kwargs, 1, "regime").kind


# (module, attribute, span name or a function naming the span from the
# arguments, hook that counts work from the arguments and result).
# Private reply parsers are wrapped when present, so `coder.parse_response`
# covers all reply parsing.
TARGETS = (
    ("fecund.cli", "load_collection", "ingest.load_collection", _after_load_collection),
    ("fecund.cli", "load_articles", "ingest.load_articles", None),
    ("fecund.cli", "split_passages", "ingest.split_passages", _after_split_passages),
    ("fecund.cli", "code_passages", "coder.code_passages", _after_code_passages),
    ("fecund.coder", "render_prompt", "coder.render_prompt", None),
    ("fecund.coder", "parse_response", "coder.parse_response", None),
    ("fecund.coder", "parse_round1_response", "coder.parse_response", None),
    ("fecund.coder", "_parse_bool_dict", "coder.parse_response", None),
    ("fecund.coder", "_parse_yes_no_dict", "coder.parse_response", None),
    ("fecund.coder", "_parse_relevance", "coder.parse_response", None),
    ("fecund.cli", "select_greedy", "selection.select_greedy", _after_select_greedy),
    ("fecund.stats", "select_greedy", "selection.select_greedy", _after_select_greedy),
    ("fecund.cli", "select_random", "selection.select_random", None),
    ("fecund.cli", "interleave_blinded", "selection.interleave_blinded", None),
    ("fecund.cli", "bootstrap_band", _bootstrap_name, _after_bootstrap_band),
    ("fecund.cli", "superset_sweep", "stats.superset_sweep", None),
    ("fecund.stats", "corpus_code_density", "stats.corpus_code_density", None),
    ("fecund.cli", "treatment_table", "stats.treatment_table", None),
    ("fecund.cli", "length_residual_check", "stats.length_residual_check", None),
    ("fecund.cli", "compute_frequencies", "corpus.compute_frequencies", None),
    ("fecund.cli", "line_chart", "svgplot.line_chart", None),
    ("fecund.cli", "synth_corpus", "synthetic.synth_corpus", None),
    ("fecund.cli", "synth_articles", "synthetic.synth_articles", None),
)
# Called too often, or too cheaply, for a span: only calls are counted.
COUNTED = (
    ("fecund.coder", "MockCoder.respond", "coder.respond.calls"),
    ("fecund.stats", "ols", "stats.ols.calls"),
    ("fecund.cli", "fecundity", "corpus.fecundity.calls"),
)
BOOTSTRAP_REGIMES = ("unique", "hf_retrospective", "hf_iterative", "themes")
SPAN_NAMES = frozenset(
    [f"cli.{c}" for c in ("synth",) + TIMED_COMMANDS]
    + [f"saturation.bootstrap_band.{r}" for r in BOOTSTRAP_REGIMES]
    + [name for _, _, name, _ in TARGETS if isinstance(name, str)]
)
COUNTS = frozenset(
    [key for _, _, key in COUNTED]
    + ["cli.bytes_written", "ingest.code_rows", "ingest.passages", "coder.codes_out",
       "selection.candidates", "selection.selected", "saturation.doc_steps",
       "saturation.matrix_bytes"]
)


def _resolve(module: str, attribute: str):
    owner = importlib.import_module(module)
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """In-memory spans and counts, keyed by run id."""

    def __init__(self):
        self.run_id = "setup"
        self.spans: list[tuple] = []  # (run_id, span_id, parent_id, name, start_ns, end_ns)
        self.counters: dict[str, Counter] = defaultdict(Counter)
        self._stack: list[int] = []
        self._installed: list[tuple] = []

    def count(self, key: str, n: int = 1) -> None:
        self.counters[self.run_id][key] += n

    def peak(self, key: str, value: int) -> None:
        counters = self.counters[self.run_id]
        counters[key] = max(counters[key], value)

    def call(self, name: str, fn, *args, **kwargs):
        span_id = len(self.spans) + len(self._stack)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append((self.run_id, span_id, parent, name, start, end))

    def _spanned(self, fn, name, after):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = name if isinstance(name, str) else name(args, kwargs)
            result = self.call(span, fn, *args, **kwargs)
            if after is not None:
                after(self, args, kwargs, result)
            return result
        return wrapper

    def _counted(self, fn, key):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counters[self.run_id][key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        for module, attribute, name, after in TARGETS:
            owner, attr = _resolve(module, attribute)
            if hasattr(owner, attr):
                self._replace(owner, attr, self._spanned(getattr(owner, attr), name, after))
        for module, attribute, key in COUNTED:
            owner, attr = _resolve(module, attribute)
            self._replace(owner, attr, self._counted(getattr(owner, attr), key))

    def _replace(self, owner, attr, wrapper) -> None:
        self._installed.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        keys = ("run", "id", "parent", "name", "start_ns", "end_ns")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def self_times(spans: list[tuple]) -> tuple[dict, dict, Counter]:
    """Total and self seconds per span name, and the number of spans per name."""
    children = defaultdict(int)
    for _, _, parent, _, start, end in spans:
        if parent is not None:
            children[parent] += end - start
    total, own, calls = defaultdict(float), defaultdict(float), Counter()
    for _, span_id, _, name, start, end in spans:
        total[name] += (end - start) / 1e9
        own[name] += (end - start - children[span_id]) / 1e9
        calls[name] += 1
    return total, own, calls


def nesting_problems(spans: list[tuple]) -> list[str]:
    """Each child lies inside its parent and siblings do not overlap, so the
    self times of a command's spans add up to the command's time."""
    by_id = {span[1]: span for span in spans}
    siblings = defaultdict(list)
    problems = []
    for _, span_id, parent, name, start, end in spans:
        if parent is None:
            continue
        siblings[parent].append((start, end))
        p = by_id[parent]
        if not p[4] <= start <= end <= p[5]:
            problems.append(f"span {name} escapes its parent {p[3]}")
    for intervals in siblings.values():
        intervals.sort()
        if any(b[0] < a[1] for a, b in zip(intervals, intervals[1:])):
            problems.append("sibling spans overlap")
    return problems[:3]


def layer_metrics(names: list[str], spans: list[tuple], counters: Counter) -> dict[str, float]:
    """Value of each named per-layer metric, from the spans and counts of one pass.

    `<span>.s` is total time, `<span>.self_s` self time and `<span>.calls`
    the number of spans; the other names are counts or are derived here.
    """
    total, own, calls = self_times(spans)
    bootstrap_s = sum(total[f"saturation.bootstrap_band.{r}"] for r in BOOTSTRAP_REGIMES)
    derived = {
        "coder.coded_ratio": counters["coder.coded_passages"] / max(1, counters["coder.passages"]),
        "saturation.ns_per_doc_step": bootstrap_s * 1e9 / max(1, counters["saturation.doc_steps"]),
        "trace.spans": len(spans),
    }
    values = {}
    for name in names:
        span, _, kind = name.rpartition(".")
        if name in derived:
            values[name] = float(derived[name])
        elif name in COUNTS:
            values[name] = float(counters[name])
        elif span in SPAN_NAMES and kind in ("s", "self_s", "calls"):
            values[name] = float({"s": total, "self_s": own, "calls": calls}[kind][span])
        else:
            raise KeyError(f"per-layer metric {name!r} names no span or count")
    return values


def _invoke(cli, argv: list[str]) -> list[str]:
    """Run one command in-process; its problems (none when it exits 0)."""
    sink = io.StringIO()
    try:
        with redirect_stdout(sink), redirect_stderr(sink):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception:  # the benchmark must report the failure and go on
        return ["raised " + traceback.format_exc(limit=-1).strip().splitlines()[-1]]
    return [] if rc == 0 else [f"exit code {rc}"]


def traced_run(workload: Workload, seed: int, seconds: float, work: Path, ledger,
               notes: dict, metric_names: list[str], spans_path: Path) -> tuple[dict, dict]:
    """Set up and run `workload` in-process; per-layer metrics and a record.

    Passes alternate untraced and traced, starting untraced, for about
    `seconds` (at least one of each). Per-layer values are medians over the
    traced passes; `trace.overhead_s` is the median traced pass time minus
    the median untraced one.
    """
    cli = importlib.import_module("fecund.cli")
    tracer = Tracer()
    inputs = work / "inputs"
    tracer.install()
    try:
        for template in workload.inputs:
            argv = fill(template, inp=str(inputs), out="", seed=str(seed))
            problems = tracer.call("cli.synth", _invoke, cli, argv)
            problems = problems or check_output(argv, Path(options(argv)["--out"]), notes)
            ledger.record(f"setup {argv[0]}", problems)
    finally:
        tracer.uninstall()

    pass_s = {False: [], True: []}
    first_outputs = None
    start = time.perf_counter()
    while True:
        index = len(pass_s[False]) + len(pass_s[True])
        traced = index % 2 == 1
        tracer.run_id = f"pass{index}"
        out_dir = work / tracer.run_id
        elapsed_cmds = 0.0
        if traced:
            tracer.install()
        try:
            for template in workload.steps:
                argv = fill(template, inp=str(inputs), out=str(out_dir), seed=str(seed))
                t0 = time.perf_counter()
                if traced:
                    problems = tracer.call(f"cli.{argv[0]}", _invoke, cli, argv)
                else:
                    problems = _invoke(cli, argv)
                elapsed_cmds += time.perf_counter() - t0
                out = Path(options(argv)["--out"])
                if traced:
                    written = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
                    tracer.count("cli.bytes_written", written)
                problems = problems or check_output(argv, out, notes)
                ledger.record(f"{tracer.run_id} {argv[0]}", problems)
        finally:
            tracer.uninstall()
        pass_s[traced].append(elapsed_cmds)
        outputs = digests(out_dir)
        if first_outputs is None:
            first_outputs = outputs
        else:
            ledger.record(f"{tracer.run_id} outputs equal pass0's",
                          [] if outputs == first_outputs else ["outputs differ from pass0"])
        elapsed = time.perf_counter() - start
        done = index + 1
        if done >= 2 and elapsed * (done + 1) / done > seconds:
            break

    setup_spans = [s for s in tracer.spans if s[0] == "setup"]
    per_pass = []
    for index in range(1, len(pass_s[False]) + len(pass_s[True]), 2):
        run_id = f"pass{index}"
        spans = [s for s in tracer.spans if s[0] == run_id]
        ledger.record(f"{run_id} span nesting", nesting_problems(spans))
        counters = tracer.counters["setup"] + tracer.counters[run_id]
        per_pass.append(layer_metrics(metric_names, setup_spans + spans, counters))
    metrics = {name: statistics.median(p[name] for p in per_pass) for name in metric_names}
    metrics["trace.overhead_s"] = statistics.median(pass_s[True]) - statistics.median(pass_s[False])
    tracer.write(spans_path)
    record = {
        "untraced_pass_s": pass_s[False],
        "traced_pass_s": pass_s[True],
        "spans_file": str(spans_path.name),
        "output_sha256": first_outputs,
    }
    return metrics, record
