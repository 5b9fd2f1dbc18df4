"""Loop implementations kept as references for the library's fast paths.

``collection`` interns hand-built ``Document`` lists in one walk over their
instances, the test-side builder of the one input form estimators accept;
the loop oracles below read the plain lists.
``cumulative_counts`` walks code instances in Python, one document at a
time, exactly as the counting regimes are defined; the interned-array
kernel in ``fecund.saturation`` must reproduce it. ``select_greedy_loop``
is greedy selection with a ``Counter`` of codes per candidate and every
gain summed one float at a time; ``fecund.selection.select_greedy`` must
return bit-identical selections. ``greedy_naive`` re-evaluates every
candidate at every step; the lazy heap in ``fecund.selection`` must select
exactly what it selects. ``select_exact`` enumerates every feasible
subset, the globally optimal selection the greedy is certified against on
small instances. ``unique_weight_loop`` sums each document's inverse-frequency
weights one instance at a time; ``fecund.corpus.unique_weight`` must return
the same floats. ``run_chain_branches`` is the coder's chain with
one branch per step and its own dictionary parser per reply kind
(``parse_response_branches``, ``parse_bool_dict``, ``parse_yes_no_dict``,
``parse_relevance``); ``run_chain``, one slot's walk through the whole
chain with the library's step table (``fecund.coder._walk``), must render
the same prompts and return the same responses for every reply these accept.
``read_dict`` reads a reply's dictionary region in the library's three
steps, with ``python_names_as_json`` respelling Python's bare names by a
walk over the characters; ``fecund.coder._extract_dict`` must read the same
pairs. ``extract_dict_three_parsers`` tries JSON, then JSON with the names
respelled by a regex, then a Python literal, one after the other;
``fecund.coder._extract_dict``, which decodes once and respells only a
region holding a name, must read the same pairs and refuse the same replies.
``code_passages_per_slot`` codes a batch with every slot walking the whole
chain, triage included; ``fecund.coder.code_passages``, which triages each
passage once, must return an equal ``CodingRun``.
``mock_stream`` is the mock coder's stream as a loop over Python ints:
blake2b from ``hashlib`` keys each passage and SplitMix64 (Steele, Lea &
Flood 2014) finalises each counter. ``mock_slot_count`` walks the capped
Poisson's CDF term by term, and ``mock_draw_choice`` bisects a Zipf CDF
accumulated one rank at a time; ``mock_plan_loop`` plans a batch with them,
so ``fecund.coder.MockCoder.plan`` must plan the same slots and codes.
``split_passages_regex`` splits at every match of ``\r\n|\r|\n``;
``fecund.ingest.split_passages``, which splits text without a ``\r`` by
``str.split``, must return equal passages.
``reference_band`` is the bootstrap band with one loop-counted order per
iteration and the finite population correction applied step by step;
``fecund.saturation.bootstrap_bands`` must return equal columns.
``t_two_sided_closed`` is Student's two-sided t tail for integer degrees of
freedom as the finite sums of Abramowitz & Stegun 26.7.3-26.7.4, and
``f_upper_k2`` the F tail at 2 numerator degrees of freedom;
``fecund.stats`` computes both through one regularized incomplete beta.
``csv_writer`` is a ``csv.writer`` whose rows end in ``\\n``, a bare ``\\r``
quoted as ``\\n`` is; ``fecund.ingest._write_csv``, which decides quoting
once per column, must write the same bytes from the same cells.
``write_collection_rows`` writes a collection with one ``json.dumps`` per
document and one ``csv_writer`` row per code row;
``fecund.ingest.write_collection``, which writes columns, must write the
same bytes. ``synth_corpus_choice`` draws each document's
codes with ``Generator.choice(p=...)`` and ``synth_articles_loop`` picks
words one ``int`` at a time; ``fecund.synthetic.synth_corpus`` and
``synth_articles`` must return equal columns and texts.
``read_jsonl_text`` reads a documents file as a text file, one line at a
time; ``fecund.ingest._read_jsonl``, which reads bytes and decodes each line,
must return the same objects on the same lines or raise the same error.
``band_csv_rows`` writes a bootstrap curve with one ``csv_writer`` row of
``repr`` strings per step; ``fecund.cli``'s ``saturate``, which formats each
column in one call, must write the same bytes. ``superset_sweep_loop`` draws
and selects every replicate at every size, the full set's too;
``fecund.stats.superset_sweep``, which measures a draw of the whole set
once, must return the same floats.
``experiment_corpus`` is a two-arm corpus with a planted fecundity effect,
the one corpus whose effect is known in closed form; the regression tests
must recover it.
"""

from __future__ import annotations

import ast
import bisect
import csv
import hashlib
import heapq
import itertools
import json
import math
import re
import types
from collections import Counter
from typing import Callable, Iterable, Sequence
from unittest import mock

import numpy as np

from fecund import selection
from fecund.coder import (
    CRITERIA_CAPTION,
    CRITERIA_DISCLAIMER,
    CRITERIA_NOT_MALAYSIA,
    CRITERIA_NOT_REFUGEES,
    CodeResponse,
    CodingRun,
    MockCoder,
    _ChainState,
    _chain_steps,
    _normalize_valence,
    _walk,
    flag_note,
    parse_round1_response,
    reassess_note,
    relevance_note,
    render_prompt,
)
from fecund.corpus import Codebook, Collection, Document
from fecund.errors import CollectionFormatError, FecundError, ResponseParseError, TransportError
from fecund.ingest import Passage, RawArticle
from fecund.saturation import BootstrapBand, CountingRegime
from fecund.selection import (
    GAIN_FLOOR,
    SQRT,
    CorpusSelection,
    SelectionBudget,
    ValueFunction,
    _code_copies,
    _marginal_gain,
    _score,
    select_greedy,
)
from fecund.stats import SweepPoint, corpus_code_density
from fecund.synthetic import _WORDS, zipf_probabilities


def collection(docs: Iterable[Document]) -> Collection:
    """Hand-built documents as a ``Collection``, in their order. A coder
    source that some documents carry and others lack raises ValueError."""
    docs = list(docs)
    names: dict[str, int] = {}  # label -> index, in first-seen order
    source_of: dict[str, int] = {}  # coder source -> index, in first-seen order
    instances = []
    for row, doc in enumerate(docs):
        for source, insts in doc.codes.items():
            s = source_of.setdefault(source, len(source_of))
            instances.extend(
                (s, row, names.setdefault(inst.code_id, len(names)), inst.position)
                for inst in insts
            )
    for doc in docs:
        for source in source_of:
            if source not in doc.codes:
                raise ValueError(f"document {doc.id!r} lacks coder source {source!r}")
    columns = tuple(zip(*instances)) if instances else ((),) * 4
    return Collection.intern(
        [d.id for d in docs], [d.text_length for d in docs], [d.source_label for d in docs],
        list(source_of), columns, list(names),
    )


def _sort_key(doc: Document) -> tuple:
    return (doc.text_length, doc.id)


def unique_weight_loop(docs: Sequence[Document], coder_source: str) -> list[float]:
    """Each document's 1/f weights summed one instance at a time, with every
    code's frequency f counted over ``docs`` itself."""
    counts = Counter(inst.code_id for doc in docs for inst in doc.instances(coder_source))
    weights = []
    for doc in docs:
        total = 0.0
        for inst in doc.instances(coder_source):
            total += 1.0 / counts[inst.code_id]
        weights.append(total)
    return weights


def hf_codes(docs, coder_source, threshold):
    counts = Counter()
    for doc in docs:
        for inst in doc.instances(coder_source):
            counts[inst.code_id] += 1
    return {code for code, c in counts.items() if c >= threshold}


def cumulative_counts(order, regime, coder_source, hf_set=None, theme_map=None):
    kind = regime.kind
    counts = []
    if kind == "unique":
        seen = set()
        for doc in order:
            seen.update(inst.code_id for inst in doc.instances(coder_source))
            counts.append(len(seen))
    elif kind == "hf_retrospective":
        assert hf_set is not None
        seen_hf = set()
        for doc in order:
            for inst in doc.instances(coder_source):
                if inst.code_id in hf_set:
                    seen_hf.add(inst.code_id)
            counts.append(len(seen_hf))
    elif kind == "hf_iterative":
        cum = Counter()
        reached = set()
        for doc in order:
            for inst in doc.instances(coder_source):
                cum[inst.code_id] += 1
                if cum[inst.code_id] >= regime.hf_threshold:
                    reached.add(inst.code_id)
            counts.append(len(reached))
    else:  # themes
        assert theme_map is not None
        seen_themes = set()
        for doc in order:
            for inst in doc.instances(coder_source):
                theme = theme_map.get(inst.code_id)
                if theme is not None:
                    seen_themes.add(theme)
            counts.append(len(seen_themes))
    return counts


def reference_counts(order, regime: CountingRegime, coder_source, codebook=None):
    """``cumulative_counts`` with the per-regime inputs derived from ``order``."""
    hf_set = None
    if regime.kind == "hf_retrospective":
        hf_set = hf_codes(order, coder_source, regime.hf_threshold)
    theme_map = codebook.theme_map if regime.kind == "themes" else None
    return cumulative_counts(order, regime, coder_source, hf_set, theme_map)


def reference_band(docs, regime, coder_source, n_iterations, seed, truncation=0.10, codebook=None):
    """Bootstrap band columns from the loop, over the library's RNG stream.

    The raw columns cover every step; the adjusted band divides each
    half-width by the finite population correction one step at a time,
    with ``math.sqrt`` and ``max``, over the retained steps.
    """
    N = len(docs)
    lengths = np.array([d.text_length for d in docs], dtype=np.int64)
    count_matrix = np.empty((n_iterations, N), dtype=np.int64)
    chars_matrix = np.empty((n_iterations, N), dtype=np.int64)
    for it in range(n_iterations):
        perm = np.random.default_rng([seed, it]).permutation(N)
        ordered = [docs[i] for i in perm]
        count_matrix[it] = reference_counts(ordered, regime, coder_source, codebook)
        chars_matrix[it] = np.cumsum(lengths[perm])
    mean_counts = count_matrix.mean(axis=0)
    lo_raw = np.percentile(count_matrix, 2.5, axis=0)
    hi_raw = np.percentile(count_matrix, 97.5, axis=0)
    lo95, hi95 = [], []
    for k in range(1, N - math.ceil(truncation * N) + 1):
        fpc = math.sqrt((N - k) / (N - 1))
        mean_k = float(mean_counts[k - 1])
        lo95.append(mean_k - max(0.0, mean_k - float(lo_raw[k - 1])) / fpc)
        hi95.append(mean_k + max(0.0, float(hi_raw[k - 1]) - mean_k) / fpc)
    return {
        "mean_chars": chars_matrix.mean(axis=0),
        "mean_count": mean_counts,
        "lo95": np.array(lo95),
        "hi95": np.array(hi95),
        "raw_lo95": lo_raw,
        "raw_hi95": hi_raw,
    }


def objective_loop(
    selected: Iterable[Document], value_function: ValueFunction, coder_source: str
) -> float:
    counts: Counter[str] = Counter()
    for doc in selected:
        for inst in doc.instances(coder_source):
            counts[inst.code_id] += 1
    g = value_function.g
    return sum((g(counts[code]) for code in sorted(counts)), 0.0)


def doc_items(doc: Document, coder_source: str) -> list[tuple[str, int]]:
    counter = Counter(inst.code_id for inst in doc.instances(coder_source))
    return sorted(counter.items())


def marginal_gain_loop(
    items: list[tuple[str, int]], counts: dict[str, int], g: Callable[[float], float]
) -> float:
    gain = 0.0
    for code, c in items:
        m = counts.get(code, 0)
        gain += g(m + c) - g(m)
    return gain


def best_singleton(
    pool: list[tuple[Document, list[tuple[str, int]]]],
    budget: SelectionBudget,
    g: Callable[[float], float],
) -> tuple[Document, float] | None:
    best = None
    for doc, items in pool:
        if doc.text_length >= budget.max_chars:
            continue
        value = sum(g(c) for _, c in items)
        key = (-value, *_sort_key(doc))
        if best is None or key < best[0]:
            best = (key, doc, value)
    if best is None:
        return None
    return best[1], best[2]


def greedy_lazy_loop(pool, budget, g, cost_benefit):
    counts: dict[str, int] = {}
    total = 0
    picked: list[Document] = []
    gains: list[float] = []
    step = 0
    heap = []
    for doc, items in pool:
        if doc.text_length >= budget.max_chars:
            continue
        gain = marginal_gain_loop(items, counts, g)
        heap.append(
            (-_score(gain, doc.text_length, cost_benefit), *_sort_key(doc), step, gain, doc, items)
        )
    heapq.heapify(heap)
    while heap:
        entry = heapq.heappop(heap)
        evaluated_at, gain, doc, items = entry[-4], entry[-3], entry[-2], entry[-1]
        if total + doc.text_length >= budget.max_chars:
            continue  # budget only shrinks, safe to drop
        if evaluated_at != step:
            gain = marginal_gain_loop(items, counts, g)
            heapq.heappush(
                heap,
                (-_score(gain, doc.text_length, cost_benefit), *_sort_key(doc), step, gain, doc, items),
            )
            continue
        if gain <= GAIN_FLOOR:
            break
        picked.append(doc)
        gains.append(gain)
        total += doc.text_length
        for code, c in items:
            counts[code] = counts.get(code, 0) + c
        step += 1
    return picked, gains


def select_greedy_loop(
    candidates: Sequence[Document],
    budget: SelectionBudget,
    value_function: ValueFunction,
    coder_source: str,
    *,
    cost_benefit: bool = True,
) -> CorpusSelection:
    pool = [(doc, doc_items(doc, coder_source)) for doc in candidates]
    g = value_function.g

    selected_docs, gains = greedy_lazy_loop(pool, budget, g, cost_benefit)
    obj = objective_loop(selected_docs, value_function, coder_source)
    single = best_singleton(pool, budget, g)
    if single is not None and single[1] > obj:
        selected_docs = [single[0]]
        gains = [single[1]]
        obj = objective_loop(selected_docs, value_function, coder_source)

    return CorpusSelection(
        selected_ids=tuple(d.id for d in selected_docs),
        objective_value=obj,
        total_chars=sum(d.text_length for d in selected_docs),
        value_function=value_function,
        budget=budget,
        gains=tuple(gains),
    )


def greedy_naive(lengths, keys, items, first_gains, first_scores, budget, values, cost_benefit):
    starts, codes, copies = items
    counts = {}
    total = 0
    picked = []
    gains = []
    remaining = list(range(len(lengths)))
    while True:
        best = None
        for i in remaining:
            if total + lengths[i] >= budget.max_chars:
                continue
            gain = _marginal_gain(i, items, counts, values)
            key = (-_score(gain, lengths[i], cost_benefit), keys[i])
            if best is None or key < best[0]:
                best = (key, i, gain)
        if best is None or best[2] <= GAIN_FLOOR:
            break
        _, i, gain = best
        picked.append(i)
        gains.append(gain)
        total += lengths[i]
        for k in range(starts[i], starts[i + 1]):
            counts[codes[k]] = counts.get(codes[k], 0) + copies[k]
        remaining.remove(i)
    return picked, gains


def select_greedy_naive(*args, **kwargs):
    """``select_greedy`` with the lazy heap swapped for ``greedy_naive``."""
    with mock.patch.object(selection, "_greedy_lazy", greedy_naive):
        return selection.select_greedy(*args, **kwargs)


class TooManyCandidatesError(FecundError, ValueError):
    """Exhaustive selection was asked to enumerate too large a candidate set."""


def select_exact(
    candidates: Sequence[Document],
    budget: SelectionBudget,
    value_function: ValueFunction,
    coder_source: str,
) -> CorpusSelection:
    """Globally optimal selection by exhaustive enumeration (<= 20 candidates).

    Ties on the objective break toward the lexicographically smallest
    sorted id tuple, so the empty set beats any zero-gain selection.
    """
    if len(candidates) > 20:
        raise TooManyCandidatesError(
            f"exact selection enumerates subsets; {len(candidates)} candidates > 20"
        )
    docs = sorted(candidates, key=lambda d: d.id)
    starts, codes, copies = (a.tolist() for a in _code_copies(collection(docs).matrix(coder_source)))
    items = [list(zip(codes[s:e], copies[s:e])) for s, e in zip(starts, starts[1:])]
    g = value_function.g
    best_obj = 0.0
    best_ids: tuple[str, ...] = ()
    best_chars = 0

    counts: dict[int, int] = {}
    chosen: list[int] = []

    def evaluate():
        nonlocal best_obj, best_ids, best_chars
        obj = sum(g(counts[code]) for code in sorted(counts))
        ids = tuple(docs[i].id for i in chosen)
        if obj > best_obj or (obj == best_obj and ids < best_ids):
            best_obj = obj
            best_ids = ids
            best_chars = sum(docs[i].text_length for i in chosen)

    def recurse(i: int, total: int):
        if i == len(docs):
            evaluate()
            return
        doc, doc_items = docs[i], items[i]
        if total + doc.text_length < budget.max_chars:
            chosen.append(i)
            for code, c in doc_items:
                counts[code] = counts.get(code, 0) + c
            recurse(i + 1, total + doc.text_length)
            for code, c in doc_items:
                counts[code] -= c
                if counts[code] == 0:
                    del counts[code]
            chosen.pop()
        recurse(i + 1, total)

    recurse(0, 0)
    return CorpusSelection(
        selected_ids=best_ids,
        objective_value=best_obj,
        total_chars=best_chars,
        value_function=value_function,
        budget=budget,
    )


_JSON_SPELLING = {"True": "true", "False": "false", "None": "null"}


def _is_word(char: str) -> bool:
    return char.isalnum() or char == "_"


def python_names_as_json(region: str) -> str:
    """``region`` with each bare ``True``/``False``/``None`` outside a
    double-quoted string spelled as JSON spells it."""
    out, i, quoted = [], 0, False
    while i < len(region):
        char, step = region[i], 1
        if quoted and char == "\\":  # an escape: the next character is never a quote
            char, step = region[i:i + 2], 2
        elif char == '"':
            quoted = not quoted
        elif not quoted and not _is_word(region[i - 1:i]):
            for name, spelled in _JSON_SPELLING.items():
                end = i + len(name)
                if region.startswith(name, i) and not _is_word(region[end:end + 1]):
                    char, step = spelled, len(name)
                    break
        out.append(char)
        i += step
    return "".join(out)


def read_dict(region: str):
    """JSON, then JSON with Python's names respelled, then a Python literal;
    None when none of them reads ``region``."""
    # JSON first: where both read a region, JSON reads "\/" as "/" and an
    # escaped surrogate pair as one character
    for parser in (json.loads, lambda r: json.loads(python_names_as_json(r)), ast.literal_eval):
        try:
            return parser(region)
        except Exception:
            continue
    return None


_REGION = re.compile(r"\{.*\}", re.DOTALL)
# a double-quoted string (kept as it is) or a bare Python name outside one
_PYTHON_NAME = re.compile(r'("[^"\\]*(?:\\.[^"\\]*)*")|\b(True|False|None)\b', re.DOTALL)
_JSON_NAME = {"True": "true", "False": "false", "None": "null"}


def _json_names(match: re.Match) -> str:
    return match.group(1) or _JSON_NAME[match.group(2)]


def _loads_python_names(region: str):
    """``region`` as JSON once its bare ``True``/``False``/``None`` are spelled
    ``true``/``false``/``null``."""
    return json.loads(_PYTHON_NAME.sub(_json_names, region))


def extract_dict_three_parsers(raw: str) -> list[tuple[str, object]]:
    """The first dictionary-shaped region of a reply, read by each parser in
    turn until one succeeds: JSON, JSON with its bare Python names spelled,
    then a Python literal."""
    match = _REGION.search(raw)
    if not match:
        raise ResponseParseError("no dictionary-shaped region in reply", raw)
    region = match.group(0)
    for parser in (json.loads, _loads_python_names, ast.literal_eval):
        try:
            obj = parser(region)
            break
        except Exception:
            obj = None
    if not isinstance(obj, dict):
        raise ResponseParseError("dictionary-shaped region failed to parse", raw)
    return [(str(key).lower(), value) for key, value in obj.items()]


def parse_response_branches(raw: str) -> CodeResponse:
    match = _REGION.search(raw)
    if not match:
        raise ResponseParseError("no dictionary-shaped region in reply", raw)
    obj = read_dict(match.group(0))
    if not isinstance(obj, dict):
        raise ResponseParseError("dictionary-shaped region failed to parse", raw)

    def pick(*needles: str):
        for key, value in obj.items():
            lowered = str(key).lower()
            if any(n in lowered for n in needles):
                return value
        return None

    def clean(value) -> str | None:
        if value is None:
            return None
        text = str(value).strip()
        return None if text.lower() in ("", "none", "null") else text

    return CodeResponse(
        theme=clean(pick("theme")),
        whose_attitude=clean(pick("attitude")),
        target=clean(pick("target")),
        valence=_normalize_valence(clean(pick("valence"))),
    )


MASK64 = 2**64 - 1
GAMMA = 0x9E3779B97F4A7C15  # SplitMix64's increment, the golden ratio times 2**64


def mock_stream(seed: int, passage: Passage, counter: int) -> float:
    """The ``counter``-th uniform of a passage's mock stream: the SplitMix64
    finaliser of key + counter·γ, its top 53 bits over 2**53, where the key
    is blake2b's 8-byte digest of "seed:article:index", little-endian."""
    name = f"{seed}:{passage.article_id}:{passage.index}".encode()
    z = int.from_bytes(hashlib.blake2b(name, digest_size=8).digest(), "little")
    z = (z + counter * GAMMA) & MASK64
    z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 & MASK64
    z = (z ^ z >> 27) * 0x94D049BB133111EB & MASK64
    return ((z ^ z >> 31) >> 11) * 2.0**-53


def mock_slot_count(coder: MockCoder, passage: Passage) -> int:
    """min(6, Poisson(λ)) by inverse CDF from the stream's counter 0: one
    more slot for each k ≤ 5 whose F(k) is at most the uniform, each term
    P(k) = e^-λ · λ/1 · ... · λ/k."""
    lam = min(coder.mean_codes_per_kchar * len(passage.text) / 1000.0, 1e3)
    u = mock_stream(coder.seed, passage, 0)
    term = total = math.exp(-lam)
    count = 0
    for k in range(1, 7):
        count += total <= u
        term *= lam / k
        total += term
    return count


def mock_draw_choice(
    coder: MockCoder, passage: Passage, slot: int, zipf_exponent: float
) -> str:
    """The code of one mock slot: the stream's uniform at counter ``slot + 1``,
    bisected (to the right) into the running sums of the weights
    rank**-exponent, added one rank at a time, each divided by the total."""
    sums, total = [], 0.0
    for rank in range(1, len(coder.vocab) + 1):
        total += rank**-zipf_exponent
        sums.append(total)
    cdf = [s / total for s in sums]
    return coder.vocab[bisect.bisect_right(cdf, mock_stream(coder.seed, passage, slot + 1))]


def mock_plan_loop(coder: MockCoder, passages: Sequence[Passage],
                   zipf_exponent: float) -> list[int]:
    """``MockCoder.plan`` one passage and one slot at a time: the same slot
    counts, codes and triage flags, recorded where ``respond`` reads them."""
    counts = [mock_slot_count(coder, p) for p in passages]
    coder._plan = {
        id(p): (p, [mock_draw_choice(coder, p, s, zipf_exponent) for s in range(n)],
                coder._flags(p) if n else None)
        for p, n in zip(passages, counts)
    }
    return counts


_BREAK = re.compile(r"\r\n|\r|\n")


def split_passages_regex(article: RawArticle, min_len: int = 100) -> list[Passage]:
    """One passage per segment between matches of ``\r\n|\r|\n``, at least
    ``min_len`` (and 1) characters long, numbered in order."""
    passages: list[Passage] = []
    pos, text = 0, article.full_text
    for match in list(_BREAK.finditer(text)) + [None]:
        end = match.start() if match is not None else len(text)
        if end - pos >= max(min_len, 1):
            passages.append(Passage(article.id, len(passages), text[pos:end], (pos, end)))
        pos = match.end() if match is not None else end
    return passages


def run_chain_branches(
    passage: Passage,
    backend,
    chain: Sequence[str],
    summary: str,
    fewshot: str,
    slot: int,
) -> CodeResponse:
    flags: list[str] = []
    level, reason, precode = "Yes", "", None
    response = CodeResponse()
    for step in chain:
        bindings = {"excerpt": passage.text}
        if step == "round1":
            bindings["summary"] = summary
            raw = backend.respond(step, render_prompt(step, bindings), passage, slot)
            response = parse_round1_response(raw)
            continue
        if step == "triage_caption":
            raw = backend.respond(step, render_prompt(step, bindings), passage, slot)
            parsed = parse_bool_dict(raw)
            if parsed.get("disclaimer"):
                flags.append(CRITERIA_DISCLAIMER)
            if parsed.get("caption"):
                flags.append(CRITERIA_CAPTION)
            continue
        if step == "triage_relevance":
            bindings["note"] = flag_note(flags)
            raw = backend.respond(step, render_prompt(step, bindings), passage, slot)
            parsed = parse_yes_no_dict(raw)
            if parsed.get("refugees") == "No":
                flags.append(CRITERIA_NOT_REFUGEES)
            if parsed.get("malaysia") == "No":
                flags.append(CRITERIA_NOT_MALAYSIA)
            continue
        if step == "relevance_confidence":
            bindings["note"] = flag_note(flags)
            raw = backend.respond(step, render_prompt(step, bindings), passage, slot)
            level, reason = parse_relevance(raw)
            continue
        if step == "socratic_code":
            bindings["note"] = relevance_note(level, reason)
            raw = backend.respond(step, render_prompt(step, bindings), passage, slot)
            response = parse_response_branches(raw)
            precode = response.theme
            continue
        if step == "summary_reassess":
            bindings["summary"] = summary
            bindings["precode"] = precode if precode is not None else "None"
            bindings["note"] = reassess_note(level, reason)
            raw = backend.respond(step, render_prompt(step, bindings), passage, slot)
            response = parse_response_branches(raw)
            precode = response.theme  # every coding reply is a later step's precode
            continue
        if step == "final_fewshot":
            bindings["summary"] = summary
            bindings["relevant"] = fewshot
            raw = backend.respond(step, render_prompt(step, bindings), passage, slot)
            response = parse_response_branches(raw)
            precode = response.theme
            continue
        raise ValueError(f"unknown chain step {step!r}")
    return response


def run_chain(
    passage: Passage, backend, chain: Sequence[str], summary: str, fewshot: str, slot: int
) -> CodeResponse:
    """One slot's walk through the whole chain."""
    state = _ChainState(excerpt=passage.text, summary=summary, relevant=fewshot)
    _walk(state, passage, backend, _chain_steps(chain), slot)
    return state.response


def code_passages_per_slot(
    passages: Sequence[Passage],
    backend,
    chain: Sequence[str],
    summaries: dict[str, str],
    fewshot_context: dict[str, str],
    run_chain: Callable = run_chain_branches,
) -> CodingRun:
    """Code each passage slot by slot, every slot running ``run_chain`` over
    the whole chain; the first unreadable reply or transport failure costs
    the passage."""
    results, errors = [], []
    passages = sorted(passages, key=lambda p: f"{p.article_id}:{p.index:04d}")
    for passage, n_slots in zip(passages, backend.plan(passages)):
        key = f"{passage.article_id}:{passage.index:04d}"
        summary = summaries.get(passage.article_id, "")
        fewshot = fewshot_context.get(key, "[]")
        try:
            responses = [
                run_chain(passage, backend, chain, summary, fewshot, slot)
                for slot in range(n_slots)
            ]
        except TransportError as exc:
            errors.append((key, f"{type(exc).__name__}: {exc}"))
            continue
        except ResponseParseError as exc:
            raw = exc.raw[:200].encode("utf-8", "backslashreplace").decode("utf-8")
            errors.append((key, f"{type(exc).__name__}: {exc}: {raw}"))
            continue
        results.extend((passage, response) for response in responses)
    return CodingRun(tuple(results), tuple(errors))


def parse_bool_dict(raw: str) -> dict[str, bool]:
    match = _REGION.search(raw)
    if not match:
        raise ResponseParseError("no dictionary-shaped region in triage reply", raw)
    obj = ast.literal_eval(match.group(0))
    out = {}
    for key, value in obj.items():
        lowered = str(key).lower()
        if "disclaimer" in lowered:
            out["disclaimer"] = bool(value)
        elif "caption" in lowered:
            out["caption"] = bool(value)
    return out


def parse_yes_no_dict(raw: str) -> dict[str, str]:
    match = _REGION.search(raw)
    if not match:
        raise ResponseParseError("no dictionary-shaped region in relevance reply", raw)
    obj = ast.literal_eval(match.group(0))
    out = {}
    for key, value in obj.items():
        lowered = str(key).lower()
        name = "refugees" if "refugee" in lowered else "malaysia" if "malaysia" in lowered else None
        if name:
            out[name] = str(value).strip().rstrip(".")
    return out


def parse_relevance(raw: str) -> tuple[str, str]:
    match = _REGION.search(raw)
    if not match:
        raise ResponseParseError("no dictionary-shaped region in confidence reply", raw)
    obj = ast.literal_eval(match.group(0))
    level, reason = "Yes", ""
    for key, value in obj.items():
        lowered = str(key).lower()
        if "relevant" in lowered:
            level = str(value).strip().rstrip(".")
        elif "why" in lowered and value is not None:
            reason = str(value)
    return level, reason


def t_two_sided_closed(t, df: int, lib=math):
    """P(|T| > |t|) for Student's t with integer ``df``, as 1 − A(t|df) of
    Abramowitz & Stegun 26.7.3 (odd df) and 26.7.4 (even df), with
    θ = atan(|t|/√df). At df = 1 it is 1 − (2/π)·atan|t|, at df = 2
    1 − |t|/√(2 + t²). ``lib`` supplies ``atan``, ``sin``, ``cos``, ``sqrt``
    and ``pi``: ``math``, or ``mpmath`` for the tail far below 1e-16, where
    1 − A cancels in floats."""
    theta = lib.atan(abs(t) / lib.sqrt(df))
    c2 = lib.cos(theta) ** 2
    total = 0
    if df % 2:
        term = lib.sin(theta) * lib.cos(theta)
        for j in range((df - 1) // 2):
            total += term
            term *= c2 * (2 * j + 2) / (2 * j + 3)
        return 1 - 2 * (theta + total) / lib.pi
    term = lib.sin(theta)
    for j in range(df // 2):
        total += term
        term *= c2 * (2 * j + 1) / (2 * j + 2)
    return 1 - total


def f_upper_k2(f, df):
    """P(F > f) for F with 2 and ``df`` degrees of freedom: (df/(df + 2f))^(df/2)."""
    return (df / (df + 2 * f)) ** (df / 2)


def csv_writer(fh):
    """A ``csv.writer`` whose rows end in \\n and which quotes a value holding
    \\r as it quotes one holding \\n. With ``lineterminator="\\n"`` csv
    quotes only \\n, and a bare \\r then cannot be read back."""
    end = types.SimpleNamespace(write=lambda row: fh.write(row[:-2] + "\n"))
    return csv.writer(end, lineterminator="\r\n")


def write_collection_rows(
    documents: Collection,
    codebook: Codebook,
    documents_path,
    codes_path=None,
    themes_path=None,
    texts: dict[str, str] | None = None,
) -> None:
    """The collection in the ingest formats, one ``json.dumps`` per document
    and one ``csv.writer`` row per code row."""
    with open(documents_path, "w", encoding="utf-8", newline="") as fh:
        for doc_id, length, label in zip(
            documents.ids, documents.lengths.tolist(), documents.source_labels
        ):
            obj: dict = {"id": doc_id, "text_length": length, "source": label}
            if texts and doc_id in texts:
                obj["text"] = texts[doc_id]
            fh.write(json.dumps(obj, ensure_ascii=False) + "\n")
    if codes_path is not None:
        rows, cells = [np.zeros(0, dtype=np.int64)], []
        for source in sorted(documents.matrices):
            m = documents.matrices[source]
            labels = [codebook.entries.get(label, label) for label in m.labels]
            rows.append(m.doc_index())
            cells.extend(
                (source, labels[c], "" if p != p else repr(p))  # NaN: no position
                for c, p in zip(m.codes.tolist(), m.positions.tolist())
            )
        # by document, then by sorted source, then in instance order
        rows = np.concatenate(rows)
        order = np.argsort(rows, kind="stable").tolist()
        with open(codes_path, "w", encoding="utf-8", newline="") as fh:
            writerow = csv_writer(fh).writerow
            writerow(["doc_id", "coder_source", "code_label", "position"])
            ids = documents.ids
            for r, i in zip(rows[order].tolist(), order):
                writerow([ids[r], *cells[i]])
    if themes_path is not None and codebook.theme_map:
        with open(themes_path, "w", encoding="utf-8", newline="") as fh:
            writerow = csv_writer(fh).writerow
            writerow(["code_label", "theme_label"])
            for cid in sorted(codebook.theme_map):
                tid = codebook.theme_map[cid]
                writerow(
                    [
                        codebook.entries.get(cid, cid),
                        (codebook.themes or {}).get(tid, tid),
                    ]
                )


def band_csv_rows(path, band: BootstrapBand) -> None:
    """``curve_<regime>.csv`` of a bootstrap band, one ``csv.writer`` row of
    ``repr`` strings per retained step."""
    retained = len(band.lo95)
    columns = (band.mean_chars, band.mean_count, band.lo95, band.hi95)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writerow = csv_writer(fh).writerow
        writerow(["step", "mean_chars", "mean_count", "lo95", "hi95"])
        for step, *cells in zip(range(1, retained + 1), *(c[:retained].tolist() for c in columns)):
            writerow([step, *map(repr, cells)])


def superset_sweep_loop(
    full: Collection,
    coder_source: str,
    quadratic_map,
    seed: int,
    sizes: Sequence[int],
    replicates: int = 10,
    n_budget_docs: int = 20,
    value_function: ValueFunction = SQRT,
) -> list[SweepPoint]:
    """``superset_sweep`` at the given sizes, with every replicate drawn and
    selected, including those that draw the whole set."""
    row_of = {doc_id: i for i, doc_id in enumerate(full.ids)}
    N = len(full)

    def mean_density(size: int) -> float:
        densities = []
        for rep in range(replicates):
            rng = np.random.default_rng([seed, size, rep])
            subset = full.take(rng.choice(N, size=size, replace=False))
            if size > n_budget_docs:
                budget = SelectionBudget.from_mean_docs(subset, n_budget_docs)
                chosen = select_greedy(subset, budget, value_function, coder_source)
                subset = full.take([row_of[doc_id] for doc_id in chosen.selected_ids])
            densities.append(corpus_code_density(subset, coder_source))
        return sum(densities) / len(densities)

    baseline_size = min(n_budget_docs, N)
    baseline_density = mean_density(baseline_size)
    baseline_pred = quadratic_map(baseline_density)
    points = [SweepPoint(baseline_size, baseline_density, baseline_pred, 100.0)]
    for size in sorted(set(sizes)):
        d = mean_density(size)
        pred = quadratic_map(d)
        points.append(SweepPoint(size, d, pred, pred / baseline_pred * 100.0))
    return points


def synth_corpus_choice(
    n_docs: int,
    seed: int,
    n_codes: int = 60,
    zipf_exponent: float = 1.1,
    mean_length: int = 2000,
    codes_per_kchar: float = 3.0,
    coder_source: str = "human",
    n_themes: int = 0,
    lengths: list[int] | None = None,
) -> tuple[Collection, Codebook]:
    """The synthetic corpus with each document's codes drawn by
    ``Generator.choice(p=...)`` and its positions by ``Generator.uniform``."""
    rng = np.random.default_rng(seed)
    probs = zipf_probabilities(n_codes, zipf_exponent)
    vocab = [f"code {i:03d}" for i in range(1, n_codes + 1)]
    width = len(str(n_docs))
    doc_lengths, sizes, picks, positions = [], [], [], []
    for d in range(n_docs):
        if lengths is not None:
            length = lengths[d]
        else:
            length = max(100, int(rng.lognormal(np.log(mean_length), 0.5)))
        k = int(rng.poisson(codes_per_kchar * length / 1000.0))
        doc_lengths.append(length)
        sizes.append(k)
        if k:  # no draw for an empty document
            picks.append(rng.choice(n_codes, size=k, p=probs))
            positions.append(rng.uniform(size=k))
    label_ids = np.concatenate(picks or [np.zeros(0, dtype=np.int64)])
    rows = np.repeat(np.arange(n_docs), sizes)
    instances = (np.zeros(len(rows)), rows, label_ids, np.concatenate(positions or [np.zeros(0)]))
    docs = Collection.intern(
        [f"doc-{d:0{width}d}" for d in range(n_docs)], doc_lengths, ("synthetic",) * n_docs,
        [coder_source], instances, vocab,
    )
    used = np.flatnonzero(np.bincount(label_ids, minlength=n_codes)).tolist()
    entries = {vocab[i]: vocab[i] for i in used}
    theme_map = themes = None
    if n_themes > 0:
        theme_map = {vocab[i]: f"theme {i % n_themes + 1:02d}" for i in used}
        themes = {t: t for t in sorted(set(theme_map.values()))}
    return docs, Codebook(entries=entries, theme_map=theme_map, themes=themes)


def synth_articles_loop(
    n_docs: int,
    seed: int,
    mean_paragraphs: int = 6,
    words_per_paragraph: tuple[int, int] = (20, 60),
) -> list[RawArticle]:
    """Word-salad articles with each word looked up one ``int`` at a time."""
    rng = np.random.default_rng(seed)
    width = len(str(n_docs))
    articles = []
    for d in range(n_docs):
        n_paragraphs = max(1, int(rng.poisson(mean_paragraphs)))
        paragraphs = []
        for _ in range(n_paragraphs):
            n_words = int(rng.integers(*words_per_paragraph))
            words = [_WORDS[int(i)] for i in rng.integers(0, len(_WORDS), n_words)]
            paragraphs.append(" ".join(words))
        articles.append(
            RawArticle(
                id=f"doc-{d:0{width}d}",
                full_text="\n".join(paragraphs),
            )
        )
    return articles


def read_jsonl_text(path) -> list[tuple[int, dict]]:
    """Each non-blank line's number and object, read in text mode, where any
    of \\r\\n, \\r and \\n ends a line."""
    out = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CollectionFormatError(f"invalid JSON: {exc}", str(path), lineno)
            if not isinstance(obj, dict):
                raise CollectionFormatError("expected a JSON object", str(path), lineno)
            out.append((lineno, obj))
    return out


def experiment_corpus(
    seed: int,
    n_treatment: int = 34,
    n_control: int = 14,
    control_rate: float = 1.4,
    effect_ratio: float = 2.0,
    length_range: tuple[int, int] = (1000, 3000),
    coder_source: str = "human",
) -> tuple[Collection, dict[str, str]]:
    """Two-arm corpus with a known planted fecundity effect.

    Control documents generate code instances at ``control_rate`` per 1000
    characters; treatment documents at ``effect_ratio`` times that. Every
    instance gets a fresh code id, so inverse-frequency weights are all 1
    and the expected fecundity gap is exactly control_rate*(effect_ratio-1).
    Returns documents plus an id->arm map.
    """
    rng = np.random.default_rng(seed)
    arms, lengths, sizes = {}, [], []
    for arm, count, rate in (
        ("control", n_control, control_rate),
        ("treatment", n_treatment, control_rate * effect_ratio),
    ):
        for i in range(count):
            length = int(rng.integers(length_range[0], length_range[1] + 1))
            sizes.append(int(rng.poisson(rate * length / 1000.0)))
            lengths.append(length)
            arms[f"{arm[0]}{i:03d}"] = arm
    n = sum(sizes)
    rows = np.repeat(np.arange(len(sizes)), sizes)
    instances = (np.zeros(n), rows, np.arange(n), np.full(n, np.nan))
    names = [f"fresh {j:06d}" for j in range(n)]
    docs = Collection.intern(list(arms), lengths, (None,) * len(sizes), [coder_source],
                             instances, names)
    return docs, arms
