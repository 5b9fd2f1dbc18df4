"""Coder backends: prompt templates, a remote chat-completion client, and a
deterministic offline mock.

The template chain mirrors a staged screening-and-coding pipeline: triage
boilerplate, check topical relevance, elicit a confidence judgement, code
the passage on its own, then reassess against the article summary. Each
step can feed a ``note`` about earlier red flags into the next prompt.
A few-shot variant codes in one step given exemplar codes for the
passage's semantic cluster. The mock backend walks the same chain but
answers from a seeded Zipf vocabulary, so the whole pipeline runs offline
and reproducibly.
"""

from __future__ import annotations

import ast
import copy
import json
import os
import re
import time
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from itertools import takewhile
from string import Template
from typing import Callable, Iterator, Sequence

import numpy as np
from numpy.random import default_rng

from .errors import PromptBindingError, RateLimitError, ResponseParseError, TransportError
from .ingest import Passage
from .synthetic import zipf_probabilities

# --- templates ------------------------------------------------------------

_TEMPLATE_TEXTS: dict[str, str] = {
    "round1": (
        'Read a passage from a news article summarized here: ### $summary ### passage: '
        '### $excerpt ### In 12 words or less, give the theme of this specific passage '
        'as it embodies, relates to or reflects attitudes towards refugees in Malaysia, '
        'or return "Irrelevant"'
    ),
    "triage_caption": (
        'Read a passage from a news article ### $excerpt ### Is this passage a piece of '
        'text such as 1. a disclaimer of opinion, 2. a photo caption. Or is it a complete '
        'passage from the body of a news article? Respond only in the following python '
        'dictionary format: {"1. disclaimer?": True/False, "2. caption?": True/False, '
        '"Body?": True/False }'
    ),
    "triage_relevance": (
        'Read a passage from a news article ### $excerpt ### Step by step, answer the '
        'following questions: 1. Does the passage explicitly, unambiguously discuss '
        'refugees? Note: most passages are not about refugees. 2. Does the passage '
        'explicitly, unambiguously reference Malaysia? Note: most passages are about '
        'other countries.$note Now respond in the following Python dictionary format: '
        '{"1. Refugees?": "Yes./"/"No.", "2. Malaysia?": "Yes./"/"No."}'
    ),
    "relevance_confidence": (
        'Read a passage from a news article ### $excerpt ### Answer step by step: 1. '
        'Might this passage be relevant to attitudes towards refugees in Malaysia? If it '
        'clearly is, answer "Yes." If it might be, depending on the context of the '
        'article the passage is from--eg. the identity of the subject and their '
        'location--answer "Maybe." If it is definitely irrelevant regardless of context, '
        'answer "No." $note 2. If "No." or "Maybe.", in 15 words or less give any and '
        'all reasons why it might be irrelevant--both those provided earlier and any '
        'others you identify, such as irrelevant output from a content management system '
        'or editorial annotations to the article. Respond in the following python '
        'dictionary format: {"1. Relevant?": "Yes."/"Maybe."/"No.", "2. Why Not?": '
        'string or None} '
    ),
    "socratic_code": (
        'Read a passage from a news article ### $excerpt ### Give the theme of this '
        'passage as it embodies, relates to or reflects attitudes towards refugees in '
        'Malaysia if it is relevant to that topic. If it is not relevant, simply '
        'summarize the passage in a few words. Note that this passage may simply be text '
        'from the web interface and not from an article at all. Before answering, '
        'analyze step by step: 1. in 14 words or less, return the theme. Do not offer a '
        'generic theme like "attitudes towards refugees in Malaysia", but give a '
        'specific theme. 2. Whose attitudes are being reflected? Examples: the Malaysian '
        'government, The Bangladeshi government, Malaysians, NGOs, the author. 3. Who is '
        'the target of the attitudes? Examples: migrant workers, Myanmar, the Rohingya, '
        'the government, UNHCR. 4. What is the valence of attitudes towards the target, '
        'if any?: "Sympathetic.", "Hostile.", or "N/A". $note Finally, Respond ONLY in '
        'the following python dictionary format: {"1. Theme": stringval1, "2. Whose '
        'Attitude?": stringval2, "3. Target": stringval3, "4. Valence": '
        '"Sympathetic."/"Hostile."/"N/A"}'
    ),
    "summary_reassess": (
        'Read a passage from a news article ### $excerpt ### The theme of this passage '
        'was coded as ### $precode ### but this analysis ignores the article summary and '
        'is therefore unreliable. Reassess the theme of this passage as it relates to '
        'attitudes towards refugees in Malaysia, given the context of this summary of '
        'the article it came from ### $summary ### Before answering, analyze step by '
        'step: 1. in 14 words or less, return the reassessed theme (if relevant) as it '
        'relates to attitudes towards refugees in Malaysia, or return None. Do not give '
        'a generic theme like "attitudes towards refugees in Malaysia", but provide a '
        'specific theme. If irrelevant, return None for all further questions. If '
        'relevant, 2. Whose attitudes are being reflected? Examples: the government, '
        'Malaysians, NGOs, the author. 3. Who is the target of the attitudes? Examples: '
        'the Rohingya, the government, UNHCR. 4. What is the valence of the attitude '
        'towards the target, if any?: "Sympathetic.", "Hostile.", or "N/A". $note Once '
        'again, the passage to code is ### $excerpt ### Finally, Respond ONLY in the '
        'following python dictionary format: {"1. Theme": stringval1/None, "2. Whose '
        'Attitude?":stringval2,"3. Target":stringval3,"4. Valence": '
        '"Sympathetic."/"Hostile."/"N/A"}'
    ),
    "cluster_summary": (
        'Read a list of four themes from a cluster of passages ### $codes ### Step by '
        'step, answer the following: 1 Are all of these themes both present and relevant '
        'to attitudes towards refugees in Malaysia? "All are."/"None are."/"Some are.". '
        'If irrelevant, return none to all further questions. 2. If relevant, return the '
        'overarching theme as it relates to attitudes towards refugees in Malaysia, or '
        'return None. Do not give a generic theme like "attitudes towards refugees in '
        'Malaysia", but provide a specific and detailed theme. If relevant, 3. Whose '
        'attitudes are being reflected? Examples: the government, Malaysians, NGOs, the '
        'author. 4. Who is the target of the attitudes? Examples: the Rohingya, the '
        'government, UNHCR. 5. What is the overall valence, if any? Finally, Respond '
        'ONLY in the following python dictionary format: {"1. Are Passages Relevant?": '
        '"All are."/"None are."/"Some are.", "2. Theme": stringval1/None, "3. Whose '
        'Attitude?":stringval2,"4. Target":stringval3,"5. Valence": '
        '"Sympathetic."/"Hostile."/"N/A"}'
    ),
    "final_fewshot": (
        'Read this passage from a news article ### $excerpt ### If relevant, give the '
        'theme of this SPECIFIC passage as it embodies, relates to, or reflects '
        'attitudes towards refugees in Malaysia. The following summary of the excerpted '
        'article may provide context for the passage (e.g. who is being discussed and '
        'where events are occurring): ### $summary ### Here is an overview of how '
        'several passages similar to this one have been coded: ### $relevant ### DO NOT '
        'copy this coding verbatim, but use it as reference and be careful if only some '
        'or none of the similar passages were deemed relevant. Before answering, analyze '
        'step by step: 1. in 12 words or less, return the theme (if relevant) as it '
        'relates to attitudes towards refugees in Malaysia, or return None. Do not give '
        'a generic theme like "attitudes towards refugees in Malaysia", but provide a '
        'specific single theme. If irrelevant, return None for all further questions. If '
        'relevant, 2. Whose attitudes are being reflected? Examples: the government, '
        'Malaysians, NGOs, the author. 3. Who is the target of the attitudes? Examples: '
        'the Rohingya, the government, UNHCR. 4. What is the valence of attitudes '
        'towards the target, if any?: "Sympathetic.", "Hostile.", or "N/A". Once again, '
        'the passage to code is ### $excerpt ### Finally, Respond ONLY in the following '
        'python dictionary format: {"1. Theme": None/stringval1, "2. Whose '
        'Attitude?":None/stringval2,"3. Target":None/stringval3, 4. Valence": '
        '"Sympathetic."/"Hostile."/"N/A"}'
    ),
}

CRITERIA_DISCLAIMER = "Passage is a disclaimer of personal opinion, "
CRITERIA_CAPTION = " Passage is a photo caption, "
CRITERIA_NOT_REFUGEES = " Not about refugees, "
CRITERIA_NOT_MALAYSIA = " Not about Malaysia, "


def flag_note(criteria: Sequence[str]) -> str:
    """Note injected after triage red flags; empty when nothing was flagged."""
    if not criteria:
        return ""
    return (
        "Note: this passage has been flagged as possibly meeting the following criteria "
        "for irrelevance: " + "".join(criteria) + ' ### If any of these criteria are '
        'true, you should answer "No." or "Maybe. "'
    )


def relevance_note(level: str, reason: str) -> str:
    """Note threaded into the standalone coding step from the relevance verdict."""
    if level == "Yes":
        return ""
    verb = "might be" if level == "Maybe" else "is"
    return (
        f" Previous analysis found that this passage {verb} irrelevant for this "
        f"reason: {reason}### Take this into account."
    )


def reassess_note(level: str, reason: str) -> str:
    """Note for the summary-reassessment step; one text covers both verdicts."""
    if level == "Yes":
        return ""
    return (
        "Previous analysis found that this SPECIFIC passage might be irrelevant for "
        f"this reason: {reason}### Does the summary clarify this?."
    )


@dataclass(frozen=True)
class PromptTemplate:
    name: str
    text: str

    @cached_property
    def _split(self) -> tuple[tuple[str, ...], tuple[str, ...]] | None:
        """The text, split once by ``Template.pattern``, as literal runs and the
        placeholder names between them (one more literal than names); None
        when the text holds an invalid ``$``."""
        literals, names, literal, start = [], [], "", 0
        for match in Template.pattern.finditer(self.text):
            literal += self.text[start:match.start()]
            start = match.end()
            name = match.group("named") or match.group("braced")
            if name is not None:
                literals.append(literal)
                names.append(name)
                literal = ""
            elif match.group("escaped") is not None:
                literal += Template.delimiter
            else:
                return None
        literals.append(literal + self.text[start:])
        return tuple(literals), tuple(names)

    @cached_property
    def placeholders(self) -> tuple[str, ...]:
        return tuple(sorted(set(self._split[1] if self._split else ())))

    def render(self, **bindings: str) -> str:
        """Substitute placeholders verbatim (no escaping), as
        ``Template.substitute`` does."""
        split = self._split
        try:
            if split is None:  # substitute raises the invalid placeholder's error
                return Template(self.text).substitute(bindings)
            literals, names = split
            pieces = [literals[0]]
            for name, literal in zip(names, literals[1:]):
                pieces.append(str(bindings[name]))
                pieces.append(literal)
        except KeyError as exc:
            raise PromptBindingError(exc.args[0], template=self.name)
        return "".join(pieces)


TEMPLATES: dict[str, PromptTemplate] = {
    name: PromptTemplate(name, text) for name, text in _TEMPLATE_TEXTS.items()
}

SOCRATIC_CHAIN = (
    "triage_caption",
    "triage_relevance",
    "relevance_confidence",
    "socratic_code",
    "summary_reassess",
)
FEWSHOT_CHAIN = ("final_fewshot",)
ROUND1_CHAIN = ("round1",)
CHAINS = {"socratic": SOCRATIC_CHAIN, "fewshot": FEWSHOT_CHAIN, "round1": ROUND1_CHAIN}


def render_prompt(template: str | PromptTemplate, bindings: dict[str, str]) -> str:
    tpl = TEMPLATES[template] if isinstance(template, str) else template
    return tpl.render(**bindings)


# --- responses ------------------------------------------------------------

VALENCES = ("Sympathetic", "Hostile", "N/A")


@dataclass(frozen=True)
class CodeResponse:
    """Parsed coding reply; an absent theme means the passage was judged irrelevant."""

    theme: str | None = None
    whose_attitude: str | None = None
    target: str | None = None
    valence: str | None = None

    @property
    def relevant(self) -> bool:
        return self.theme is not None

    def format(self) -> str:
        def enc(v):
            return "None" if v is None else json.dumps(v, ensure_ascii=False)

        valence = "None" if self.valence is None else json.dumps(self.valence + ".")
        return (
            '{"1. Theme": ' + enc(self.theme)
            + ', "2. Whose Attitude?": ' + enc(self.whose_attitude)
            + ', "3. Target": ' + enc(self.target)
            + ', "4. Valence": ' + valence + "}"
        )


_DICT_REGION = re.compile(r"\{.*\}", re.DOTALL)
# a double-quoted string (kept as it is) or a bare Python name outside one
_PYTHON_NAME = re.compile(r'("[^"\\]*(?:\\.[^"\\]*)*")|\b(True|False|None)\b', re.DOTALL)
_JSON_NAME = {"True": "true", "False": "false", "None": "null"}


def _json_names(match: re.Match) -> str:
    return match.group(1) or _JSON_NAME[match.group(2)]


def _loads_python_names(region: str):
    """``region`` as JSON once its bare ``True``/``False``/``None`` are spelled
    ``true``/``false``/``null``."""
    return json.loads(_PYTHON_NAME.sub(_json_names, region))


def _normalize_valence(value) -> str | None:
    if value is None:
        return None
    text = str(value).strip().rstrip(".").strip()
    for v in VALENCES:
        if text.lower() == v.lower():
            return v
    return None if text.lower() in ("", "none") else text.rstrip(".")


def _extract_dict(raw: str) -> list[tuple[str, object]]:
    """The first dictionary-shaped region of a reply, in JSON or Python literal
    syntax, as (lowercased key, value) pairs.

    The region is read as JSON; failing that, as JSON with its bare Python
    names (outside double-quoted strings) spelled as JSON's, which covers
    the prompts' "python dictionary format" at JSON's cost; and only then as
    a Python literal (single quotes, Python escapes, trailing commas). JSON
    reads escapes as meant where Python would not (``\\/`` is ``/``, an
    escaped surrogate pair is one character). Every reply of every chain
    step is read here, so a reply that parses at one step parses at all of
    them.
    """
    match = _DICT_REGION.search(raw)
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


def _pick(reply: list[tuple[str, object]], needle: str, default=None):
    """The value of the first key that contains ``needle``."""
    for key, value in reply:
        if needle in key:
            return value
    return default


def _clean(value) -> str | None:
    if value is None:
        return None
    text = str(value).strip()
    return None if text.lower() in ("", "none", "null") else text


def _encodable(response: CodeResponse, raw: str) -> CodeResponse:
    """``response``, unless a field holds a lone surrogate, which no UTF-8
    output can store."""
    for value in (response.theme, response.whose_attitude, response.target, response.valence):
        if value is not None and not value.isascii():
            try:
                value.encode("utf-8")
            except UnicodeEncodeError:
                raise ResponseParseError("reply holds a lone surrogate", raw) from None
    return response


def parse_response(raw: str) -> CodeResponse:
    """Pull the first dictionary-shaped region out of a reply and normalize it.

    Tolerates surrounding prose, Python or JSON literal syntax, and
    trailing periods on valence labels. A null/None theme marks the
    passage irrelevant.
    """
    reply = _extract_dict(raw)
    return _encodable(
        CodeResponse(
            theme=_clean(_pick(reply, "theme")),
            whose_attitude=_clean(_pick(reply, "attitude")),
            target=_clean(_pick(reply, "target")),
            valence=_normalize_valence(_clean(_pick(reply, "valence"))),
        ),
        raw,
    )


def parse_round1_response(raw: str) -> CodeResponse:
    """Round-1 replies are a bare theme string or the word Irrelevant."""
    text = raw.strip().strip('"').strip()
    if not text or text.lower().rstrip(".") == "irrelevant":
        return CodeResponse()
    return _encodable(CodeResponse(theme=text), raw)


# --- backends ---------------------------------------------------------------


_Memo = tuple[Passage | None, list[str], dict[int, tuple[str, str]]]


class MockCoder:
    """Offline coder with a seeded Zipf vocabulary.

    Each passage yields 0-6 codes (expected count scales with passage
    length). A passage with codes is triaged once, and each code slot then
    walks the chain's coding steps, all with deterministic replies, so
    prompt rendering, note threading, and parsing are all exercised
    without a network. Triage replies ignore the slot; each slot's coding
    steps share that slot's one draw and the one reply built from it.
    Passages containing tell-tale boilerplate markers ("photo:", "photo
    caption", "disclaimer", "views expressed") are flagged at triage,
    mirroring the screening behaviour of a real backend.
    """

    kind = "mock"

    def __init__(self, seed: int = 0, vocab_size: int = 200, zipf_exponent: float = 1.1,
                 mean_codes_per_kchar: float = 3.0):
        self.seed = seed
        self.vocab = [f"mock code {i:03d}" for i in range(1, vocab_size + 1)]
        self.probabilities = zipf_probabilities(vocab_size, zipf_exponent)
        # Generator.choice(p=...) draws one uniform and bisects this same CDF
        cdf = self.probabilities.cumsum()
        cdf /= cdf[-1]
        self._cdf = cdf.tolist()
        self.mean_codes_per_kchar = mean_codes_per_kchar
        # the passage asked about last, its triage flags and, by slot, the drawn
        # code and its coding reply; the chain asks about one passage many times
        # in a row
        self._last: _Memo = (None, [], {})

    def _rng(self, passage_id: str, slot: int) -> np.random.Generator:
        digest = int.from_bytes(passage_id.encode("utf-8")[-8:].rjust(8, b"\0"), "big")
        return default_rng([self.seed, digest % (2**32), slot])

    def n_slots(self, passage: Passage) -> int:
        rng = self._rng(passage.article_id + ":" + str(passage.index), 0)
        lam = self.mean_codes_per_kchar * len(passage.text) / 1000.0
        return int(min(6, rng.poisson(lam)))

    def _flags(self, passage: Passage) -> list[str]:
        text = passage.text.lower()
        flags = []
        if "disclaimer" in text or "views expressed" in text:
            flags.append(CRITERIA_DISCLAIMER)
        if "photo:" in text or "photo caption" in text:
            flags.append(CRITERIA_CAPTION)
        return flags

    def _memo(self, passage: Passage) -> _Memo:
        memo = self._last
        if memo[0] is not passage:
            memo = self._last = (passage, self._flags(passage), {})
        return memo

    def _draw(self, passage: Passage, slot: int) -> tuple[str, str]:
        """One seeded draw per (passage, slot) and the coding reply that
        carries it, both shared by every step that asks."""
        slots = self._memo(passage)[2]
        if slot not in slots:
            rng = self._rng(passage.article_id + ":" + str(passage.index), slot + 1)
            code = self.vocab[bisect_right(self._cdf, rng.random())]
            reply = CodeResponse(
                theme=code, whose_attitude="the author", target="the Rohingya",
                valence="Sympathetic",
            ).format()
            slots[slot] = code, reply
        return slots[slot]

    def respond(self, step: str, prompt: str, passage: Passage, slot: int = 0) -> str:
        flags = self._memo(passage)[1]
        if step == "triage_caption":
            return (
                '{"1. disclaimer?": %s, "2. caption?": %s, "Body?": %s }'
                % (
                    CRITERIA_DISCLAIMER in flags,
                    CRITERIA_CAPTION in flags,
                    not flags,
                )
            )
        if step == "triage_relevance":
            return '{"1. Refugees?": "Yes.", "2. Malaysia?": "Yes."}'
        if step == "relevance_confidence":
            if flags:
                return (
                    '{"1. Relevant?": "Maybe.", "2. Why Not?": "Passage looks like '
                    'page boilerplate"}'
                )
            return '{"1. Relevant?": "Yes.", "2. Why Not?": None}'
        # every coding step shares the slot's one draw, so precode == final theme
        code, reply = self._draw(passage, slot)
        return code if step == "round1" else reply


@dataclass(frozen=True)
class RemoteConfig:
    """Chat-completion endpoint settings; the token is read from the environment."""

    url: str
    model: str
    token_env: str = "CODER_API_TOKEN"
    timeout: float = 30.0
    max_retries: int = 3
    temperature: float = 0.0
    max_in_flight: int = 4


def _urllib_transport(url: str, headers: dict, body: bytes, timeout: float):
    # deferred: urllib.request pulls in http.client and email, which only a
    # remote run needs
    import urllib.error
    import urllib.request

    request = urllib.request.Request(url, data=body, headers=headers, method="POST")
    try:
        with urllib.request.urlopen(request, timeout=timeout) as resp:
            return resp.status, resp.read().decode("utf-8")
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read().decode("utf-8", errors="replace")


class RemoteCoder:
    """Minimal chat-completion client: single user message per step.

    Request body: {"model", "messages": [{"role": "user", "content": prompt}],
    "temperature"}; reply must carry choices[0].message.content. Retries
    transport failures and 5xx with exponential backoff; 429/402 raise the
    rate-limit error distinctly.
    """

    kind = "remote"

    def __init__(self, config: RemoteConfig, transport: Callable = _urllib_transport,
                 sleep: Callable[[float], None] = time.sleep):
        self.config = config
        self.transport = transport
        self.sleep = sleep

    def n_slots(self, passage: Passage) -> int:
        return 1

    def respond(self, step: str, prompt: str, passage: Passage, slot: int = 0) -> str:
        token = os.environ.get(self.config.token_env, "")
        headers = {"Content-Type": "application/json"}
        if token:
            headers["Authorization"] = f"Bearer {token}"
        body = json.dumps(
            {
                "model": self.config.model,
                "messages": [{"role": "user", "content": prompt}],
                "temperature": self.config.temperature,
            }
        ).encode("utf-8")
        last_error: Exception | None = None
        for attempt in range(self.config.max_retries):
            if attempt:
                self.sleep(0.5 * 2 ** (attempt - 1))
            try:
                status, text = self.transport(
                    self.config.url, headers, body, self.config.timeout
                )
            except Exception as exc:
                last_error = TransportError(f"transport failure: {exc}")
                continue
            if status in (429, 402):
                last_error = RateLimitError(f"rate/budget limit (HTTP {status})")
                continue
            if status >= 500:
                last_error = TransportError(f"server error (HTTP {status})")
                continue
            if status != 200:
                raise TransportError(f"HTTP {status}: {text[:200]}")
            try:
                payload = json.loads(text)
                return payload["choices"][0]["message"]["content"]
            except (json.JSONDecodeError, KeyError, IndexError, TypeError):
                raise TransportError(f"malformed completion payload: {text[:200]}")
        raise last_error if last_error else TransportError("no attempts made")


# --- chain execution --------------------------------------------------------


@dataclass(frozen=True)
class CodingRun:
    """Outcome of coding a batch: per-passage responses plus recorded errors."""

    results: tuple[tuple[str, CodeResponse], ...]
    errors: tuple[tuple[str, str], ...] = ()

    def __iter__(self) -> Iterator[tuple[str, CodeResponse]]:
        return iter(self.results)


def passage_key(passage: Passage) -> str:
    """A passage's id in coder outputs: ``article:index``, the index zero-padded to 4."""
    return f"{passage.article_id}:{passage.index:04d}"


@dataclass
class _ChainState:
    """What one code slot carries from step to step; prompts bind its fields."""

    excerpt: str
    summary: str
    relevant: str
    precode: str = "None"
    note: str = ""
    flags: list[str] = field(default_factory=list)
    level: str = "Yes"
    reason: str = ""
    response: CodeResponse = CodeResponse()


def _verdict(value) -> str:
    return str(value).strip().rstrip(".")


def _read_caption(state: _ChainState, raw: str) -> None:
    reply = _extract_dict(raw)
    if _pick(reply, "disclaimer"):
        state.flags.append(CRITERIA_DISCLAIMER)
    if _pick(reply, "caption"):
        state.flags.append(CRITERIA_CAPTION)


def _read_topic(state: _ChainState, raw: str) -> None:
    reply = _extract_dict(raw)
    if _verdict(_pick(reply, "refugee")) == "No":
        state.flags.append(CRITERIA_NOT_REFUGEES)
    if _verdict(_pick(reply, "malaysia")) == "No":
        state.flags.append(CRITERIA_NOT_MALAYSIA)


def _read_confidence(state: _ChainState, raw: str) -> None:
    reply = _extract_dict(raw)
    state.level = _verdict(_pick(reply, "relevant", "Yes"))
    why = _pick(reply, "why")
    state.reason = "" if why is None else str(why)


def _read_precode(state: _ChainState, raw: str) -> None:
    state.response = parse_response(raw)
    theme = state.response.theme
    state.precode = "None" if theme is None else theme


def _read_code(state: _ChainState, raw: str) -> None:
    state.response = parse_response(raw)


def _read_round1(state: _ChainState, raw: str) -> None:
    state.response = parse_round1_response(raw)


# step -> (builder of the note the step's prompt binds, or None; reply handler;
# whether the step judges the whole passage, so one answer serves every slot)
_STEPS: dict[str, tuple[Callable | None, Callable[[_ChainState, str], None], bool]] = {
    "round1": (None, _read_round1, False),
    "triage_caption": (None, _read_caption, True),
    "triage_relevance": (lambda s: flag_note(s.flags), _read_topic, True),
    "relevance_confidence": (lambda s: flag_note(s.flags), _read_confidence, True),
    "socratic_code": (lambda s: relevance_note(s.level, s.reason), _read_precode, False),
    "summary_reassess": (lambda s: reassess_note(s.level, s.reason), _read_code, False),
    "final_fewshot": (None, _read_code, False),
}


def _walk(
    state: _ChainState, passage: Passage, backend, steps: Sequence[str], slot: int
) -> None:
    for step in steps:
        if step not in _STEPS:
            raise ValueError(f"unknown chain step {step!r}")
        note, read, _ = _STEPS[step]
        if note is not None:
            state.note = note(state)
        bindings = {name: getattr(state, name) for name in TEMPLATES[step].placeholders}
        read(state, backend.respond(step, render_prompt(step, bindings), passage, slot))


def _run_chain(
    passage: Passage, backend, chain: Sequence[str], summary: str, fewshot: str, slot: int
) -> CodeResponse:
    """One slot's walk through the whole chain."""
    state = _ChainState(excerpt=passage.text, summary=summary, relevant=fewshot)
    _walk(state, passage, backend, chain, slot)
    return state.response


def code_passages(
    passages: Sequence[Passage],
    backend,
    template_chain: Sequence[str] = SOCRATIC_CHAIN,
    summaries: dict[str, str] | None = None,
    fewshot_context: dict[str, str] | None = None,
) -> CodingRun:
    """Run the template chain over every passage.

    The chain's leading passage-level steps (triage, relevance, confidence)
    are asked once per passage that has at least one code slot, as slot 0;
    each slot then walks the remaining steps from its own copy of that
    state. A passage with no slots makes no call. ``summaries`` maps article
    ids to their summaries (required whenever a chain step binds one);
    ``fewshot_context`` maps passage keys ("article:index") to the
    exemplar-coding overview bound as the few-shot reference. A transport
    failure or an unreadable reply costs only its passage, which is
    recorded in ``errors``; the mock backend never fails. Results are
    ordered by passage key; remote batches honour the configured in-flight
    cap.
    """
    summaries = summaries or {}
    fewshot_context = fewshot_context or {}
    ordered = sorted(passages, key=passage_key)
    head = tuple(takewhile(lambda step: step in _STEPS and _STEPS[step][2], template_chain))
    tail = template_chain[len(head):]

    def work(passage: Passage) -> tuple[str, list[CodeResponse], str | None]:
        key = passage_key(passage)
        state = _ChainState(
            excerpt=passage.text,
            summary=summaries.get(passage.article_id, ""),
            relevant=fewshot_context.get(key, "[]"),
        )
        responses = []
        try:
            n_slots = backend.n_slots(passage)
            if n_slots:
                _walk(state, passage, backend, head, 0)
            for slot in range(n_slots):
                branch = copy.copy(state)
                branch.flags = list(state.flags)
                _walk(branch, passage, backend, tail, slot)
                responses.append(branch.response)
        except TransportError as exc:
            return key, [], f"{type(exc).__name__}: {exc}"
        except ResponseParseError as exc:
            # escaped, so a reply holding a lone surrogate can still be recorded
            raw = exc.raw[:200].encode("utf-8", "backslashreplace").decode("utf-8")
            return key, [], f"{type(exc).__name__}: {exc}: {raw}"
        return key, responses, None

    cap = getattr(getattr(backend, "config", None), "max_in_flight", 1)
    if backend.kind == "remote" and cap > 1 and len(ordered) > 1:
        from concurrent.futures import ThreadPoolExecutor  # only this path uses threads

        with ThreadPoolExecutor(max_workers=cap) as pool:
            outcomes = list(pool.map(work, ordered))
    else:
        outcomes = [work(p) for p in ordered]

    return CodingRun(
        results=tuple((key, r) for key, responses, _ in outcomes for r in responses),
        errors=tuple((key, error) for key, _, error in outcomes if error is not None),
    )
