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
import json
import math
import os
import re
import time
from _blake2 import blake2b  # hashlib's, without the OpenSSL bindings hashlib loads (~4 MB)
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, takewhile
from operator import itemgetter
from string import Template
from typing import Callable, Iterator, Sequence

from .errors import (
    PromptBindingError, RateLimitError, ResponseParseError, TransportError,
)
from .ingest import Passage, _encodable as _encodable_text

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


def _split(text: str) -> tuple[str, tuple[tuple[str, str], ...]]:
    """``text`` split by ``Template.pattern`` into its leading literal run and
    each placeholder name with the literal run after it, ``$$`` read as ``$``.
    The templates hold no invalid ``$``; a test checks."""
    runs, names, start = [""], [], 0
    for match in Template.pattern.finditer(text):
        runs[-1] += text[start:match.start()]
        start = match.end()
        if name := match.group("named") or match.group("braced"):
            names.append(name)
            runs.append("")
        else:
            runs[-1] += Template.delimiter
    runs[-1] += text[start:]
    return runs[0], tuple(zip(names, runs[1:]))


# step -> its template, split once
TEMPLATES = {name: _split(text) for name, text in _TEMPLATE_TEXTS.items()}

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


def render_prompt(step: str, bindings) -> str:
    """``step``'s template with each placeholder replaced by ``str()`` of its
    binding, verbatim, as ``string.Template``'s ``substitute`` does: one join
    of the split text, which copies each literal run where a ``%`` format
    would scan it."""
    first, pairs = TEMPLATES[step]
    pieces = [first]
    try:
        for name, literal in pairs:
            pieces.append(str(bindings[name]))
            pieces.append(literal)
    except KeyError as exc:
        raise PromptBindingError(exc.args[0], template=step)
    return "".join(pieces)


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


# a double-quoted string (kept as it is) or a bare Python name outside one
_PYTHON_NAME = re.compile(r'("[^"\\]*(?:\\.[^"\\]*)*")|\b(True|False|None)\b', re.DOTALL)
_JSON_NAME = {"True": "true", "False": "false", "None": "null"}
_decode = json.JSONDecoder().raw_decode  # the JSON value a str starts with, and its end
# a Python string literal or comment, read whole, or a brace outside one
_LITERAL_TOKEN = re.compile(r"""((['"])\2\2|['"])(?:\\.|(?!\1)[^\\])*\1|#[^\n]*|[{}]""", re.DOTALL)


def _json_names(match: re.Match) -> str:
    return match.group(1) or _JSON_NAME[match.group(2)]


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

    The reply is decoded once as JSON from its first ``{``, its bare Python
    names (outside double-quoted strings) first spelled as JSON's when it
    holds any, which covers the prompts' "python dictionary format" at
    JSON's cost; the decoder stops where the dictionary ends, so prose after
    it may hold braces. Only if that fails is the region up to the brace
    that closes the first ``{`` (braces in Python strings and comments do
    not count) read as a Python literal (single quotes, Python escapes,
    trailing commas). A dictionary JSON reads has no bare name to spell.
    JSON reads escapes as meant where Python would not (``\\/`` is ``/``,
    an escaped surrogate pair is one character). Every reply of every chain
    step is read here, so a reply that parses at one step parses at all of
    them.
    """
    start = raw.find("{")
    if start < 0 or raw.find("}", start) < 0:
        raise ResponseParseError("no dictionary-shaped region in reply", raw)
    tail = raw[start:]
    named = "True" in tail or "False" in tail or "None" in tail
    try:
        obj = _decode(_PYTHON_NAME.sub(_json_names, tail) if named else tail)[0]
    except (ValueError, RecursionError):
        try:
            obj = ast.literal_eval(_literal_region(tail))
        except Exception:  # SyntaxError, ValueError, RecursionError, MemoryError ...
            obj = None
    if not isinstance(obj, dict):
        raise ResponseParseError("dictionary-shaped region failed to parse", raw)
    return [(str(key).lower(), value) for key, value in obj.items()]


def _literal_region(text: str) -> str:
    """``text`` up to the brace that closes the ``{`` it starts with."""
    depth = 0
    for token in _LITERAL_TOKEN.finditer(text):
        depth += {"{": 1, "}": -1}.get(token.group(), 0)
        if not depth:
            return text[: token.end()]
    raise ValueError("unclosed dictionary")


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
        if value is not None and not value.isascii() and not _encodable_text(value):
            raise ResponseParseError("reply holds a lone surrogate", raw)
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


# SplitMix64's golden-ratio increment γ and finaliser multipliers (Steele, Lea
# & Flood 2014), for the mock's counter-based streams (Salmon et al. 2011)
_GAMMA, _MIX1, _MIX2 = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
_MASK64 = 2**64 - 1


def _uniform(key: int, counter: int) -> float:
    """The SplitMix64 finaliser of key + counter·γ mod 2**64: its top 53 bits over 2**53."""
    z = (key + counter * _GAMMA) & _MASK64
    z = (z ^ z >> 30) * _MIX1 & _MASK64
    z = (z ^ z >> 27) * _MIX2 & _MASK64
    return ((z ^ z >> 31) >> 11) * 2.0**-53


def _zipf_cdf(n: int, exponent: float) -> list[float]:
    """The running sums of k**-exponent over ranks 1..n, each divided by the
    last, so the CDF ends at exactly 1.0. Raises ValueError when a weight
    overflows or the total is not finite and positive (as for n = 0)."""
    try:
        sums = list(accumulate(float(k) ** -exponent for k in range(1, n + 1)))
    except OverflowError:
        sums = [math.inf]
    if not (sums and math.isfinite(sums[-1]) and sums[-1] > 0):
        raise ValueError(
            f"Zipf exponent {exponent:g} gives no finite, positive weights "
            f"over a vocabulary of {n} codes"
        )
    return [c / sums[-1] for c in sums]


class MockCoder:
    """Offline coder with a seeded Zipf vocabulary.

    Each passage yields 0-6 codes (expected count scales with passage
    length). A passage with codes is triaged once, and each code slot then
    walks the chain's coding steps, all with deterministic replies, so
    prompt rendering, note threading, and parsing are all exercised
    without a network. Triage replies ignore the slot; each slot's coding
    steps share that slot's one draw, and each code's reply is built once.
    Passages containing tell-tale boilerplate markers ("photo:", "photo
    caption", "disclaimer", "views expressed") are flagged at triage,
    mirroring the screening behaviour of a real backend. ``respond`` reads
    the last ``plan``, so it answers only for the slots that plan gave.
    """

    def __init__(self, seed: int = 0, vocab_size: int = 200, zipf_exponent: float = 1.1,
                 mean_codes_per_kchar: float = 3.0):
        self.seed = seed
        self.vocab = [f"mock code {i:03d}" for i in range(1, vocab_size + 1)]
        # a code is drawn by bisecting this CDF with one uniform
        self._cdf = _zipf_cdf(vocab_size, zipf_exponent)
        self.mean_codes_per_kchar = mean_codes_per_kchar
        self._plan: dict[int, tuple] = {}  # see plan
        self._replies: dict[str, str] = {}  # code -> its coding reply

    def plan(self, passages: Sequence[Passage]) -> list[int]:
        """Draw the slot count and the codes of every passage, note the
        triage flags of each passage with slots, for ``respond`` to read,
        and return the slot counts; each plan replaces the last.

        A passage's stream is keyed by blake2b's 8-byte digest of
        "seed:article:index", read as a little-endian integer. Its ``c``-th
        uniform is ``_uniform(key, c)``: counter 0 draws the slot count,
        counter ``s + 1`` slot ``s``'s code. The count is min(6, Poisson(λ))
        by inverse CDF: the first k ≤ 5 whose F(k) exceeds the uniform (6
        when none does), exact because F never decreases.
        """
        cdf, vocab = self._cdf, self.vocab
        counts, plan = [], {}
        for p in passages:
            key = blake2b(f"{self.seed}:{p.article_id}:{p.index}".encode(), digest_size=8).digest()
            key = int.from_bytes(key, "little")
            # e^-λ is 0 from about λ = 745, so capping λ keeps an infinite one from a NaN
            lam = min(self.mean_codes_per_kchar * len(p.text) / 1000.0, 1e3)
            u = _uniform(key, 0)
            # F(k) as running sums of P(k) = e^-λ times λ/1 ... λ/k
            term = total = math.exp(-lam)
            n = 0
            while n < 6 and total <= u:
                n += 1
                term *= lam / n
                total += term
            counts.append(n)
            # bisect_right: the first code whose F exceeds the uniform
            codes = [vocab[bisect_right(cdf, _uniform(key, s))] for s in range(1, n + 1)]
            # keyed by identity, which the entry's passage keeps unique while planned
            plan[id(p)] = (p, codes, self._flags(p) if n else None)
        self._plan = plan
        return counts

    def _flags(self, passage: Passage) -> list[str]:
        text = passage.text.lower()
        flags = []
        if "disclaimer" in text or "views expressed" in text:
            flags.append(CRITERIA_DISCLAIMER)
        if "photo:" in text or "photo caption" in text:
            flags.append(CRITERIA_CAPTION)
        return flags

    def respond(self, step: str, prompt: str, passage: Passage, slot: int = 0) -> str:
        _, codes, flags = self._plan[id(passage)]
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
        code = codes[slot]
        if step == "round1":
            return code
        if code not in self._replies:
            self._replies[code] = CodeResponse(
                theme=code, whose_attitude="the author", target="the Rohingya",
                valence="Sympathetic",
            ).format()
        return self._replies[code]


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

    def __init__(self, config: RemoteConfig, transport: Callable = _urllib_transport,
                 sleep: Callable[[float], None] = time.sleep):
        self.config = config
        self.transport = transport
        self.sleep = sleep

    def plan(self, passages: Sequence[Passage]) -> list[int]:
        """One slot per passage: the model codes each passage once."""
        return [1] * len(passages)

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
    """Outcome of coding a batch: (passage, response) pairs, and each failure's key and error."""

    results: tuple[tuple[Passage, CodeResponse], ...]
    errors: tuple[tuple[str, str], ...] = ()

    def __iter__(self) -> Iterator[tuple[Passage, CodeResponse]]:
        return iter(self.results)


def passage_key(passage: Passage) -> str:
    """A passage's id in coder outputs: ``article:index``, the index zero-padded to 4."""
    return f"{passage.article_id}:{passage.index:04d}"


@dataclass
class _ChainState:
    """What one code slot carries from step to step; prompts bind its fields
    (``vars`` of the state is each prompt's bindings), all immutable values."""

    excerpt: str
    summary: str
    relevant: str
    precode: str = "None"
    note: str = ""
    flags: tuple[str, ...] = ()
    level: str = "Yes"
    reason: str = ""
    response: CodeResponse = CodeResponse()


def _verdict(value) -> str:
    return str(value).strip().rstrip(".")


def _read_caption(state: _ChainState, raw: str) -> None:
    reply = _extract_dict(raw)
    if _pick(reply, "disclaimer"):
        state.flags += (CRITERIA_DISCLAIMER,)
    if _pick(reply, "caption"):
        state.flags += (CRITERIA_CAPTION,)


def _read_topic(state: _ChainState, raw: str) -> None:
    reply = _extract_dict(raw)
    if _verdict(_pick(reply, "refugee")) == "No":
        state.flags += (CRITERIA_NOT_REFUGEES,)
    if _verdict(_pick(reply, "malaysia")) == "No":
        state.flags += (CRITERIA_NOT_MALAYSIA,)


def _read_confidence(state: _ChainState, raw: str) -> None:
    reply = _extract_dict(raw)
    state.level = _verdict(_pick(reply, "relevant", "Yes"))
    why = _pick(reply, "why")
    state.reason = "" if why is None else str(why)


def _read_code(state: _ChainState, raw: str) -> None:
    """A coding reply; its theme is the precode a later reassessment binds."""
    state.response = parse_response(raw)
    theme = state.response.theme
    state.precode = "None" if theme is None else theme


def _read_round1(state: _ChainState, raw: str) -> None:
    state.response = parse_round1_response(raw)


# step -> (builder of the note the step's prompt binds, or None; reply handler;
# whether the step judges the whole passage, so one answer serves every slot)
_STEPS: dict[str, tuple[Callable | None, Callable[[_ChainState, str], None], bool]] = {
    "round1": (None, _read_round1, False),
    "triage_caption": (None, _read_caption, True),
    "triage_relevance": (lambda s: flag_note(s.flags), _read_topic, True),
    "relevance_confidence": (lambda s: flag_note(s.flags), _read_confidence, True),
    "socratic_code": (lambda s: relevance_note(s.level, s.reason), _read_code, False),
    "summary_reassess": (lambda s: reassess_note(s.level, s.reason), _read_code, False),
    "final_fewshot": (None, _read_code, False),
}


def _chain_steps(chain: Sequence[str]) -> list[tuple]:
    """Each step of ``chain`` with its note builder and reply reader."""
    if unknown := [step for step in chain if step not in _STEPS]:
        raise ValueError(f"unknown chain step {unknown[0]!r}")
    return [(step, _STEPS[step][0], _STEPS[step][1]) for step in chain]


def _walk(state: _ChainState, passage: Passage, backend, steps: Sequence[tuple], slot: int) -> None:
    """Walk ``steps`` (from ``_chain_steps``) for one slot. Prompts are
    rendered and replies parsed through the module's names, so a wrapper set
    on the module sees every call."""
    for step, note, read in steps:
        if note is not None:
            state.note = note(state)
        read(state, backend.respond(step, render_prompt(step, vars(state)), passage, slot))


# Passages a backend plans at once: the mock keeps one block's plan, so memory
# stays flat.
_PLAN_BLOCK = 4096


def code_passages(
    passages: Sequence[Passage],
    backend,
    template_chain: Sequence[str] = SOCRATIC_CHAIN,
    summaries: dict[str, str] | None = None,
    fewshot_context: dict[str, str] | None = None,
) -> CodingRun:
    """Run the template chain over every passage.

    A backend answers two calls: ``plan(passages)`` returns each passage's
    code-slot count, in order, and ``respond(step, prompt, passage, slot)``
    the reply to one prompt about a passage of the last plan, for a slot
    below its count. Passages, sorted by key, are planned in blocks of
    ``_PLAN_BLOCK``, or all at once when the backend's ``config`` sets a
    ``max_in_flight`` above 1, which walks them on that many threads. The
    chain's leading passage-level steps (triage, relevance, confidence)
    are asked once per passage that has at least one code slot, as slot 0;
    each slot then walks the remaining steps from its own copy of that
    state. A passage with no slots makes no call. ``summaries`` maps article
    ids to their summaries (required whenever a chain step binds one);
    ``fewshot_context`` maps passage keys ("article:index") to the
    exemplar-coding overview bound as the few-shot reference. A transport
    failure or an unreadable reply costs only its passage, which is
    recorded in ``errors`` under its key; the mock backend never fails.
    Results pair each response with its passage, ordered by passage key.
    """
    summaries = summaries or {}
    fewshot_context = fewshot_context or {}
    keyed = sorted(zip(map(passage_key, passages), passages), key=itemgetter(0))
    steps = _chain_steps(template_chain)
    n_head = len(tuple(takewhile(lambda step: _STEPS[step][2], template_chain)))
    head, tail = steps[:n_head], steps[n_head:]

    def work(item: tuple[str, Passage], count: int) -> tuple[list[CodeResponse], str | None]:
        key, passage = item
        state = _ChainState(
            excerpt=passage.text,
            summary=summaries.get(passage.article_id, ""),
            relevant=fewshot_context.get(key, "[]"),
        )
        responses = []
        try:
            if count:
                _walk(state, passage, backend, head, 0)
            for slot in range(count):
                branch = _ChainState(**vars(state))  # the slot's own copy
                _walk(branch, passage, backend, tail, slot)
                responses.append(branch.response)
        except TransportError as exc:
            return [], f"{type(exc).__name__}: {exc}"
        except ResponseParseError as exc:
            # escaped, so a reply holding a lone surrogate can still be recorded
            raw = exc.raw[:200].encode("utf-8", "backslashreplace").decode("utf-8")
            return [], f"{type(exc).__name__}: {exc}: {raw}"
        return responses, None

    cap = getattr(getattr(backend, "config", None), "max_in_flight", 1)
    if cap > 1 and len(keyed) > 1:
        from concurrent.futures import ThreadPoolExecutor  # only this path uses threads

        counts = backend.plan([passage for _, passage in keyed])
        with ThreadPoolExecutor(max_workers=cap) as pool:
            outcomes = list(pool.map(work, keyed, counts))
    else:
        outcomes = []
        for first in range(0, len(keyed), _PLAN_BLOCK):
            block = keyed[first : first + _PLAN_BLOCK]
            outcomes += map(work, block, backend.plan([passage for _, passage in block]))

    return CodingRun(
        results=tuple((p, r) for (_, p), (responses, _) in zip(keyed, outcomes) for r in responses),
        errors=tuple((key, e) for (key, _), (_, e) in zip(keyed, outcomes) if e is not None),
    )
