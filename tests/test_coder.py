import ast
import copy
import json
from collections import Counter
from dataclasses import fields
from string import Template
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from fecund import coder as coder_module
from fecund.coder import (
    CRITERIA_CAPTION,
    FEWSHOT_CHAIN,
    ROUND1_CHAIN,
    SOCRATIC_CHAIN,
    TEMPLATES,
    CodeResponse,
    MockCoder,
    RemoteCoder,
    RemoteConfig,
    code_passages,
    flag_note,
    parse_response,
    parse_round1_response,
    passage_key,
    reassess_note,
    relevance_note,
    render_prompt,
    _extract_dict,
)
from fecund.errors import PromptBindingError, RateLimitError, ResponseParseError, TransportError
from fecund.ingest import Passage, split_passages
from fecund.synthetic import synth_articles, zipf_probabilities
from reference import (
    code_passages_per_slot, extract_dict_three_parsers, mock_draw_choice, mock_plan_loop,
    read_dict, run_chain, run_chain_branches,
)


def passage(text, article="a1", index=0):
    return Passage(article, index, text, (0, len(text)))


# --- rendering -----------------------------------------------------------


def test_round1_render():
    rendered = render_prompt("round1", {"summary": "S", "excerpt": "E"})
    assert "summarized here: ### S" in rendered
    assert "passage: ### E" in rendered
    assert 'or return "Irrelevant"' in rendered


def test_note_bound_empty_leaves_no_note_text():
    rendered = render_prompt(
        "triage_relevance", {"excerpt": "E", "note": ""}
    )
    assert "flagged" not in rendered
    assert "other countries. Now respond" in rendered


def test_missing_binding_names_placeholder():
    with pytest.raises(PromptBindingError, match="excerpt"):
        render_prompt("round1", {"summary": "S"})


def placeholders(name):
    return sorted({placeholder for placeholder, _ in TEMPLATES[name][1]})


def test_placeholders_discovered():
    assert placeholders("final_fewshot") == ["excerpt", "relevant", "summary"]
    assert placeholders("summary_reassess") == ["excerpt", "note", "precode", "summary"]


def test_every_template_is_a_chain_step_and_every_step_has_a_handler():
    steps = {step for chain in coder_module.CHAINS.values() for step in chain}
    handled = set(coder_module._STEPS)
    assert set(TEMPLATES) <= steps, f"templates no chain uses: {set(TEMPLATES) - steps}"
    assert steps <= handled, f"chain steps without a handler: {steps - handled}"


@pytest.mark.parametrize("name", sorted(TEMPLATES))
def test_templates_hold_no_invalid_dollar_and_bind_from_the_chain_state(name):
    """No ``$`` of a template is invalid, which the renderer does not check,
    and each placeholder is a ``_ChainState`` field, so ``vars`` of a slot's
    state binds it."""
    text = coder_module._TEMPLATE_TEXTS[name]
    invalid = [m.start() for m in Template.pattern.finditer(text) if m.group("invalid") is not None]
    assert invalid == []
    assert set(placeholders(name)) <= {field.name for field in fields(coder_module._ChainState)}


PLACEHOLDERS = sorted({name for tpl in TEMPLATES for name in placeholders(tpl)})
binding_values = st.one_of(
    st.text(max_size=30),
    st.sampled_from(["$", "$$", "${x}", "$excerpt", "{note}", "{}", "{{", "naïve — 難民 ✓"]),
    st.integers(),
    st.none(),
)
all_bindings = st.fixed_dictionaries({name: binding_values for name in PLACEHOLDERS})
# template texts: literal runs (braces and non-ASCII included) between
# plain, braced and escaped placeholders; no "$" stands alone
template_texts = st.lists(
    st.one_of(
        st.text(alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="$"),
                max_size=6),
        st.sampled_from(
            ["$$", "$excerpt", "${note}", "${summary}x", "$note.", "{", "}", "{$precode}",
             "é ✓ 日本"]
        ),
    ),
    max_size=10,
).map("".join)


def substitute_outcome(render):
    """What a render returns, or the placeholder it misses, in comparable form."""
    try:
        return render()
    except PromptBindingError as exc:
        return ("missing", exc.placeholder)
    except KeyError as exc:
        return ("missing", exc.args[0])


@given(name=st.sampled_from(sorted(TEMPLATES)), bindings=all_bindings)
def test_render_matches_template_substitute(name, bindings):
    expected = Template(coder_module._TEMPLATE_TEXTS[name]).substitute(bindings)
    assert render_prompt(name, bindings) == expected


@given(text=template_texts, bindings=all_bindings, drop=st.sets(st.sampled_from(PLACEHOLDERS)))
@example(text="$$excerpt ${excerpt}$$$note{}", bindings=dict.fromkeys(PLACEHOLDERS, "$"), drop=set())
def test_split_render_matches_template_substitute(text, bindings, drop):
    bindings = {k: v for k, v in bindings.items() if k not in drop}
    with mock.patch.dict(TEMPLATES, custom=coder_module._split(text)):
        rendered = substitute_outcome(lambda: render_prompt("custom", bindings))
    assert rendered == substitute_outcome(lambda: Template(text).substitute(bindings))


def test_render_errors_match_substitute():
    with pytest.raises(PromptBindingError, match="'note' in template 'triage_relevance'"):
        render_prompt("triage_relevance", {"excerpt": "E"})


ROUND1_FRAGMENTS = [
    "Read a passage from a news article summarized here: ### ",
    " ### passage: ### ",
    " ### In 12 words or less, give the theme of this specific passage as it "
    "embodies, relates to or reflects attitudes towards refugees in Malaysia, "
    'or return "Irrelevant"',
]

FINAL_FRAGMENTS = [
    "Read this passage from a news article ### ",
    " ### If relevant, give the theme of this SPECIFIC passage as it embodies, "
    "relates to, or reflects attitudes towards refugees in Malaysia.",
    "The following summary of the excerpted article may provide context for the "
    "passage (e.g. who is being discussed and where events are occurring): ### ",
    " ### Here is an overview of how several passages similar to this one have "
    "been coded: ### ",
    " ### DO NOT copy this coding verbatim, but use it as reference and be careful "
    "if only some or none of the similar passages were deemed relevant.",
    "1. in 12 words or less, return the theme (if relevant) as it relates to "
    "attitudes towards refugees in Malaysia, or return None.",
    'Do not give a generic theme like "attitudes towards refugees in Malaysia", '
    "but provide a specific single theme.",
    "If irrelevant, return None for all further questions.",
    "4. What is the valence of attitudes towards the target, if any?: "
    '"Sympathetic.", "Hostile.", or "N/A".',
    "Once again, the passage to code is ### ",
    '{"1. Theme": None/stringval1, "2. Whose Attitude?":None/stringval2,'
    '"3. Target":None/stringval3, 4. Valence": "Sympathetic."/"Hostile."/"N/A"}',
]


def test_round1_fixed_substrings():
    rendered = render_prompt("round1", {"summary": "SUM", "excerpt": "EXC"})
    for fragment in ROUND1_FRAGMENTS:
        assert fragment in rendered


def test_final_fewshot_fixed_substrings():
    rendered = render_prompt(
        "final_fewshot", {"summary": "SUM", "excerpt": "EXC", "relevant": "REL"}
    )
    for fragment in FINAL_FRAGMENTS:
        assert fragment in rendered


def test_note_builders():
    note = flag_note([CRITERIA_CAPTION])
    assert "Passage is a photo caption" in note
    assert note.startswith("Note: this passage has been flagged")
    assert flag_note([]) == ""
    assert relevance_note("Yes", "") == ""
    assert "might be irrelevant" in relevance_note("Maybe", "r")
    assert "is irrelevant" in relevance_note("No", "r")
    assert "Does the summary clarify this?." in reassess_note("No", "r")
    # both non-yes verdicts share the same reassessment text
    assert reassess_note("Maybe", "r") == reassess_note("No", "r")


# --- parsing ---------------------------------------------------------------


def test_parse_paper_shaped_reply():
    raw = (
        '{"1. Theme": "NGO sympathy for Rohingya", "2. Whose Attitude?": "NGOs", '
        '"3. Target": "the Rohingya", "4. Valence": "Sympathetic."}'
    )
    response = parse_response(raw)
    assert response.theme == "NGO sympathy for Rohingya"
    assert response.valence == "Sympathetic"
    assert response.relevant


def test_parse_none_theme_marks_irrelevant():
    raw = (
        '{"1. Theme": None, "2. Whose Attitude?": None, "3. Target": None, '
        '"4. Valence": "N/A"}'
    )
    response = parse_response(raw)
    assert response.theme is None
    assert not response.relevant


def test_parse_tolerates_surrounding_prose():
    raw = 'Sure! Here is my analysis. {"1. Theme": "Aid access", "4. Valence": "Hostile."} Hope that helps.'
    assert parse_response(raw).theme == "Aid access"
    assert parse_response(raw).valence == "Hostile"


def test_parse_garbage_raises_with_raw():
    with pytest.raises(ResponseParseError) as err:
        parse_response("garbage")
    assert err.value.raw == "garbage"


def test_parse_round1():
    assert parse_round1_response("Camp overcrowding concerns").theme == "Camp overcrowding concerns"
    assert parse_round1_response("Irrelevant").theme is None
    assert parse_round1_response('"Irrelevant."').theme is None


text_values = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=30
).filter(lambda s: s.strip().lower() not in ("", "none", "null") and s == s.strip())


@given(
    theme=st.one_of(st.none(), text_values),
    who=st.one_of(st.none(), text_values),
    target=st.one_of(st.none(), text_values),
    valence=st.one_of(st.none(), st.sampled_from(["Sympathetic", "Hostile", "N/A"])),
)
def test_parse_format_round_trip(theme, who, target, valence):
    original = CodeResponse(theme=theme, whose_attitude=who, target=target, valence=valence)
    assert parse_response(original.format()) == original


words = st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=20)


@given(
    st.dictionaries(
        st.one_of(
            st.sampled_from(["1. Theme", "2. Whose Attitude?", "3. Target", "4. Valence"]), words
        ),
        st.one_of(st.none(), words),
        max_size=5,
    )
)
@example({"1. Theme": "\U0001f600 grin", "3. Target": "a/b"})
def test_parse_reads_python_and_json_alike(reply):
    readings = [
        parse_response(repr(reply)),
        parse_response(json.dumps(reply)),  # escapes a non-BMP character as a surrogate pair
        parse_response(json.dumps(reply, ensure_ascii=False)),
    ]
    assert readings[0] == readings[1] == readings[2]


def test_parse_reads_json_escapes_as_json():
    assert parse_response('{"1. Theme": "a\\/b"}').theme == "a/b"
    assert parse_response('{"1. Theme": "\\ud83d\\ude00"}').theme == "\U0001f600"


@pytest.mark.parametrize(
    "raw",
    [
        "{'1. Theme': 'bad \\ud83d'}",  # a Python escape
        '{"1. Theme": "bad \\udc00"}',  # a JSON escape
        '{"3. Target": "\ud83d", "1. Theme": "ok"}',  # the character itself
    ],
)
def test_lone_surrogate_is_unreadable(raw):
    with pytest.raises(ResponseParseError, match="reply holds a lone surrogate") as err:
        parse_response(raw)
    assert err.value.raw == raw
    with pytest.raises(ResponseParseError, match="reply holds a lone surrogate"):
        parse_round1_response("theme \ud83d")


# text a double-quoted string holds as it is: no quote, backslash or character
# that either syntax reads differently or not at all
plain = st.text(
    alphabet=st.characters(
        blacklist_categories=("Cs", "Cc", "Zl", "Zp"), blacklist_characters='"\\'
    ),
    max_size=12,
)
plain_or_named = st.one_of(plain, st.sampled_from(["None of the above", "True", "False.", "x None"]))


def _typed(pairs):
    return [(key, type(value), value) for key, value in pairs]


@given(
    pairs=st.lists(
        st.tuples(
            plain_or_named,
            st.one_of(st.booleans(), st.none(), st.integers(-10**6, 10**6), plain_or_named),
        ),
        max_size=6,
    ),
    before=st.text(alphabet=st.characters(blacklist_characters="{}"), max_size=8),
    after=st.text(alphabet=st.characters(blacklist_characters="{}"), max_size=8),
)
@example(pairs=[("1. disclaimer?", False), ("2. caption?", True), ("Body?", None)], before="", after="")
def test_python_dict_reply_reads_as_its_literal(pairs, before, after):
    """A reply in the prompts' python dictionary format (double-quoted
    strings, bare True/False/None) reads as its Python literal does."""
    region = "{" + ", ".join(
        f'"{key}": ' + (f'"{value}"' if isinstance(value, str) else repr(value))
        for key, value in pairs
    ) + "}"
    literal = [(str(key).lower(), value) for key, value in ast.literal_eval(region).items()]
    assert _typed(_extract_dict(before + region + after)) == _typed(literal)


def test_python_names_inside_strings_stay_as_written():
    assert _extract_dict(
        '{"1. Relevant?": "Maybe.", "2. Why Not?": "None of the above", "x": None}'
    ) == [("1. relevant?", "Maybe."), ("2. why not?", "None of the above"), ("x", None)]
    assert _extract_dict('{"1. Theme": "say \\"True\\"", "3. Target": None, "Body?": False}') == [
        ("1. theme", 'say "True"'), ("3. target", None), ("body?", False)
    ]


# a Python literal keeps "\/" and warns about it
python_escape_warning = pytest.mark.filterwarnings(
    "ignore:invalid escape sequence:DeprecationWarning"
)


@python_escape_warning
def test_python_names_beside_json_escapes_read_as_json():
    """A reply with bare Python names reads its escapes as JSON does, where
    a Python literal would keep the backslash or split a surrogate pair."""
    raw = '{"1. Theme": "a\\/b", "3. Target": None}'
    assert parse_response(raw).theme == "a/b"
    assert ast.literal_eval(raw)["1. Theme"] == "a\\/b"
    raw = '{"1. Theme": "\\ud83d\\ude00", "3. Target": None}'
    assert parse_response(raw).theme == "\U0001f600"
    assert ast.literal_eval(raw)["1. Theme"] == "\ud83d\ude00"  # two lone surrogates


# pieces of dictionary regions: quoted strings holding names and escapes, and bare values
quoted = st.lists(
    st.sampled_from(["True", "None", "False", " ", "x", "'", '\\"', "\\\\", "\\/", "\\ud83d", "\\n"]),
    max_size=5,
).map(lambda parts: '"' + "".join(parts) + '"')
bare = st.sampled_from(["True", "False", "None", "null", "true", "1", "-2", "'s'", "Nones", "xNone"])


def soups(pieces):
    """Dictionary regions of key: value pairs drawn from ``pieces``."""
    return st.lists(
        st.tuples(pieces, pieces, st.sampled_from([",", ", ", ",,"])), max_size=4
    ).map(lambda items: "{" + "".join(f"{k}: {v}{sep}" for k, v, sep in items).rstrip(",") + "}")


region_soups = soups(st.one_of(quoted, bare))


@given(region_soups)
@example('{"a": None, "b": "\\"None\\""}')
@example('{"a": "None}')
@settings(max_examples=300)
@python_escape_warning
def test_extract_dict_matches_character_walk_oracle(region):
    expected = read_dict(region)
    if not isinstance(expected, dict):
        with pytest.raises(ResponseParseError):
            _extract_dict(region)
        return
    assert _typed(_extract_dict(region)) == _typed(
        (str(key).lower(), value) for key, value in expected.items()
    )


single_quoted = st.lists(
    st.sampled_from(["None", "True", "False", " ", "x", '"', "\\'", "\\n"]), max_size=4
).map(lambda parts: "'" + "".join(parts) + "'")
# a value nested d deep; past about 1,000 JSON raises RecursionError and a
# Python literal refuses it too
nested = st.builds(
    lambda depth, brackets, value: brackets[0] * depth + value + brackets[1] * depth,
    st.sampled_from([1, 2, 50, 500, 1001, 1500, 4000]),
    st.sampled_from([('{"a": ', "}"), ("[", "]"), ("{'a': [", "]}")]),
    st.one_of(quoted, bare, single_quoted),
)
# prose around the region: the three parsers read from the first brace to
# the last, so they agree with the first dictionary only with no brace after it
around = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="{}"), max_size=8
)


@given(
    before=around,
    region=st.one_of(region_soups, soups(st.one_of(quoted, bare, single_quoted)),
                     soups(st.one_of(quoted, nested))),
    after=around,
)
@example(before="", region="{'a': 'None', 'b': None, \"c\": 'True'}", after="")
@example(before="", region='{"a": "True", "b": "say \\"False\\""}', after="")
@example(before="Sure! Here it is: ", region='{"1. Theme": None}', after=" Hope that helps.")
@example(before="", region='{"a": ' * 1200 + "None" + "}" * 1200, after="")
@example(before="", region="{'a': " + "[" * 1001 + "]" * 1001 + "}", after="")
@settings(max_examples=400)
@python_escape_warning
def test_extract_dict_matches_three_parser_oracle(before, region, after):
    """Decoding once reads every reply as trying JSON, then JSON with the
    names respelled, then a Python literal, did; refusals included."""
    raw = before + region + after
    try:
        expected = extract_dict_three_parsers(raw)
    except ResponseParseError as exc:
        with pytest.raises(ResponseParseError) as raised:
            _extract_dict(raw)
        assert (str(raised.value), raised.value.raw) == (str(exc), exc.raw)
        return
    assert repr(_extract_dict(raw)) == repr(expected)  # repr tells True from 1 at any depth


# strings holding braces, quotes, backslashes and comment signs
tricky_text = st.text(st.sampled_from("{}'\"#\\\n xé"), max_size=6) | st.text(max_size=6)
literal_values = st.recursive(
    st.none() | st.booleans() | st.integers() | tricky_text,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(tricky_text, inner, max_size=3),
    max_leaves=6,
)
# (reply, the dictionary it renders, or None to take the parse of the reply)
readable_replies = st.one_of(
    st.builds(
        lambda before, d, render: (before + render(d), d),
        around,
        st.dictionaries(tricky_text, literal_values, max_size=4),
        st.sampled_from([repr, json.dumps]),
    ),
    st.builds(lambda before, region: (before + region, None), around, region_soups),
)
# prose after the dictionary, braces, quotes and comment signs included
trailing_prose = st.lists(
    st.one_of(
        st.text(max_size=6),
        st.sampled_from(["{", "}", "{key: value}", "'", '"', "'''", "#", "\\", "None", "\n"]),
    ),
    min_size=1,
    max_size=6,
).map("".join)


@given(rendered=readable_replies, prose=trailing_prose)
@example(rendered=('{"1. Theme": "Camp access"}', {"1. Theme": "Camp access"}),
         prose=" (I used the format {key: value} as asked.)")
@example(rendered=("{'a': 1, # it's }\n 'b': '}'}", {"a": 1, "b": "}"}), prose="'}")
@example(rendered=("{'1. Theme': 'x',}", None), prose="}")  # unreadable while read to the last }
@settings(max_examples=400)
@python_escape_warning
def test_prose_after_a_readable_reply_leaves_its_parse(rendered, prose):
    """A rendered dictionary reads back as itself, and prose after a readable
    reply, braces included, leaves its parse unchanged."""
    reply, d = rendered
    if d is None:
        try:
            expected = _extract_dict(reply)
        except ResponseParseError:
            assume(False)
    else:
        expected = [(str(key).lower(), value) for key, value in d.items()]
        assert repr(_extract_dict(reply)) == repr(expected)
    assert repr(_extract_dict(reply + prose)) == repr(expected)


# --- mock backend --------------------------------------------------------------


def test_mock_determinism():
    passages = [passage("x" * (200 + 40 * i), article=f"a{i}") for i in range(10)]
    run_a = code_passages(passages, MockCoder(seed=7))
    run_b = code_passages(passages, MockCoder(seed=7))
    assert run_a == run_b
    assert run_a.errors == ()


def test_mock_seed_changes_output():
    passages = [passage("x" * 500, article=f"a{i}") for i in range(8)]
    a = code_passages(passages, MockCoder(seed=1))
    b = code_passages(passages, MockCoder(seed=2))
    assert a != b


def test_mock_zipf_vocabulary_skews():
    passages = [passage("x" * 800, article=f"a{i}") for i in range(120)]
    run = code_passages(passages, MockCoder(seed=3))
    themes = [r.theme for _, r in run]
    assert len(themes) > 50
    from collections import Counter

    counts = Counter(themes)
    top = counts.most_common(1)[0][1]
    assert top >= 3  # head codes repeat
    assert len(counts) >= 10  # but the tail is long


@pytest.mark.parametrize("vocab_size, exponent", [(200, 1.1), (50, 0.0), (7, 3.5), (200, -2.0)])
def test_mock_probabilities_are_the_normalised_zipf_weights(vocab_size, exponent):
    """The mock's weights, synthetic.zipf_probabilities (whose CDF it bisects,
    see test_mock_cdf_draw_matches_choice), are bit for bit what its own
    rank**-exponent / sum gave, so ai_codes.csv is unchanged."""
    weights = np.arange(1, vocab_size + 1, dtype=float) ** -exponent
    probabilities = zipf_probabilities(vocab_size, exponent)
    assert probabilities.tobytes() == (weights / weights.sum()).tobytes()


@pytest.mark.filterwarnings("error")  # numpy's overflow warning fails the test
@pytest.mark.parametrize("vocab_size, exponent", [(200, -1000.0), (2, -2000.0), (0, 1.1)])
def test_mock_rejects_zipf_weights_that_do_not_normalise(vocab_size, exponent):
    with pytest.raises(ValueError, match=f"exponent {exponent:g} .* vocabulary of {vocab_size}"):
        MockCoder(vocab_size=vocab_size, zipf_exponent=exponent)


@given(
    seed=st.integers(0, 2**63),
    article=st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=12),
    index=st.integers(0, 9999),
    vocab_size=st.integers(1, 400),
    zipf_exponent=st.floats(0.0, 8.0),
)
def test_mock_cdf_draw_matches_choice(seed, article, index, vocab_size, zipf_exponent):
    # λ = 50, so every passage gets the cap of 6 slots
    backend = MockCoder(seed=seed, vocab_size=vocab_size, zipf_exponent=zipf_exponent,
                        mean_codes_per_kchar=1000.0)
    p = passage("x" * 50, article=article, index=index)
    assert backend.plan([p]) == [6]
    for slot in range(6):
        drawn = mock_draw_choice(backend, p, slot, zipf_exponent)
        assert backend.respond("round1", "", p, slot) == drawn


_RATE = (
    st.sampled_from([0.0, 3.0, 1e300, 1.7e308])  # 1.7e308 times a length overflows to inf
    | st.floats(0.0, 1e4)
)


@given(
    seed=st.integers(0, 2**63),
    shapes=st.lists(st.tuples(st.sampled_from(["a1", "doc-0123", "é"]), st.integers(0, 9999),
                              st.integers(1, 3000)), max_size=8),
    rate=_RATE,
)
def test_mock_plan_equals_the_loop_oracle(seed, shapes, rate):
    """Slot counts and codes, for any λ, match the oracle's one passage and
    one slot at a time."""
    passages = [passage("x" * n, article=a, index=i) for a, i, n in shapes]
    backend = MockCoder(seed=seed, mean_codes_per_kchar=rate)
    counts = backend.plan(passages)
    codes = [[backend.respond("round1", "", p, s) for s in range(n)]
             for p, n in zip(passages, counts)]
    oracle = MockCoder(seed=seed, mean_codes_per_kchar=rate)
    assert mock_plan_loop(oracle, passages, 1.1) == counts
    assert [oracle._plan[id(p)][1] for p in passages] == codes


def test_the_mock_stream_finalises_counters_as_splitmix64_does():
    """SplitMix64 seeded with 0 first outputs 0xE220A8397B1DCDAF, then
    0x6E789E6AA1B965F4: a key of 0 at counters 1 and 2."""
    u = coder_module._uniforms(coder_module._GAMMA * np.arange(1, 3, dtype=np.uint64))
    outputs = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4)
    assert u.tolist() == [(out >> 11) * 2.0**-53 for out in outputs]


@pytest.mark.parametrize("chain", [SOCRATIC_CHAIN, FEWSHOT_CHAIN, ROUND1_CHAIN])
def test_mock_keys_each_passage_once(monkeypatch, chain):
    """The mock hashes each passage's "seed:article:index" once, its slot
    count and every slot's code coming from that one key."""
    passages = [passage("x" * (150 + 120 * i), article=f"a{i}") for i in range(12)]
    hashed = []
    real = coder_module.blake2b

    def counting(data, **kwargs):
        hashed.append(data)
        return real(data, **kwargs)

    monkeypatch.setattr(coder_module, "blake2b", counting)
    run = code_passages(passages, MockCoder(seed=4), chain)
    assert len(run.results) > len(passages)  # some passages have several slots
    assert sorted(hashed) == sorted(f"4:a{i}:0".encode() for i in range(12))


def test_mock_keys_every_passage_of_a_large_batch_apart(monkeypatch):
    """The seed-17 ``synth --with-text`` corpus of 1,000 articles splits into
    5,853 passages, and each gets its own key. (The last 4 bytes of
    "article:index", the key before blake2b, gave them 952.)"""
    passages = [p for a in synth_articles(1000, 17) for p in split_passages(a, min_len=100)]
    keys = []
    real = coder_module.blake2b

    def recording(data, **kwargs):
        keys.append(real(data, **kwargs).digest())
        return real(data, **kwargs)

    monkeypatch.setattr(coder_module, "blake2b", recording)
    MockCoder(seed=17).plan(passages)
    assert len(set(keys)) == len(keys) == len(passages) == 5853


def _pooled(observed, expected, floor=5.0):
    """Observed and expected counts with the last bins merged until each
    expected count is at least ``floor``, as the chi-square test needs."""
    observed, expected = list(observed), list(expected)
    while len(expected) > 1 and expected[-1] < floor:
        observed[-2:] = [sum(observed[-2:])]
        expected[-2:] = [sum(expected[-2:])]
    return observed, expected


@pytest.mark.parametrize("vocab_size, exponent", [(30, 1.1), (200, 1.1), (12, 0.0)])
def test_mock_codes_pass_a_chi_square_test_against_the_zipf_weights(vocab_size, exponent):
    stats = pytest.importorskip("scipy.stats")
    backend = MockCoder(seed=11, vocab_size=vocab_size, zipf_exponent=exponent,
                        mean_codes_per_kchar=1000.0)
    passages = [passage("x" * 50, article=f"a{i}", index=i % 7) for i in range(6000)]
    assert set(backend.plan(passages)) == {6}
    drawn = Counter(backend.respond("round1", "", p, s) for p in passages for s in range(6))
    observed = [drawn[code] for code in backend.vocab]
    expected = zipf_probabilities(vocab_size, exponent) * sum(observed)
    assert stats.chisquare(*_pooled(observed, expected)).pvalue > 1e-3


@pytest.mark.parametrize("lam", [0.5, 3.0, 5.5, 9.0])
def test_mock_slot_counts_pass_a_chi_square_test_against_the_capped_poisson(lam):
    stats = pytest.importorskip("scipy.stats")
    backend = MockCoder(seed=12, mean_codes_per_kchar=lam * 10)  # λ of a 100-character text
    text = "x" * 100
    counts = Counter(backend.plan([passage(text, article=f"a{i}") for i in range(20000)]))
    pmf = [*stats.poisson.pmf(range(6), lam), stats.poisson.sf(5, lam)]  # P(k), k < 6; P(≥ 6)
    observed = [counts[k] for k in range(7)]
    assert sum(observed) == 20000
    assert stats.chisquare(*_pooled(observed, np.array(pmf) * 20000)).pvalue > 1e-3


def test_mock_formats_each_code_reply_once(monkeypatch):
    """The mock builds a code's coding reply once, however many slots draw it."""
    passages = [passage("x" * (200 + 7 * i), article=f"a{i}") for i in range(300)]
    formatted = Counter()
    real = CodeResponse.format

    def counting(response):
        formatted[response.theme] += 1
        return real(response)

    monkeypatch.setattr(CodeResponse, "format", counting)
    run = code_passages(passages, MockCoder(seed=4))
    assert len(run.results) > 2 * len(formatted)  # codes repeat across slots
    assert set(formatted) == {response.theme for _, response in run}
    assert max(formatted.values()) == 1


class RecordingBackend:
    """Wraps a backend, forwarding ``plan``, and records every prompt it is
    asked to answer and every slot count planned, by passage key. Each
    question must be about a passage of the last plan, for a slot below the
    count that plan gave it."""

    def __init__(self, inner):
        self.inner = inner
        self.prompts = []
        self.asked = []
        self.counts = {}
        self._planned = {}

    def plan(self, passages):
        counts = self.inner.plan(passages)
        assert len(counts) == len(passages)
        self.counts.update(zip(map(passage_key, passages), counts))
        self._planned = dict(zip(map(id, passages), counts))
        return counts

    def respond(self, step, prompt, passage, slot=0):
        assert 0 <= slot < self._planned[id(passage)], (step, passage_key(passage), slot)
        self.prompts.append((step, prompt))
        self.asked.append((step, passage_key(passage), slot))
        return self.inner.respond(step, prompt, passage, slot)


@pytest.mark.parametrize("chain", [SOCRATIC_CHAIN, FEWSHOT_CHAIN, ROUND1_CHAIN])
@pytest.mark.parametrize("block, in_flight", [(7, 1), (4096, 1), (4096, 3)])
def test_code_passages_asks_only_about_planned_slots(monkeypatch, chain, block, in_flight):
    """Every question is about a passage of the current plan, for a slot below
    its count, whether passages are planned in blocks or, on the threaded
    path, all at once."""
    monkeypatch.setattr(coder_module, "_PLAN_BLOCK", block)
    passages = [passage("x" * (40 * i + 1), article=f"a{i % 5}", index=i) for i in range(40)]
    backend = RecordingBackend(MockCoder(seed=9))
    backend.config = RemoteConfig(url="", model="", max_in_flight=in_flight)
    run = code_passages(passages, backend, chain)
    assert 0 in backend.counts.values() and len(run.results) == sum(backend.counts.values())
    assert len(backend.counts) == len(passages) and backend.asked


def test_caption_flag_threads_note_downstream():
    p = passage("photo caption: refugees at the border fence " + "x" * 160)
    backend = RecordingBackend(MockCoder(seed=5))
    code_passages([p], backend, SOCRATIC_CHAIN)
    assert backend.counts == {"a1:0000": 3}
    relevance_prompts = [pr for step, pr in backend.prompts if step == "triage_relevance"]
    assert relevance_prompts, "chain never reached the relevance step"
    assert "Passage is a photo caption" in relevance_prompts[0]
    confidence_prompts = [pr for step, pr in backend.prompts if step == "relevance_confidence"]
    assert "Passage is a photo caption" in confidence_prompts[0]


def test_clean_passage_has_empty_note():
    p = passage("y" * 300)
    backend = RecordingBackend(MockCoder(seed=5))
    code_passages([p], backend, SOCRATIC_CHAIN)
    assert backend.counts == {"a1:0000": 4}
    for step, prompt in backend.prompts:
        assert "flagged" not in prompt


def test_reassess_receives_precode_and_summary():
    p = passage("z" * 400, article="art9")
    backend = RecordingBackend(MockCoder(seed=2))
    run = code_passages([p], backend, SOCRATIC_CHAIN, summaries={"art9": "THE SUMMARY"})
    reassess = [pr for step, pr in backend.prompts if step == "summary_reassess"]
    assert len(reassess) == len(run.results) == 1 and "THE SUMMARY" in reassess[0]
    theme = run.results[0][1].theme
    assert f"coded as ### {theme} ###" in reassess[0]


def test_round1_chain():
    p = passage("w" * 400)
    run = code_passages([p], MockCoder(seed=5), ROUND1_CHAIN, summaries={"a1": "S"})
    assert len(run.results) == 4
    for _, response in run:
        assert response.theme is not None


def test_fewshot_chain_binds_context():
    p = passage("v" * 400, article="artX")
    backend = RecordingBackend(MockCoder(seed=1))
    code_passages(
        [p],
        backend,
        FEWSHOT_CHAIN,
        summaries={"artX": "SUM"},
        fewshot_context={"artX:0000": '["exemplar one", "exemplar two"]'},
    )
    prompts = [pr for step, pr in backend.prompts if step == "final_fewshot"]
    assert prompts and '["exemplar one", "exemplar two"]' in prompts[0]


def test_results_ordered_by_passage_key():
    passages = [passage("x" * 300, article="b"), passage("x" * 300, article="a")]
    run = code_passages(passages, MockCoder(seed=1))
    keys = [passage_key(p) for p, _ in run]
    assert keys == sorted(keys)


# --- chain loop against the branch-per-step oracle ------------------------------


class ScriptedBackend:
    """Answers every chain step with a fixed reply and records each prompt."""

    def __init__(self, replies):
        self.replies = replies
        self.prompts = []

    def plan(self, passages):
        return [1] * len(passages)

    def respond(self, step, prompt, passage, slot=0):
        self.prompts.append((step, prompt))
        return self.replies[step]


STEPS = sorted(SOCRATIC_CHAIN + FEWSHOT_CHAIN + ROUND1_CHAIN)
prose = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="{}"),
    max_size=12,
)


def reply_dicts(keys, values, renders):
    """Replies the branch oracle accepts: a subset of the step's keys in any
    order, rendered as a Python or JSON literal, with prose around it."""
    return st.builds(
        lambda d, render, before, after: before + render(d) + after,
        st.dictionaries(st.sampled_from(keys), values),
        st.sampled_from(renders),
        prose,
        prose,
    )


verdicts = st.one_of(st.sampled_from(["Yes.", "No.", "No", " No. ", "Maybe.", "Yes", None]), words)
code_values = st.one_of(
    st.none(), st.sampled_from(["Sympathetic.", "Hostile.", "N/A", "None", "null", ""]), words
)
# the oracle's triage parsers read Python literals only, so only the
# coding steps get JSON replies here
scripted_replies = st.fixed_dictionaries(
    {
        "triage_caption": reply_dicts(
            ["1. disclaimer?", "2. caption?", "Body?"],
            st.sampled_from([True, False, None, 0, 1, "", "x"]),
            [repr],
        ),
        "triage_relevance": reply_dicts(["1. Refugees?", "2. Malaysia?"], verdicts, [repr]),
        "relevance_confidence": reply_dicts(["1. Relevant?", "2. Why Not?"], verdicts, [repr]),
        **{
            step: reply_dicts(
                ["1. Theme", "2. Whose Attitude?", "3. Target", "4. Valence"],
                code_values,
                [repr, json.dumps],
            )
            for step in ("socratic_code", "summary_reassess", "final_fewshot")
        },
        "round1": st.one_of(st.sampled_from(["Irrelevant", '"Irrelevant."', ""]), words),
    }
)
FLAGGED = "Photo caption: the views expressed are not those of the paper"


@given(
    chain=st.one_of(
        st.sampled_from([SOCRATIC_CHAIN, FEWSHOT_CHAIN, ROUND1_CHAIN]),
        st.lists(st.sampled_from(STEPS), max_size=7).map(tuple),
    ),
    text=st.one_of(st.sampled_from([FLAGGED, "A ministry statement on aid"]), words.filter(bool)),
    summary=words,
    fewshot=words,
    replies=scripted_replies,
)
@example(
    chain=SOCRATIC_CHAIN,
    text=FLAGGED,
    summary="S",
    fewshot="[]",
    replies={
        "triage_caption": "{'1. disclaimer?': True, '2. caption?': True, 'Body?': False}",
        "triage_relevance": "{'1. Refugees?': 'No.', '2. Malaysia?': 'No.'}",
        "relevance_confidence": "{'1. Relevant?': 'No.', '2. Why Not?': 'a caption'}",
        "socratic_code": '{"1. Theme": null, "4. Valence": "N/A"}',
        "summary_reassess": "{'1. Theme': 'Aid access', '4. Valence': 'Hostile.'}",
        "final_fewshot": "{}",
        "round1": "Irrelevant",
    },
)
@example(
    chain=("final_fewshot", "summary_reassess", "round1", "summary_reassess"),
    text="t",
    summary="",
    fewshot="",
    replies={
        "triage_caption": "{}",
        "triage_relevance": "{}",
        "relevance_confidence": "{'2. Why Not?': None}",
        "socratic_code": "{}",
        "summary_reassess": "{'1. Theme': 'Reassessed'}",
        "final_fewshot": 'Reply: {"1. Theme": "From exemplars", "3. Target": null}',
        "round1": "A round-one theme",
    },
)
@example(
    chain=("triage_caption", "triage_relevance", "relevance_confidence"),
    text="t",
    summary="",
    fewshot="",
    replies={
        "triage_caption": "{'2. caption?': 'x', '1. disclaimer?': 1}",
        "triage_relevance": "{'2. Malaysia?': ' No. ', '1. Refugees?': None}",
        "relevance_confidence": "{}",
        "socratic_code": "{}",
        "summary_reassess": "{}",
        "final_fewshot": "{}",
        "round1": "",
    },
)
@example(
    chain=SOCRATIC_CHAIN,
    text="t",
    summary="",
    fewshot="",
    replies={
        "triage_caption": "{}",
        "triage_relevance": "{}",
        "relevance_confidence": "{}",
        "socratic_code": '{"1. Theme": "\\ud800\\udc00"}',
        "summary_reassess": '{"1. Theme": "a\\/b"}',
        "final_fewshot": "{}",
        "round1": "",
    },
)
@settings(max_examples=300)
def test_chain_loop_matches_branch_oracle(chain, text, summary, fewshot, replies):
    p = passage(text)
    new, old = ScriptedBackend(replies), ScriptedBackend(replies)
    response = run_chain(p, new, chain, summary, fewshot, 0)
    assert response == run_chain_branches(p, old, chain, summary, fewshot, 0)
    assert new.prompts == old.prompts


@pytest.mark.parametrize("chain", [SOCRATIC_CHAIN, FEWSHOT_CHAIN, ROUND1_CHAIN])
@pytest.mark.parametrize("text", [FLAGGED, "A ministry statement on aid " * 12])
def test_chain_loop_matches_branch_oracle_on_mock(chain, text):
    p = passage(text)
    for slot in range(4):
        # λ is 60 or more, so the passage gets the cap of 6 slots
        new, old = (RecordingBackend(MockCoder(seed=3, mean_codes_per_kchar=1000.0))
                    for _ in range(2))
        assert new.plan([p]) == old.plan([p]) == [6]
        response = run_chain(p, new, chain, "S", '["x"]', slot)
        assert response == run_chain_branches(p, old, chain, "S", '["x"]', slot)
        assert new.prompts == old.prompts


def test_unknown_chain_step_raises():
    with pytest.raises(ValueError, match="unknown chain step 'nope'"):
        run_chain(passage("t"), ScriptedBackend({}), ("nope",), "", "[]", 0)


# every dictionary step's reply; each holds a value JSON spells differently
# from Python (null, true, false), so the JSON form needs json.loads
LITERAL_REPLIES = {
    "triage_caption": {"1. disclaimer?": True, "2. caption?": False, "Body?": None},
    "triage_relevance": {"1. Refugees?": "No.", "2. Malaysia?": None},
    "relevance_confidence": {"1. Relevant?": "Maybe.", "2. Why Not?": None},
    "socratic_code": {"1. Theme": "Camp access", "2. Whose Attitude?": None, "4. Valence": "N/A"},
    "summary_reassess": {"1. Theme": "Aid cuts", "3. Target": None, "4. Valence": "Hostile."},
    "final_fewshot": {"1. Theme": None, "2. Whose Attitude?": "NGOs", "4. Valence": None},
}


@pytest.mark.parametrize("step", sorted(LITERAL_REPLIES))
def test_every_step_reads_python_and_json_replies(step):
    chain = FEWSHOT_CHAIN if step in FEWSHOT_CHAIN else SOCRATIC_CHAIN
    runs = []
    for render in (repr, json.dumps):
        replies = {s: repr(reply) for s, reply in LITERAL_REPLIES.items()}
        replies[step] = render(LITERAL_REPLIES[step])
        backend = ScriptedBackend(replies)
        runs.append((run_chain(passage("t"), backend, chain, "S", "[]", 0), backend.prompts))
    assert runs[0] == runs[1]
    with pytest.raises(ValueError):  # so the JSON form was read by json.loads
        ast.literal_eval(json.dumps(LITERAL_REPLIES[step]))


# --- unreadable replies --------------------------------------------------------


class OneBadPassage(ScriptedBackend):
    """Answers passage ``bad`` with ``bad_reply`` at one step, all else well."""

    def __init__(self, step, bad_reply):
        super().__init__({s: GOOD_REPLY for s in STEPS})
        self.step = step
        self.bad_reply = bad_reply

    def respond(self, step, prompt, passage, slot=0):
        if passage.article_id == "bad" and step == self.step:
            return self.bad_reply
        return super().respond(step, prompt, passage, slot)


@pytest.mark.parametrize(
    "step, bad_reply, message",
    [
        ("triage_caption", "Body text, not a caption.", "no dictionary-shaped region in reply"),
        ("triage_caption", "{'1. disclaimer?': Tru e}", "dictionary-shaped region failed to parse"),
        ("triage_relevance", "{'1. Refugees?', 'No.'}", "dictionary-shaped region failed to parse"),
        ("relevance_confidence", "x" * 300, "no dictionary-shaped region in reply"),
        ("socratic_code", "{" + "y" * 300 + "}", "dictionary-shaped region failed to parse"),
        ("summary_reassess", "{'1. Theme': 'bad \\ud83d'}", "reply holds a lone surrogate"),
    ],
)
def test_unreadable_reply_costs_one_passage(step, bad_reply, message):
    passages = [passage("x" * 200, article=a) for a in ("a", "bad", "c")]
    run = code_passages(passages, OneBadPassage(step, bad_reply))
    assert [passage_key(p) for p, _ in run] == ["a:0000", "c:0000"]
    assert run.errors == (("bad:0000", f"ResponseParseError: {message}: {bad_reply[:200]}"),)


def test_unreadable_reply_is_recorded_as_utf8():
    bad_reply = '{"1. Theme": "bad \ud83d"}'
    passages = [passage("x" * 200, article=a) for a in ("a", "bad")]
    run = code_passages(passages, OneBadPassage("final_fewshot", bad_reply), FEWSHOT_CHAIN)
    assert [passage_key(p) for p, _ in run] == ["a:0000"]
    assert run.errors == (
        ("bad:0000", 'ResponseParseError: reply holds a lone surrogate: {"1. Theme": "bad \\ud83d"}'),
    )


def test_results_carry_the_passages_they_answer():
    """Each response comes paired with the very passage object it answers,
    in passage-key order whatever order the batch was given in."""
    given = [passage("x" * 200, article=a, index=i) for a, i in
             (("b", 1), ("a", 0), ("b", 0), ("a", 1))]
    run = code_passages(given, ScriptedBackend({s: GOOD_REPLY for s in STEPS}))
    want = sorted(given, key=passage_key)
    assert [passage_key(p) for p, _ in run] == ["a:0000", "a:0001", "b:0000", "b:0001"]
    assert len(run.results) == len(want)
    assert all(p is q for (p, _), q in zip(run, want))
    assert {r.theme for _, r in run} == {"Remote theme"}


# --- passage-level steps asked once, against the per-slot oracle ----------------

PASSAGE_LEVEL = ("triage_caption", "triage_relevance", "relevance_confidence")
mock_passages = st.lists(
    st.tuples(
        st.sampled_from(["a", "b", "c"]),
        st.sampled_from(["", "Photo: ", "The views expressed are the author's. "]),
        st.integers(1, 2500),
    ),
    max_size=6,
).map(lambda rows: [
    passage(marker + "x" * n, article=article, index=i)
    for i, (article, marker, n) in enumerate(rows)
])


@given(
    passages=mock_passages,
    seed=st.integers(0, 2**32 - 1),
    chain=st.sampled_from([SOCRATIC_CHAIN, FEWSHOT_CHAIN, ROUND1_CHAIN]),
)
@settings(max_examples=60, deadline=None)
def test_triage_once_matches_per_slot_walk_on_mock(passages, seed, chain):
    summaries, fewshot = {"a": "SUM"}, {"b:0001": '["exemplar"]'}
    new, old = (RecordingBackend(MockCoder(seed=seed)) for _ in range(2))
    run = code_passages(passages, new, chain, summaries, fewshot)
    assert run == code_passages_per_slot(passages, old, chain, summaries, fewshot)
    assert set(new.prompts) == set(old.prompts)


class SlottedBackend(OneBadPassage):
    """OneBadPassage with a fixed slot count for each passage index."""

    def __init__(self, replies, slots, step=None, bad_reply=None):
        super().__init__(step, bad_reply)
        self.replies = replies
        self.slots = slots

    def plan(self, passages):
        return [self.slots[p.index] for p in passages]


UNREADABLE = ["no dictionary here", "{'1. Theme': 'x',,}", "{" + "z" * 250 + "}", '{"1. Theme": "\\ud800"}']


@given(
    replies=scripted_replies,
    slots=st.lists(st.integers(0, 3), min_size=3, max_size=3),
    bad=st.one_of(st.none(), st.tuples(st.sampled_from(STEPS), st.sampled_from(UNREADABLE))),
    chain=st.one_of(
        st.sampled_from([SOCRATIC_CHAIN, FEWSHOT_CHAIN, ROUND1_CHAIN]),
        st.lists(st.sampled_from(STEPS), max_size=7).map(tuple),
    ),
)
@example(
    replies=dict.fromkeys(STEPS, "{}"), slots=[1, 2, 0],
    bad=("triage_relevance", "no dictionary here"), chain=SOCRATIC_CHAIN,
)
@example(
    replies=dict.fromkeys(STEPS, "{}"), slots=[3, 2, 1],
    bad=("summary_reassess", UNREADABLE[3]), chain=SOCRATIC_CHAIN,
)
@settings(max_examples=150, deadline=None)
def test_triage_once_matches_per_slot_walk_scripted(replies, slots, bad, chain):
    passages = [passage("t", article=a, index=i) for i, a in enumerate(("a", "bad", "c"))]
    step, bad_reply = bad or (None, None)
    # the branch oracle's triage parsers read well-formed replies only, so an
    # unreadable reply is walked by the one-slot chain, which records it
    walk = run_chain_branches if bad is None else run_chain
    new, old = (SlottedBackend(replies, slots, step, bad_reply) for _ in range(2))
    run = code_passages(passages, new, chain, {"a": "S"}, {})
    assert run == code_passages_per_slot(passages, old, chain, {"a": "S"}, {}, walk)
    assert set(new.prompts) == set(old.prompts)  # the same prompts, repeats aside
    assert {key for key, _ in run.errors} <= {"bad:0001"}


def test_passage_level_steps_are_asked_once_per_passage(monkeypatch):
    """The mock batch's calls are counted, and none of its replies, flagged
    triage included, is read as a Python literal."""
    markers = ["", "Photo: ", "The views expressed are the author's. "]
    passages = [
        passage(markers[i % 3] + "y" * n, article=f"p{n}")
        for i, n in enumerate(range(1, 2400, 150))
    ]
    backend = RecordingBackend(MockCoder(seed=8))
    literals = []
    real = ast.literal_eval
    monkeypatch.setattr(ast, "literal_eval", lambda text: literals.append(text) or real(text))
    run = code_passages(passages, backend, SOCRATIC_CHAIN)
    assert literals == [] and not run.errors
    parse_response("{'1. Theme': 'single quotes'}")  # a Python-only reply is counted
    assert len(literals) == 1
    slots = backend.counts
    assert 0 in slots.values() and max(slots.values()) >= 2
    assert any(slots[passage_key(p)] and markers[i % 3] for i, p in enumerate(passages))
    expected = Counter()
    for key, n in slots.items():
        for step in PASSAGE_LEVEL:
            expected[step, key, 0] += n > 0
        for step in ("socratic_code", "summary_reassess"):
            expected.update((step, key, slot) for slot in range(n))
    assert Counter(backend.asked) == +expected
    n_coded = sum(n > 0 for n in slots.values())
    assert len(backend.asked) == 3 * n_coded + 2 * sum(slots.values())


def test_mock_batch_decodes_once_per_reply_and_renders_once_per_prompt(monkeypatch):
    """Call counts, not time: each reply is decoded once, each prompt rendered
    once, each coding reply parsed once, and no slot state is copied by
    ``copy.copy``."""
    markers = ["", "Photo: ", "The views expressed are the author's. "]
    passages = [
        passage(markers[i % 3] + "y" * n, article=f"p{n}")
        for i, n in enumerate(range(1, 2400, 150))
    ]
    calls = Counter()

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for module, name in ((coder_module, "_decode"), (copy, "copy"),
                         (coder_module, "render_prompt"), (coder_module, "parse_response")):
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    backend = RecordingBackend(MockCoder(seed=8))
    run = code_passages(passages, backend, SOCRATIC_CHAIN)
    asked = Counter(step for step, _, _ in backend.asked)
    assert run.results and not run.errors and asked["triage_caption"] and asked["socratic_code"]
    assert calls["_decode"] == len(backend.asked)
    assert calls["copy"] == 0
    assert calls["render_prompt"] == len(backend.prompts)
    assert calls["parse_response"] == asked["socratic_code"] + asked["summary_reassess"]


# --- remote backend ---------------------------------------------------------------


def _completion(content):
    import json

    return json.dumps({"choices": [{"message": {"content": content}}]})


GOOD_REPLY = '{"1. Theme": "Remote theme", "2. Whose Attitude?": "NGOs", "3. Target": "UNHCR", "4. Valence": "N/A"}'


def remote(transport, retries=3):
    return RemoteCoder(
        RemoteConfig(url="http://example.invalid/v1/chat", model="m", max_retries=retries),
        transport=transport,
        sleep=lambda s: None,
    )


def test_remote_plans_one_slot_per_passage():
    passages = [passage("x" * n, article=f"a{n}") for n in (1, 100, 5000)]
    assert remote(lambda *a: (200, "")).plan(passages) == [1] * len(passages)


def test_remote_success():
    calls = []

    def transport(url, headers, body, timeout):
        calls.append(body)
        return 200, _completion(GOOD_REPLY)

    coder = remote(transport)
    run = code_passages([passage("x" * 200)], coder)
    assert run.errors == ()
    assert run.results[0][1].theme == "Remote theme"
    assert b'"temperature": 0.0' in calls[0]


def test_remote_retries_then_succeeds():
    attempts = []

    def transport(url, headers, body, timeout):
        attempts.append(1)
        if len(attempts) < 3:
            return 503, "unavailable"
        return 200, _completion(GOOD_REPLY)

    coder = remote(transport)
    reply = coder.respond("socratic_code", "prompt", passage("x" * 200))
    assert "Remote theme" in reply
    assert len(attempts) == 3


def test_remote_rate_limit_distinct():
    coder = remote(lambda *a: (429, "slow down"))
    with pytest.raises(RateLimitError):
        coder.respond("socratic_code", "prompt", passage("x" * 200))


def test_remote_unreachable_records_per_passage_errors():
    def transport(url, headers, body, timeout):
        raise ConnectionError("no route to host")

    coder = remote(transport)
    passages = [passage("x" * 200, article=f"a{i}") for i in range(3)]
    run = code_passages(passages, coder)
    assert run.results == ()
    assert len(run.errors) == 3
    assert all("TransportError" in err for _, err in run.errors)


def test_remote_malformed_payload():
    coder = remote(lambda *a: (200, '{"nope": true}'))
    with pytest.raises(TransportError, match="malformed"):
        coder.respond("socratic_code", "prompt", passage("x" * 200))
