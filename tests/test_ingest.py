import csv
import dataclasses
import io
import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from fecund.corpus import CodeInstance, Codebook, Collection, Document
from fecund.errors import (
    BlankCodeError,
    CollectionFormatError,
    DanglingReferenceError,
    DuplicateDocumentIdError,
    UnknownCoderSourceError,
)
from fecund.ingest import (
    RawArticle,
    _read_columns,
    _uniform_records,
    canonicalize_code,
    load_articles,
    load_collection,
    split_passages,
    write_collection,
)
from fecund.synthetic import synth_corpus

from reference import collection, write_collection_rows


# --- split_passages -------------------------------------------------------


def test_split_two_lines_min_zero():
    parts = split_passages(RawArticle("a", "A\nB"), min_len=0)
    assert [p.text for p in parts] == ["A", "B"]
    assert [p.char_span for p in parts] == [(0, 1), (2, 3)]
    assert [p.index for p in parts] == [0, 1]


def test_split_drops_below_threshold():
    text = "x" * 99 + "\n" + "y" * 150
    parts = split_passages(RawArticle("a", text), min_len=100)
    assert len(parts) == 1
    assert parts[0].text == "y" * 150


def test_split_single_long_line():
    parts = split_passages(RawArticle("a", "z" * 300))
    assert len(parts) == 1
    assert parts[0].char_span == (0, 300)


def test_split_handles_crlf_and_cr():
    text = "p" * 120 + "\r\n" + "q" * 120 + "\r" + "r" * 120
    parts = split_passages(RawArticle("a", text), min_len=100)
    assert [p.text for p in parts] == ["p" * 120, "q" * 120, "r" * 120]
    for p in parts:
        assert text[p.char_span[0] : p.char_span[1]] == p.text


def test_split_empty_text():
    assert split_passages(RawArticle("a", "")) == []


@given(st.text(alphabet=st.sampled_from("ab \n\r"), max_size=200), st.integers(0, 5))
def test_split_segments_ordered_disjoint_substrings(text, min_len):
    parts = split_passages(RawArticle("a", text), min_len=min_len)
    prev_end = -1
    for p in parts:
        start, end = p.char_span
        assert start > prev_end
        assert text[start:end] == p.text
        prev_end = end


# --- canonicalize_code -------------------------------------------------------


def test_canonicalize_examples():
    assert canonicalize_code("  Refugee  Rights ") == "refugee rights"
    assert canonicalize_code("UNHCR") == "unhcr"


def test_canonicalize_blank_errors():
    with pytest.raises(BlankCodeError):
        canonicalize_code("")
    with pytest.raises(BlankCodeError):
        canonicalize_code("   ")


@given(st.text(min_size=1, max_size=40))
def test_canonicalize_idempotent(label):
    try:
        once = canonicalize_code(label)
    except BlankCodeError:
        return
    assert canonicalize_code(once) == once


# --- load/write collections -----------------------------------------------


def _write_fixture(tmp_path, docs_lines, codes_rows=None, themes_rows=None):
    docs = tmp_path / "documents.jsonl"
    docs.write_text("\n".join(docs_lines) + "\n", encoding="utf-8")
    codes = themes = None
    if codes_rows is not None:
        codes = tmp_path / "codes.csv"
        codes.write_text(
            "doc_id,coder_source,code_label,position\n"
            + "".join(",".join(r) + "\n" for r in codes_rows),
            encoding="utf-8",
        )
    if themes_rows is not None:
        themes = tmp_path / "themes.csv"
        themes.write_text(
            "code_label,theme_label\n" + "".join(",".join(r) + "\n" for r in themes_rows),
            encoding="utf-8",
        )
    return docs, codes, themes


def test_load_well_formed(tmp_path):
    docs, codes, themes = _write_fixture(
        tmp_path,
        [
            '{"id": "d1", "text_length": 120, "source": "alpha"}',
            '{"id": "d2", "text_length": 80, "source": null}',
            '{"id": "d3", "text_length": 99}',
        ],
        codes_rows=[
            ("d1", "human", "Refugee Rights", "0.25"),
            ("d1", "human", "refugee  rights", ""),
            ("d2", "ai", "Border Policy", "0.9"),
        ],
        themes_rows=[("Refugee Rights", "Rights")],
    )
    documents, codebook = load_collection(docs, codes, themes)
    assert [d.id for d in documents] == ["d1", "d2", "d3"]
    assert codebook.entries == {
        "refugee rights": "Refugee Rights",
        "border policy": "Border Policy",
    }
    # both spellings collapse onto the same canonical code
    assert [i.code_id for i in documents[0].codes["human"]] == [
        "refugee rights",
        "refugee rights",
    ]
    # every doc carries every source seen in the file
    for doc in documents:
        assert set(doc.codes) == {"human", "ai"}
    assert codebook.theme_map == {"refugee rights": "rights"}


def test_load_duplicate_id_names_it(tmp_path):
    docs, _, _ = _write_fixture(
        tmp_path,
        ['{"id": "dup", "text_length": 10}', '{"id": "dup", "text_length": 11}'],
    )
    with pytest.raises(DuplicateDocumentIdError, match="dup"):
        load_collection(docs)


def test_load_whitespace_label_carries_line_after_memo(tmp_path):
    docs, codes, _ = _write_fixture(
        tmp_path,
        ['{"id": "d1", "text_length": 10}'],
        codes_rows=[("d1", "human", "x", ""), ("d1", "human", "x", ""), ("d1", "human", "  ", "")],
    )
    with pytest.raises(CollectionFormatError, match="canonicalizes to the empty string") as err:
        load_collection(docs, codes)
    assert err.value.line == 4


def test_load_articles_duplicate_ids_listed(tmp_path):
    docs, _, _ = _write_fixture(
        tmp_path,
        [f'{{"id": "{i}", "text": "t"}}' for i in ("b", "a", "c", "b", "a", "b")],
    )
    with pytest.raises(DuplicateDocumentIdError) as err:
        load_articles(docs)
    assert str(err.value) == f"{docs}: duplicate article id(s): ['a', 'b']"


def test_load_dangling_theme_reference(tmp_path):
    docs, codes, themes = _write_fixture(
        tmp_path,
        ['{"id": "d1", "text_length": 10}'],
        codes_rows=[("d1", "human", "known code", "")],
        themes_rows=[("unknown code", "Theme")],
    )
    with pytest.raises(DanglingReferenceError, match="unknown code"):
        load_collection(docs, codes, themes)


def test_load_dangling_doc_reference(tmp_path):
    docs, codes, _ = _write_fixture(
        tmp_path,
        ['{"id": "d1", "text_length": 10}'],
        codes_rows=[("ghost", "human", "code", "")],
    )
    with pytest.raises(DanglingReferenceError, match="ghost"):
        load_collection(docs, codes)


def test_load_parse_failure_carries_line(tmp_path):
    docs, _, _ = _write_fixture(tmp_path, ['{"id": "d1", "text_length": 10}', "{broken"])
    with pytest.raises(CollectionFormatError) as err:
        load_collection(docs)
    assert err.value.line == 2


def test_load_text_length_mismatch(tmp_path):
    docs, _, _ = _write_fixture(
        tmp_path, ['{"id": "d1", "text_length": 10, "text": "abc"}']
    )
    with pytest.raises(CollectionFormatError, match="text_length"):
        load_collection(docs)


def test_load_articles_requires_text(tmp_path):
    docs, _, _ = _write_fixture(tmp_path, ['{"id": "d1", "text_length": 10}'])
    with pytest.raises(CollectionFormatError, match="text"):
        load_articles(docs)


def test_round_trip(tmp_path):
    original = [
        Document(
            "d1",
            120,
            source_label="alpha",
            codes={
                "human": (CodeInstance("refugee rights", 0.25), CodeInstance("camps")),
                "ai": (),
            },
        ),
        Document("d2", 80, codes={"human": (), "ai": (CodeInstance("camps", 0.125),)}),
    ]
    codebook = Codebook(
        entries={"refugee rights": "Refugee Rights", "camps": "Camps"},
        theme_map={"refugee rights": "rights", "camps": "rights"},
        themes={"rights": "Rights"},
    )
    d, c, t = tmp_path / "d.jsonl", tmp_path / "c.csv", tmp_path / "t.csv"
    write_collection(collection(original), codebook, d, c, t)
    loaded_docs, loaded_book = load_collection(d, c, t)
    assert list(loaded_docs) == original
    assert loaded_book == codebook
    # writing the loaded model again is byte-identical
    d2, c2, t2 = tmp_path / "d2.jsonl", tmp_path / "c2.csv", tmp_path / "t2.csv"
    write_collection(loaded_docs, loaded_book, d2, c2, t2)
    assert d2.read_bytes() == d.read_bytes()
    assert c2.read_bytes() == c.read_bytes()
    assert t2.read_bytes() == t.read_bytes()


def test_round_trip_of_a_source_some_documents_lack(tmp_path):
    """Rows go by document, then by sorted source, then in instance order; a
    source without instances writes no row; a missing position is a blank
    cell; writing the loaded files again changes no byte."""
    original = [
        Document("d2", 50, codes={"human": (CodeInstance("b", 0.5), CodeInstance("a")), "ai": ()}),
        Document("d1", 70, "x", {"ai": (CodeInstance("z", 1.0),), "human": (CodeInstance("a"),)}),
        Document("d3", 30, codes={"human": (), "ai": ()}),
    ]
    paths = tmp_path / "d.jsonl", tmp_path / "c.csv"
    write_collection(collection(original), Codebook(), *paths)
    assert paths[1].read_text() == (
        "doc_id,coder_source,code_label,position\n"
        "d2,human,b,0.5\nd2,human,a,\nd1,ai,z,1.0\nd1,human,a,\n"
    )
    loaded, codebook = load_collection(*paths)
    assert [d.instances("human") for d in loaded] == [d.instances("human") for d in original]
    again = tmp_path / "d2.jsonl", tmp_path / "c2.csv"
    write_collection(loaded, codebook, *again)
    assert [p.read_bytes() for p in again] == [p.read_bytes() for p in paths]


# --- ingest parity: each case pins what the DictReader loader returned ----

_PARITY_DOCS = '{"id": "d1", "text_length": 10}\n{"id": "d2", "text_length": 20}\n'
_CODES_HEADER = "doc_id,coder_source,code_label,position\n"
_BLANK = "blank value in required column(s) ('doc_id', 'coder_source', 'code_label')"

# codes.csv text -> (documents as (id, {source: [(code id, position)]}), codebook
# entries) when it loads, or (error message, line) when it is rejected
_PARITY_CASES = {
    "blank-line-skipped": (
        _CODES_HEADER + "d1,human,A,0.5\n\nd2,human,b,\n",
        ([("d1", {"human": [("a", 0.5)]}), ("d2", {"human": [("b", None)]})],
         {"a": "A", "b": "b"}),
    ),
    "short-row-blank-value": (_CODES_HEADER + "d1,human\n", (_BLANK, 2)),
    "short-row-without-position": (
        _CODES_HEADER + "d1,human,A\n",
        ([("d1", {"human": [("a", None)]}), ("d2", {"human": []})], {"a": "A"}),
    ),
    "extra-trailing-field": (
        _CODES_HEADER + "d1,human,A,0.25,extra\n",
        ([("d1", {"human": [("a", 0.25)]}), ("d2", {"human": []})], {"a": "A"}),
    ),
    "quoted-line-break": (_CODES_HEADER + 'd1,human,"two\nlines",0.5\nd2,human,,\n', (_BLANK, 4)),
    "no-position-column": (
        "doc_id,coder_source,code_label\nd1,human,A\nd2,human,b\n",
        ([("d1", {"human": [("a", None)]}), ("d2", {"human": [("b", None)]})],
         {"a": "A", "b": "b"}),
    ),
    "reordered-columns": (
        "position,code_label,doc_id,coder_source\n0.75,B,d2,ai\n,a,d1,ai\n",
        ([("d1", {"ai": [("a", None)]}), ("d2", {"ai": [("b", 0.75)]})], {"b": "B", "a": "a"}),
    ),
    "repeated-column-last-wins": (
        "doc_id,coder_source,code_label,code_label,position\nd1,human,A,B,0.5\n",
        ([("d1", {"human": [("b", 0.5)]}), ("d2", {"human": []})], {"b": "B"}),
    ),
    "position-not-a-number": (_CODES_HEADER + "d1,human,A,x\n", ("bad position 'x'", 2)),
    "position-above-one": (_CODES_HEADER + "d1,human,A,1.5\n", ("position 1.5 outside [0, 1]", 2)),
    "position-nan": (_CODES_HEADER + "d1,human,A,nan\n", ("position nan outside [0, 1]", 2)),
    "source-missing-from-a-document": (
        _CODES_HEADER + "d1,human,A,0.5\nd1,ai,B,\nd2,human,a,0.125\n",
        ([("d1", {"human": [("a", 0.5)], "ai": [("b", None)]}),
          ("d2", {"human": [("a", 0.125)], "ai": []})],
         {"a": "A", "b": "B"}),
    ),
}


@pytest.mark.parametrize("case", sorted(_PARITY_CASES))
def test_load_codes_parity(tmp_path, case):
    text, expected = _PARITY_CASES[case]
    docs = tmp_path / "documents.jsonl"
    docs.write_text(_PARITY_DOCS, encoding="utf-8")
    codes = tmp_path / "codes.csv"
    codes.write_text(text, encoding="utf-8")
    if isinstance(expected[0], str):
        message, line = expected
        with pytest.raises(CollectionFormatError) as err:
            load_collection(docs, codes)
        assert str(err.value) == f"{codes}:{line}: {message}"
        assert err.value.line == line
        return
    documents, codebook = load_collection(docs, codes)
    assert [
        (d.id, {s: [(i.code_id, i.position) for i in insts] for s, insts in d.codes.items()})
        for d in documents
    ] == expected[0]
    assert codebook.entries == expected[1]


# --- the column reader against csv.reader ------------------------------------

_NAMES = ("a", "b", "c")  # every header has "a"; "c" may be absent


def _csv_reader_columns(text):
    """What csv.reader makes of ``text``: per name, the values of its last
    header column (None where absent or short), and each record's line."""
    reader = csv.reader(io.StringIO(text, newline=""))
    index = {name: i for i, name in enumerate(next(reader))}
    records = [(reader.line_num, r) for r in reader if r]
    columns = [
        [r[index[n]] if n in index and index[n] < len(r) else None for _, r in records]
        for n in _NAMES
    ]
    return columns, [line for line, _ in records]


def _check_read_columns(root, text, limit):
    path = root / "f.csv"
    path.write_bytes(text.encode("utf-8"))
    default = csv.field_size_limit(limit)
    try:
        try:
            expected = _csv_reader_columns(text)
        except csv.Error:
            with pytest.raises(CollectionFormatError, match="unreadable CSV"):
                _read_columns(path, _NAMES[:1], _NAMES[1:])
            return
        columns, line_of = _read_columns(path, _NAMES[:1], _NAMES[1:])
    finally:
        csv.field_size_limit(default)
    assert columns == expected[0]
    assert [line_of(k) for k in range(len(expected[1]))] == expected[1]


_HEADERS = st.lists(st.sampled_from(_NAMES), max_size=3).flatmap(
    lambda rest: st.permutations(["a", *rest])
)


# quoted fields with commas and line breaks, CRLF, lone CR, blank lines, NUL,
# a character outside ASCII; rows short and long; a repeated header name
_RAW_CSV = st.lists(
    st.sampled_from(["x", "y", ",", '"', "\n", "\r\n", "\r", "\x00", "é", " "]), max_size=40
).map(lambda parts: "a,b,a\n" + "".join(parts))


@st.composite
def _written_csv(draw):
    """Rows of any width written by csv.writer with either line ending,
    blank lines inserted at random."""
    header = draw(_HEADERS)
    cell = st.text(alphabet=st.sampled_from('xy, "\n\r\x00é'), max_size=4)
    rows = draw(st.lists(st.lists(cell, max_size=5), max_size=6))
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer, lineterminator=draw(st.sampled_from(["\n", "\r\n"])))
    for row in [header, *rows]:
        writer.writerow(row)
        if draw(st.integers(0, 3)) == 0:
            buffer.write("\n")
    return buffer.getvalue()


@st.composite
def _uniform_csv(draw):
    """A file the split path takes: every line the header's width, no quote,
    no CR, no blank line."""
    header = draw(_HEADERS)
    cell = st.text(alphabet=st.sampled_from("xy \x00é\t"), max_size=4)
    rows = draw(st.lists(st.lists(cell, min_size=len(header), max_size=len(header)), max_size=6))
    lines = [",".join(row) for row in [header, *rows]]
    return "\n".join(line for line in lines if line) + draw(st.sampled_from(["", "\n"]))


@given(st.one_of(_RAW_CSV, _written_csv()), st.sampled_from([csv.field_size_limit(), 3]))
def test_read_columns_matches_csv_reader(tmp_path_factory, text, limit):
    _check_read_columns(tmp_path_factory.mktemp("cols"), text, limit)


@given(_uniform_csv())
def test_read_columns_split_path_matches_csv_reader(tmp_path_factory, text):
    assert _uniform_records(text.encode("utf-8")) is not None
    _check_read_columns(tmp_path_factory.mktemp("split"), text, csv.field_size_limit())


_ROW_FAULTS = {
    "blank-value": ("d1,,A,0.5", _BLANK),
    "unknown-document": ("ghost,human,A,0.5", "code row references unknown document 'ghost'"),
    "blank-label": ("d1,human,  ,0.5", "code label '  ' canonicalizes to the empty string"),
    "bad-position": ("d1,human,A,x", "bad position 'x'"),
    "position-out-of-range": ("d1,human,A,1.5", "position 1.5 outside [0, 1]"),
}


@pytest.mark.parametrize("first, second", itertools.permutations(sorted(_ROW_FAULTS), 2))
def test_earliest_failing_record_raises(tmp_path, first, second):
    """Two rows fail two different checks: the earlier line's error wins,
    whichever check it is."""
    docs = tmp_path / "documents.jsonl"
    docs.write_text(_PARITY_DOCS, encoding="utf-8")
    codes = tmp_path / "codes.csv"
    codes.write_text(
        _CODES_HEADER + "d2,human,B,0.25\n"
        + f"{_ROW_FAULTS[first][0]}\nd1,human,C,\n{_ROW_FAULTS[second][0]}\n",
        encoding="utf-8",
    )
    with pytest.raises(CollectionFormatError) as err:
        load_collection(docs, codes)
    assert str(err.value) == f"{codes}:3: {_ROW_FAULTS[first][1]}"


@pytest.mark.parametrize(
    "row, message",
    [
        ("ghost,human,  ,x", "code row references unknown document 'ghost'"),
        ("d1,human,  ,2", "code label '  ' canonicalizes to the empty string"),
        ("ghost,,A,x", _BLANK),
    ],
)
def test_one_record_keeps_check_order(tmp_path, row, message):
    docs = tmp_path / "documents.jsonl"
    docs.write_text(_PARITY_DOCS, encoding="utf-8")
    codes = tmp_path / "codes.csv"
    codes.write_text(_CODES_HEADER + "d1,human,A,0.5\n" + row + "\n", encoding="utf-8")
    with pytest.raises(CollectionFormatError) as err:
        load_collection(docs, codes)
    assert str(err.value) == f"{codes}:3: {message}"


def test_files_are_checked_in_the_order_given(tmp_path):
    docs = tmp_path / "documents.jsonl"
    docs.write_text(_PARITY_DOCS, encoding="utf-8")
    late, early = tmp_path / "late.csv", tmp_path / "early.csv"
    late.write_text(_CODES_HEADER + "d1,human,A,0.5\nd1,human,A,0.5\nd1,human,A,7\n")
    early.write_text(_CODES_HEADER + "ghost,human,A,0.5\n")
    with pytest.raises(CollectionFormatError) as err:
        load_collection(docs, [late, early])
    assert str(err.value) == f"{late}:4: position 7.0 outside [0, 1]"


def test_synth_collection_never_calls_csv_reader(tmp_path, monkeypatch):
    """Files written by csv.writer with no quoted field take the split path."""
    calls = []
    reader = csv.reader
    monkeypatch.setattr(csv, "reader", lambda *a, **k: calls.append(a) or reader(*a, **k))
    documents, codebook = synth_corpus(40, n_codes=30, seed=3, n_themes=4)
    paths = tmp_path / "d.jsonl", tmp_path / "c.csv", tmp_path / "t.csv"
    write_collection(documents, codebook, *paths)
    loaded, _ = load_collection(*paths)
    assert calls == []
    assert list(loaded) == list(documents)
    paths[1].write_text(paths[1].read_text().replace("\n", "\r\n"), encoding="utf-8")
    assert list(load_collection(*paths)[0]) == list(documents)
    assert len(calls) == 1  # a CRLF file goes through csv.reader


def test_non_utf8_csv_names_file_and_line(tmp_path):
    docs = tmp_path / "documents.jsonl"
    docs.write_text(_PARITY_DOCS, encoding="utf-8")
    codes = tmp_path / "codes.csv"
    codes.write_bytes((_CODES_HEADER + "d1,human,A,0.5\nd2,human,caf\xe9,\n").encode("latin-1"))
    with pytest.raises(CollectionFormatError) as err:
        load_collection(docs, codes)
    assert str(err.value).startswith(f"{codes}:3: not UTF-8 text: 'utf-8' codec can't decode")


# --- CodeMatrix.take against the walk ---------------------------------------

_LABELS = st.sampled_from(["a", "B", "c", " b ", "d e", "F"])
_POSITIONS = st.one_of(st.none(), st.sampled_from([0.0, 0.125, 0.5, 1.0]))


@st.composite
def _collections(draw):
    """A collection of 1-6 documents coded by one or two sources, spread
    over one or two code files, with row order shuffled."""
    n_docs = draw(st.integers(1, 6))
    sources = draw(st.lists(st.sampled_from(["human", "ai"]), min_size=1, max_size=2, unique=True))
    rows = draw(
        st.lists(
            st.tuples(st.integers(0, n_docs - 1), st.sampled_from(sources), _LABELS, _POSITIONS),
            max_size=25,
        )
    )
    split = draw(st.integers(0, len(rows)))
    lengths = draw(st.lists(st.integers(1, 500), min_size=n_docs, max_size=n_docs))
    return lengths, [rows[:split], rows[split:]]


@given(_collections(), st.data())
def test_take_matches_walk(tmp_path_factory, collection, data):
    lengths, files = collection
    root = tmp_path_factory.mktemp("take")
    docs_path = root / "documents.jsonl"
    docs_path.write_text(
        "".join(f'{{"id": "d{i}", "text_length": {n}}}\n' for i, n in enumerate(lengths)),
        encoding="utf-8",
    )
    codes_paths = []
    for k, rows in enumerate(files):
        path = root / f"codes{k}.csv"
        path.write_text(
            _CODES_HEADER
            + "".join(
                f"d{d},{src},{label},{'' if pos is None else pos}\n" for d, src, label, pos in rows
            ),
            encoding="utf-8",
        )
        codes_paths.append(path)
    documents, _ = load_collection(docs_path, codes_paths)
    picks = data.draw(st.lists(st.integers(0, len(documents) - 1), max_size=10))
    subset = [documents[i] for i in picks]
    expected = {}  # (row, source) -> the file rows' instances, in file order
    for d, src, label, pos in files[0] + files[1]:
        expected.setdefault((d, src), []).append(CodeInstance(canonicalize_code(label), pos))
    for source in documents[0].codes:
        full = documents.matrix(source)
        taken = full.take(picks)
        assert [taken.instances(k) for k in range(len(picks))] == [
            d.instances(source) for d in subset
        ]
        assert [d.instances(source) for d in subset] == [
            tuple(expected.get((i, source), ())) for i in picks
        ]
        assert list(full.labels) == sorted(full.labels)


def test_take_missing_source_raises_like_the_walk(tmp_path):
    docs, codes, _ = _write_fixture(
        tmp_path,
        ['{"id": "d1", "text_length": 10}', '{"id": "d2", "text_length": 20}'],
        codes_rows=[("d2", "human", "x", "")],
    )
    documents, _ = load_collection(docs, codes)
    with pytest.raises(UnknownCoderSourceError) as err:
        documents[::-1].matrix("ai")
    assert str(err.value) == "document 'd2' has no codes from source 'ai'"


def test_replaced_length_leaves_the_shared_row(tmp_path):
    docs, codes, _ = _write_fixture(
        tmp_path, ['{"id": "d1", "text_length": 10}'], codes_rows=[("d1", "human", "x", "0.5")]
    )
    (loaded,), _ = load_collection(docs, codes)
    longer = dataclasses.replace(loaded, text_length=40)
    assert longer.codes == {"human": (CodeInstance("x", 0.5),)}
    assert collection([longer]).lengths.tolist() == [40]
    assert collection([loaded]).lengths.tolist() == [10]


# --- write_collection against the row-at-a-time writer -------------------

# every character csv.writer or json.dumps treats specially, plus non-ASCII text
_AWKWARD = st.text(
    st.sampled_from([",", '"', "\r", "\n", "\0", " ", "\\", "\t", "é", "字", "a", "B"])
    | st.characters(blacklist_categories=("Cs",)),
    max_size=6,
)


@st.composite
def _written_collections(draw):
    """A collection, its codebook and texts for some of its ids."""
    ids = draw(st.lists(_AWKWARD, max_size=6, unique=True))
    names = draw(st.lists(_AWKWARD, min_size=1, max_size=5, unique=True))
    sources = draw(st.lists(_AWKWARD, max_size=3, unique=True))
    instances = draw(st.lists(
        st.tuples(
            st.integers(0, max(len(sources) - 1, 0)),
            st.integers(0, max(len(ids) - 1, 0)),
            st.integers(0, len(names) - 1),
            st.none() | st.floats(0.0, 1.0),
        ),
        max_size=20 if ids and sources else 0,
    ))
    docs = Collection.intern(
        ids,
        draw(st.lists(st.integers(1, 2**53 - 1), min_size=len(ids), max_size=len(ids))),
        draw(st.lists(st.none() | _AWKWARD, min_size=len(ids), max_size=len(ids))),
        sources,
        tuple(zip(*instances)) if instances else ((),) * 4,
        names,
    )
    shown = draw(st.dictionaries(st.sampled_from(names), _AWKWARD))
    themed = draw(st.dictionaries(st.sampled_from(names), _AWKWARD)) if shown else {}
    theme_map = {cid: tid for cid, tid in themed.items() if cid in shown}
    themes = draw(st.dictionaries(st.sampled_from(sorted(set(theme_map.values())) or [""]),
                                  _AWKWARD))
    codebook = Codebook(shown, theme_map or None, themes or None)
    texts = {doc_id: draw(_AWKWARD) for doc_id in ids if draw(st.booleans())}
    return docs, codebook, texts


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_written_collections())
def test_write_collection_matches_row_writer_byte_for_byte(tmp_path, written):
    docs, codebook, texts = written
    paths = [tmp_path / name for name in ("d.jsonl", "c.csv", "t.csv")]
    expected = [tmp_path / f"ref-{name}" for name in ("d.jsonl", "c.csv", "t.csv")]
    for path in paths + expected:
        path.unlink(missing_ok=True)
    write_collection(docs, codebook, *paths, texts=texts)
    write_collection_rows(docs, codebook, *expected, texts=texts)
    for got, want in zip(paths, expected):
        assert got.exists() == want.exists()
        if want.exists():
            assert got.read_bytes() == want.read_bytes()


def test_write_collection_of_an_empty_collection(tmp_path):
    docs = Collection.intern((), (), (), ["human", "ai"], ((),) * 4, [])
    paths = [tmp_path / name for name in ("d.jsonl", "c.csv", "t.csv")]
    write_collection(docs, Codebook(), *paths)
    assert paths[0].read_bytes() == b""
    assert paths[1].read_bytes() == b"doc_id,coder_source,code_label,position\n"
    assert not paths[2].exists()


@pytest.mark.parametrize("where", ["id", "source", "text", "label", "coder source"])
def test_write_collection_refuses_a_lone_surrogate(tmp_path, where):
    bad = "x\ud800"
    docs = Collection.intern(
        [bad if where == "id" else "d"], [5], [bad if where == "source" else None],
        [bad if where == "coder source" else "human"], ([0], [0], [0], [0.5]),
        [bad if where == "label" else "a"],
    )
    texts = {docs.ids[0]: bad} if where == "text" else None
    for writer in (write_collection, write_collection_rows):
        with pytest.raises(UnicodeEncodeError):
            writer(docs, Codebook(), tmp_path / "d.jsonl", tmp_path / "c.csv", texts=texts)


# --- the cap on a collection's total length --------------------------------


def test_total_text_length_is_capped_at_2_to_the_53(tmp_path):
    """Below 2**53 every length and sum is exact in float64; the document at
    which the running total reaches it is refused with its line."""
    docs = tmp_path / "documents.jsonl"
    docs.write_text(
        f'{{"id": "a", "text_length": {2**52}}}\n{{"id": "b", "text_length": {2**52 - 1}}}\n',
        encoding="utf-8",
    )
    loaded, _ = load_collection(docs)
    assert loaded.lengths.sum() == 2**53 - 1
    docs.write_text(docs.read_text() + '{"id": "c", "text_length": 1}\n', encoding="utf-8")
    with pytest.raises(CollectionFormatError) as err:
        load_collection(docs)
    assert str(err.value).startswith(
        f"{docs}:3: document 'c': the total text_length reaches 2**53"
    )
