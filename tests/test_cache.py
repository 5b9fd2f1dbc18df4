"""The collection cache: a load of bytes seen before rebuilds the parse from
``.fecund-cache`` beside the documents, and equals a fresh parse."""

import csv
import io
import json
import os
from pathlib import Path

import numpy as np
import pytest
from conftest import run_python
from hypothesis import HealthCheck, given, settings, strategies as st

from fecund import ingest
from fecund.errors import DanglingReferenceError
from fecund.ingest import load_collection, write_collection
from fecund.synthetic import synth_corpus


_PARSE = ingest._parse_collection


@pytest.fixture()
def parses(monkeypatch):
    """Every load caches; the list counts the calls of the parser."""
    monkeypatch.setattr(ingest, "_CACHE_FLOOR", 0)
    calls = []
    monkeypatch.setattr(ingest, "_parse_collection", lambda *a: calls.append(a) or _PARSE(*a))
    return calls


def _fresh(*paths):
    """A parse that never touches the cache, nor counts as a call."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ingest, "_CACHE_FLOOR", float("inf"))
        patch.setattr(ingest, "_parse_collection", _PARSE)
        return load_collection(*paths)


def _assert_same(got, want):
    """Equal column by column, positions bit by bit, codebooks in order."""
    (docs, book), (ref, ref_book) = got, want
    assert docs.ids == ref.ids
    assert docs.lengths.dtype == ref.lengths.dtype
    assert docs.lengths.tolist() == ref.lengths.tolist()
    assert json.dumps(docs.source_labels) == json.dumps(ref.source_labels)  # NaN, -0.0, types
    assert list(docs.matrices) == list(ref.matrices)
    for source, m in ref.matrices.items():
        c = docs.matrices[source]
        assert c.labels == m.labels
        for a, b in ((c.offsets, m.offsets), (c.codes, m.codes), (c.positions, m.positions)):
            assert a.dtype == b.dtype
            assert a.tobytes() == b.tobytes()
    assert list(book.entries.items()) == list(ref_book.entries.items())
    assert book.theme_map == ref_book.theme_map
    assert book.themes == ref_book.themes


def _entries(directory):
    cache = directory / ".fecund-cache"
    return sorted(p.name for p in cache.iterdir()) if cache.exists() else []


def _corpus(directory, seed=3, n_docs=40):
    documents, codebook = synth_corpus(n_docs, n_codes=30, seed=seed, n_themes=4)
    directory.mkdir(exist_ok=True)
    paths = directory / "documents.jsonl", directory / "codes.csv", directory / "themes.csv"
    write_collection(documents, codebook, *paths)
    return paths


# --- a cached load equals a fresh parse ---------------------------------------

_CHARS = st.sampled_from(["\0", "é", "字", ",", '"', "\r", "\n", " ", "a", "B"])
# lone surrogates escape in JSON; a CSV file, which must be UTF-8, cannot hold them
_SURROGATES = st.sampled_from(["\ud800", "\udfff"])
_TEXT = st.text(_CHARS | _SURROGATES | st.characters(), max_size=5)
_CSV_TEXT = st.text(_CHARS | st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=5)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_TEXT, inner, max_size=3),
    max_leaves=5,
)


def _encodable(value: str) -> bool:
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


@st.composite
def _inputs(draw):
    """documents.jsonl and zero to three code files, as bytes."""
    # an id holding a lone surrogate fails the load (no output could encode it)
    ids = draw(st.lists(_CSV_TEXT, max_size=6, unique=True))
    lines = []
    for doc_id in ids:
        obj = {"id": doc_id, "text_length": draw(st.integers(1, 10**6)), "source": draw(_JSON)}
        line = json.dumps(obj, ensure_ascii=draw(st.booleans()))
        lines.append(line if _encodable(line) else json.dumps(obj))
    sources = draw(st.lists(_CSV_TEXT, max_size=3, unique=True))
    files = []
    for _ in range(draw(st.integers(0, 3))):  # a file may hold the header alone
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\r\n")  # quotes \r and \n
        writer.writerow(["doc_id", "coder_source", "code_label", "position"])
        for _ in range(draw(st.integers(0, 6)) if ids and sources else 0):
            position = draw(st.none() | st.floats(0.0, 1.0))
            writer.writerow([
                draw(st.sampled_from(ids)), draw(st.sampled_from(sources)),
                draw(_CSV_TEXT.filter(str.strip)), "" if position is None else repr(position),
            ])
        files.append(buffer.getvalue().encode("utf-8"))
    return "".join(line + "\n" for line in lines).encode("utf-8"), files


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_inputs())
def test_a_cached_load_equals_a_fresh_parse(tmp_path_factory, parses, inputs):
    root = tmp_path_factory.mktemp("cache")
    docs, files = inputs
    paths = [root / "documents.jsonl"] + [root / f"codes{i}.csv" for i in range(len(files))]
    for path, data in zip(paths, [docs, *files]):
        path.write_bytes(data)
    want, before = _fresh(paths[0], paths[1:]), len(parses)  # the list spans examples
    _assert_same(load_collection(paths[0], paths[1:]), want)
    assert len(parses) == before + 1 and len(_entries(root)) == 1
    _assert_same(load_collection(paths[0], paths[1:]), want)
    assert len(parses) == before + 1


def test_a_second_load_never_parses_and_themes_are_read_each_time(tmp_path, parses):
    docs, codes, themes = _corpus(tmp_path)
    want = _fresh(docs, codes, themes)
    for _ in range(3):
        _assert_same(load_collection(docs, codes, themes), want)
    assert len(parses) == 1
    themes.write_text("code_label,theme_label\n", encoding="utf-8")
    _, book = load_collection(docs, codes, themes)
    assert book.theme_map == {} and len(parses) == 1


# --- misses -----------------------------------------------------------------


@pytest.mark.parametrize("which", [0, 1])
def test_a_one_byte_edit_misses(tmp_path, parses, which):
    paths = _corpus(tmp_path)[:2]
    load_collection(*paths)
    data = bytearray(paths[which].read_bytes())
    if which == 0:  # a space in JSON becomes a tab: the same parse from other bytes
        data[data.index(b" ")] = ord("\t")
    else:  # the last digit of the first position
        end = data.index(b"\n", data.index(b"\n") + 1)
        data[end - 1] = ord("1") if data[end - 1] != ord("1") else ord("2")
    paths[which].write_bytes(bytes(data))
    _assert_same(load_collection(*paths), _fresh(*paths))
    assert len(parses) == 2 and len(_entries(tmp_path)) == 2


def _npy(array):
    buffer = io.BytesIO()
    np.save(buffer, array)
    return buffer.getvalue()


def _spoil(path, kind):
    """Overwrite the cache entry at ``path`` with a bad one of ``kind``."""
    good = path.read_bytes()
    second = good.index(b"\x93NUMPY", 1)  # the lengths record, between the strings
    third = good.index(b"\x93NUMPY", second + 1)  # and the first code matrix
    lengths = np.load(io.BytesIO(good[second:third]))
    path.write_bytes({
        "truncated": good[: len(good) // 2],
        "cut-between-records": good[: good.rindex(b"\x93NUMPY")],
        "garbage": bytes(range(256)) * 4,
        "empty": b"",
        "pickled": good[:second] + _npy(lengths.astype(object)) + good[third:],
        "float-lengths": good[:second] + _npy(lengths.astype(np.float64)) + good[third:],
        "two-dimensional": good[:second] + _npy(lengths[:, None]) + good[third:],
    }[kind])


@pytest.mark.parametrize("kind", [
    "truncated", "cut-between-records", "garbage", "empty", "pickled", "float-lengths",
    "two-dimensional",
])
def test_a_bad_entry_falls_back_to_parsing(tmp_path, parses, kind):
    paths = _corpus(tmp_path)
    load_collection(*paths)
    (entry,) = (tmp_path / ".fecund-cache").iterdir()
    _spoil(entry, kind)
    _assert_same(load_collection(*paths), _fresh(*paths))
    assert len(parses) == 2
    _assert_same(load_collection(*paths), _fresh(*paths))  # the entry was written again
    assert len(parses) == 2


def test_a_read_only_directory_loads_uncached(tmp_path, parses, monkeypatch):
    paths = _corpus(tmp_path)
    tmp_path.chmod(0o555)
    try:
        if os.geteuid() == 0:  # permissions do not bind root: fail as they would
            def refuse(*args, **kwargs):
                raise PermissionError(13, "Permission denied")

            monkeypatch.setattr(Path, "mkdir", refuse)
        for _ in range(2):
            _assert_same(load_collection(*paths), _fresh(*paths))
    finally:
        tmp_path.chmod(0o755)
    assert len(parses) == 2
    assert not (tmp_path / ".fecund-cache").exists()


def test_a_load_that_fails_on_its_themes_writes_no_entry(tmp_path, parses):
    docs, codes, themes = _corpus(tmp_path)
    themes.write_text("code_label,theme_label\nno such code,t\n", encoding="utf-8")
    with pytest.raises(DanglingReferenceError):
        load_collection(docs, codes, themes)
    assert _entries(tmp_path) == []


def test_inputs_below_the_floor_are_never_cached(tmp_path):
    paths = _corpus(tmp_path)
    assert sum(p.stat().st_size for p in paths[:2]) < ingest._CACHE_FLOOR
    load_collection(*paths)
    load_collection(*paths)
    assert _entries(tmp_path) == []


# --- entries ----------------------------------------------------------------


def test_at_most_eight_entries_the_oldest_dropped_first(tmp_path, parses):
    docs, codes, _ = _corpus(tmp_path)
    names = []
    for i in range(10):
        variant = tmp_path / f"codes{i}.csv"
        variant.write_bytes(codes.read_bytes() + b"\n" * (i + 1))  # blank lines: new bytes
        load_collection(docs, variant)
        (name,) = set(_entries(tmp_path)) - set(names)
        names.append(name)
        os.utime(tmp_path / ".fecund-cache" / name, ns=(i * 10**9, i * 10**9))
    assert _entries(tmp_path) == sorted(names[2:])


def test_two_cold_runs_write_identical_entries(tmp_path):
    script = (
        "import sys\nfrom fecund import ingest\ningest._CACHE_FLOOR = 0\n"
        "ingest.load_collection(sys.argv[1], [sys.argv[2]], sys.argv[3])\n"
    )
    written = []
    for run in ("a", "b"):
        paths = _corpus(tmp_path / run)
        result = run_python(script, *paths)
        assert result.returncode == 0, result.stderr
        cache = tmp_path / run / ".fecund-cache"
        written.append({p.name: p.read_bytes() for p in cache.iterdir()})
    assert len(written[0]) == 1
    assert written[0] == written[1]
