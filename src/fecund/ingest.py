"""File ingestion: document collections, code assignments, theme maps, passages.

On-disk formats (all strict UTF-8):
  documents.jsonl  one object per line: {"id", "text_length", "source", "text"?}
  codes.csv        doc_id, coder_source, code_label, position (optional float in [0,1])
  themes.csv       code_label, theme_label
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .corpus import Codebook, Collection
from .errors import (
    BlankCodeError,
    CollectionFormatError,
    DanglingReferenceError,
    DuplicateDocumentIdError,
)

_LINE_BREAK = re.compile(r"(\r\n|\r|\n)")  # grouped, so re.split keeps each break
_WS_RUN = re.compile(r"\s+")
_SPECIAL = re.compile(r'[,"\r\n]')  # a CSV cell holding one of these is quoted
_CODE_COLUMNS = ("doc_id", "coder_source", "code_label")
_CODES_HEADER = (*_CODE_COLUMNS, "position")  # codes.csv as written
# Documents and codes smaller than this are parsed every time. Measured in
# fresh processes (2-core x86-64, Python 3.11): a parse takes about 53 us per
# KiB, a hit 4-7 ms (3 ms of it importing hashlib) and a miss its parse plus
# about 7 ms. Hit and parse meet near 128 KiB; from 256 KiB one hit repays a miss.
_CACHE_FLOOR = 256 * 1024


@dataclass(frozen=True)
class RawArticle:
    """Full article text, before passage splitting."""

    id: str
    full_text: str


@dataclass(frozen=True)
class Passage:
    article_id: str
    index: int
    text: str
    char_span: tuple[int, int]

    def __post_init__(self):
        start, end = self.char_span
        if end <= start:
            raise ValueError("char_span must be non-empty")
        if len(self.text) != end - start:
            raise ValueError("text length disagrees with char_span")


def split_passages(article: RawArticle, min_len: int = 100) -> list[Passage]:
    """Split an article into line-break-delimited passages.

    Any of \\r\\n, \\r, or \\n counts as a single break. Segments shorter
    than ``min_len`` characters (Unicode scalar values, whitespace included)
    are dropped, as are empty segments. Spans index into the original text.
    """
    if min_len < 0:
        raise ValueError("min_len must be >= 0")
    text, floor = article.full_text, max(min_len, 1)
    if "\r" in text:  # segments and the breaks between them, alternating
        pieces = _LINE_BREAK.split(text)
        segments, gaps = pieces[::2], [len(b) for b in pieces[1::2]] + [0]
    else:  # every break is one \n
        segments, gaps = text.split("\n"), itertools.repeat(1)
    passages: list[Passage] = []
    pos = 0
    for segment, gap in zip(segments, gaps):
        end = pos + len(segment)
        if len(segment) >= floor:
            passages.append(Passage(article.id, len(passages), segment, (pos, end)))
        pos = end + gap
    return passages


def canonicalize_code(label: str) -> str:
    """Normalize a code label: trim, collapse whitespace runs, case-fold."""
    canonical = _WS_RUN.sub(" ", label.strip()).casefold()
    if not canonical:
        raise BlankCodeError(f"code label {label!r} canonicalizes to the empty string")
    return canonical


def load_articles(documents_path: str | Path) -> list[RawArticle]:
    """Read articles from documents.jsonl (see ``_read_documents``); text is required."""
    articles = []
    for lineno, doc_id, _, _, text in _read_documents(documents_path):
        if text is None:
            raise CollectionFormatError(
                f"document {doc_id!r} has no text", str(documents_path), lineno
            )
        articles.append(RawArticle(id=doc_id, full_text=text))
    return articles


def _read_jsonl(path: str | Path, data: bytes | None = None) -> Iterable[tuple[int, dict]]:
    """Each non-blank line's number and object; any of \\r\\n, \\r and \\n ends a line.
    ``data`` is the file's bytes when the caller has read them already."""
    lineno = 0
    with open(path, "rb") if data is None else io.BytesIO(data) as fh:
        for raw in fh:  # ends at \n; read as text, a lone \r splits it further
            text = _decode(raw, str(path), lineno)
            for line in io.StringIO(text, newline=None) if "\r" in text else (text,):
                lineno += 1
                if not line.strip():
                    continue
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise CollectionFormatError(f"invalid JSON: {exc}", str(path), lineno)
                if not isinstance(obj, dict):
                    raise CollectionFormatError("expected a JSON object", str(path), lineno)
                yield lineno, obj


def _read_documents(
    path: str | Path, data: bytes | None = None
) -> Iterator[tuple[int, str, int, str | None, str | None]]:
    """Each document as (line, id, text_length, source, text or None), once
    checked: a present, new, encodable string id, a string text, a positive
    text_length that agrees with it, and a running total below 2**53. A
    failure raises with file:line; ``data`` is as for ``_read_jsonl``."""
    path = str(path)
    seen: set[str] = set()
    total = 0
    for lineno, obj in _read_jsonl(path, data):
        doc_id = obj.get("id", "")
        if not isinstance(doc_id, str):
            raise CollectionFormatError(f"document id {doc_id!r} is not a string", path, lineno)
        if not doc_id:
            raise CollectionFormatError("missing document id", path, lineno)
        if not doc_id.isascii() and not _encodable(doc_id):
            raise CollectionFormatError(
                f"document id {doc_id!r} holds a lone surrogate, which no output can encode",
                path, lineno,
            )
        if doc_id in seen:
            raise DuplicateDocumentIdError(f"duplicate document id {doc_id!r}", path, lineno)
        seen.add(doc_id)
        text = obj.get("text")
        if text is not None and not isinstance(text, str):
            raise CollectionFormatError(f"document {doc_id!r}: text must be a string", path, lineno)
        length = obj.get("text_length")
        if length is None:
            if text is None:
                raise CollectionFormatError(
                    f"document {doc_id!r} has neither text_length nor text",
                    path,
                    lineno,
                )
            length = len(text)
        if not isinstance(length, int) or isinstance(length, bool) or length < 1:
            raise CollectionFormatError(
                f"document {doc_id!r}: text_length must be a positive integer",
                path,
                lineno,
            )
        total += length
        if total >= 2**53:
            raise CollectionFormatError(
                f"document {doc_id!r}: the total text_length reaches 2**53, the cap "
                "below which every length and sum is exact in float64", path, lineno
            )
        if text is not None and len(text) != length:
            raise CollectionFormatError(
                f"document {doc_id!r}: text_length {length} != len(text) {len(text)}",
                path,
                lineno,
            )
        yield lineno, doc_id, length, obj.get("source"), text


def _encodable(text: str) -> bool:
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _decode(data: bytes, path: str, lines_before: int = 0) -> str:
    """``data`` as text; bytes that are not UTF-8 raise with file:line."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = lines_before + len(_LINE_BREAK.findall(data[: exc.start].decode("utf-8"))) + 1
        raise CollectionFormatError(f"not UTF-8 text: {exc}", path, line) from None


def load_collection(
    documents_path: str | Path,
    codes_path: str | Path | Sequence[str | Path] | None = None,
    themes_path: str | Path | None = None,
) -> tuple[Collection, Codebook]:
    """Load and validate a document collection.

    Returns the documents in file order, as a ``Collection``, plus the
    codebook of every code seen.
    ``codes_path`` may be a list of files to merge (e.g. human plus AI
    codes). Duplicate document ids, dangling references, and malformed
    rows raise with the offending file and line number: in each file, in
    the order given, the earliest failing record. Every returned
    document carries an entry (possibly empty) for every coder source
    present in the code files.

    The documents and code files are read once, as bytes. From
    ``_CACHE_FLOOR`` bytes on, their parse is kept in ``.fecund-cache/``
    beside the documents, keyed by content (README, "The collection cache").
    """
    codes_paths = [codes_path] if isinstance(codes_path, (str, Path)) else list(codes_path or ())
    paths = [str(documents_path), *map(str, codes_paths)]
    try:
        data = [Path(path).read_bytes() for path in paths]
    except OSError:  # the parse opens each file in turn, so errors keep the files' order
        data = [None] * len(paths)
    key = cached = None
    if None not in data and sum(map(len, data)) >= _CACHE_FLOOR:
        from . import _cache  # compiled only by the loads that can use it

        cache = Path(paths[0]).parent / ".fecund-cache"
        key = _cache.key(data)
        cached = _cache.read(cache / key)
    documents, entries = cached or _parse_collection(paths, data)

    theme_map: dict[str, str] | None = None
    themes: dict[str, str] | None = None
    if themes_path is not None:
        theme_map, themes = {}, {}
        rows = _read_csv(themes_path, ("code_label", "theme_label"))
        for lineno, (code_label, theme_label) in rows:
            try:
                cid = canonicalize_code(code_label)
                tid = canonicalize_code(theme_label)
            except BlankCodeError as exc:
                raise CollectionFormatError(str(exc), str(themes_path), lineno)
            if cid not in entries:
                raise DanglingReferenceError(
                    f"theme map references unknown code {code_label!r}", str(themes_path), lineno
                )
            theme_map[cid] = tid
            themes.setdefault(tid, theme_label.strip())

    if key is not None and cached is None:
        _cache.write(cache, key, documents, entries)
    return documents, Codebook(entries=entries, theme_map=theme_map, themes=themes)


def _parse_collection(paths: list[str], data: list) -> tuple[Collection, dict[str, str]]:
    """The documents (``paths[0]``) and the codes of the other files, parsed
    from their ``data`` (None: read the file), plus the codebook entries."""
    row_of: dict[str, int] = {}  # document id -> row, in file order
    lengths: list[int] = []
    source_labels: list[str | None] = []
    for _, doc_id, length, source, _ in _read_documents(paths[0], data[0]):
        row_of[doc_id] = len(lengths)
        lengths.append(length)
        source_labels.append(source)

    entries: dict[str, str] = {}
    names: dict[str, int] = {}  # canonical id -> label id, in first-seen order
    label_of: dict[str, int] = {}  # raw label -> label id, filled on first sight
    source_of: dict[str, int] = {}  # coder source -> index, in first-seen order
    parts = []  # per file: source index, document row, label id and position columns
    for path, content in zip(paths[1:], data[1:]):
        (doc_ids, sources, labels, raw_positions), line_of = _read_columns(
            path, _CODE_COLUMNS, ("position",), content
        )
        n = len(doc_ids)
        rows = list(map(row_of.get, doc_ids))
        blank_label, blank_error = n, None
        for raw in dict.fromkeys(labels):  # first-seen order
            if not raw or raw in label_of:  # a blank value fails its own check
                continue
            try:
                cid = canonicalize_code(raw)
            except BlankCodeError as exc:
                if blank_error is None:
                    blank_label, blank_error = labels.index(raw), exc
                continue
            label_of[raw] = names.setdefault(cid, len(names))
            entries.setdefault(cid, raw.strip())
        positions, bad, outside = _parse_positions(raw_positions)
        # the earliest failing record raises; on one record, checks go in this order
        k, check = min(
            (_first_blank((doc_ids, sources, labels)), 0),
            (rows.index(None) if None in rows else n, 1),
            (blank_label, 2),
            (bad, 3),
            (outside, 4),
        )
        if k < n:
            line = line_of(k)
            if check == 0:
                raise CollectionFormatError(_blank_message(_CODE_COLUMNS), path, line)
            if check == 1:
                raise DanglingReferenceError(
                    f"code row references unknown document {doc_ids[k]!r}", path, line
                )
            if check == 2:
                raise CollectionFormatError(str(blank_error), path, line)
            if check == 3:
                raise CollectionFormatError(f"bad position {raw_positions[k]!r}", path, line)
            raise CollectionFormatError(
                f"position {float(positions[k])} outside [0, 1]", path, line
            )
        for source in dict.fromkeys(sources):
            source_of.setdefault(source, len(source_of))
        parts.append((
            np.fromiter(map(source_of.__getitem__, sources), np.int64, n),
            np.array(rows, dtype=np.int64),
            np.fromiter(map(label_of.__getitem__, labels), np.int64, n),
            positions,
        ))

    columns = tuple(map(np.concatenate, zip(*parts))) if parts else ((),) * 4
    documents = Collection.intern(
        list(row_of), lengths, source_labels, list(source_of), columns, list(names)
    )
    return documents, entries


def _first_blank(columns: Sequence[Sequence[str | None]]) -> int:
    """The first record with an empty or missing value in any of ``columns``
    (the record count when there is none)."""
    first = len(columns[0])
    for column in columns:
        if not all(column):
            first = min(first, next(k for k, value in enumerate(column) if not value))
    return first


def _blank_message(required: tuple[str, ...]) -> str:
    return f"blank value in required column(s) {required}"


def _parse_positions(column: Sequence[str | None]) -> tuple[np.ndarray, int, int]:
    """The ``position`` column as floats (NaN where blank), the first record
    whose position is not a number and the first whose number lies outside
    [0, 1] (each the record count when there is none)."""
    n = len(column)
    try:  # every record gives a position, as synth and code write them
        values = np.fromiter(map(float, column), np.float64, n)
        given = True
        bad = n
    except (TypeError, ValueError):
        parsed, flags, bad = [], [], n
        for k, raw in enumerate(column):
            try:
                parsed.append(float(raw) if raw else math.nan)
            except ValueError:
                bad = k
                break
            flags.append(bool(raw))
        values, given = np.array(parsed, dtype=np.float64), np.array(flags, dtype=bool)
    outside = np.flatnonzero(~((values >= 0.0) & (values <= 1.0)) & given)
    return values, bad, int(outside[0]) if len(outside) else n


def _read_columns(
    path: str | Path, required: tuple[str, ...], optional: tuple[str, ...] = (),
    data: bytes | None = None,
) -> tuple[list[list[str | None]], Callable[[int], int]]:
    """The values of the ``required`` then the ``optional`` columns of a CSV
    file, one list per column over its non-blank records, and ``line_of(k)``,
    the line on which record ``k`` ends.

    A value is None where a record is short or the header lacks an optional
    column; a name repeated in the header means its last column, as with
    ``csv.DictReader``. A file ``_uniform_records`` accepts is cut by one
    ``str.split``, each column a stride of the fields, and record ``k`` ends
    on line ``k + 2``; any other file goes through ``csv.reader``, which
    alone can read quoted fields. A missing required column, text that is
    not UTF-8 or a record ``csv.reader`` rejects raises
    ``CollectionFormatError`` with file:line. ``data`` is the file's bytes
    when the caller has read them already.
    """
    path = str(path)
    data = Path(path).read_bytes() if data is None else data
    text = _decode(data, path)
    fields = None
    n = _uniform_records(data)
    if n is not None:
        first, _, body = text.partition("\n")
        header = first.split(",")
        fields = body.rstrip("\n").replace("\n", ",").split(",") if n else []
    else:
        reader = csv.reader(io.StringIO(text, newline=""))
        records: list[list[str]] = []
        lines: list[int] = []
        try:
            header = next(reader, None)
            for record in reader:
                if record:
                    records.append(record)
                    lines.append(reader.line_num)
        except csv.Error as exc:
            raise CollectionFormatError(f"unreadable CSV: {exc}", path, reader.line_num) from None
        n = len(records)
    if header is None:
        raise CollectionFormatError("empty file", path)
    column = {name: i for i, name in enumerate(header)}
    missing = [c for c in required if c not in column]
    if missing:
        raise CollectionFormatError(f"missing column(s) {missing}", path, 1)
    wanted = [column.get(c) for c in required + optional]
    if fields is not None:
        columns = [[None] * n if i is None else fields[i :: len(header)] for i in wanted]
        return columns, lambda k: k + 2
    columns = [
        [None] * n if i is None else [r[i] if i < len(r) else None for r in records]
        for i in wanted
    ]
    return columns, lines.__getitem__


def _uniform_records(data: bytes) -> int | None:
    """The number of records after the header when ``data`` splits on commas
    and line feeds exactly as ``csv.reader`` reads it: no quote, no carriage
    return, no blank line, every line as many commas as the header and none
    longer than ``csv.field_size_limit()``. None for any other file."""
    if not data or b'"' in data or b"\r" in data:
        return None
    octets = np.frombuffer(data, dtype=np.uint8)
    ends = np.flatnonzero(octets == ord("\n"))
    if not data.endswith(b"\n"):
        ends = np.append(ends, len(data))
    commas = np.diff(np.searchsorted(np.flatnonzero(octets == ord(",")), ends), prepend=0)
    sizes = np.diff(ends, prepend=-1) - 1  # in bytes, never fewer than characters
    if (commas != commas[0]).any() or sizes.min() == 0 or sizes.max() > csv.field_size_limit():
        return None
    return len(ends) - 1


def _read_csv(
    path: str | Path, required: tuple[str, ...], optional: tuple[str, ...] = ()
) -> Iterator[tuple[int, tuple[str | None, ...]]]:
    """Each non-blank record's line number and its values of the ``required``
    then the ``optional`` columns, read by ``_read_columns``. A blank
    required value raises with file:line when its record is reached."""
    columns, line_of = _read_columns(path, required, optional)
    blank = _first_blank(columns[: len(required)])
    for k, values in enumerate(zip(*columns)):
        if k == blank:
            raise CollectionFormatError(_blank_message(required), str(path), line_of(k))
        yield line_of(k), values


def _write_csv(path: str | Path, header: Sequence[str], columns: Sequence[Sequence[str]]) -> None:
    """Write a CSV file from columns of text cells: rows end in \\n, and a cell
    holding a comma, a double quote, \\r or \\n is quoted with its quotes
    doubled (RFC 4180, a bare \\r included), so every cell reads back.
    Quoting is decided once per column; rows are joined 256 at a time, so a
    large file adds little peak memory."""
    rows = map(",".join, zip(*map(_quoted, columns)))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(_quoted(header)) + "\n")
        while block := list(itertools.islice(rows, 256)):
            fh.write("\n".join(block) + "\n")


def _quoted(cells: Sequence[str]) -> Sequence[str]:
    """``cells``, each quoted where ``_write_csv`` must quote it."""
    joined = "\0".join(cells)  # NUL is not special; four `in` scans beat one regex scan
    if not any(char in joined for char in ',"\r\n'):
        return cells
    return ['"' + c.replace('"', '""') + '"' if _SPECIAL.search(c) else c for c in cells]


def write_collection(
    documents: Collection,
    codebook: Codebook,
    documents_path: str | Path,
    codes_path: str | Path | None = None,
    themes_path: str | Path | None = None,
    texts: dict[str, str] | None = None,
) -> None:
    """Write a collection back out in the ingest formats (lossless round trip)."""
    documents = Collection.of(documents)
    encode = json.JSONEncoder(ensure_ascii=False).encode  # as json.dumps(..., ensure_ascii=False)
    texts = texts or {}
    lines = []
    for doc_id, length, label in zip(
        documents.ids, documents.lengths.tolist(), documents.source_labels
    ):
        line = f'{{"id": {encode(doc_id)}, "text_length": {length}, "source": {encode(label)}'
        text = f', "text": {encode(texts[doc_id])}' if doc_id in texts else ""
        lines.append(f"{line}{text}}}\n")
    with open(documents_path, "w", encoding="utf-8", newline="") as fh:
        fh.write("".join(lines))
    if codes_path is not None:
        rows, sources, labels, positions = [np.zeros(0, dtype=np.int64)], [], [], []
        for source in sorted(documents.matrices):
            m = documents.matrices[source]
            names = [codebook.entries.get(label, label) for label in m.labels]
            rows.append(m.doc_index())
            sources += [source] * len(m.codes)
            labels += map(names.__getitem__, m.codes.tolist())
            positions += ["" if p != p else repr(p) for p in m.positions.tolist()]  # NaN: blank
        # by document, then by sorted source, then in instance order
        rows = np.concatenate(rows)
        order = np.argsort(rows, kind="stable").tolist()
        columns = [list(map(c.__getitem__, order)) for c in (sources, labels, positions)]
        ids = list(map(documents.ids.__getitem__, rows[order].tolist()))
        _write_csv(codes_path, _CODES_HEADER, [ids, *columns])
    if themes_path is not None and codebook.theme_map:
        cids = sorted(codebook.theme_map)
        tids = map(codebook.theme_map.__getitem__, cids)
        themes = codebook.themes or {}
        _write_csv(themes_path, ("code_label", "theme_label"),
                   [[codebook.entries.get(c, c) for c in cids], [themes.get(t, t) for t in tids]])
