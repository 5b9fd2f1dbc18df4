"""File ingestion: document collections, code assignments, theme maps, passages.

On-disk formats (all strict UTF-8):
  documents.jsonl  one object per line: {"id", "text_length", "source", "text"?}
  codes.csv        doc_id, coder_source, code_label, position (optional float in [0,1])
  themes.csv       code_label, theme_label
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
import types
from collections import Counter
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

_LINE_BREAK = re.compile(r"\r\n|\r|\n")
_WS_RUN = re.compile(r"\s+")
_CODE_COLUMNS = ("doc_id", "coder_source", "code_label")


@dataclass(frozen=True)
class RawArticle:
    """Full article text, before passage splitting."""

    id: str
    full_text: str
    source_label: str | None = None


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
    passages: list[Passage] = []
    pos = 0
    text = article.full_text
    for match in list(_LINE_BREAK.finditer(text)) + [None]:
        end = match.start() if match is not None else len(text)
        segment = text[pos:end]
        if len(segment) >= max(min_len, 1):
            passages.append(
                Passage(
                    article_id=article.id,
                    index=len(passages),
                    text=segment,
                    char_span=(pos, end),
                )
            )
        pos = match.end() if match is not None else end
    return passages


def canonicalize_code(label: str) -> str:
    """Normalize a code label: trim, collapse whitespace runs, case-fold."""
    canonical = _WS_RUN.sub(" ", label.strip()).casefold()
    if not canonical:
        raise BlankCodeError(f"code label {label!r} canonicalizes to the empty string")
    return canonical


def load_articles(documents_path: str | Path) -> list[RawArticle]:
    """Read articles (id + full text) from documents.jsonl; text is required."""
    articles = []
    for lineno, obj in _read_jsonl(documents_path):
        if "text" not in obj or not isinstance(obj["text"], str):
            raise CollectionFormatError(
                f"document {obj.get('id')!r} has no text", str(documents_path), lineno
            )
        articles.append(
            RawArticle(
                id=str(obj["id"]),
                full_text=obj["text"],
                source_label=obj.get("source"),
            )
        )
    dupes = [i for i, n in Counter(a.id for a in articles).items() if n > 1]
    if dupes:
        raise DuplicateDocumentIdError(
            f"duplicate article id(s): {sorted(dupes)}", str(documents_path)
        )
    return articles


def _read_jsonl(path: str | Path) -> Iterable[tuple[int, dict]]:
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
            yield lineno, obj


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
    """
    row_of: dict[str, int] = {}  # document id -> row, in file order
    lengths: list[int] = []
    source_labels: list[str | None] = []
    total = 0
    for lineno, obj in _read_jsonl(documents_path):
        if "id" not in obj or not str(obj["id"]):
            raise CollectionFormatError("missing document id", str(documents_path), lineno)
        doc_id = str(obj["id"])
        if doc_id in row_of:
            raise DuplicateDocumentIdError(
                f"duplicate document id {doc_id!r}", str(documents_path), lineno
            )
        text = obj.get("text")
        length = obj.get("text_length")
        if length is None:
            if text is None:
                raise CollectionFormatError(
                    f"document {doc_id!r} has neither text_length nor text",
                    str(documents_path),
                    lineno,
                )
            length = len(text)
        if not isinstance(length, int) or isinstance(length, bool) or length < 1:
            raise CollectionFormatError(
                f"document {doc_id!r}: text_length must be a positive integer",
                str(documents_path),
                lineno,
            )
        total += length
        if total >= 2**53:
            raise CollectionFormatError(
                f"document {doc_id!r}: the total text_length reaches 2**53, the cap "
                "below which every length and sum is exact in float64", str(documents_path), lineno
            )
        if text is not None and len(text) != length:
            raise CollectionFormatError(
                f"document {doc_id!r}: text_length {length} != len(text) {len(text)}",
                str(documents_path),
                lineno,
            )
        row_of[doc_id] = len(lengths)
        lengths.append(length)
        source_labels.append(obj.get("source"))

    entries: dict[str, str] = {}
    names: dict[str, int] = {}  # canonical id -> label id, in first-seen order
    label_of: dict[str, int] = {}  # raw label -> label id, filled on first sight
    source_of: dict[str, int] = {}  # coder source -> index, in first-seen order
    parts = []  # per file: source index, document row, label id and position columns
    codes_paths = [codes_path] if isinstance(codes_path, (str, Path)) else list(codes_path or ())
    for path in map(str, codes_paths):
        (doc_ids, sources, labels, raw_positions), line_of = _read_columns(
            path, _CODE_COLUMNS, ("position",)
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

    columns = tuple(map(np.concatenate, zip(*parts))) if parts else ((),) * 4
    documents = Collection.intern(
        list(row_of), lengths, source_labels, list(source_of), columns, list(names)
    )
    return documents, Codebook(entries=entries, theme_map=theme_map, themes=themes)


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
    path: str | Path, required: tuple[str, ...], optional: tuple[str, ...] = ()
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
    ``CollectionFormatError`` with file:line.
    """
    path = str(path)
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len(_LINE_BREAK.findall(data[: exc.start].decode("utf-8"))) + 1
        raise CollectionFormatError(f"not UTF-8 text: {exc}", path, line) from None
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
        # writerow returns what its file's write returns: here, the row itself
        row = csv.writer(types.SimpleNamespace(write=str), lineterminator="\n").writerow

        def field(value) -> str:  # quoted as csv.writer quotes it within a row
            return row((value, ""))[:-2]  # less the empty second field and "\n"

        rows, cells = [np.zeros(0, dtype=np.int64)], []
        for source in sorted(documents.matrices):
            m = documents.matrices[source]
            head = field(source) + ","
            labels = [head + field(codebook.entries.get(label, label)) + "," for label in m.labels]
            rows.append(m.doc_index())
            cells += map(
                str.__add__,
                map(labels.__getitem__, m.codes.tolist()),
                ["" if p != p else repr(p) for p in m.positions.tolist()],  # NaN: no position
            )
        # by document, then by sorted source, then in instance order
        rows = np.concatenate(rows)
        order = np.argsort(rows, kind="stable")
        ids = [field(doc_id) + "," for doc_id in documents.ids]
        body = map(str.__add__, map(ids.__getitem__, rows[order].tolist()),
                   map(cells.__getitem__, order.tolist()))
        with open(codes_path, "w", encoding="utf-8", newline="") as fh:
            fh.write("\n".join(["doc_id,coder_source,code_label,position", *body, ""]))
    if themes_path is not None and codebook.theme_map:
        with open(themes_path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["code_label", "theme_label"])
            for cid in sorted(codebook.theme_map):
                tid = codebook.theme_map[cid]
                writer.writerow(
                    [
                        codebook.entries.get(cid, cid),
                        (codebook.themes or {}).get(tid, tid),
                    ]
                )
