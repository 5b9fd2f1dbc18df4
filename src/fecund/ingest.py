"""File ingestion: document collections, code assignments, theme maps, passages.

On-disk formats (all strict UTF-8):
  documents.jsonl  one object per line: {"id", "text_length", "source", "text"?}
  codes.csv        doc_id, coder_source, code_label, position (optional float in [0,1])
  themes.csv       code_label, theme_label
"""

from __future__ import annotations

import csv
import json
import re
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .corpus import Codebook, CodeMatrix, Document, _StoredCodes
from .errors import (
    BlankCodeError,
    CollectionFormatError,
    DanglingReferenceError,
    DuplicateDocumentIdError,
)

_LINE_BREAK = re.compile(r"\r\n|\r|\n")
_WS_RUN = re.compile(r"\s+")


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
) -> tuple[list[Document], Codebook]:
    """Load and validate a document collection.

    Returns documents in file order plus the codebook of every code seen.
    ``codes_path`` may be a list of files to merge (e.g. human plus AI
    codes). Duplicate document ids, dangling references, and malformed
    rows raise with the offending file and line number. Every returned
    document carries an entry (possibly empty) for every coder source
    present in the code files.
    """
    row_of: dict[str, int] = {}  # document id -> row, in file order
    lengths: list[int] = []
    source_labels: list[str | None] = []
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
    canonical: dict[str, str] = {}  # raw label -> canonical id, filled on first sight
    # coder source -> (document row, canonical id, position) of each code row
    found: dict[str, list[tuple[int, str, float | None]]] = {}
    codes_paths = [codes_path] if isinstance(codes_path, (str, Path)) else list(codes_path or ())
    for path in map(str, codes_paths):
        records = _read_csv(path, ("doc_id", "coder_source", "code_label"), ("position",))
        for lineno, (doc_id, source, label, raw_position) in records:
            row = row_of.get(doc_id)
            if row is None:
                raise DanglingReferenceError(
                    f"code row references unknown document {doc_id!r}", path, lineno
                )
            cid = canonical.get(label)
            if cid is None:
                try:
                    cid = canonicalize_code(label)
                except BlankCodeError as exc:
                    raise CollectionFormatError(str(exc), path, lineno)
                canonical[label] = cid
                entries.setdefault(cid, label.strip())
            position = None
            if raw_position:
                try:
                    position = float(raw_position)
                except ValueError:
                    raise CollectionFormatError(f"bad position {raw_position!r}", path, lineno)
                if not 0.0 <= position <= 1.0:
                    raise CollectionFormatError(f"position {position} outside [0, 1]", path, lineno)
            found.setdefault(source, []).append((row, cid, position))

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

    store = {source: CodeMatrix.intern(rows, lengths) for source, rows in found.items()}
    documents = [
        Document(doc_id, lengths[row], source_labels[row], _StoredCodes(store, lengths, row))
        for doc_id, row in row_of.items()
    ]
    return documents, Codebook(entries=entries, theme_map=theme_map, themes=themes)


def _read_csv(
    path: str | Path, required: tuple[str, ...], optional: tuple[str, ...] = ()
) -> Iterator[tuple[int, list[str | None]]]:
    """Each non-blank row's line number and its values of the ``required``
    then the ``optional`` columns (None for a column the header or a short
    row lacks). A missing required column or value raises with file:line.
    """
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise CollectionFormatError("empty file", str(path))
        # a name repeated in the header means its last column, as with csv.DictReader
        column = {name: i for i, name in enumerate(header)}
        missing = [c for c in required if c not in column]
        if missing:
            raise CollectionFormatError(f"missing column(s) {missing}", str(path), 1)
        wanted = [column.get(c, sys.maxsize) for c in required + optional]
        width = max(wanted)
        for fields in reader:
            if not fields:
                continue
            if len(fields) > width:
                values = [fields[i] for i in wanted]
            else:
                values = [fields[i] if i < len(fields) else None for i in wanted]
            if not all(values[: len(required)]):
                raise CollectionFormatError(
                    f"blank value in required column(s) {required}", str(path), reader.line_num
                )
            yield reader.line_num, values


def write_collection(
    documents: list[Document],
    codebook: Codebook,
    documents_path: str | Path,
    codes_path: str | Path | None = None,
    themes_path: str | Path | None = None,
    texts: dict[str, str] | None = None,
) -> None:
    """Write a collection back out in the ingest formats (lossless round trip)."""
    with open(documents_path, "w", encoding="utf-8", newline="") as fh:
        for doc in documents:
            obj: dict = {"id": doc.id, "text_length": doc.text_length, "source": doc.source_label}
            if texts and doc.id in texts:
                obj["text"] = texts[doc.id]
            fh.write(json.dumps(obj, ensure_ascii=False) + "\n")
    if codes_path is not None:
        with open(codes_path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["doc_id", "coder_source", "code_label", "position"])
            for doc in documents:
                for source in sorted(doc.codes):
                    for inst in doc.codes[source]:
                        label = codebook.entries.get(inst.code_id, inst.code_id)
                        pos = "" if inst.position is None else repr(inst.position)
                        writer.writerow([doc.id, source, label, pos])
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
