"""The collection cache behind ``ingest.load_collection``: a parse kept on
disk under a key made from its inputs, rebuilt without parsing.

An entry is a sequence of ``np.save`` records in one file: the string
columns as one ASCII JSON record (so lone surrogates survive), then the
lengths and, for each coder source, its offsets, codes and positions. Only
``ingest`` imports this module, and only for inputs above its size floor.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from .corpus import CodeMatrix, Collection

ENTRIES = 8  # per cache directory; the oldest go first


def key(data: list[bytes]) -> str:
    """sha256 of what a parse depends on: the Python version, the CSV field
    limit, the source of the loader (ingest.py, corpus.py and this module),
    then each input's bytes in order."""
    digest = hashlib.sha256(f"{sys.version}\0{csv.field_size_limit()}".encode())
    here = Path(__file__)
    sources = [here.with_name(name).read_bytes() for name in ("ingest.py", "corpus.py", here.name)]
    for part in (*sources, *data):
        digest.update(len(part).to_bytes(8, "little"))
        digest.update(part)
    return digest.hexdigest()


def read(path: Path) -> tuple[Collection, dict[str, str]] | None:
    """The collection and codebook entries kept at ``path``; None when there
    is no entry or it cannot be read, whatever the reason."""

    def record(dtype) -> np.ndarray:
        column = np.load(fh, allow_pickle=False)
        if not isinstance(column, np.ndarray) or column.dtype != dtype or column.ndim != 1:
            raise ValueError("not a cache record")
        return column

    try:
        with open(path, "rb") as fh:
            strings = json.loads(record(np.uint8).tobytes())
            lengths = record(np.int64)
            matrices = {
                source: CodeMatrix(tuple(labels), *map(record, (np.int64, np.int64, np.float64)))
                for source, labels in strings["labels"].items()
            }
        ids, source_labels = tuple(strings["ids"]), tuple(strings["source_labels"])
        return Collection(ids, lengths, source_labels, matrices), strings["entries"]
    except (OSError, EOFError, ValueError, KeyError, TypeError, AttributeError):
        return None


def write(directory: Path, name: str, documents: Collection, entries: dict[str, str]) -> None:
    """Keep a parse as ``directory/name``, through a temporary file and
    ``os.replace``; the oldest entries beyond ``ENTRIES`` go. A directory
    that cannot be written to is no error: the load just stays uncached."""
    labels = {source: m.labels for source, m in documents.matrices.items()}
    strings = json.dumps({"ids": documents.ids, "source_labels": documents.source_labels,
                          "labels": labels, "entries": entries})  # ASCII: surrogates survive
    temporary = directory / f"{name}.{os.getpid()}.tmp"
    try:
        directory.mkdir(exist_ok=True)
        with open(temporary, "wb") as fh:
            np.save(fh, np.frombuffer(strings.encode("ascii"), np.uint8))
            np.save(fh, documents.lengths)
            for m in documents.matrices.values():
                for column in (m.offsets, m.codes, m.positions):
                    np.save(fh, column)
        os.replace(temporary, directory / name)
        ages = {p: (p.stat().st_mtime_ns, p.name == name) for p in directory.iterdir()}
        for old in sorted(ages, key=ages.get)[:-ENTRIES]:  # this entry goes last
            old.unlink()
    except OSError:
        temporary.unlink(missing_ok=True)
