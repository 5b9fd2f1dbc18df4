"""Golden outputs: the sha256 of every file a seeded pipeline writes, kept in
``golden.json``, so that a change to any output byte fails the suite and
names the first file that differs.

The bytes depend on numpy's ``Generator`` algorithms as well as on this
code, so ``golden.json`` holds one entry per environment, keyed by numpy
major.minor, Python major.minor and ``platform.machine()``. On an
environment with no entry the check is skipped, naming the missing key.
Both a skip and a mismatch print the fresh entry (see it with ``pytest
-s``); it is pasted into ``golden.json`` by hand, and a change that alters
an entry says which files changed and why in CHANGES.md.
"""

import hashlib
import json
import platform
import sys
from pathlib import Path

import numpy as np
import pytest

GOLDEN = Path(__file__).with_name("golden.json")


def environment() -> str:
    numpy = ".".join(np.__version__.split(".")[:2])
    python = f"{sys.version_info.major}.{sys.version_info.minor}"
    return f"numpy {numpy}, python {python}, {platform.machine()}"


def digests(root: Path) -> dict[str, str]:
    """The sha256 of every file under ``root``, by its relative path. Run
    records (they hold a timestamp) and the collection cache are not outputs."""
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file() and path.name != "run_meta.json" and ".fecund-cache" not in path.parts
    }


def check(pipeline: str, root: Path) -> None:
    """Compare the outputs under ``root`` with ``golden.json``'s entry for
    this environment and ``pipeline``."""
    key = environment()
    fresh = digests(root)
    printed = json.dumps({key: {pipeline: fresh}}, indent=2, sort_keys=True)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    if key not in golden:
        print(printed)
        pytest.skip(f"tests/golden.json has no entry for {key!r}")
    expected = golden[key].get(pipeline, {})
    differing = [
        name for name in sorted(expected.keys() | fresh.keys())
        if expected.get(name) != fresh.get(name)
    ]
    if differing:
        print(printed)
    assert not differing, (
        f"{pipeline}: {differing[0]} differs from tests/golden.json[{key!r}] "
        f"({len(differing)} file(s) differ); fresh entry:\n{printed}"
    )
