"""Output checks and the rarefaction oracle.

`check_output(argv, out_dir, notes)` returns the problems it finds in one
command's outputs (an empty list when they are right). The checks read only
files, never the `fecund` package, so they judge the program from outside.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from collections import Counter
from pathlib import Path

import numpy as np

from workloads import options

# A bootstrap mean may differ from the exact expectation by sampling noise:
# at step k its standard error is sd_k / sqrt(iterations). sd_k is read off
# the raw band, but never taken below the standard deviation the codes would
# have if they were seen independently (few iterations can give a band far
# narrower than the truth). The tolerance is ORACLE_Z standard errors plus one
# code's worth of standard error.
ORACLE_Z = 6.0


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def digests(directory: Path) -> dict[str, str]:
    """sha256 of every output file under `directory`, except the timestamped sidecar."""
    return {
        str(p.relative_to(directory)): sha256(p)
        for p in sorted(directory.rglob("*"))
        if p.is_file() and p.name != "run_meta.json"
    }


def _rows(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _doc_ids(documents: Path) -> list[str]:
    with open(documents, encoding="utf-8") as fh:
        return [json.loads(line)["id"] for line in fh if line.strip()]


def _canonical(label: str) -> str:
    return " ".join(label.split()).casefold()


def rarefaction(occupancy: list[int], n_docs: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact expected number of distinct codes after k documents, k = 1..N,
    and its variance were the codes seen independently.

    E[S_k] = sum_c [1 - C(N - n_c, k) / C(N, k)] (Hurlbert 1971), where n_c
    is the number of documents holding code c, under uniformly random
    document orders. The ratio follows r(k+1) = r(k) (N - n_c - k) / (N - k).
    """
    k = np.arange(n_docs, dtype=float)
    expected, variance = np.zeros(n_docs), np.zeros(n_docs)
    for n, multiplicity in Counter(occupancy).items():
        ratio = np.cumprod(np.clip((n_docs - n - k) / (n_docs - k), 0.0, None))
        expected += multiplicity * (1.0 - ratio)
        variance += multiplicity * ratio * (1.0 - ratio)
    return expected, variance


def _check_unique_oracle(argv: list[str], rows: list[dict], order: list[str],
                         iterations: int, notes: dict) -> list[str]:
    opts = options(argv)
    wanted = set(order)
    holders: dict[str, set[str]] = {}
    for path in str(opts["--codes"]).split(","):
        for row in _rows(Path(path)):
            if row["coder_source"] == opts["--coder-source"] and row["doc_id"] in wanted:
                holders.setdefault(_canonical(row["code_label"]), set()).add(row["doc_id"])
    n = len(order)
    expected, variance = rarefaction([len(docs) for docs in holders.values()], n)
    worst = 0.0
    for row in rows:
        k = int(row["step"])
        mean, lo, hi = float(row["mean_count"]), float(row["lo95"]), float(row["hi95"])
        fpc = math.sqrt((n - k) / (n - 1))  # undo the band's finite-population widening
        sd = max(max(mean - lo, hi - mean) * fpc / 1.96, math.sqrt(variance[k - 1]))
        gap = abs(mean - expected[k - 1])
        tolerance = (ORACLE_Z * sd + 1.0) / math.sqrt(iterations)
        if gap > tolerance:
            return [f"unique mean {mean} at step {k} is {gap:.3f} from the exact "
                    f"rarefaction value {expected[k - 1]:.3f} (tolerance {tolerance:.3f})"]
        worst = max(worst, gap / tolerance)
    notes["oracle_worst"] = max(notes.get("oracle_worst", 0.0), worst)
    return []


def _check_saturate(argv: list[str], out: Path, notes: dict) -> list[str]:
    opts = options(argv)
    if opts.get("--order"):
        order = [row["doc_id"] for row in _rows(Path(opts["--order"]))]
    else:
        order = _doc_ids(Path(opts["--docs"]))
    n = len(order)
    retained = n - math.ceil(0.1 * n)
    iterations = int(opts["--iterations"])
    problems = []
    for regime in str(opts["--regimes"]).split(","):
        path = out / f"curve_{regime}.csv"
        if not path.is_file():
            problems.append(f"{path.name} missing")
            continue
        rows = _rows(path)
        if [int(r["step"]) for r in rows] != list(range(1, retained + 1)):
            problems.append(f"{path.name}: expected steps 1..{retained} (N = {n})")
            continue
        means = [float(r["mean_count"]) for r in rows]
        if any(not float(r["lo95"]) <= float(r["mean_count"]) <= float(r["hi95"]) for r in rows):
            problems.append(f"{path.name}: mean outside its 95% band")
        if any(b < a for a, b in zip(means, means[1:])):
            problems.append(f"{path.name}: mean_count decreases")
        if regime == "unique" and not problems:
            problems += _check_unique_oracle(argv, rows, order, iterations, notes)
        if opts.get("--plot") and not (out / f"curve_{regime}.svg").is_file():
            problems.append(f"curve_{regime}.svg missing")
    return problems


def _check_select(out: Path) -> list[str]:
    selection = json.loads((out / "selection.json").read_text(encoding="utf-8"))
    arms = set(selection["selected_ids"]) | set(selection["control"]["selected_ids"])
    manifest = [row["doc_id"] for row in _rows(out / "manifest.csv")]
    unblinding = [row["doc_id"] for row in _rows(out / "unblinding.csv")]
    problems = []
    if len(manifest) != len(arms) or set(manifest) != arms:
        problems.append(f"manifest has {len(manifest)} rows, treatment and control hold {len(arms)}")
    if sorted(unblinding) != sorted(manifest):
        problems.append("unblinding.csv does not list the manifest's documents")
    return problems


def _check_analyze(out: Path) -> list[str]:
    fitted = {
        int(row["spec"]) for row in _rows(out / "treatment_table.csv")
        if not row["skipped"] and row["coef"] and math.isfinite(float(row["coef"]))
    }
    missing = sorted({1, 2, 3, 6} - fitted)
    return [f"treatment_table.csv lacks fitted spec(s) {missing}"] if missing else []


def _check_sweep(argv: list[str], out: Path) -> list[str]:
    rows = _rows(out / "sweep.csv")
    problems = []
    if len(rows) < 2 or float(rows[0]["normalized_pct"]) != 100.0:
        problems.append("sweep.csv does not start with the 100% baseline row")
    sizes = options(argv).get("--sizes")
    if isinstance(sizes, str) and len(rows) != 1 + len(set(sizes.split(","))):
        problems.append(f"sweep.csv has {len(rows)} rows for sizes {sizes}")
    return problems


def _check_code(out: Path) -> list[str]:
    rows = _rows(out / "ai_codes.csv")
    return [] if rows else ["ai_codes.csv has no codes"]


def _check_synth(argv: list[str], out: Path) -> list[str]:
    opts = options(argv)
    ids = _doc_ids(out / "documents.jsonl")
    problems = []
    if len(ids) != int(opts["--n-docs"]):
        problems.append(f"documents.jsonl has {len(ids)} documents, asked for {opts['--n-docs']}")
    if not _rows(out / "codes.csv"):
        problems.append("codes.csv has no codes")
    return problems


def check_output(argv: list[str], out: Path, notes: dict) -> list[str]:
    """Problems in the outputs that the command line `argv` wrote to `out`.

    `notes["oracle_worst"]` keeps the largest gap / tolerance ratio of the
    rarefaction checks that passed.
    """
    command = argv[0]
    try:
        if command == "synth":
            return _check_synth(argv, out)
        if command == "code":
            return _check_code(out)
        if command == "select":
            return _check_select(out)
        if command == "saturate":
            return _check_saturate(argv, out, notes)
        if command == "analyze":
            return _check_analyze(out)
        if command == "sweep":
            return _check_sweep(argv, out)
    except (OSError, KeyError, ValueError) as exc:
        return [f"{command} output unreadable: {type(exc).__name__}: {exc}"]
    raise ValueError(f"no check for command {command!r}")
