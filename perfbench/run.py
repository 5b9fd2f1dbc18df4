#!/usr/bin/env python3
"""Benchmark of the fecund command-line pipeline.

    python3 perfbench/run.py --workload paper --seed 17 --seconds 25 --trace 0

Run from a checkout of the repository. The workload's inputs are generated
from the seed by `fecund synth`; every CLI command then runs as a fresh
`python -m fecund.cli` process of the checkout's own `src`, one at a time,
repeated for about `--seconds`. Every output is checked (exit code, no
traceback, structural invariants, byte-identical repeats, and the exact
rarefaction curve for the bootstrap mean). `--trace 1` instead runs the
commands in-process with spans around every layer (see tracing.py).

The last line of standard output is one JSON object: `correct`,
`attempted`, `failed` (one operation is one command invocation or one
whole-run check) and `metrics`, the end-to-end metrics of BENCHMARK.json
with `--trace 0` or its per-layer metrics with `--trace 1`. The line before
it records the environment, the parameters and the sha256 of every input
and output file.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from checks import check_output, digests
from workloads import fill, options, workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 3  # set-up runs per run; setup_s is their median
IMPORT_REPEATS = 3  # fresh children timing `import fecund.cli`; cli.import_s is their median
MIN_REPEATS = 2  # so that every run compares outputs across repeats
CHILD_TIMEOUT_S = 150
# Bracketing process for every timed command (see Clock): interpreter start-up,
# the imports every command pays and a fixed pure-Python loop; nothing of this
# repository.
REFERENCE = [sys.executable, "-c",
             "import numpy, scipy.stats\ntotal = 0\nfor i in range(1_000_000): total += i * i % 7"]
REFERENCE_NOMINAL_S = 1.0
TRACEBACK = "Traceback (most recent call last)"


class Ledger:
    """Operations attempted and the problems of those that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[tuple[str, list[str]]] = []

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append((label, problems))
            print(f"FAILED {label}: {'; '.join(problems)}", file=sys.stderr)


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(cmd: list[str], work: Path) -> tuple[float, int, str, list[str]]:
    """Run `cmd` to completion; wall seconds, peak RSS (KiB), stdout and problems."""
    stdout, stderr = work / "child.stdout", work / "child.stderr"
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=work, env=_child_env(), stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    problems = [] if proc.returncode == 0 else [f"exit code {proc.returncode}"]
    err_text = stderr.read_text(encoding="utf-8", errors="replace")
    if TRACEBACK in err_text:
        problems.append("traceback on stderr: " + err_text.strip().splitlines()[-1])
    return wall, usage.ru_maxrss, stdout.read_text(encoding="utf-8", errors="replace"), problems


class Clock:
    """Times fresh processes in raw and in reference-normalised seconds.

    The host's speed drifts by tens of percent over tens of seconds, so every
    command is bracketed by runs of REFERENCE, a fixed process that runs no
    code of this repository. A command's normalised time is its wall time
    divided by the mean of the two reference times around it, times
    REFERENCE_NOMINAL_S: seconds on a host where the reference takes that long.
    """

    def __init__(self, work: Path):
        self.work = work
        self.last_reference: float | None = None
        self.references: list[float] = []

    def _reference(self) -> float:
        wall, _, _, problems = run_child(REFERENCE, self.work)
        if problems:
            raise RuntimeError(f"reference process failed: {problems}")
        self.references.append(wall)
        return wall

    def run(self, cmd: list[str]) -> tuple[float, float, int, list[str]]:
        """Normalised and raw wall seconds, peak RSS (KiB) and problems of `cmd`."""
        before = self.last_reference if self.last_reference is not None else self._reference()
        wall, rss_kib, _, problems = run_child(cmd, self.work)
        self.last_reference = self._reference()
        return wall / ((before + self.last_reference) / 2) * REFERENCE_NOMINAL_S, wall, rss_kib, problems


def run_cli(argv: list[str], clock: Clock, ledger: Ledger, label: str, notes: dict,
            expected: dict | None = None) -> tuple[float, float, int]:
    """One fresh `fecund` process plus its output checks, recorded as one operation.

    With `expected` (sha256 per file), the outputs must also match it byte for
    byte. Returns normalised and raw seconds and peak RSS (KiB).
    """
    norm, wall, rss_kib, problems = clock.run([sys.executable, "-m", "fecund.cli", *argv])
    out = Path(options(argv)["--out"])
    problems = problems or check_output(argv, out, notes)
    if expected is not None and not problems and digests(out) != expected:
        problems = ["outputs differ from the first repeat's"]
    ledger.record(label, problems)
    return norm, wall, rss_kib


def set_up(workload, seed: int, clock: Clock, ledger: Ledger, notes: dict, record: dict) -> tuple[Path, list[float]]:
    """Generate the inputs SETUP_REPEATS times; the first copy's directory and
    the normalised set-up times. Later copies must match the first byte for
    byte, then are deleted."""
    times, raw, first = [], [], {}
    for i in range(SETUP_REPEATS):
        inputs = clock.work / f"inputs{i}"
        norm_total = raw_total = 0.0
        for template in workload.inputs:
            argv = fill(template, inp=str(inputs), out="", seed=str(seed))
            key = options(template)["--out"]
            norm, wall, _ = run_cli(argv, clock, ledger, f"setup{i} {key}", notes, first.get(key))
            first.setdefault(key, digests(Path(options(argv)["--out"])))
            norm_total += norm
            raw_total += wall
        times.append(norm_total)
        raw.append(raw_total)
        if i:
            shutil.rmtree(inputs)
    record["setup_raw_s"] = raw
    return clock.work / "inputs0", times


def fresh_run(workload, seed: int, seconds: float, work: Path, ledger: Ledger,
              notes: dict, record: dict) -> dict[str, float]:
    """End-to-end metrics: the timed commands as fresh processes, repeated in order."""
    clock = Clock(work)
    inputs, setup_times = set_up(workload, seed, clock, ledger, notes, record)
    record["input_sha256"] = digests(inputs)
    raw = {step[0]: [] for step in workload.steps}
    walls, peaks, expected = [], [], {}
    start = time.perf_counter()
    while True:
        r = len(walls)
        rep = work / f"rep{r}"
        wall, peak = 0.0, 0
        for template in workload.steps:
            argv = fill(template, inp=str(inputs), out=str(rep), seed=str(seed))
            key = options(template)["--out"]
            norm, seconds_taken, rss_kib = run_cli(argv, clock, ledger, f"rep{r} {argv[0]}",
                                                   notes, expected.get(key))
            if r == 0:
                expected[key] = digests(Path(options(argv)["--out"]))
            raw[argv[0]].append(seconds_taken)
            wall += norm
            peak = max(peak, rss_kib)
        walls.append(wall)
        peaks.append(peak)
        if r:
            shutil.rmtree(rep)
        elapsed = time.perf_counter() - start
        if len(walls) >= MIN_REPEATS and elapsed * (len(walls) + 1) / len(walls) > seconds:
            break
    record["output_sha256"] = expected
    record["normalised_s"] = {"setup": setup_times, "wall": walls}
    record["raw_s"] = raw
    record["raw_median_s"] = {name: statistics.median(v) for name, v in raw.items()}
    record["reference_s"] = clock.references
    record["peak_rss_kib"] = peaks
    return {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": statistics.median(peaks) / 1024,
    }


def import_seconds(work: Path, ledger: Ledger, record: dict) -> float:
    """Median time of `import fecund.cli` in a fresh interpreter (start-up excluded)."""
    probe = ("import time; t = time.perf_counter(); import fecund.cli; "
             "print(time.perf_counter() - t); print(fecund.cli.__file__)")
    times = []
    for i in range(IMPORT_REPEATS):
        _, _, out, problems = run_child([sys.executable, "-c", probe], work)
        lines = out.split()
        if not problems and Path(lines[1]).resolve() != SRC / "fecund" / "cli.py":
            problems = [f"imported {lines[1]}, not the checkout's source"]
        ledger.record(f"import{i}", problems)
        if not problems:
            times.append(float(lines[0]))
    record["import_s"] = times
    return statistics.median(times) if times else 0.0  # the failures already mark the run


def traced_run(workload, seed: int, seconds: float, work: Path, ledger: Ledger,
               notes: dict, record: dict, names: list[str]) -> dict[str, float]:
    """Per-layer metrics from the in-process traced run."""
    import tracing

    sys.path.insert(0, str(SRC))
    import fecund

    if Path(fecund.__file__).resolve().parent != SRC / "fecund":
        raise SystemExit(f"error: imported fecund from {fecund.__file__}, not {SRC}")
    metrics = {"cli.import_s": import_seconds(work, ledger, record)}
    computed_here = {"cli.import_s", "trace.overhead_s", "error_rate"}
    layer, trace_record = tracing.traced_run(
        workload, seed, seconds, work, ledger, notes,
        [n for n in names if n not in computed_here],
        WORK / f"spans-{workload.name}.jsonl",
    )
    metrics.update(layer)
    record.update(trace_record)
    return metrics


def environment() -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload to seconds (for selfcheck.py)")
    args = parser.parse_args(argv)

    if not (SRC / "fecund" / "cli.py").is_file():
        print(f"error: {SRC / 'fecund'} not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    chosen = workloads(tiny=args.size == "tiny")
    if args.workload not in chosen:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(chosen)}")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    workload = chosen[args.workload]
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    WORK.mkdir(exist_ok=True)
    work = WORK / f"{workload.name}-s{args.seed}-t{args.trace}-{os.getpid()}"
    work.mkdir()
    ledger, notes = Ledger(), {}
    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "environment": environment(),
        "inputs": [list(t) for t in workload.inputs], "steps": [list(t) for t in workload.steps],
    }
    try:
        if args.trace:
            values = traced_run(workload, args.seed, args.seconds, work, ledger, notes, record,
                                [m["name"] for m in wanted])
        else:
            values = fresh_run(workload, args.seed, args.seconds, work, ledger, notes, record)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = len(ledger.failures)
    values["error_rate"] = failed / ledger.attempted
    record["oracle_worst_gap_over_tolerance"] = notes.get("oracle_worst")
    record["failures"] = ledger.failures
    (WORK / f"record-{workload.name}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": ledger.attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
