#!/usr/bin/env python3
"""Self-check of the benchmark.

    python3 perfbench/selfcheck.py

1. BENCHMARK.json is well formed (names, units, bounds, workloads).
2. A tiny-size run of every workload, traced and untraced, is correct and
   emits exactly the metrics BENCHMARK.json names, each with its unit.
3. The correctness gate catches broken outputs: the paper workload runs
   once, then copies of its outputs are corrupted one way each and every
   corruption must count as a failed operation. A failing command and a
   traceback on stderr must count too.

Prints one line per check and exits 0 only when all pass.
"""

from __future__ import annotations

import csv
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import run
from checks import check_output, digests
from workloads import fill, options, workloads

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


class Report:
    """Prints one line per check and keeps the failed ones."""

    def __init__(self):
        self.failures: list[str] = []

    def __call__(self, ok: bool, what: str) -> None:
        print(("PASS " if ok else "FAIL ") + what, flush=True)
        if not ok:
            self.failures.append(what)


def check_spec(spec: dict, report: Report) -> None:
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    report(set(spec) == keys, "BENCHMARK.json has exactly the contract's keys")
    names = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"] + spec["per_layer"]
    report(sorted(names) == sorted(workloads()), "workloads match workloads.py")
    report(all(set(w) == {"name", "why"} and 0 < len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in spec["workloads"]), "each workload has a one-line why")
    every = names + [m["name"] for m in metrics]
    report(len(every) == len(set(every)) and all(NAME.fullmatch(n) for n in every),
           "names are unique and well formed")
    report(all(UNIT.fullmatch(m["unit"]) and m["better"] in ("higher", "lower") for m in metrics),
           "units and directions are well formed")
    report(all(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
               for m in spec["end_to_end"]), "end-to-end bounds are in (0, 0.25]")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    report(bool(setup) and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
           and setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]),
           "setup_s is in seconds, lower is better, with the largest bound")
    report(all(set(m) == {"name", "unit", "better"} for m in spec["per_layer"]),
           "per-layer metrics carry no bound")
    runs = 4 + 22 * len(names)
    report(isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60,
           f"run_seconds is a whole number in 1..60 ({runs} runs of {spec['run_seconds']} s)")


def check_tiny_runs(spec: dict, report: Report) -> None:
    for name in workloads(tiny=True):
        for trace in (0, 1):
            wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
            proc = subprocess.run(
                [sys.executable, str(Path(run.__file__)), "--workload", name, "--seed", "3",
                 "--seconds", "3", "--trace", str(trace), "--size", "tiny"],
                capture_output=True, text=True, timeout=170,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            values = [v["value"] for v in result["metrics"].values()]
            ok = (proc.returncode == 0 and set(result) == {"correct", "attempted", "failed", "metrics"}
                  and result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
                  and got == wanted and all(isinstance(v, (int, float)) for v in values)
                  and (trace or all(v > 0 for v in values)))
            report(ok, f"tiny {name} --trace {trace}: correct, every metric with its unit")


def _rewrite_csv(path: Path, edit) -> None:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    rows = edit(rows)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _truncate(path: Path) -> None:
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])


def _shift_unique_curve(rows):
    # an off-by-one count: mean and band all one code too high
    return [rows[0]] + [[r[0], r[1], *(repr(float(v) + 1.0) for v in r[2:])] for r in rows[1:]]


def _baseline_not_100(rows):
    rows[1][3] = "99.0"
    return rows


# (command, file, what is done to it): each must make that command's check fail.
CORRUPTIONS = (
    ("saturate", "curve_unique.csv", "truncated", _truncate),
    ("saturate", "curve_unique.csv", "mean and band one code high",
     lambda p: _rewrite_csv(p, _shift_unique_curve)),
    ("saturate", "curve_themes.csv", "last step dropped", lambda p: _rewrite_csv(p, lambda rows: rows[:-1])),
    ("select", "manifest.csv", "last row dropped", lambda p: _rewrite_csv(p, lambda rows: rows[:-1])),
    ("code", "ai_codes.csv", "emptied", lambda p: _rewrite_csv(p, lambda rows: rows[:1])),
    ("analyze", "treatment_table.csv", "spec 6 dropped",
     lambda p: _rewrite_csv(p, lambda rows: [r for r in rows if r[0] != "6"])),
    ("sweep", "sweep.csv", "baseline row not 100%", lambda p: _rewrite_csv(p, _baseline_not_100)),
)


def check_gate(report: Report) -> None:
    workload = workloads()["paper"]
    work = run.WORK / f"selfcheck-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        ledger, notes, clock = run.Ledger(), {}, run.Clock(work)
        inputs, rep = work / "inputs", work / "rep0"
        for template in workload.inputs:
            run.run_cli(fill(template, inp=str(inputs), out="", seed="17"), clock, ledger, "synth", notes)
        argvs = {}
        for template in workload.steps:
            argv = fill(template, inp=str(inputs), out=str(rep), seed="17")
            run.run_cli(argv, clock, ledger, argv[0], notes)
            argvs[argv[0]] = argv
        report(not ledger.failures and notes.get("oracle_worst", 1.0) < 1.0,
               "paper workload passes every check, the rarefaction oracle included")

        for i, (command, name, what, corrupt) in enumerate(CORRUPTIONS):
            argv = argvs[command]
            out = Path(options(argv)["--out"])
            copy = work / f"corrupt{i}"
            shutil.copytree(out, copy)
            corrupt(copy / name)
            corrupted = [str(copy) if a == str(out) else a for a in argv]
            before = len(ledger.failures)
            problems = check_output(corrupted, copy, notes)
            if digests(copy) != digests(out):  # what a later repeat is compared by
                problems.append("outputs differ from the first repeat's")
            ledger.record(f"corrupt {name}", problems)
            report(len(ledger.failures) == before + 1,
                   f"{name} {what}: a failed operation ({'; '.join(problems)[:100]})")

        before = len(ledger.failures)
        bad = list(argvs["saturate"])
        bad[bad.index("--order") + 1] = str(work / "missing.csv")
        bad[bad.index("--out") + 1] = str(work / "bad-sat")
        run.run_cli(bad, clock, ledger, "saturate with a missing manifest", notes)
        report(len(ledger.failures) == before + 1, "a non-zero exit counts as a failed operation")
        _, _, _, problems = run.run_child(
            [sys.executable, "-c", "import sys; sys.stderr.write('Traceback (most recent call last):\\n')"],
            work)
        report(bool(problems), "a traceback on stderr is a problem even with exit code 0")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    report = Report()
    check_spec(spec, report)
    check_gate(report)
    check_tiny_runs(spec, report)
    print(f"{len(report.failures)} failed" if report.failures else "all checks passed")
    return 1 if report.failures else 0


if __name__ == "__main__":
    sys.exit(main())
