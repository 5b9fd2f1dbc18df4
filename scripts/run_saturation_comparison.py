#!/usr/bin/env python3
"""Compare saturation dynamics of a diversity-selected corpus against a
random corpus of the same document count, under every counting regime.

Generates a synthetic AI-coded corpus, picks a treatment corpus with the
sqrt objective and a size-matched random control, then writes bootstrap
mean curves with 95% bands plus 10+3 stopping-rule readouts for both arms.

Usage: python scripts/run_saturation_comparison.py [--seed N] [--out DIR]
"""

import argparse
import csv
from pathlib import Path

from fecund.saturation import (
    REGIME_KINDS,
    CountingRegime,
    bootstrap_bands,
    cumulative_curve,
    detect_stopping,
)
from fecund.selection import SQRT, SelectionBudget, select_greedy, select_random
from fecund.svgplot import line_chart
from fecund.synthetic import synth_corpus


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--out", default="out/saturation")
    parser.add_argument("--n-docs", type=int, default=400)
    parser.add_argument("--budget-docs", type=int, default=20)
    parser.add_argument("--iterations", type=int, default=2000)
    args = parser.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    docs, codebook = synth_corpus(
        args.n_docs, seed=args.seed, n_codes=300, coder_source="ai", n_themes=12
    )
    by_id = {d.id: d for d in docs}
    budget = SelectionBudget.from_mean_docs(docs, args.budget_docs)
    treatment = select_greedy(docs, budget, SQRT, "ai")
    treatment_docs = [by_id[i] for i in treatment.selected_ids]
    control = select_random(docs, len(treatment_docs), seed=args.seed, coder_source="ai")
    control_docs = [by_id[i] for i in control.selected_ids]
    print(
        f"treatment: {len(treatment_docs)} docs / {treatment.total_chars} chars, "
        f"control: {len(control_docs)} docs / {control.total_chars} chars"
    )

    regimes = [CountingRegime(kind) for kind in REGIME_KINDS]
    with open(out / "stopping_rule.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["arm", "regime", "satisfied_at", "count_at_satisfaction", "all_points"])
        for arm, arm_docs in (("treatment", treatment_docs), ("control", control_docs)):
            bands = bootstrap_bands(
                arm_docs, regimes, "ai", n_iterations=args.iterations,
                seed=args.seed, codebook=codebook,
            )
            for regime, band in zip(regimes, bands):
                kind = regime.kind
                curve = cumulative_curve(arm_docs, regime, "ai", codebook=codebook)
                stop = detect_stopping(curve)
                writer.writerow(
                    [arm, kind, stop.satisfied_at, stop.codes_at_satisfaction,
                     " ".join(map(str, stop.all_satisfaction_points))]
                )
                retained = len(band.lo95)
                chars = band.mean_chars[:retained].tolist()
                means = band.mean_count[:retained].tolist()
                lo, hi = band.lo95.tolist(), band.hi95.tolist()
                with open(out / f"band_{arm}_{kind}.csv", "w", encoding="utf-8", newline="") as bf:
                    bw = csv.writer(bf, lineterminator="\n")
                    bw.writerow(["step", "mean_chars", "mean_count", "lo95", "hi95"])
                    bw.writerows(
                        zip(range(1, retained + 1), *(map(repr, c) for c in (chars, means, lo, hi)))
                    )
                line_chart(
                    out / f"band_{arm}_{kind}.svg",
                    chars,
                    means,
                    band=(lo, hi),
                    title=f"{arm}: cumulative {kind}",
                    x_label="cumulative characters",
                    y_label="cumulative count",
                )
                print(f"{arm:9s} {kind:18s} final={curve.counts[-1]:4d} "
                      f"stop={stop.satisfied_at}")
    print(f"outputs under {out}/")


if __name__ == "__main__":
    main()
