"""Loop implementations kept as references for the library's fast paths.

``cumulative_counts`` walks code instances in Python, one document at a
time, exactly as the counting regimes are defined; the interned-array
kernel in ``fecund.saturation`` must reproduce it. ``greedy_naive``
re-evaluates every candidate at every step; the lazy heap in
``fecund.selection`` must select exactly what it selects.
"""

from collections import Counter
from unittest import mock

import numpy as np

from fecund import selection
from fecund.saturation import BandStep, CountingRegime
from fecund.selection import GAIN_FLOOR, _marginal_gain, _score, _sort_key


def hf_codes(docs, coder_source, threshold):
    counts = Counter()
    for doc in docs:
        for inst in doc.instances(coder_source):
            counts[inst.code_id] += 1
    return {code for code, c in counts.items() if c >= threshold}


def cumulative_counts(order, regime, coder_source, hf_set=None, theme_map=None):
    kind = regime.kind
    counts = []
    if kind == "unique":
        seen = set()
        for doc in order:
            seen.update(inst.code_id for inst in doc.instances(coder_source))
            counts.append(len(seen))
    elif kind == "hf_retrospective":
        assert hf_set is not None
        seen_hf = set()
        for doc in order:
            for inst in doc.instances(coder_source):
                if inst.code_id in hf_set:
                    seen_hf.add(inst.code_id)
            counts.append(len(seen_hf))
    elif kind == "hf_iterative":
        cum = Counter()
        reached = set()
        for doc in order:
            for inst in doc.instances(coder_source):
                cum[inst.code_id] += 1
                if cum[inst.code_id] >= regime.hf_threshold:
                    reached.add(inst.code_id)
            counts.append(len(reached))
    else:  # themes
        assert theme_map is not None
        seen_themes = set()
        for doc in order:
            for inst in doc.instances(coder_source):
                theme = theme_map.get(inst.code_id)
                if theme is not None:
                    seen_themes.add(theme)
            counts.append(len(seen_themes))
    return counts


def reference_counts(order, regime: CountingRegime, coder_source, codebook=None):
    """``cumulative_counts`` with the per-regime inputs derived from ``order``."""
    hf_set = None
    if regime.kind == "hf_retrospective":
        hf_set = hf_codes(order, coder_source, regime.hf_threshold)
    theme_map = codebook.theme_map if regime.kind == "themes" else None
    return cumulative_counts(order, regime, coder_source, hf_set, theme_map)


def reference_raw_steps(docs, regime, coder_source, n_iterations, seed, codebook=None):
    """Unadjusted bootstrap band from the loop, over the library's RNG stream."""
    N = len(docs)
    lengths = np.array([d.text_length for d in docs], dtype=np.int64)
    count_matrix = np.empty((n_iterations, N), dtype=np.int64)
    chars_matrix = np.empty((n_iterations, N), dtype=np.int64)
    for it in range(n_iterations):
        perm = np.random.default_rng([seed, it]).permutation(N)
        ordered = [docs[i] for i in perm]
        count_matrix[it] = reference_counts(ordered, regime, coder_source, codebook)
        chars_matrix[it] = np.cumsum(lengths[perm])
    mean_counts = count_matrix.mean(axis=0)
    mean_chars = chars_matrix.mean(axis=0)
    lo_raw = np.percentile(count_matrix, 2.5, axis=0)
    hi_raw = np.percentile(count_matrix, 97.5, axis=0)
    return tuple(
        BandStep(k + 1, float(mean_chars[k]), float(mean_counts[k]), float(lo_raw[k]), float(hi_raw[k]))
        for k in range(N)
    )


def greedy_naive(pool, budget, g, tie_break, cost_benefit):
    counts: dict[str, int] = {}
    total = 0
    picked = []
    gains: list[float] = []
    remaining = list(pool)
    while True:
        best = None
        for doc, items in remaining:
            if total + doc.text_length >= budget.max_chars:
                continue
            gain = _marginal_gain(items, counts, g)
            key = (-_score(gain, doc.text_length, cost_benefit), *_sort_key(doc, tie_break))
            if best is None or key < best[0]:
                best = (key, doc, items, gain)
        if best is None or best[3] <= GAIN_FLOOR:
            break
        _, doc, items, gain = best
        picked.append(doc)
        gains.append(gain)
        total += doc.text_length
        for code, c in items:
            counts[code] = counts.get(code, 0) + c
        remaining = [(d, it) for d, it in remaining if d.id != doc.id]
    return picked, gains


def select_greedy_naive(*args, **kwargs):
    """``select_greedy`` with the lazy heap swapped for ``greedy_naive``."""
    with mock.patch.object(selection, "_greedy_lazy", greedy_naive):
        return selection.select_greedy(*args, **kwargs)
