"""The benchmark's workloads: which inputs `fecund synth` generates, and
which CLI commands are timed on them.

Every argument list is a `fecund` command line with three placeholders:
`{inp}` (the directory holding the generated inputs), `{out}` (the
directory of one repeat) and `{seed}` (the workload seed). The program only
ever sees the generated files.
"""

from __future__ import annotations

from dataclasses import dataclass

TIMED_COMMANDS = ("code", "select", "saturate", "analyze", "sweep")
REGIMES = "unique,hf_retrospective,hf_iterative,themes"
DOCS = "{inp}/corpus/documents.jsonl"
CODES = "{inp}/corpus/codes.csv"
THEMES = "{inp}/corpus/themes.csv"


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: tuple[tuple[str, ...], ...]  # `synth` command lines (set-up)
    steps: tuple[tuple[str, ...], ...]  # timed command lines, run in this order


def _synth(*extra: str) -> tuple[str, ...]:
    return ("synth", "--out", "{inp}/corpus", "--seed", "{seed}", *extra)


def _code(*extra: str) -> tuple[str, ...]:
    return ("code", "--docs", DOCS, "--backend", "mock", "--chain", "socratic",
            "--seed", "{seed}", *extra, "--out", "{out}/coded")


def _paper(iterations: int) -> Workload:
    """The README quick start: AI-code the texts, select on the AI codes,
    then saturate (human codes, along the reading order), analyze and sweep."""
    return Workload(
        name="paper",
        inputs=(_synth("--n-docs", "60", "--with-text"),),
        steps=(
            _code(),
            ("select", "--docs", DOCS, "--codes", "{out}/coded/ai_codes.csv",
             "--coder-source", "ai", "--seed", "{seed}", "--budget-docs", "20",
             "--control-docs", "20", "--out", "{out}/sel"),
            ("saturate", "--docs", DOCS, "--codes", CODES, "--themes", THEMES,
             "--coder-source", "human", "--order", "{out}/sel/manifest.csv",
             "--regimes", REGIMES, "--bootstrap", "--iterations", str(iterations),
             "--seed", "{seed}", "--plot", "--out", "{out}/sat"),
            ("analyze", "--docs", DOCS, "--codes", CODES + ",{out}/coded/ai_codes.csv",
             "--manifest", "{out}/sel/manifest.csv", "--unblinding", "{out}/sel/unblinding.csv",
             "--outcome-source", "human", "--density-source", "ai", "--out", "{out}/ana"),
            ("sweep", "--docs", DOCS, "--codes", "{out}/coded/ai_codes.csv",
             "--coder-source", "ai", "--seed", "{seed}", "--quadratic", "0,1,0", "--plot",
             "--out", "{out}/sw"),
        ),
    )


def _coding_batch(n_docs: int) -> Workload:
    """Only ingest and the mock coding chain run."""
    return Workload(
        name="coding_batch",
        inputs=(_synth("--n-docs", str(n_docs), "--with-text"),),
        steps=(_code(),),
    )


def _superset(n_docs: int, n_codes: int, iterations: int, sizes: str, replicates: int) -> Workload:
    """A large human-coded superset without text: select, saturate, sweep."""
    return Workload(
        name="superset_10k",
        inputs=(_synth("--n-docs", str(n_docs), "--n-codes", str(n_codes)),),
        steps=(
            ("select", "--docs", DOCS, "--codes", CODES, "--coder-source", "human",
             "--seed", "{seed}", "--budget-docs", "20", "--control-docs", "20",
             "--out", "{out}/sel"),
            ("saturate", "--docs", DOCS, "--codes", CODES, "--themes", THEMES,
             "--coder-source", "human", "--regimes", REGIMES, "--bootstrap",
             "--iterations", str(iterations), "--seed", "{seed}", "--out", "{out}/sat"),
            ("sweep", "--docs", DOCS, "--codes", CODES, "--coder-source", "human",
             "--seed", "{seed}", "--sizes", sizes, "--replicates", str(replicates),
             "--quadratic", "0,1,0", "--out", "{out}/sw"),
        ),
    )


def workloads(tiny: bool = False) -> dict[str, Workload]:
    """All workloads; `tiny` shrinks each to a few seconds for the self-check."""
    if tiny:
        made = [_paper(100), _coding_batch(80), _superset(400, 100, 25, "100,400", 1)]
    else:
        made = [_paper(2000), _coding_batch(1000),
                _superset(10000, 1000, 25, "1000,2500,5000,10000", 3)]
    return {w.name: w for w in made}


def fill(argv: tuple[str, ...], **values: str) -> list[str]:
    """Substitute the placeholders of one command line."""
    return [arg.format(**values) for arg in argv]


def options(argv: list[str]) -> dict[str, str | bool]:
    """`--flag value` pairs of a command line; a bare flag maps to True."""
    opts: dict[str, str | bool] = {}
    for i, arg in enumerate(argv):
        if arg.startswith("--"):
            nxt = argv[i + 1] if i + 1 < len(argv) else None
            opts[arg] = nxt if nxt is not None and not nxt.startswith("--") else True
    return opts
