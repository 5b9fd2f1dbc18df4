import os
import subprocess
import sys
from pathlib import Path

from hypothesis import HealthCheck, settings

settings.register_profile(
    "default",
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    print_blob=True,
)
settings.load_profile("default")


from fecund.corpus import CodeInstance, Document


def make_doc(doc_id, codes, length=10, source="src", positions=None):
    """Compact document builder for tests."""
    if positions is None:
        instances = tuple(CodeInstance(c) for c in codes)
    else:
        instances = tuple(CodeInstance(c, p) for c, p in zip(codes, positions))
    return Document(id=doc_id, text_length=length, codes={source: instances})


def run_python(script, *args):
    """Run ``script`` in a fresh interpreter that imports this checkout's ``fecund``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", script, *map(str, args)], capture_output=True, text=True, env=env
    )
