"""The benchmark tracer still finds every entry point it wraps.

``perfbench/tracing.py`` resolves each wrapped function by name with
``getattr``, so renaming or moving one of them breaks only a traced
benchmark run.  This installs the tracer against the tree in a child
process (its patches never reach this one) and reports the missing name.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

_INSTALL = """
import sys
sys.path[:0] = sys.argv[1:]
import tracing
try:
    tracing.install(tracing.Tracer())
except AttributeError as exc:
    print(exc)
    sys.exit(1)
"""


def test_tracer_installs_against_the_tree():
    proc = subprocess.run(
        [sys.executable, "-c", _INSTALL, str(REPO / "perfbench"),
         str(REPO / "src")],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, \
        f"tracer entry point missing: {proc.stdout.strip() or proc.stderr}"
