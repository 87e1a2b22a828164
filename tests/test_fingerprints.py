"""Behaviour fingerprints: the engines still produce the pinned results.

Recomputes the canonical workloads of ``tools/fingerprints.py`` (Table-1
Config I alone and 3-stacked, fixed and adaptive; the 96-segment deep
line on the banded and sparse Newton backends; a step-halving inverter
pair; DC alone and 3-stacked) and compares them with the checked-in
``tests/data/fingerprints.json``.  Regenerate the file only
on a deliberate behaviour change, with
``PYTHONPATH=src python tools/fingerprints.py --update``.
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "tools"))

import fingerprints  # noqa: E402


def test_fingerprints_unchanged():
    errors = fingerprints.compare(fingerprints.load(), fingerprints.compute())
    assert not errors, "\n".join(errors[:20])


def test_compare_flags_drift():
    # A comparator that accepts anything would make the net above vacuous.
    expected = fingerprints.load()
    name = "table1_I_scalar"
    variant = expected[name]["variants"][0]
    node = next(n for n, v in variant["nodes"].items() if v["crossings"])
    drifted = {name: {"kind": "transient", "variants": [{
        **variant,
        "newton_iters": variant["newton_iters"] + 1,
        "nodes": {**variant["nodes"], node: {
            "rms": variant["nodes"][node]["rms"] * (1 + 1e-8),
            "crossings": [t + 1e-14
                          for t in variant["nodes"][node]["crossings"]]}},
    }]}}
    errors = fingerprints.compare({name: expected[name]}, drifted)
    assert any("newton_iters" in e for e in errors)
    assert any(f".{node}.rms" in e for e in errors)
    assert any(f".{node}.crossings" in e for e in errors)
