"""Behaviour fingerprints: the engines still produce the pinned results.

Recomputes the canonical workloads of ``tools/fingerprints.py`` (Table-1
Config I alone and 3-stacked, fixed and adaptive; the 96-segment deep
line on the bordered Newton kernel and, forced ``sparse``, on dense
Newton; the 3-line RC bundle on the linear sparse and banded solvers;
the Config-I receiver fixture; a step-halving inverter pair; DC alone
and 3-stacked, and the deep line's DC 3-stacked on the bordered kernel;
c17's nominal NLDM timing and a seeded 512-sample Monte-Carlo SSTA
sweep, in ps; the error statistics of a 4-case Table-1 Config-II sweep; the Figure-2
series)
and compares them with the checked-in
``tests/data/fingerprints.json``.  Regenerate the file only
on a deliberate behaviour change, with
``PYTHONPATH=src python tools/fingerprints.py --update``.
"""

from __future__ import annotations

import json
import re
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


def test_compare_flags_ppm_drift_of_a_timing_value():
    # Times are pinned in ps: a 1e-6 relative drift of one c17 arrival
    # or MC quantile sits far above the 1e-12 absolute floor.
    expected = {"sta_c17": fingerprints.load()["sta_c17"]}
    for path, value in fingerprints._flatten(expected):
        if not isinstance(value, float) or value == 0.0:
            continue
        drifted = json.loads(json.dumps(expected))
        _scale_leaf(drifted, path, 1 + 1e-6)
        errors = fingerprints.compare(expected, drifted)
        assert len(errors) == 1 and errors[0].startswith(path + ":"), path


def _scale_leaf(tree, path: str, factor: float) -> None:
    """Multiply the leaf at ``path`` (as :func:`_flatten` names it)."""
    keys = re.findall(r"\[(\d+)\]|([^.\[\]]+)", path)
    node = tree
    for index, key in keys[:-1]:
        node = node[int(index)] if index else node[key]
    index, key = keys[-1]
    node[key] *= factor


def test_named_update_rewrites_only_those_entries(tmp_path, monkeypatch):
    # ``--update NAME`` recomputes NAME alone and keeps every other
    # line as pinned.
    pinned = fingerprints.load()
    path = tmp_path / "fingerprints.json"
    path.write_text(fingerprints.dump(pinned), encoding="utf-8")
    monkeypatch.setattr(fingerprints, "DATA_PATH", path)
    fresh = {"kind": "sta", "variants": [{"marker": 1}]}
    for name in pinned:
        monkeypatch.setitem(fingerprints.WORKLOADS, name, _not_recomputed)
    monkeypatch.setitem(fingerprints.WORKLOADS, "sta_c17", lambda: fresh)
    assert fingerprints.main(["--update", "sta_c17"]) == 0
    assert path.read_text(encoding="utf-8") == \
        fingerprints.dump({**pinned, "sta_c17": fresh})


def _not_recomputed():
    raise AssertionError("an unnamed workload was recomputed")
