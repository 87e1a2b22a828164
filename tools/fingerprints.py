#!/usr/bin/env python
"""Behaviour fingerprints of the transient and DC engines.

Runs a fixed set of canonical workloads and reduces each result to
statistics that survive a change of CPU or LAPACK build: per-node RMS,
50%-of-Vdd crossing times, Newton iteration counts, the solver backend
that ran, and the result-store key digests of every job.  Raw solution
bytes are deliberately not hashed — LAPACK rounding differs across
CPUs, so a byte hash would pin the machine, not the behaviour.

``tests/test_fingerprints.py`` recomputes every workload and compares it
with the checked-in ``tests/data/fingerprints.json``:

* RMS and DC node voltages to 1e-9 relative (1e-12 V absolute floor,
  for nodes that sit at 0 V);
* crossing times to 1e-15 s, with the crossing count exact;
* Newton iteration and step-halving counts, backends, batch sizes and
  key digests exact.

Only an explicit ``--update`` rewrites the file::

    PYTHONPATH=src python tools/fingerprints.py --update   # regenerate
    PYTHONPATH=src python tools/fingerprints.py --check    # compare, exit 1 on drift
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from repro.circuit.dc import dc_operating_point, dc_operating_point_batch
from repro.circuit.mna import MnaSystem
from repro.circuit.netlist import Circuit
from repro.circuit.sources import RampSource
from repro.circuit.transient import (TransientJob, TransientOptions,
                                     simulate_transient_many)
from repro.exec.store import dc_key, job_key
from repro.experiments.setup import CONFIG_I, build_testbench
from repro.library.cells import make_inverter

REPO = Path(__file__).resolve().parent.parent
DATA_PATH = REPO / "tests" / "data" / "fingerprints.json"

RMS_RTOL = 1e-9
VOLT_ATOL = 1e-12
CROSSING_ATOL = 1e-15

#: Table-1 Config-I noise cases: victim input at 0.2 ns, the aggressor
#: swept across the victim transition.
TABLE1 = (CONFIG_I, 0.2e-9, (0.25e-9, 0.15e-9, 0.35e-9))
#: Config I on a 96-segment line: the workload the structured Newton
#: backends engage on, with its input edges early in the window.
DEEP_LINE = (dataclasses.replace(CONFIG_I, name="deep96", n_segments=96),
             0.05e-9, (0.06e-9, 0.04e-9, 0.08e-9))
DT = 2e-12
#: Supply of every workload; crossings are taken at half of it.
VDD = CONFIG_I.vdd


#: An inverter driven by a sharp (20 ps) and a gentle (200 ps) input
#: edge, stepped at 20 ps with ``max_newton=4``: the sharp edge's
#: switching step fails Newton and is recovered by step halving.
HALVING = ((20e-12, 200e-12), {"in": 0.0, "out": VDD, "vdd": VDD})
HALVING_DT = 20e-12


def _bench(config, victim_start, aggressor_starts, batch=3) -> list:
    """``(circuit, initial_voltages)`` of the first ``batch`` Table-1 cases."""
    benches = [build_testbench(config, victim_start,
                               (start,) * config.n_aggressors)
               for start in aggressor_starts[:batch]]
    return [(tb.circuit, tb.initial_voltages) for tb in benches]


def _halving_bench(slews, initial, batch=2) -> list:
    out = []
    for slew in slews[:batch]:
        c = Circuit("inv")
        c.vsource("Vdd", "vdd", "0", VDD)
        c.vsource("Vin", "in", "0", RampSource(0.2e-9, slew, 0.0, VDD))
        make_inverter(4).instantiate(c, "u0", "in", "out", "vdd")
        c.capacitor("cl", "out", "0", 20e-15)
        out.append((c, initial))
    return out


#: Transient workloads: name → (bench builder, its arguments, batch size,
#: t_stop, dt, options).
TRANSIENT = {
    "table1_I_scalar": (_bench, TABLE1, 1, 1.1e-9, DT,
                        TransientOptions(adaptive=False)),
    "table1_I_batch3": (_bench, TABLE1, 3, 1.1e-9, DT,
                        TransientOptions(adaptive=False)),
    "table1_I_adaptive_scalar": (_bench, TABLE1, 1, 1.1e-9, DT,
                                 TransientOptions(adaptive=True)),
    "table1_I_adaptive_batch3": (_bench, TABLE1, 3, 1.1e-9, DT,
                                 TransientOptions(adaptive=True)),
    "deep96_banded_scalar": (_bench, DEEP_LINE, 1, 0.8e-9, DT,
                             TransientOptions(backend="banded",
                                              adaptive=False)),
    "deep96_banded_batch3": (_bench, DEEP_LINE, 3, 0.8e-9, DT,
                             TransientOptions(backend="banded",
                                              adaptive=False)),
    "deep96_sparse_batch3": (_bench, DEEP_LINE, 3, 0.8e-9, DT,
                             TransientOptions(backend="sparse",
                                              adaptive=False)),
    "inv_halving_batch2": (_halving_bench, HALVING, 2, 1e-9, HALVING_DT,
                           TransientOptions(max_newton=4, adaptive=False)),
}


def _crossings(times: np.ndarray, v: np.ndarray, level: float) -> list:
    """Linearly interpolated times where ``v`` crosses ``level``."""
    above = v >= level
    out = []
    for i in np.flatnonzero(above[1:] != above[:-1]):
        t0, t1, v0, v1 = times[i], times[i + 1], v[i], v[i + 1]
        out.append(float(t0 + (level - v0) * (t1 - t0) / (v1 - v0)))
    return out


def _transient_entry(build, args, batch: int, t_stop: float, dt: float,
                     options) -> dict:
    jobs = [TransientJob(circuit, t_stop=t_stop, dt=dt,
                         initial_voltages=initial, options=options)
            for circuit, initial in build(*args, batch=batch)]
    mnas = [MnaSystem(job.circuit) for job in jobs]
    results = [jobs[0].run()] if batch == 1 \
        else simulate_transient_many(jobs, mnas)
    level = 0.5 * VDD
    return {"kind": "transient", "variants": [{
        "job_key": job_key(job, mna),
        "newton_iters": int(res.stats["newton_iters"]),
        "halvings": int(res.stats["halvings"]),
        "backend": res.stats["backend"],
        "batch_size": int(res.stats["batch_size"]),
        "nodes": {name: {
            "rms": float(np.sqrt(np.mean(res.voltage_samples(name) ** 2))),
            "crossings": _crossings(res.times, res.voltage_samples(name),
                                    level)}
            for name in res.node_names},
    } for job, mna, res in zip(jobs, mnas, results)]}


def _dc_entry(bench, batch: int = 3, seeded: bool = True) -> dict:
    circuits, seeds = zip(*_bench(*bench, batch=batch))
    if not seeded:
        seeds = (None,) * batch
    mnas = [MnaSystem(c) for c in circuits]
    if batch == 1:
        results = [dc_operating_point(circuits[0], initial_voltages=seeds[0],
                                      mna=mnas[0])]
    else:
        results = dc_operating_point_batch(circuits, initial_voltages=seeds,
                                           mnas=mnas)
    return {"kind": "dc", "variants": [
        {"dc_key": dc_key(c, m, 0.0, s), "voltages": r.voltages()}
        for c, m, s, r in zip(circuits, mnas, seeds, results)]}


def compute() -> dict:
    """Every canonical workload, fingerprinted (keyed by workload name)."""
    out = {name: _transient_entry(*spec) for name, spec in TRANSIENT.items()}
    out["dc_I_batch3"] = _dc_entry(TABLE1)
    out["dc_I_scalar"] = _dc_entry(TABLE1, batch=1, seeded=False)
    return out


def _flatten(obj, path: str = ""):
    """``(path, leaf)`` pairs of a fingerprint tree (lists of floats are leaves)."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _flatten(value, f"{path}.{key}" if path else key)
    elif isinstance(obj, list) and obj and isinstance(obj[0], dict):
        for k, value in enumerate(obj):
            yield from _flatten(value, f"{path}[{k}]")
    else:
        yield path, obj


def _matches(path: str, want, got) -> bool:
    if path.endswith(".crossings"):
        return len(want) == len(got) and all(
            abs(a - b) <= CROSSING_ATOL for a, b in zip(want, got))
    if isinstance(want, float):
        return math.isclose(want, got, rel_tol=RMS_RTOL, abs_tol=VOLT_ATOL)
    return want == got


def compare(expected: dict, actual: dict) -> list[str]:
    """Human-readable mismatches between two fingerprint sets (empty = equal)."""
    want, got = dict(_flatten(expected)), dict(_flatten(actual))
    errors = [f"{path}: present on one side only"
              for path in want.keys() ^ got.keys()]
    errors += [f"{path}: {want[path]!r} != {got[path]!r}"
               for path in want.keys() & got.keys()
               if not _matches(path, want[path], got[path])]
    return sorted(errors)


def dump(fingerprints: dict) -> str:
    """JSON text with one line per workload variant (compact, diffable)."""
    blocks = []
    for name, entry in sorted(fingerprints.items()):
        variants = ",\n".join("  " + json.dumps(v, sort_keys=True)
                              for v in entry["variants"])
        blocks.append(f" {json.dumps(name)}: {{\"kind\": "
                      f"{json.dumps(entry['kind'])}, \"variants\": [\n"
                      f"{variants}]}}")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def load(path: Path = DATA_PATH) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--update", action="store_true",
                      help=f"rewrite {DATA_PATH.relative_to(REPO)}")
    mode.add_argument("--check", action="store_true",
                      help="exit 1 if any workload drifted")
    args = parser.parse_args(argv)

    actual = compute()
    if args.update:
        DATA_PATH.write_text(dump(actual), encoding="utf-8")
        print(f"wrote {DATA_PATH.relative_to(REPO)} "
              f"({len(actual)} workloads)")
        return 0
    errors = compare(load(), actual)
    for line in errors:
        print(line, file=sys.stderr)
    print("fingerprints " + ("DRIFTED" if errors else "unchanged"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
