#!/usr/bin/env python
"""Behaviour fingerprints of the transient, DC and static-timing engines.

Runs a fixed set of canonical workloads and reduces each result to
statistics that survive a change of CPU or LAPACK build: per-node RMS,
50%-of-Vdd crossing times, Newton iteration counts, the solver backend
that ran, and the result-store key digest of every transient job; for
the c17 corpus, every net's nominal NLDM arrival and slew, the slacks,
the SDF arrivals at each corner, and the quantiles of a seeded
Monte-Carlo SSTA sweep; the Table-1 Config-II error statistics of every
technique; and the RMS and crossings of every Figure-2 series.  Raw solution
bytes are deliberately not hashed — LAPACK rounding differs across
CPUs, so a byte hash would pin the machine, not the behaviour.

``tests/test_fingerprints.py`` recomputes every workload and compares it
with the checked-in ``tests/data/fingerprints.json``:

* RMS and DC node voltages, and the static-timing values (stored in
  ps), to 1e-9 relative (1e-12 absolute floor, for nodes that sit at
  0 V);
* crossing times to 1e-15 s, with the crossing count exact;
* Newton iteration and step-halving counts, backends, batch sizes and
  key digests exact.

Only an explicit ``--update`` rewrites the file; naming workloads
recomputes only those entries and keeps every other line as it is::

    PYTHONPATH=src python tools/fingerprints.py --update   # regenerate
    PYTHONPATH=src python tools/fingerprints.py --update sta_c17
    PYTHONPATH=src python tools/fingerprints.py --check    # compare, exit 1 on drift
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from functools import partial
from pathlib import Path

import numpy as np

from repro.circuit.dc import dc_operating_point, dc_operating_point_batch
from repro.circuit.mna import MnaSystem
from repro.circuit.netlist import Circuit
from repro.circuit.sources import RampSource
from repro.circuit.transient import (TransientJob, TransientOptions,
                                     simulate_transient_many)
from repro.core.ramp import SaturatedRamp
from repro.exec import ExecutionConfig
from repro.exec.store import job_key
from repro.experiments.figure2 import generate_figure2
from repro.experiments.noise_injection import SweepTiming
from repro.experiments.setup import (CONFIG_I, CONFIG_II, build_testbench,
                                     receiver_fixture)
from repro.experiments.table1 import run_table1
from repro.interconnect.coupling import CouplingSpec, add_coupled_lines
from repro.interconnect.rcline import RcLineSpec
from repro.library.cells import make_inverter
from repro.library.liberty import parse_liberty
from repro.sta import (InputSpec, SdfEngine, StaEngine, read_sdf,
                       read_verilog, run_sta_monte_carlo)

REPO = Path(__file__).resolve().parent.parent
DATA_PATH = REPO / "tests" / "data" / "fingerprints.json"
CORPUS = REPO / "tests" / "data"

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

#: A victim and two aggressor lines, coupled, 48 segments each and driven
#: straight by ramp sources: MOSFET-free, so the forced ``sparse`` and
#: ``banded`` requests run the factor-once linear solvers.
BUNDLE_SEGMENTS = 48
BUNDLE_OPTIONS = (TransientOptions(backend="sparse", adaptive=False),
                  TransientOptions(backend="banded", adaptive=False))

#: Monte-Carlo SSTA over c17: sample count, base seed, and the wires
#: the sweep adds on two internal nets so both σ axes (cell and R/C)
#: draw.
STA_MC = (512, 1234, {"N11": RcLineSpec(total_r=200.0, total_c=4e-15),
                      "N16": RcLineSpec(total_r=350.0, total_c=6e-15,
                                        n_segments=3)})


#: Table-1 Config II: case count of the sweep and its time step (the
#: benchmark's 2 ps).  Four cases keep the entry near 2.5 s; six already
#: reach the WLS5 fit whose 113 ns "ramp" costs a 57,604-step re-simulation.
TABLE1_II = (4, 2e-12)


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


def _bundle_jobs() -> list:
    """The RC bundle once per linear structured backend."""
    circuit = Circuit(f"rc_bundle_{BUNDLE_SEGMENTS}")
    terminals = []
    for k in range(3):
        circuit.vsource(f"V{k}", f"in{k}", "0",
                        RampSource(0.2e-9, 150e-12, 0.0, VDD))
        circuit.capacitor(f"cl{k}", f"out{k}", "0", 5e-15)
        terminals.append((f"in{k}", f"out{k}"))
    add_coupled_lines(
        circuit, "bundle", terminals,
        [RcLineSpec.from_length(1000.0, n_segments=BUNDLE_SEGMENTS)] * 3,
        [CouplingSpec(0, k, 100e-15) for k in (1, 2)])
    return [TransientJob(circuit, t_stop=1e-9, dt=DT, options=options)
            for options in BUNDLE_OPTIONS]


def _receiver_jobs() -> list:
    """The Config-I receiver fixture driven by a rising and a falling ramp."""
    fixture = receiver_fixture(CONFIG_I, dt=DT, adaptive=False)
    return [fixture.transient_job(
        SaturatedRamp.from_arrival_slew(0.3e-9, 150e-12, VDD, rising=rising),
        (0.0, 1.0e-9)) for rising in (True, False)]


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
    return _jobs_entry([TransientJob(circuit, t_stop=t_stop, dt=dt,
                                     initial_voltages=initial, options=options)
                        for circuit, initial in build(*args, batch=batch)])


def _jobs_entry(jobs: list) -> dict:
    mnas = [MnaSystem(job.circuit) for job in jobs]
    results = [jobs[0].run()] if len(jobs) == 1 \
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
        {"voltages": r.voltages()} for r in results]}


def _ps(tree):
    """``tree`` with every float leaf converted from seconds to ps."""
    if isinstance(tree, dict):
        return {key: _ps(value) for key, value in tree.items()}
    return tree * 1e12


def _timing(result) -> dict:
    """``{edge: {net: {"arrival_ps", "slew_ps"}}}`` of an STA result."""
    return {edge: {net: {"arrival_ps": t.arrival * 1e12,
                         "slew_ps": t.slew * 1e12}
                   for net, t in timing.items()}
            for edge, timing in (("rise", result.rise), ("fall", result.fall))}


def _sta_entry() -> dict:
    """c17: nominal NLDM and SDF timing of every net, then MC quantiles.

    Every time is stored in ps, so :data:`VOLT_ATOL` (a floor meant for
    volts) cannot hide a relative drift of a picosecond-scale value.
    """
    netlist = read_verilog((CORPUS / "c17.v").read_text(encoding="utf-8"))
    library = parse_liberty((CORPUS / "c17.lib").read_text(encoding="utf-8"))
    delays = read_sdf((CORPUS / "c17.sdf").read_text(encoding="utf-8"))
    golden = json.loads((CORPUS / "golden.json").read_text(encoding="utf-8"))
    inputs = {net: InputSpec(slew=50e-12) for net in netlist.primary_inputs}
    required = {net: golden["required_time"]
                for net in netlist.primary_outputs}
    nominal = StaEngine(library).analyze(netlist, inputs=inputs,
                                         required_times=required)
    samples, seed, wires = STA_MC
    mc = run_sta_monte_carlo(netlist, library, wire_specs=wires,
                             inputs=inputs, required_times=required,
                             samples=samples, seed=seed, journal=False,
                             execution=ExecutionConfig(workers=1))
    return {"kind": "sta", "variants": [
        {"nominal": _timing(nominal),
         "slack_ps": {net: nominal.slack(net) * 1e12
                      for net in nominal.required}},
        {"sdf": {corner: _timing(SdfEngine(delays, corner=corner,
                                           library=library)
                                 .analyze(netlist, inputs=inputs))
                 for corner in ("min", "typ", "max")}},
        {"mc": {"samples": samples, "seed": seed,
                "quantiles_ps": _ps(mc.quantiles)}},
    ]}


def _stats_ps(s) -> dict:
    """An :class:`~repro.core.metrics.ErrorStats` with its times in ps."""
    return {"count": s.count, "failures": s.failures,
            "max_ps": s.max_abs * 1e12, "mean_ps": s.mean_abs * 1e12,
            "rms_ps": s.rms * 1e12, "bias_ps": s.mean_signed * 1e12}


def _table1_entry(config, n_cases: int, dt: float) -> dict:
    """Every technique's delay and arrival error statistics, in ps."""
    result = run_table1(config, n_cases=n_cases, timing=SweepTiming(dt=dt),
                        adaptive=False, journal=False,
                        execution=ExecutionConfig(workers=1))
    return {"kind": "table1", "variants": [
        {"n_cases": n_cases, "polarity": result.polarity,
         "rows": {r.technique: {"delay": _stats_ps(r.delay),
                                "arrival": _stats_ps(r.arrival)}
                  for r in result.rows}}]}


def _figure2_entry() -> dict:
    """RMS and 50%-of-Vdd crossings of every Figure-2 series."""
    data = generate_figure2(adaptive=False,
                            execution=ExecutionConfig(workers=1))
    return {"kind": "figure2", "variants": [{"series": {
        f.name: {"rms": float(np.sqrt(np.mean(getattr(data, f.name) ** 2))),
                 "crossings": _crossings(data.times, getattr(data, f.name),
                                         0.5 * VDD)}
        for f in dataclasses.fields(data) if f.name != "times"}}]}


#: Every canonical workload: name → function computing its fingerprint.
WORKLOADS = {
    **{name: partial(_transient_entry, *spec)
       for name, spec in TRANSIENT.items()},
    "rc_bundle3_sparse_banded": lambda: _jobs_entry(_bundle_jobs()),
    "receiver_I_batch2": lambda: _jobs_entry(_receiver_jobs()),
    "dc_I_batch3": partial(_dc_entry, TABLE1),
    "dc_I_scalar": partial(_dc_entry, TABLE1, batch=1, seeded=False),
    "dc_deep96_batch3": partial(_dc_entry, DEEP_LINE),
    "sta_c17": _sta_entry,
    "table1_II": partial(_table1_entry, CONFIG_II, *TABLE1_II),
    "figure2_I": _figure2_entry,
}


def compute(names=None) -> dict:
    """The named workloads (default: all), fingerprinted, keyed by name."""
    return {name: WORKLOADS[name]() for name in (names or WORKLOADS)}


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


def load(path: "Path | None" = None) -> dict:
    return json.loads((path or DATA_PATH).read_text(encoding="utf-8"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--update", nargs="*", metavar="NAME",
                      help=f"rewrite {os.path.relpath(DATA_PATH, REPO)}; with "
                           "NAMEs, recompute only those entries")
    mode.add_argument("--check", action="store_true",
                      help="exit 1 if any workload drifted")
    args = parser.parse_args(argv)

    if args.update is not None:
        unknown = sorted(set(args.update) - WORKLOADS.keys())
        if unknown:
            parser.error(f"unknown workload(s) {', '.join(unknown)}; "
                         f"choose from {', '.join(WORKLOADS)}")
        actual = compute(args.update)
        merged = {**load(), **actual} if args.update else actual
        DATA_PATH.write_text(dump(merged), encoding="utf-8")
        print(f"wrote {os.path.relpath(DATA_PATH, REPO)} "
              f"({len(actual)} of {len(merged)} workloads recomputed)")
        return 0
    errors = compare(load(), compute())
    for line in errors:
        print(line, file=sys.stderr)
    print("fingerprints " + ("DRIFTED" if errors else "unchanged"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
