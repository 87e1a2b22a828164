#!/usr/bin/env python
"""Smoke test of the design-taking STA front door over the golden corpus.

Four gates, run from the repo root::

    PYTHONPATH=src python tools/sta_corpus_smoke.py

1. **Corpus parse + golden check** — ``tests/data/c17.v`` parses, the
   NLDM engine (``tests/data/c17.lib``) reproduces every hand-computed
   arrival/slack in ``tests/data/golden.json`` to float tolerance, and
   the SDF engine (``tests/data/c17.sdf``) matches at all three corners.
2. **Sampler** — the sweep's per-sample factors (``_draw_block``,
   NumPy's PCG64 stepping and ziggurat fast path redone as array math)
   must equal ``exp`` of each sample's own ``_rng_for`` stream bit for
   bit, so a NumPy release that changes either fails here as a sampler
   mismatch, not as a quantile drift.  Checked before the timed sweeps,
   so neither pays the sampler's one-time table probe.
3. **Determinism** — a seeded Monte-Carlo statistical sweep of
   ``MIN_POOL_JOBS`` sample blocks is run serially (1 worker) and
   sharded (2 workers) and the quantiles must be **bit-for-bit
   identical**: JSON serialises doubles via ``repr``, which round-trips
   every finite value, so any deviation means the sharded merge changed
   the arithmetic.  The 2-worker leg must really reach the pool (mode
   ``sharded``) or count the shards it fell back on.
4. **Benchmark artifact** — timings and quantiles land in
   ``BENCH_ssta.json`` (``--out`` to rename) for CI to upload.

Used by CI's ``sta-corpus`` job.  Exits non-zero on any violation.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DATA = os.path.join(REPO, "tests", "data")
#: The sweep runs one pool job per block of samples; it needs at least
#: this many blocks before ``run_indexed`` forks a pool at all.
MIN_POOL_JOBS = 2
MC_SEED = 1234


def fail(message: str) -> "None":
    print(f"sta-corpus-smoke: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def check_close(label: str, got: float, want: float, rtol: float = 1e-9) -> None:
    if not math.isclose(got, want, rel_tol=rtol, abs_tol=1e-18):
        fail(f"{label}: got {got!r}, want {want!r}")


def load_corpus():
    from repro.library.liberty import parse_liberty
    from repro.sta import read_sdf, read_verilog

    with open(os.path.join(DATA, "c17.v")) as fh:
        netlist = read_verilog(fh.read())
    with open(os.path.join(DATA, "c17.lib")) as fh:
        library = parse_liberty(fh.read())
    with open(os.path.join(DATA, "c17.sdf")) as fh:
        delays = read_sdf(fh.read())
    with open(os.path.join(DATA, "golden.json")) as fh:
        golden = json.load(fh)
    return netlist, library, delays, golden


def check_golden(netlist, library, delays, golden) -> None:
    from repro.sta import InputSpec, SdfEngine, StaEngine

    inputs = {net: InputSpec(slew=50e-12) for net in netlist.primary_inputs}
    required = {net: golden["required_time"]
                for net in netlist.primary_outputs}

    result = StaEngine(library).analyze(netlist, inputs=inputs,
                                        required_times=required)
    g = golden["nldm"]
    for net, want in g["arrival_rise"].items():
        check_close(f"nldm arrival_rise[{net}]", result.rise[net].arrival, want)
    for net, want in g["arrival_fall"].items():
        check_close(f"nldm arrival_fall[{net}]", result.fall[net].arrival, want)
    for net, want in g["slack"].items():
        check_close(f"nldm slack[{net}]", result.slack(net), want)
    check_close("nldm required_rise[N16]", result.required_rise["N16"],
                g["required_rise_N16"])
    check_close("nldm required_fall[N16]", result.required_fall["N16"],
                g["required_fall_N16"])
    if result.critical_path("N22") != g["critical_path_N22"]:
        fail(f"critical path to N22: {result.critical_path('N22')}")

    g = golden["sdf"]
    for corner in ("min", "typ", "max"):
        scale = g["corner_scale"].get(corner, 1.0)
        engine = SdfEngine(delays, corner=corner, library=library)
        res = engine.analyze(netlist, inputs=inputs)
        for net, want in g["arrival_rise"].items():
            check_close(f"sdf[{corner}] arrival_rise[{net}]",
                        res.rise[net].arrival, want * scale)
        for net, want in g["arrival_fall"].items():
            check_close(f"sdf[{corner}] arrival_fall[{net}]",
                        res.fall[net].arrival, want * scale)
    print(f"sta-corpus-smoke: golden corpus OK "
          f"({netlist.name}: {len(netlist.instances)} instances, "
          f"3 SDF corners)")


def mc_spec(netlist, library):
    """The sweep's spec: what :func:`run_mc` hands the Monte-Carlo front
    door, so the block size below is the one the sweep derives."""
    from repro.sta import InputSpec
    from repro.sta.statistical import McVariation, _McSpec

    return _McSpec(
        netlist=netlist, library=dict(library), wire_specs={},
        inputs={net: InputSpec(slew=50e-12)
                for net in netlist.primary_inputs},
        required_times={net: 100e-12 for net in netlist.primary_outputs},
        variation=McVariation(), seed=MC_SEED,
        watch=tuple(netlist.primary_outputs))


def mc_samples(spec) -> int:
    """``MIN_POOL_JOBS`` of the sweep's blocks, as sized for the design."""
    from repro.sta.graph import TimingGraph
    from repro.sta.statistical import _block_size

    return MIN_POOL_JOBS * _block_size(spec, TimingGraph.build(spec.netlist))


def run_mc(spec, workers: int, samples: int):
    from repro.exec import ExecutionConfig
    from repro.sta import run_sta_monte_carlo

    execution = ExecutionConfig(workers=workers, min_pool_jobs=MIN_POOL_JOBS)
    t0 = time.perf_counter()
    result = run_sta_monte_carlo(
        spec.netlist, spec.library, wire_specs=spec.wire_specs,
        inputs=spec.inputs, required_times=spec.required_times,
        variation=spec.variation, samples=samples, seed=spec.seed,
        watch=spec.watch, execution=execution)
    return result, time.perf_counter() - t0


def check_sampler(spec, samples: int) -> None:
    """The sweep's factors against each sample's ``default_rng`` stream.

    Runs before the timed sweeps, so neither pays the sampler's one-time
    table probe.
    """
    import numpy as np

    from repro.sta.statistical import _draw_block, _rng_for

    cells = sorted(spec.library)
    scale, _wires = _draw_block(spec, range(samples))
    got = np.stack([scale[name] for name in cells], axis=1)
    sigma = spec.variation.sigma_cell
    for i, row in enumerate(got):
        want = np.exp(_rng_for("ssta", spec.seed, i).normal(
            0.0, sigma, size=len(cells)))
        if row.tobytes() != want.tobytes():
            fail(f"sampler mismatch at sample {i}: block factors "
                 f"{row.tolist()} != per-sample stream {want.tolist()} "
                 f"(NumPy {np.__version__} changed PCG64 or the ziggurat?)")
    print(f"sta-corpus-smoke: {samples}-sample factors equal the "
          f"per-sample streams bit for bit")


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_ssta.json",
                        help="benchmark artifact path (default %(default)s)")
    args = parser.parse_args(argv)

    netlist, library, delays, golden = load_corpus()
    check_golden(netlist, library, delays, golden)

    spec = mc_spec(netlist, library)
    samples = mc_samples(spec)
    check_sampler(spec, samples)
    serial, t_serial = run_mc(spec, workers=1, samples=samples)
    sharded, t_sharded = run_mc(spec, workers=2, samples=samples)
    blob_serial = json.dumps(serial.quantiles, sort_keys=True)
    blob_sharded = json.dumps(sharded.quantiles, sort_keys=True)
    if blob_serial != blob_sharded:
        fail("sharded MC quantiles differ from serial:\n"
             f"  serial : {blob_serial}\n  sharded: {blob_sharded}")
    if serial.diag.get("mode") != "serial":
        fail(f"1-worker run used mode {serial.diag.get('mode')!r}")
    fallbacks = sharded.diag.get("fallback_shards", 0)
    if sharded.diag.get("mode") != "sharded" and fallbacks < 1:
        fail(f"2-worker run never reached the pool: diag {sharded.diag}")
    if fallbacks:
        print(f"sta-corpus-smoke: note: sharded run fell back on "
              f"{fallbacks} shard(s)")
    print(f"sta-corpus-smoke: {samples}-sample MC quantiles bit-identical "
          f"across 1 and 2 workers (serial {t_serial:.2f}s, "
          f"sharded {t_sharded:.2f}s, mode {sharded.diag.get('mode')})")

    payload = {
        "design": netlist.name,
        "samples": samples,
        "seed": MC_SEED,
        "quantiles": serial.quantiles,
        "seconds": {"serial": t_serial, "sharded": t_sharded},
        "sharded_diag": sharded.diag,
    }
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2)
    print(f"sta-corpus-smoke: wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
