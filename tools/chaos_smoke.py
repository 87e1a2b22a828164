#!/usr/bin/env python
"""Chaos smoke: kill -9 a journalled sweep, resume it bit-identically,
then storm the execution stack through the seeded fault registry.

Two halves, run from the repo root::

    PYTHONPATH=src python tools/chaos_smoke.py

1. **Kill-and-resume** — a 32-sample Monte-Carlo statistical sweep over
   the checked-in c17 corpus is started in a child process with
   ``REPRO_JOURNAL=1`` and SIGKILLed (the real signal, not an
   exception) after a fixed number of journalled samples.  The rerun
   must resume at the first unfinished sample and produce quantiles
   **byte-identical** to an uninterrupted fresh run's, and the journal
   must be gone afterwards.
2. **Fault-plan matrix** — seeded storms through the registry's
   production seams: pool worker crash and wedge (results bit-identical
   to the serial path via inline re-solve), store corrupt-read healing
   and ENOSPC miss-only degradation, and a mid-stream service
   disconnect that drops one client without killing the service.

Every check lands in ``CHAOS_report.json`` (``--out`` to rename) for CI
to upload.  Used by CI's ``chaos`` job.  Exits non-zero on any
violation.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
import warnings

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DATA = os.path.join(REPO, "tests", "data")
MC_SAMPLES = 32
MC_SEED = 1234
KILL_AFTER = 12

REPORT: list[dict] = []


def fail(message: str) -> None:
    print(f"chaos-smoke: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def check(name: str, ok: bool, message: str, **details) -> None:
    REPORT.append({"check": name, "ok": bool(ok), **details})
    if not ok:
        fail(f"{name}: {message}")
    print(f"chaos-smoke: {name} OK")


def load_corpus():
    from repro.library.liberty import parse_liberty
    from repro.sta import read_verilog

    with open(os.path.join(DATA, "c17.v")) as fh:
        netlist = read_verilog(fh.read())
    with open(os.path.join(DATA, "c17.lib")) as fh:
        library = parse_liberty(fh.read())
    return netlist, library


def run_mc(store_root: str, journal: "bool | None"):
    from repro.exec import ExecutionConfig, ResultStore
    from repro.sta import InputSpec, run_sta_monte_carlo

    netlist, library = load_corpus()
    execution = ExecutionConfig(workers=1,
                                store=ResultStore(store_root))
    inputs = {net: InputSpec(slew=50e-12) for net in netlist.primary_inputs}
    required = {net: 100e-12 for net in netlist.primary_outputs}
    return run_sta_monte_carlo(netlist, library, inputs=inputs,
                               required_times=required,
                               samples=MC_SAMPLES, seed=MC_SEED,
                               execution=execution, journal=journal)


# ----------------------------------------------------------------------
# child: journal a sweep, then die by real SIGKILL mid-run
# ----------------------------------------------------------------------
def child_main(store_root: str, kill_after: int) -> int:
    import repro.exec.journal as journal_mod

    orig = journal_mod.RunJournal.record
    recorded = {"n": 0}

    def dying_record(self, i, row):
        orig(self, i, row)
        recorded["n"] += 1
        if recorded["n"] >= kill_after:
            os.kill(os.getpid(), signal.SIGKILL)

    journal_mod.RunJournal.record = dying_record
    run_mc(store_root, journal=True)
    return 1  # unreachable when the kill fires


# ----------------------------------------------------------------------
# parent checks
# ----------------------------------------------------------------------
def check_kill_and_resume(tmp: str) -> None:
    fresh_store = os.path.join(tmp, "fresh")
    chaos_store = os.path.join(tmp, "chaos")

    base = run_mc(fresh_store, journal=False)
    blob_base = json.dumps(base.quantiles, sort_keys=True)

    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__),
         "--child", "--store", chaos_store,
         "--kill-after", str(KILL_AFTER)],
        cwd=REPO, env=dict(os.environ, PYTHONPATH="src"),
        capture_output=True, text=True, timeout=600)
    check("child-killed", proc.returncode == -signal.SIGKILL,
          f"child exited {proc.returncode}, wanted -SIGKILL:\n"
          f"{proc.stdout}{proc.stderr}", returncode=proc.returncode)

    journals = [os.path.join(root, name)
                for root, _, names in os.walk(os.path.join(chaos_store,
                                                           "journal"))
                for name in names if name.endswith(".jsonl")]
    lines = (sum(1 for _ in open(journals[0], "rb")) if journals else 0)
    check("journal-survives", len(journals) == 1 and lines >= 1 + KILL_AFTER,
          f"wanted one journal with >= {1 + KILL_AFTER} lines, "
          f"found {journals} with {lines}",
          journals=len(journals), lines=lines)

    res = run_mc(chaos_store, journal=True)
    jdiag = res.diag.get("journal", {})
    check("resume-skips-done", jdiag.get("resumed", 0) >= KILL_AFTER,
          f"resumed {jdiag}, wanted >= {KILL_AFTER} samples", **jdiag)
    blob_res = json.dumps(res.quantiles, sort_keys=True)
    check("resume-bit-identical", blob_res == blob_base,
          f"resumed quantiles differ:\n  fresh : {blob_base}\n"
          f"  resume: {blob_res}")
    check("journal-cleaned-up",
          not any(os.path.exists(p) for p in journals),
          "journal file survived a finished run")


def _rc_jobs(n: int):
    from repro.circuit.netlist import Circuit
    from repro.circuit.sources import RampSource
    from repro.circuit.transient import TransientJob

    # Two resistor values, so two job groups: shards hold whole groups,
    # and a one-group list would run inline without reaching the pool.
    jobs = []
    for k in range(n):
        c = Circuit("rc")
        c.vsource("Vin", "in", "0",
                  RampSource(20e-12 + 10e-12 * k, 1e-10, 0.0, 1.2))
        c.resistor("R1", "in", "out", 1e3 if k % 2 == 0 else 2e3)
        c.capacitor("C1", "out", "0", 2e-14)
        jobs.append(TransientJob(c, t_stop=5e-10, dt=2e-12))
    return jobs


def _identical(results, baseline) -> bool:
    import numpy as np

    return all(np.array_equal(res.times, ref.times)
               and np.array_equal(res._x, ref._x)
               for res, ref in zip(results, baseline))


def check_fault_matrix(tmp: str) -> None:
    from repro.circuit.transient import simulate_transient_many
    from repro.exec import ExecutionConfig, ResultStore, run_jobs
    from repro.faults import injected
    from repro.service import ServiceClient, ServiceSettings, serve_in_thread

    baseline = simulate_transient_many(_rc_jobs(8))

    diag: dict = {}
    with injected("seed=1; pool.worker=crash"):
        results = run_jobs(_rc_jobs(8),
                           ExecutionConfig(workers=2, min_pool_jobs=2),
                           diag=diag)
    check("pool-crash", _identical(results, baseline)
          and diag["fallback_shards"] >= 1,
          f"crash storm changed results or never fired: {diag}", **diag)

    diag = {}
    t0 = time.monotonic()
    with injected("pool.worker=wedge:arg=30"):
        results = run_jobs(_rc_jobs(6),
                           ExecutionConfig(workers=2, min_pool_jobs=2,
                                           shard_timeout=0.3),
                           diag=diag)
    elapsed = time.monotonic() - t0
    check("pool-wedge", _identical(results, baseline) and elapsed < 60.0,
          f"wedge storm hung ({elapsed:.1f}s) or changed results: {diag}",
          elapsed_seconds=round(elapsed, 2), **diag)

    store = ResultStore(os.path.join(tmp, "matrix"))
    cfg = ExecutionConfig(store=store)
    warm = run_jobs(_rc_jobs(1), cfg)
    with injected("seed=3; store.read=corrupt:n=1"):
        healed = run_jobs(_rc_jobs(1), cfg)
    check("store-corrupt", _identical(healed, warm)
          and store.corrupt == 1 and not store.miss_only,
          f"corrupt read did not heal cleanly "
          f"(corrupt={store.corrupt}, miss_only={store.miss_only})",
          corrupt=store.corrupt)

    store = ResultStore(os.path.join(tmp, "enospc"))
    cfg = ExecutionConfig(store=store)
    solo = [_rc_jobs(1)[0].run()]
    with injected("store.write=enospc:n=1"):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            results = run_jobs(_rc_jobs(1), cfg)
    check("store-enospc", _identical(results, solo)
          and store.miss_only and store.write_failures == 1
          and len(store) == 0,
          f"ENOSPC did not degrade to miss-only "
          f"(miss_only={store.miss_only}, "
          f"write_failures={store.write_failures})",
          write_failures=store.write_failures)

    svc, shutdown = serve_in_thread(ServiceSettings(port=0))
    try:
        dropped = False
        with injected("service.send=disconnect:after=1:n=1"):
            victim = ServiceClient(port=svc.port, timeout=10.0)
            try:
                victim.ping()
            except (ConnectionError, OSError):
                dropped = True
            finally:
                victim.close()
        with ServiceClient(port=svc.port, timeout=10.0) as healthy:
            alive = healthy.ping()["event"] == "pong"
        check("service-disconnect",
              dropped and alive and svc.dropped_clients >= 1,
              f"disconnect storm: dropped={dropped}, alive={alive}, "
              f"counter={svc.dropped_clients}",
              dropped_clients=svc.dropped_clients)
    finally:
        shutdown()


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="CHAOS_report.json",
                        help="report artifact path (default %(default)s)")
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--store", help=argparse.SUPPRESS)
    parser.add_argument("--kill-after", type=int, default=KILL_AFTER,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child:
        return child_main(args.store, args.kill_after)

    import tempfile

    with tempfile.TemporaryDirectory(prefix="chaos-smoke-") as tmp:
        check_kill_and_resume(tmp)
        check_fault_matrix(tmp)

    with open(args.out, "w") as fh:
        json.dump({"tool": "chaos_smoke", "samples": MC_SAMPLES,
                   "kill_after": KILL_AFTER, "checks": REPORT}, fh,
                  indent=2)
    print(f"chaos-smoke: all {len(REPORT)} checks passed -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
