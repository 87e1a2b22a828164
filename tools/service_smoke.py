#!/usr/bin/env python
"""End-to-end smoke test of the STA job service.

Boots the daemon (``python -m repro.service --port 0``) as a real
subprocess with an on-disk store, submits a small Table-1 case over the
wire, shuts the daemon down cleanly — then re-runs the *same* case
through the in-process batch path against the store the daemon warmed
and asserts:

* a malformed Table-1 spec (an unknown solver backend) is refused at
  submit with an ``error`` reply and never ``accepted``, and the
  daemon's ``stats`` then count it as one bad request and no job error,
* the warm batch run performs **zero** transient solves (every job is
  a store hit in the ``smoke`` tenant's namespace), and
* every row matches the service's streamed rows **bit for bit** (JSON
  serialises doubles via ``repr``, which round-trips every finite
  value — any deviation means the two paths diverged numerically).

Exits non-zero on any violation; run from the repo root::

    PYTHONPATH=src python tools/service_smoke.py

Used by CI's ``service-smoke`` job.
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys
import tempfile
import time

N_CASES = 2
JOB = {"kind": "table1", "config": "I", "n_cases": N_CASES,
       "polarity": "opposing"}
BAD_JOB = dict(JOB, solver_backend="bogus")
TENANT = "smoke"


def fail(message: str) -> "None":
    print(f"service-smoke: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def boot_daemon(store_dir: str, src_dir: str) -> "tuple[subprocess.Popen, int]":
    env = dict(os.environ, REPRO_STORE=store_dir,
               PYTHONPATH=src_dir + os.pathsep + os.environ.get("PYTHONPATH", ""),
               PYTHONUNBUFFERED="1")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.service", "--port", "0"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True)
    line = proc.stdout.readline()
    match = re.search(r"listening on \S+:(\d+)", line)
    if match is None:
        proc.kill()
        fail(f"daemon did not announce a port (got {line!r})")
    return proc, int(match.group(1))


def submit_malformed(svc) -> None:
    """``BAD_JOB`` must get an ``error`` reply with no ``accepted``."""
    from repro.service import ServiceError

    events = []
    try:
        for event in svc.iter_submit(BAD_JOB):
            events.append(event["event"])
    except ServiceError as exc:
        if events:
            fail(f"malformed spec was admitted ({events}) and then "
                 f"failed: {exc}")
        print(f"service-smoke: malformed spec refused at submit: {exc}")
        return
    fail(f"malformed spec ran to completion ({events})")


def run_over_the_wire(port: int) -> "tuple[dict, list]":
    from repro.service import ServiceClient

    rows = []
    with ServiceClient(port=port, client=TENANT, timeout=600.0) as svc:
        pong = svc.ping()
        if pong.get("version") != 1:
            fail(f"unexpected protocol version in {pong}")
        submit_malformed(svc)
        result = svc.submit(JOB, on_event=lambda ev: rows.append(ev)
                            if ev.get("event") == "row" else None)
        stats = svc.stats()
        if (stats["job_errors"], stats["bad_requests"]) != (0, 1):
            fail(f"expected job_errors == 0 and bad_requests == 1, got "
                 f"{stats['job_errors']} and {stats['bad_requests']}")
        svc.shutdown()
    return result, rows


def run_batch_warm(store_dir: str) -> "tuple[object, int]":
    """The same case through run_table1 on the daemon-warmed store,
    counting transient solves."""
    from repro.exec import ExecutionConfig, ResultStore
    from repro.exec import pool as pool_mod
    from repro.experiments.setup import CONFIG_I
    from repro.experiments.table1 import run_table1

    solves = {"jobs": 0}
    real = pool_mod.simulate_transient_many

    def counted(jobs, *args, **kwargs):
        solves["jobs"] += len(jobs)
        return real(jobs, *args, **kwargs)

    pool_mod.simulate_transient_many = counted
    try:
        store = ResultStore(store_dir).namespaced(TENANT)
        table = run_table1(CONFIG_I, n_cases=N_CASES, polarity="opposing",
                           execution=ExecutionConfig(workers=1, store=store))
    finally:
        pool_mod.simulate_transient_many = real
    return table, solves["jobs"]


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--keep-store", action="store_true",
                        help="print the store directory instead of "
                             "deleting it")
    args = parser.parse_args(argv)

    here = os.path.dirname(os.path.abspath(__file__))
    src_dir = os.path.join(os.path.dirname(here), "src")
    sys.path.insert(0, src_dir)

    tmp = tempfile.TemporaryDirectory(prefix="repro-service-smoke-")
    store_dir = os.path.join(tmp.name, "store")

    t0 = time.monotonic()
    proc, port = boot_daemon(store_dir, src_dir)
    print(f"service-smoke: daemon up on port {port}")
    try:
        result, row_events = run_over_the_wire(port)
        code = proc.wait(timeout=60.0)
    except BaseException:  # fail() exits: never leave the daemon running
        proc.kill()
        raise
    if code != 0:
        fail(f"daemon exited with status {code}")
    print(f"service-smoke: cold Table-1 over the wire in "
          f"{time.monotonic() - t0:.1f}s, clean daemon shutdown")

    tables = result.get("tables", [])
    if len(tables) != 1 or not row_events:
        fail(f"expected 1 streamed table, got {result}")
    wire_rows = {row["technique"]: row for row in tables[0]["rows"]}
    streamed = {row["technique"]: row for row in row_events}
    for technique, row in wire_rows.items():
        for field in ("delay", "arrival"):
            if streamed[technique][field] != row[field]:
                fail(f"streamed row for {technique} differs from the "
                     f"final result payload")

    table, solve_count = run_batch_warm(store_dir)
    if solve_count != 0:
        fail(f"warm batch rerun performed {solve_count} transient "
             f"solves; the daemon-warmed store must satisfy all of them")
    print("service-smoke: warm batch rerun performed 0 transient solves")

    for row in table.rows:
        wire = wire_rows.get(row.technique)
        if wire is None:
            fail(f"service result missing technique {row.technique!r}")
        pairs = [
            (wire["delay"]["max_abs"], row.delay.max_abs),
            (wire["delay"]["mean_abs"], row.delay.mean_abs),
            (wire["delay"]["rms"], row.delay.rms),
            (wire["arrival"]["max_abs"], row.arrival.max_abs),
            (wire["arrival"]["mean_abs"], row.arrival.mean_abs),
            (wire["arrival"]["mean_signed"], row.arrival.mean_signed),
        ]
        for got, want in pairs:
            if got != want:  # bit-for-bit, not approx
                fail(f"{row.technique}: service row {got!r} != batch "
                     f"row {want!r}")
    print(f"service-smoke: {len(table.rows)} rows bit-for-bit identical "
          f"between service and batch paths")

    if args.keep_store:
        print(f"service-smoke: store kept at {store_dir}")
        tmp._finalizer.detach()  # noqa: SLF001 - keep the directory
    else:
        tmp.cleanup()
    print("service-smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
