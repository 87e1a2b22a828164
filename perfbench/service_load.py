"""The ``service`` workload: the STA daemon under seeded open-loop load.

This module runs in the benchmark's own process, which is the single
load-generator process; the daemon (``daemon.py`` → ``repro.service``)
is the process under test, with concurrency 1 and a fresh result store
in the run's work directory.

Set-up: boot the daemon, then warm it with the four Table-1 specs (cold:
this fills the store) and one ladder.  The first response to each
Table-1 spec is the baseline every warm repeat must match bit for bit.

Load: ``RATE`` requests per second over at most two connections
(requests are pipelined; the service multiplexes a connection), due on a
near-periodic schedule (period ``1/RATE`` with ±25% seeded jitter, so
queueing comes from service-time variation rather than arrival bursts).
The mix repeats in blocks of four: three warm Table-1 repeats and one
fresh seeded 20-segment RC ladder at a seeded position.  Latency runs
from when a request was *due*, so a late generator shows up in it.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import re
import subprocess
import sys
import time

from common import BENCH_DIR, child_env, close, median, percentile

#: Offered load, requests/s: about a third of the daemon's capacity on a
#: 2-core host (mean service time ~90 ms), 180 requests in a 45 s run.
RATE = 4.0
#: Goodput latency limit.
LIMIT_S = 1.0
#: Settled ladder probe vs its exact DC value (V): the repo's <1e-9 V
#: equivalence tolerance.
SETTLE_TOL = 1e-9
#: The MNA's shunt to ground on every node (``repro.circuit.mna``
#: ``DEFAULT_GMIN``): a settled ladder sits a few uV below its target.
GMIN = 1e-9
SEGMENTS = 20
TENANT = "bench"

WARM_SPECS = [{"kind": "table1", "config": config, "n_cases": 2,
               "polarity": polarity, "dt": 2e-12}
              for config in ("I", "II") for polarity in ("opposing", "same")]


def settled(r: float, target: float) -> float:
    """Exact DC voltage at the far end of the gmin-loaded ladder."""
    loads = [GMIN]  # conductance seen into node k from node k-1, far end first
    for _ in range(SEGMENTS - 1):
        loads.append(GMIN + 1.0 / (r + 1.0 / loads[-1]))
    v = target
    for y in reversed(loads):
        v /= 1.0 + r * y
    return v


def ladder_spec(rng: random.Random) -> "tuple[dict, float]":
    """A fresh 20-segment RC ladder driven by a ramp.

    Returns the job spec and the exact settled far-end voltage.
    """
    r = rng.uniform(20.0, 30.0)
    c = rng.uniform(1.0e-15, 1.5e-15)
    target = rng.uniform(0.9, 1.3)
    elements = [{"kind": "vsource", "name": "Vin", "a": "n0", "b": "0",
                 "source": {"kind": "ramp", "t_start": 10e-12,
                            "slew": rng.uniform(40e-12, 60e-12),
                            "v_from": 0.0, "v_to": target}}]
    for k in range(SEGMENTS):
        elements.append({"kind": "resistor", "name": f"R{k}", "a": f"n{k}",
                         "b": f"n{k + 1}", "value": r})
        elements.append({"kind": "capacitor", "name": f"C{k}",
                         "a": f"n{k + 1}", "b": "0", "value": c})
    spec = {"kind": "transient", "netlist": {"name": "ladder",
                                             "elements": elements},
            "t_stop": 0.5e-9, "dt": 1e-12, "probes": [f"n{SEGMENTS}"]}
    return spec, settled(r, target)


def plan(seed: int, seconds: float) -> list[dict]:
    """The run's requests: due offset, spec, and what to check."""
    rng = random.Random(f"service:{seed}")
    requests = []
    n = int(seconds * RATE)
    for i in range(n):
        if i % 4 == 0:
            ladder_at = i + rng.randrange(4)
            warm_order = rng.sample(range(len(WARM_SPECS)), 3)
        due = (i + rng.uniform(-0.25, 0.25)) / RATE
        if i == ladder_at:
            spec, target = ladder_spec(rng)
            req = {"kind": "ladder", "spec": spec, "target": target}
        else:
            k = warm_order.pop()
            req = {"kind": "warm", "spec": WARM_SPECS[k], "warm": k}
        req["due"] = max(0.0, due)
        requests.append(req)
    return requests


class Connection:
    """One pipelined protocol connection; replies are matched in order."""

    def __init__(self, reader, writer):
        self.reader, self.writer = reader, writer
        self.unacked: list[dict] = []
        self.by_id: dict[int, dict] = {}

    @classmethod
    async def open(cls, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", port, limit=1 << 24)
        hello = json.loads(await reader.readline())
        if hello.get("event") != "hello":
            raise RuntimeError(f"expected hello, got {hello}")
        return cls(reader, writer)

    def send(self, message: dict) -> None:
        self.writer.write(json.dumps(message, separators=(",", ":"))
                          .encode() + b"\n")

    def submit(self, req: dict) -> None:
        req["sent"] = time.monotonic()
        req["finished"] = asyncio.get_running_loop().create_future()
        self.unacked.append(req)
        self.send({"op": "submit", "job": req["spec"], "client": TENANT})

    async def read_loop(self) -> None:
        while True:
            line = await self.reader.readline()
            if not line:
                return
            t0 = time.monotonic()
            msg = json.loads(line)
            decoded = time.monotonic() - t0
            event = msg.get("event")
            if event == "accepted":
                req = self.unacked.pop(0)
                req["id"] = msg["id"]
                self.by_id[msg["id"]] = req
            elif event in ("rejected", "error") and "id" not in msg:
                finish(self.unacked.pop(0), problem=f"{event}: {msg}",
                       rejected=event == "rejected")
            elif event == "bye":
                return
            elif msg.get("id") in self.by_id:
                req = self.by_id[msg["id"]]
                req["decode"] = req.get("decode", 0.0) + decoded
                if event == "waveform":
                    req["probe"] = msg["voltages"][-1]
                elif event == "done":
                    req["result"] = msg["result"]
                    finish(req)
                elif event == "error":
                    finish(req, problem=msg.get("error"))

    async def close(self) -> None:
        self.writer.close()
        await self.writer.wait_closed()


def finish(req: dict, problem: "str | None" = None,
           rejected: bool = False) -> None:
    req["done"] = time.monotonic()
    req["problem"] = problem
    req["rejected"] = rejected
    req["finished"].set_result(None)


def check(req: dict, baseline: list) -> "str | None":
    if req["problem"]:
        return req["problem"]
    if req["kind"] == "warm":
        if req["result"] != baseline[req["warm"]]:
            return f"warm table1 spec {req['warm']} differs from its first response"
        return None
    probe = req.get("probe")
    if probe is None or not close(probe, req["target"], SETTLE_TOL):
        return (f"ladder probe {probe!r} not within {SETTLE_TOL} V of its "
                f"settled value {req['target']!r}")
    return None


async def submit_one(conn: Connection, req: dict) -> None:
    conn.submit(req)
    await conn.writer.drain()
    await req["finished"]


async def drive(port: int, seed: int, seconds: float) -> dict:
    conns = [await Connection.open(port) for _ in range(2)]
    readers = [asyncio.create_task(c.read_loop()) for c in conns]
    t_warm = time.monotonic()
    warm = [{"kind": "warm", "spec": s, "warm": k}
            for k, s in enumerate(WARM_SPECS)]
    spec, target = ladder_spec(random.Random(f"service-warm:{seed}"))
    warm.append({"kind": "ladder", "spec": spec, "target": target})
    for req in warm:
        await submit_one(conns[0], req)
    baseline = [req.get("result") for req in warm[:len(WARM_SPECS)]]
    warm_problems = [p for p in (check(r, baseline) for r in warm) if p]
    t_ready = time.monotonic()

    requests = plan(seed, seconds)
    t0 = time.monotonic()
    for i, req in enumerate(requests):
        req["due"] += t0
        delay = req["due"] - time.monotonic()
        if delay > 0:
            await asyncio.sleep(delay)
        conns[i % 2].submit(req)
        await conns[i % 2].writer.drain()
    await asyncio.wait_for(asyncio.gather(*(r["finished"] for r in requests)),
                           timeout=seconds + 60.0)
    conns[0].send({"op": "shutdown"})
    await conns[0].writer.drain()
    for task in readers:
        await task
    for c in conns:
        await c.close()
    return {"t_warm": t_warm, "t_ready": t_ready, "t0": t0,
            "warm_problems": warm_problems,
            "requests": [{"kind": r["kind"], "id": r.get("id"),
                          "due": r["due"], "sent": r["sent"],
                          "done": r["done"], "rejected": r["rejected"],
                          "decode": r.get("decode", 0.0),
                          "problem": check(r, baseline)} for r in requests]}


def peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")


async def drive_and_sample(proc, port, seed, seconds) -> "tuple[dict, float]":
    """Drive the load, sampling the daemon's high-water mark until it exits."""
    rss = 0.0
    task = asyncio.create_task(drive(port, seed, seconds))
    while not task.done():
        try:
            rss = peak_rss_mb(proc.pid)
        except (OSError, RuntimeError):
            pass  # the daemon has exited: keep the last sample
        await asyncio.sleep(0.2)
    return task.result(), rss


def run(seed: int, seconds: float, trace: bool, work_dir: str) -> dict:
    """One service run; returns the report run.py turns into metrics."""
    trace_file = os.path.join(work_dir, "spans.json")
    cmd = [sys.executable, os.path.join(BENCH_DIR, "daemon.py"),
           "--port", "0", "--concurrency", "1"]
    if trace:
        cmd += ["--trace-file", trace_file]
    env = child_env(work_dir, REPRO_STORE=os.path.join(work_dir, "store"))
    with open(os.path.join(work_dir, "daemon.log"), "w") as log:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                                stderr=log, text=True)
        try:
            imported = float(proc.stdout.readline().split()[-1])
            line = proc.stdout.readline()
            listening = time.monotonic()
            match = re.search(r"listening on \S+:(\d+)", line)
            if match is None:
                raise RuntimeError(f"daemon did not start: {line!r}")
            report, rss = asyncio.run(drive_and_sample(
                proc, int(match.group(1)), seed, seconds))
            proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    report.update(spawned=spawned, imported=imported, listening=listening,
                  peak_rss_mb=rss)
    if trace:
        with open(trace_file) as fh:
            report["trace"] = json.load(fh)
    return report


def metrics(report: dict) -> dict:
    """End-to-end metrics and the request tally of one service run."""
    reqs = report["requests"]
    latencies = [r["done"] - r["due"] for r in reqs if not r["problem"]]
    good = sum(1 for lat in latencies if lat <= LIMIT_S)
    window = max(r["done"] for r in reqs) - report["t0"]
    setup = {"setup_s": report["t_ready"] - report["spawned"],
             "import_s": report["imported"] - report["spawned"],
             "build_s": report["listening"] - report["imported"],
             "warmup_s": report["t_ready"] - report["t_warm"]}
    return {
        "setups": [setup],
        "e2e": {"setup_s": setup["setup_s"],
                "peak_rss_mb": report["peak_rss_mb"],
                "throughput_per_s": good / window},
        "attempted": len(reqs),
        "failed": sum(1 for r in reqs if r["problem"]),
        "problems": report["warm_problems"]
        + [r["problem"] for r in reqs if r["problem"]],
    }


def layer(report: dict) -> dict:
    """Per-layer metrics of a traced service run (even service ids)."""
    import tracing
    trace = report["trace"]
    reqs = [r for r in report["requests"] if r["id"] is not None]
    traced = [r for r in reqs if r["id"] % 2 == 0]
    marks = trace["marks"]
    exec_s = {str(s[4]): (s[1], s[2] - s[1]) for s in trace["spans"]
              if s[0] == "service.exec"}

    def parts(r):
        """(generator lag, request parse, queue wait, execution, event
        encode + decode, wire total)."""
        m = marks[str(r["id"])]
        start, run = exec_s[str(r["id"])]
        wait = start - m["submit"]
        wire = (r["done"] - r["sent"]) - m["parse"] - wait - run
        return (r["sent"] - r["due"], m["parse"], wait, run,
                m.get("encode", 0.0) + r["decode"], wire)

    split = {r["id"]: parts(r) for r in reqs}
    out = tracing.layer_metrics(trace["spans"], trace["counts"],
                                [r["id"] for r in traced])

    def ms(index, q=0.5):
        return 1e3 * percentile([p[index] for p in split.values()], q)

    out.update({
        "service.gen_lag_ms": ms(0, 0.9),
        "service.queue_wait_ms": ms(2),
        "service.exec_ms": ms(3),
        "service.wire_ms": ms(5),
        "service.rejected": float(sum(r["rejected"]
                                      for r in report["requests"])),
    })
    # Spans cover all but socket transport and event-loop hand-offs.
    shares = [sum(split[r["id"]][:5]) / (r["done"] - r["due"])
              for r in traced]

    def warm_p50(subset):
        return median([r["done"] - r["due"] for r in subset
                       if r["kind"] == "warm"])

    untraced = [r for r in reqs if r["id"] % 2 == 1]
    overhead = 100.0 * (warm_p50(traced) / warm_p50(untraced) - 1.0)
    return {"layer": out, "coverage": shares, "overhead_pct": overhead}
