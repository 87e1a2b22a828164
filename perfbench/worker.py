"""The process under test for the in-process workloads.

Started by ``run.py`` once per set-up measurement.  With ``--mode setup``
it imports, builds and warms up, reports the set-up split and exits;
with ``--mode measure`` it then runs requests on the seed's pool entries
for about ``--seconds`` and reports every request.  The last stdout line
is one JSON object.

Set-up time runs from ``--spawned`` (the parent's ``time.monotonic()``
just before it started this process; the clock is system-wide) to the
end of the warm-up request.

Measured window: whole requests, started while the one just finished
would still fit in what is left of ``--seconds`` (at least one; at
least two with ``--trace 1``).  With ``--trace 1`` requests alternate
untraced / traced, so the tracing overhead is read off the same process.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import sys
import time

from common import entry_order, load_reference
from workloads import WORKLOADS


def measure(workload, args, tracer) -> dict:
    reference = load_reference(workload.name)
    entries = entry_order(workload.name, args.seed)
    min_requests = 2 if tracer is not None else 1
    requests = []
    t_begin = time.monotonic()
    last = 0.0
    while True:
        elapsed = time.monotonic() - t_begin
        if len(requests) >= min_requests and elapsed + last > args.seconds:
            break
        i = len(requests)
        entry = entries[i % len(entries)]
        traced = tracer is not None and i % 2 == 1
        if traced:
            tracing_on(tracer, i, True)
            root = tracer.begin("request", i)
        t0 = time.monotonic()
        try:
            units, output = workload.request(entry)
            problem = None
        except Exception as exc:  # a failed operation, reported, not fatal
            units, output = 0, None
            problem = f"{type(exc).__name__}: {exc}"
        last = time.monotonic() - t0
        if traced:
            tracer.end(root)
            tracing_on(tracer, i, False)
            if workload.name == "ssta_c17":
                serial_rerun(workload, tracer, entry, i)
        if problem is None:
            problem = workload.check(entry, output, reference[str(entry)])
        requests.append({"entry": entry, "units": units, "seconds": last,
                         "traced": traced, "problem": problem})
    return {"requests": requests}


def tracing_on(tracer, request, on: bool) -> None:
    import tracing
    tracer.enabled = on
    tracer.request = request if on else None
    tracing.phase_timers(on)


def serial_rerun(workload, tracer, entry: int, i: int) -> None:
    """ssta_c17 only: the traced request again on one worker.

    Pool workers are other processes, so the per-sample STA spans are
    taken from this in-process re-run; its wall time over the pooled
    one is ``exec.pool.speedup``.
    """
    request = f"serial-{i}"
    tracing_on(tracer, request, True)
    root = tracer.begin("serial", request)
    workload.run(1000 + entry, workload.SAMPLES, workload.serial)
    tracer.end(root)
    tracing_on(tracer, request, False)


def trace_report(tracer, requests: list[dict], work_dir: str) -> dict:
    import tracing
    tracer.dump(os.path.join(work_dir, "spans.json"))
    traced = [i for i, r in enumerate(requests) if r["traced"]]
    layer = tracing.layer_metrics(tracer.spans, tracer.counts, traced)
    serial_spans = [s for s in tracer.spans
                    if str(s[4]).startswith("serial-")]
    if serial_spans:
        serial = tracing.layer_metrics(
            tracer.spans, tracer.counts, [f"serial-{i}" for i in traced])
        for key in ("sta.analyze_s", "sta.analyses", "library.sample_s"):
            layer[key] = serial[key]
        walls = [s[2] - s[1] for s in serial_spans if s[0] == "serial"]
        pooled = sum(requests[i]["seconds"] for i in traced)
        layer["exec.pool.speedup"] = sum(walls) / pooled
    shares = tracing.coverage(tracer.spans)
    return {"layer": layer,
            "coverage": [shares[str(i)] for i in traced]}


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--mode", required=True, choices=("setup", "measure"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--work-dir", required=True)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]()
    for module in workload.MODULES:
        importlib.import_module(module)
    t_import = time.monotonic()
    tracer = None
    if args.trace and args.mode == "measure":
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    workload.build()
    t_build = time.monotonic()
    workload.warm_up()
    t_ready = time.monotonic()
    setup = {"setup_s": t_ready - args.spawned,
             "import_s": t_import - args.spawned,
             "build_s": t_build - t_import,
             "warmup_s": t_ready - t_build}
    report = {"setup": setup}
    if args.mode == "measure":
        report.update(measure(workload, args, tracer))
        report["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        if tracer is not None:
            report.update(trace_report(tracer, report["requests"],
                                       args.work_dir))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
