"""Benchmark entry point: one workload, one seed, one JSON result line.

Run from the repository root::

    python3 perfbench/run.py --workload ssta_c17 --seed 0 --seconds 45 --trace 0

Workloads: ``ssta_c17`` (in-process, see workloads.py) and ``service``
(daemon under open-loop load, see service_load.py), as BENCHMARK.json
lists them, plus ``table1`` and ``noise_path`` (in-process, run by
hand; see README).  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` runs the traced variant and prints the per-layer metrics.
The last stdout line is ``{"correct", "attempted", "failed",
"metrics"}``; the exit code is non-zero when any output was wrong or
the run could not be made (for instance outside a checkout of the
repository, where there is no program to measure).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

from common import (BENCH_DIR, C17_DIR, IN_PROCESS, REFERENCES, ROOT, SETUPS,
                    SRC, WORKLOADS, child_env, make_work_dir, median,
                    remove_work_dir)


def fail(message: str) -> "None":
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def check_checkout(workload: str) -> None:
    needed = [os.path.join(SRC, "repro", "__init__.py"),
              os.path.join(C17_DIR, "c17.v")]
    if workload in IN_PROCESS:
        needed.append(os.path.join(REFERENCES, f"{workload}.json"))
    missing = [p for p in needed if not os.path.isfile(p)]
    if missing:
        fail(f"not a checkout of the repository (missing {missing[0]})")


def run_worker(args, mode: str, work_dir: str) -> dict:
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"),
           "--workload", args.workload, "--mode", mode,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", work_dir,
           "--spawned", repr(time.monotonic())]
    proc = subprocess.run(cmd, env=child_env(work_dir), capture_output=True,
                          text=True, timeout=args.seconds + 150)
    if proc.returncode != 0:
        fail(f"{args.workload} worker ({mode}) exited {proc.returncode}:\n"
             f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def in_process(args, work_dir: str) -> dict:
    setups = [run_worker(args, "setup", work_dir)["setup"]
              for _ in range(SETUPS - 1)]
    report = run_worker(args, "measure", work_dir)
    setups.append(report["setup"])
    reqs = report["requests"]
    problems = [r["problem"] for r in reqs if r["problem"]]
    # Median over the run's requests of each one's work rate, a failed
    # request counting as rate 0: host-speed swings shorter than half a
    # run move it less than they move a total over the run (see README).
    rates = [0.0 if r["problem"] else r["units"] / r["seconds"] for r in reqs]
    result = {"setups": setups, "attempted": len(reqs),
              "failed": len(problems), "problems": problems,
              "e2e": {"setup_s": median([s["setup_s"] for s in setups]),
                      "peak_rss_mb": report["peak_rss_mb"],
                      "throughput_per_s": median(rates)}}
    if args.trace:
        def rate(traced):
            sub = [r for r in reqs if r["traced"] == traced]
            return (sum(r["units"] for r in sub)
                    / sum(r["seconds"] for r in sub))
        result["layer"] = report["layer"]
        result["coverage"] = report["coverage"]
        result["overhead_pct"] = 100.0 * (rate(False) / rate(True) - 1.0)
    return result


def service(args, work_dir: str) -> dict:
    import service_load
    report = service_load.run(args.seed, args.seconds, bool(args.trace),
                              work_dir)
    result = service_load.metrics(report)
    if args.trace:
        result.update(service_load.layer(report))
    return result


def trace_metrics(result: dict) -> dict:
    metrics = dict(result["layer"])
    for key in ("import_s", "build_s", "warmup_s"):
        metrics[f"setup.{key}"] = median([s[key] for s in result["setups"]])
    shares = result["coverage"]
    metrics["trace.coverage_min_pct"] = 100.0 * min(shares)
    metrics["trace.coverage_median_pct"] = 100.0 * median(shares)
    metrics["trace.overhead_pct"] = result["overhead_pct"]
    metrics["trace.requests"] = float(len(shares))
    return metrics


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=45)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    check_checkout(args.workload)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]

    work_dir = make_work_dir(args.workload)
    try:
        if args.workload in IN_PROCESS:
            result = in_process(args, work_dir)
        else:
            result = service(args, work_dir)
    finally:
        remove_work_dir(work_dir)

    values = trace_metrics(result) if args.trace else result["e2e"]
    print("perfbench: setup_s of each set-up "
          + json.dumps([s["setup_s"] for s in result["setups"]]),
          file=sys.stderr)
    for problem in result["problems"][:5]:
        print(f"perfbench: wrong output: {problem}", file=sys.stderr)
    correct = not result["problems"]
    # A layer the workload never reaches reads 0.
    print(json.dumps({
        "correct": correct, "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": float(values.get(m["name"], 0.0)),
                                "unit": m["unit"]} for m in declared}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
