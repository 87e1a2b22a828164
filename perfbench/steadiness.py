"""Steadiness evidence: two interleaved sets of runs of the same code.

Run from the repository root::

    python3 perfbench/steadiness.py --runs 10 --out perfbench/steadiness.json

For each workload in turn and each run index ``i`` (seed ``i + 1``) it
makes set A's run and set B's run back to back, alternating which goes
first, so host-speed drift lands on both sets alike.  For every
end-to-end metric it reports each set's median and quartiles, the spread
(Q3 - Q1) / median that the bound must cover, and how much set B's
median is worse than set A's, beside the bound.  For ``setup_s`` it also
reports the spread of one set-up alone (the measuring process's), which
the median over a run's set-ups is meant to narrow.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from common import BENCH_DIR, ROOT, WORKLOADS

SETUPS_PREFIX = "perfbench: setup_s of each set-up "


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    wall = time.monotonic() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n"
                           f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    setups = [json.loads(line[len(SETUPS_PREFIX):])
              for line in proc.stderr.splitlines()
              if line.startswith(SETUPS_PREFIX)][-1]
    return {"wall_s": wall, "attempted": result["attempted"],
            "failed": result["failed"], "correct": result["correct"],
            "single_setup_s": setups[-1],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def summarise(values: list[float], bound: float) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"values": values, "q1": q1, "median": med, "q3": q3,
            "spread": (q3 - q1) / med, "bound": bound}


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS,
                        help="default: the workloads BENCHMARK.json lists")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    if args.workloads is None:
        args.workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: (m["bound"], m["better"]) for m in bench["end_to_end"]}

    report = {"run_seconds": bench["run_seconds"], "runs_per_set": args.runs,
              "workloads": {}}
    for w in args.workloads:
        runs = {"A": [], "B": []}
        for i in range(args.runs):
            for s in ("AB" if i % 2 == 0 else "BA"):
                res = one_run(w, i + 1, bench["run_seconds"])
                runs[s].append(res)
                print(f"{w} run {i} set {s}: wall {res['wall_s']:.1f}s "
                      + " ".join(f"{k}={v:.4g}"
                                 for k, v in sorted(res["metrics"].items())),
                      file=sys.stderr, flush=True)
        entry = {"wall_s_max": max(r["wall_s"] for s in runs
                                   for r in runs[s]),
                 "all_correct": all(r["correct"] and not r["failed"]
                                    for s in runs for r in runs[s]),
                 "metrics": {}}
        for name, (bound, better) in bounds.items():
            per_set = {s: summarise([r["metrics"][name] for r in runs[s]],
                                    bound) for s in runs}
            a, b = per_set["A"]["median"], per_set["B"]["median"]
            worse = (b - a) / a if better == "lower" else (a - b) / a
            entry["metrics"][name] = {"sets": per_set, "b_worse_than_a": worse}
        entry["single_setup_s"] = {
            s: summarise([r["single_setup_s"] for r in runs[s]],
                         bounds["setup_s"][0]) for s in runs}
        report["workloads"][w] = entry
        print(f"\n{w}: max run wall {entry['wall_s_max']:.1f}s, "
              f"all correct {entry['all_correct']}")
        for name, row in entry["metrics"].items():
            cells = "  ".join(
                f"{s}: med {row['sets'][s]['median']:.4g} "
                f"spread {row['sets'][s]['spread']:.3f}" for s in runs)
            print(f"  {name:18s} bound {bounds[name][0]:.2f}  {cells}"
                  f"  B worse {row['b_worse_than_a']:+.3f}")
        single = entry["single_setup_s"]
        print("  one set-up alone: " + "  ".join(
            f"{s}: med {single[s]['median']:.4g} spread "
            f"{single[s]['spread']:.3f}" for s in runs), flush=True)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
