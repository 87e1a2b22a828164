"""``python -m repro.sta`` — the front door for taking real designs.

Reads a structural-Verilog netlist plus a Liberty library (or an SDF
back-annotation), runs STA, and prints per-net arrivals, slacks and the
critical path.  ``--mc N`` switches to the Monte-Carlo statistical sweep
and reports arrival/slack quantiles instead.

Examples
--------
::

    python -m repro.sta tests/data/c17.v --liberty tests/data/c17.lib \\
        --required 100e-12
    python -m repro.sta tests/data/c17.v --sdf tests/data/c17.sdf \\
        --corner max
    python -m repro.sta tests/data/c17.v --liberty tests/data/c17.lib \\
        --mc 64 --seed 7 --json ssta.json
"""

from __future__ import annotations

import argparse
import json
import sys

from ..exec import ExecutionConfig, default_execution
from ..library.liberty import parse_liberty
from .analysis import InputSpec, StaEngine
from .sdf import SdfEngine, read_sdf
from .statistical import McVariation, run_sta_monte_carlo
from .verilog import read_verilog


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="python -m repro.sta",
        description="Gate-level STA over a structural-Verilog design.")
    p.add_argument("verilog", help="structural-Verilog netlist file")
    p.add_argument("--liberty", help="Liberty (.lib) cell library")
    p.add_argument("--sdf", help="SDF back-annotation (delays from the "
                                 "annotation instead of NLDM lookups)")
    p.add_argument("--corner", default="typ", choices=("min", "typ", "max"),
                   help="SDF corner (default typ)")
    p.add_argument("--required", type=float, default=None, metavar="T",
                   help="required time (seconds) applied to every primary "
                        "output; enables slacks")
    p.add_argument("--input-slew", type=float, default=50e-12, metavar="S",
                   help="primary-input slew in seconds (default 50e-12)")
    p.add_argument("--mc", type=int, default=None, metavar="N",
                   help="run an N-sample Monte-Carlo statistical sweep "
                        "(default: single deterministic run)")
    p.add_argument("--seed", type=int, default=None,
                   help="Monte-Carlo base seed (default: REPRO_MC_SEED)")
    p.add_argument("--sigma-cell", type=float, default=0.05,
                   help="lognormal sigma of the cell-speed factor")
    p.add_argument("--sigma-wire", type=float, default=0.10,
                   help="lognormal sigma of the wire R/C factors")
    p.add_argument("--workers", type=int, default=None,
                   help="worker processes for the MC sweep "
                        "(default: REPRO_WORKERS)")
    p.add_argument("--json", metavar="FILE",
                   help="also write the full result as JSON")
    return p


def _ps(seconds: float) -> str:
    return f"{seconds * 1e12:9.2f} ps"


def main(argv: "list[str] | None" = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.liberty is None and args.sdf is None:
        print("error: need --liberty and/or --sdf", file=sys.stderr)
        return 2

    with open(args.verilog) as fh:
        netlist = read_verilog(fh.read())
    library = {}
    if args.liberty:
        with open(args.liberty) as fh:
            library = parse_liberty(fh.read())

    inputs = {net: InputSpec(slew=args.input_slew)
              for net in netlist.primary_inputs}
    required = None
    if args.required is not None:
        required = {net: args.required for net in netlist.primary_outputs}

    if args.mc is not None:
        if not library:
            print("error: --mc needs --liberty (NLDM tables to perturb)",
                  file=sys.stderr)
            return 2
        execution = None
        if args.workers is not None:
            base = default_execution()
            execution = ExecutionConfig(workers=args.workers,
                                        store=base.store,
                                        min_pool_jobs=base.min_pool_jobs)
        result = run_sta_monte_carlo(
            netlist, library, inputs=inputs, required_times=required,
            variation=McVariation(sigma_cell=args.sigma_cell,
                                  sigma_wire=args.sigma_wire),
            samples=args.mc, seed=args.seed, execution=execution)
        print(f"# {netlist.name}: {result.samples} samples, "
              f"seed {result.seed}, mode {result.diag.get('mode')}")
        for metric, per_net in result.quantiles.items():
            if metric == "worst_slack":
                q = per_net
                print(f"worst_slack   q05 {_ps(q['q05'])}  "
                      f"q50 {_ps(q['q50'])}  q95 {_ps(q['q95'])}")
                continue
            for net, q in sorted(per_net.items()):
                print(f"{metric:<8}{net:<8} q05 {_ps(q['q05'])}  "
                      f"q50 {_ps(q['q50'])}  q95 {_ps(q['q95'])}")
        if args.json:
            with open(args.json, "w") as fh:
                json.dump(result.to_dict(), fh, indent=2)
        return 0

    if args.sdf:
        with open(args.sdf) as fh:
            delays = read_sdf(fh.read())
        engine = SdfEngine(delays, corner=args.corner, library=library,
                           input_slew=args.input_slew)
    else:
        engine = StaEngine(library)
    result = engine.analyze(netlist, inputs=inputs, required_times=required)

    print(f"# {netlist.name}: arrivals")
    payload: dict = {"design": netlist.name, "arrival_rise": {},
                     "arrival_fall": {}, "slack": {}}
    for net in sorted(result.rise):
        r, f = result.rise[net], result.fall[net]
        payload["arrival_rise"][net] = r.arrival
        payload["arrival_fall"][net] = f.arrival
        line = f"{net:<10} rise {_ps(r.arrival)}  fall {_ps(f.arrival)}"
        if required is not None and net in result.required:
            slack = result.slack(net)
            payload["slack"][net] = slack
            line += f"  slack {_ps(slack)}"
        print(line)
    for out in netlist.primary_outputs:
        path = result.critical_path(out)
        payload.setdefault("critical_path", {})[out] = path
        print(f"critical path to {out}: {' -> '.join(path)}")
    if required is not None:
        print(f"worst slack: {_ps(result.worst_slack())}")
        payload["worst_slack"] = result.worst_slack()
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2)
    return 0


if __name__ == "__main__":
    sys.exit(main())
