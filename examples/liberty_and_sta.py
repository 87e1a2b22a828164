"""Characterise a cell library, export Liberty, and run conventional STA.

The conventional flow the paper builds on: every inverter is
characterised by transient simulation into NLDM delay/slew tables, the
tables round-trip through the Liberty format, and the STA engine
propagates arrival times through a gate-level netlist (parsed from a
structural-Verilog snippet) with Elmore wire delays, required times,
slacks, and a critical path.

Run:
    python examples/liberty_and_sta.py
"""

from __future__ import annotations

import numpy as np

from repro.interconnect.rcline import RcLineSpec
from repro.library.cells import standard_cell
from repro.library.characterize import characterize_cell
from repro.library.liberty import parse_liberty, write_liberty
from repro.sta.analysis import InputSpec, StaEngine
from repro.sta.verilog import read_verilog

NETLIST = """
module fanout_chain (a, y);
  input a;
  output y;
  wire n1, n2, n3;
  INVX1  u0 (.A(a),  .Y(n1));
  INVX4  u1 (.A(n1), .Y(n2));
  INVX16 u2 (.A(n2), .Y(n3));
  INVX64 u3 (.A(n3), .Y(y));
endmodule
"""


def main() -> None:
    print("Characterising INVX1/4/16/64 by transient simulation "
          "(reduced 3x3 grids for speed)...")
    slews = np.array([50e-12, 150e-12, 400e-12])
    cells = []
    for drive in (1, 4, 16, 64):
        cell = standard_cell(drive)
        loads = np.array([2e-15, 10e-15, 40e-15]) * drive
        cells.append(characterize_cell(cell, input_slews=slews, loads=loads,
                                       dt=2e-12))
        arc = cells[-1].arc
        print(f"  {cell.name:7s} delay({slews[1] * 1e12:.0f} ps, "
              f"{loads[1] * 1e15:.0f} fF) = "
              f"{arc.cell_fall.lookup(slews[1], loads[1]) * 1e12:6.1f} ps")

    print("\nWriting and re-parsing the Liberty library...")
    lib_text = write_liberty(cells, library_name="repro013")
    with open("repro013.lib", "w") as f:
        f.write(lib_text)
    library = parse_liberty(lib_text)
    print(f"  repro013.lib: {len(lib_text.splitlines())} lines, "
          f"{len(library)} cells round-tripped")

    print("\nRunning STA on a geometrically-sized inverter chain...")
    netlist = read_verilog(NETLIST)
    wire = RcLineSpec.from_length(300.0)
    engine = StaEngine(library, wire_specs={"n2": wire})
    result = engine.analyze(
        netlist,
        inputs={"a": InputSpec(arrival=0.0, slew=100e-12)},
        required_times={"y": 0.5e-9},
    )

    print(f"\n{'net':5s} {'arrival (ps)':>13s} {'slew (ps)':>10s}")
    for net in ("a", "n1", "n2", "n3", "y"):
        edge, timing = result.worst_edge(net)
        print(f"{net:5s} {timing.arrival * 1e12:13.1f} {timing.slew * 1e12:10.1f}"
              f"   ({edge})")
    print(f"\nworst slack at y: {result.slack('y') * 1e12:+.1f} ps")
    print(f"critical path:    {' -> '.join(result.critical_path('y'))}")


if __name__ == "__main__":
    main()
