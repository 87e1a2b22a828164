"""NLDM characterisation: build delay/slew tables by circuit simulation.

This reproduces the standard ASIC library flow: for every (input slew,
output load) grid point, drive the cell with a saturated ramp, simulate,
and measure 50%→50% delay and 10–90% output transition.  The paper's
point is that SGDP works "with the current level of gate characterization
in conventional ASIC cell libraries" — i.e. exactly these tables plus the
noiseless input/output waveforms, no extra library data.

Each grid point is a job on Table 1's gate harness
(:class:`~repro.core.propagation.GateFixture`), and the whole grid is one
:func:`repro.exec.run_jobs` submission under the default execution.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .._util import require
from ..core.ramp import SaturatedRamp
from .cells import InverterCell
from .nldm import NldmTable, TimingArc

__all__ = [
    "characterize_cell",
    "CharacterizedCell",
    "default_slew_grid",
    "default_load_grid",
]


def default_slew_grid() -> np.ndarray:
    """Input-slew index grid used for library characterisation (seconds)."""
    return np.array([20e-12, 50e-12, 100e-12, 150e-12, 250e-12, 400e-12])


def default_load_grid(cell: InverterCell) -> np.ndarray:
    """Load index grid scaled with cell drive (farads)."""
    base = np.array([2e-15, 5e-15, 10e-15, 20e-15, 40e-15, 80e-15])
    return base * cell.drive


def _settle_window(cell: InverterCell, slew: float, load: float) -> tuple[float, float]:
    """Heuristic (t_start, t_stop) so input and output both settle."""
    idsat = 0.5 * cell.nmos.beta(cell.wn, cell.length) * (cell.vdd - cell.nmos.vth) ** 2
    r_eff = cell.vdd / max(idsat, 1e-9)
    tau_out = r_eff * (load + cell.output_capacitance)
    t_start = max(50e-12, 0.5 * slew)
    t_stop = t_start + slew / 0.8 + 10.0 * tau_out + 200e-12
    return t_start, t_stop


def _input_ramp(cell: InverterCell, slew: float, t_ramp: float,
                input_rising: bool) -> SaturatedRamp:
    """Rail-to-rail ramp leaving its rail at ``t_ramp`` with 10–90 ``slew``."""
    v_from, v_to = (0.0, cell.vdd) if input_rising else (cell.vdd, 0.0)
    return SaturatedRamp.from_points(t_ramp, v_from, t_ramp + slew / 0.8, v_to,
                                     cell.vdd)


@dataclass(frozen=True)
class CharacterizedCell:
    """A cell together with its NLDM timing arcs.

    Single-input cells carry one arc in ``arc``; multi-input cells list
    one arc per related input pin in ``arcs`` (which, when non-empty,
    supersedes ``arc`` for lookups).  ``input_cap`` overrides the
    transistor-derived input capacitance for cells that were read from a
    Liberty file rather than characterised from a device model.
    """

    cell: InverterCell
    arc: TimingArc
    input_slews: np.ndarray = field(repr=False)
    loads: np.ndarray = field(repr=False)
    arcs: tuple[TimingArc, ...] = ()
    input_cap: float | None = None

    @property
    def name(self) -> str:
        """Library cell name."""
        return self.cell.name

    @property
    def timing_arcs(self) -> tuple[TimingArc, ...]:
        """All timing arcs of the cell (``arcs`` if set, else ``(arc,)``)."""
        return self.arcs if self.arcs else (self.arc,)

    def arc_for(self, pin: str) -> TimingArc:
        """The timing arc whose related input pin is ``pin``.

        Raises
        ------
        KeyError
            If the cell has no arc for that pin — a netlist/library
            mismatch that must not be papered over with a guess.
        """
        for a in self.timing_arcs:
            if a.related_pin == pin:
                return a
        raise KeyError(
            f"cell {self.name!r} has no timing arc for input pin {pin!r} "
            f"(arcs: {[a.related_pin for a in self.timing_arcs]})")

    @property
    def input_capacitance(self) -> float:
        """Per-input-pin capacitance (library override or device-derived)."""
        if self.input_cap is not None:
            return self.input_cap
        return self.cell.input_capacitance

    @property
    def vdd(self) -> float:
        """Supply voltage the cell was characterised at."""
        return self.cell.vdd


def characterize_cell(
    cell: InverterCell,
    input_slews: np.ndarray | None = None,
    loads: np.ndarray | None = None,
    dt: float = 1e-12,
) -> CharacterizedCell:
    """Run the full characterisation grid and assemble the timing arc.

    For the inverting arc, Liberty tables are named by the *output*
    transition: ``cell_rise`` is measured with a falling input.

    Every (slew, load, input edge) point is one fixture job over its
    settle window, and the grid is one :func:`~repro.exec.run_jobs`
    submission.  Points whose output has not settled are resubmitted
    with their window doubled, up to four attempts in all.

    Raises
    ------
    RuntimeError
        If an output fails to settle even after window extension.
    """
    # Not at module level: core.propagation imports this package, and
    # `import repro.library` (the SSTA flow) should load neither module.
    from ..core.propagation import GateFixture
    from ..exec import run_jobs

    slews = default_slew_grid() if input_slews is None else np.asarray(input_slews, dtype=float)
    cap_grid = default_load_grid(cell) if loads is None else np.asarray(loads, dtype=float)
    require(bool(np.all(slews > 0) and np.all(cap_grid >= 0)),
            "bad characterisation point")
    fixtures = [GateFixture(cell, extra_load=load, dt=dt) for load in cap_grid]
    # Point (edge, i, j): slew i, load j; edge 0 is a falling input
    # (rising output), edge 1 a rising input.
    windows = {(e, i, j): _settle_window(cell, slew, load)
               for i, slew in enumerate(slews)
               for j, load in enumerate(cap_grid) for e in (0, 1)}
    delay = np.empty((2, slews.size, cap_grid.size))
    out_slew = np.empty_like(delay)
    pending = list(windows)
    for _ in range(4):
        jobs = [fixtures[j].transient_job(
                    _input_ramp(cell, slews[i], windows[e, i, j][0], e == 1),
                    (0.0, windows[e, i, j][1]))
                for e, i, j in pending]
        unsettled = []
        for p, result in zip(pending, run_jobs(jobs)):
            out_target = cell.vdd if p[0] == 0 else 0.0
            if result.waveform("out").settles_to(out_target, 0.02 * cell.vdd):
                out = fixtures[p[2]].measure(result)
                delay[p], out_slew[p] = out.gate_delay, out.output_slew
            else:
                t_ramp, t_stop = windows[p]
                windows[p] = (t_ramp, t_ramp + 2.0 * (t_stop - t_ramp))
                unsettled.append(p)
        pending = unsettled
        if not pending:
            break
    if pending:
        _, i, j = pending[0]
        raise RuntimeError(f"{cell.name} output failed to settle "
                           f"(slew={slews[i]:.3e}, load={cap_grid[j]:.3e})")
    arc = TimingArc(
        related_pin="A",
        output_pin="Y",
        inverting=True,
        cell_rise=NldmTable(slews, cap_grid, delay[0]),
        cell_fall=NldmTable(slews, cap_grid, delay[1]),
        rise_transition=NldmTable(slews, cap_grid, out_slew[0]),
        fall_transition=NldmTable(slews, cap_grid, out_slew[1]),
    )
    return CharacterizedCell(cell=cell, arc=arc, input_slews=slews, loads=cap_grid)
