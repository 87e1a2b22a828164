"""The paper's experimental setup (Figure 1) and its two configurations.

Victim path:  ``in_x → INVx1 → out_x → [coupled RC line] → in_u → INVx4
→ out_u → INVx16 → w1 → INVx64 → w2``.  Each aggressor is an identical
driver/line/receiver path whose line couples to the victim line through
distributed Cm.

* **Configuration I** — one aggressor, 1000 µm lines, 100 fF total
  coupling (Figure 1 exactly; per-cell R = 8.5 Ω, C = 4.8 fF follow from
  the per-µm parasitics in :mod:`repro.interconnect.rcline`).
* **Configuration II** — two aggressors x1, x2, each coupling 100 fF to
  the victim; all three lines 500 µm.

Both aggressor and victim inputs get 150 ps slews, as in §4.1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .._util import require
from ..circuit.netlist import Circuit
from ..circuit.sources import RampSource
from ..core.propagation import GateFixture
from ..interconnect.coupling import CouplingSpec, add_coupled_lines
from ..interconnect.rcline import RcLineSpec
from ..library.cells import InverterCell, VDD_DEFAULT, make_inverter

__all__ = ["CrosstalkConfig", "CONFIG_I", "CONFIG_II", "TestbenchNodes",
           "Testbench", "build_testbench", "receiver_fixture"]


@dataclass(frozen=True)
class CrosstalkConfig:
    """Parameters of one experimental configuration.

    Attributes
    ----------
    name:
        ``"I"`` or ``"II"`` (or any label for custom sweeps).
    n_aggressors:
        Number of aggressor lines coupled to the victim.
    line_length_um:
        Length of every line in the bundle.
    coupling_per_aggressor:
        Total victim coupling capacitance per aggressor (farads).
    n_segments:
        RC cells per line (Figure 1 draws three).
    input_slew:
        Slew of all primary inputs.
    vdd:
        Supply voltage.
    victim_line_rising:
        Direction of the victim transition *on the line* (the primary
        input is inverted by the driver).
    aggressors_opposing:
        ``True`` couples opposing aggressor transitions (worst-case
        slow-down noise), ``False`` same-direction (speed-up).
    driver_drive / receiver_drive / chain_drives:
        Inverter sizes of the driver, the receiver under test, and its
        fanout chain (Figure 1: 1, 4, then 16 → 64).
    """

    name: str
    n_aggressors: int
    line_length_um: float
    coupling_per_aggressor: float
    n_segments: int = 3
    input_slew: float = 150e-12
    vdd: float = VDD_DEFAULT
    victim_line_rising: bool = True
    aggressors_opposing: bool = True
    driver_drive: int = 1
    receiver_drive: int = 4
    chain_drives: tuple[int, ...] = (16, 64)

    def __post_init__(self) -> None:
        require(self.n_aggressors >= 0, "n_aggressors must be non-negative")
        require(self.line_length_um > 0, "line length must be positive")

    # -- cells ----------------------------------------------------------
    def driver_cell(self) -> InverterCell:
        """The line-driver inverter (INVx in Figure 1)."""
        return make_inverter(self.driver_drive, vdd=self.vdd)

    def receiver_cell(self) -> InverterCell:
        """The receiver under test (4INVx in Figure 1)."""
        return make_inverter(self.receiver_drive, vdd=self.vdd)

    def chain_cells(self) -> tuple[InverterCell, ...]:
        """The fanout chain loading the receiver (16INVx → 64INVx)."""
        return tuple(make_inverter(d, vdd=self.vdd) for d in self.chain_drives)

    def line_spec(self) -> RcLineSpec:
        """The RC line model shared by victim and aggressors."""
        return RcLineSpec.from_length(self.line_length_um, n_segments=self.n_segments)


#: Configuration I of §4.1: Figure 1 with 100 fF total coupling.
CONFIG_I = CrosstalkConfig(
    name="I", n_aggressors=1, line_length_um=1000.0,
    coupling_per_aggressor=100e-15,
)

#: Configuration II of §4.1: two aggressors, 500 µm lines, 100 fF each.
CONFIG_II = CrosstalkConfig(
    name="II", n_aggressors=2, line_length_um=500.0,
    coupling_per_aggressor=100e-15,
)


@dataclass(frozen=True)
class TestbenchNodes:
    """Node names of interest in a built testbench (paper's labels).

    ``in_u`` is the noisy gate input (far end of the victim line) and
    ``out_u`` the receiver output whose arrival defines the gate delay.
    """

    victim_input: str
    victim_driver_out: str
    victim_far_end: str
    receiver_out: str
    chain_nodes: tuple[str, ...]
    aggressor_inputs: tuple[str, ...]
    aggressor_far_ends: tuple[str, ...]


@dataclass(frozen=True)
class Testbench:
    """A built Figure 1 instance ready for simulation.

    ``initial_voltages`` carries the logic-consistent pre-transition state
    so the DC solve converges immediately.
    """

    circuit: Circuit
    nodes: TestbenchNodes
    initial_voltages: dict[str, float] = field(default_factory=dict)


def build_testbench(
    config: CrosstalkConfig,
    victim_start: float,
    aggressor_starts: tuple[float, ...] | list[float],
    aggressor_active: bool = True,
    victim_active: bool = True,
) -> Testbench:
    """Instantiate the Figure 1 circuit for one noise-injection case.

    Parameters
    ----------
    config:
        The configuration (I, II, or custom).
    victim_start:
        Start time of the victim primary-input ramp.
    aggressor_starts:
        Start time of each aggressor primary-input ramp (length must
        match ``config.n_aggressors``).
    aggressor_active:
        ``False`` holds every aggressor quiet — the *noiseless* reference
        run of the paper.
    victim_active:
        ``False`` holds the victim input at its pre-transition rail —
        the quiet-victim configuration of glitch (functional noise)
        analysis.

    Returns
    -------
    Testbench
    """
    starts = tuple(aggressor_starts)
    require(len(starts) == config.n_aggressors,
            f"need {config.n_aggressors} aggressor start times, got {len(starts)}")
    vdd = config.vdd
    circuit = Circuit(f"config_{config.name}")
    circuit.vsource("Vdd", "vdd", "0", vdd)

    driver = config.driver_cell()
    receiver = config.receiver_cell()
    chain = config.chain_cells()

    # --- victim path ---------------------------------------------------
    # The driver inverts: a rising victim line needs a falling input ramp.
    if config.victim_line_rising:
        v_from, v_to = vdd, 0.0
    else:
        v_from, v_to = 0.0, vdd
    if victim_active:
        circuit.vsource("Vx", "in_x", "0",
                        RampSource(victim_start, config.input_slew, v_from, v_to))
    else:
        circuit.vsource("Vx", "in_x", "0", v_from)
    driver.instantiate(circuit, "invx", "in_x", "out_x", "vdd")

    # --- aggressor paths -------------------------------------------------
    initial = {"in_x": v_from, "out_x": vdd - v_from, "in_u": vdd - v_from,
               "out_u": v_from, "vdd": vdd}
    aggressor_inputs = []
    aggressor_far_ends = []
    for k, t_start in enumerate(starts):
        suffix = f"y{k + 1}" if config.n_aggressors > 1 else "y"
        in_a, out_a = f"in_{suffix}", f"out_{suffix}"
        far_a, rec_a = f"in_v{k + 1}", f"out_v{k + 1}"
        # Opposing noise: aggressor line moves against the victim line.
        agg_line_rising = (not config.victim_line_rising
                           if config.aggressors_opposing else config.victim_line_rising)
        a_from, a_to = (vdd, 0.0) if agg_line_rising else (0.0, vdd)
        if aggressor_active:
            circuit.vsource(f"V{suffix}", in_a, "0",
                            RampSource(t_start, config.input_slew, a_from, a_to))
        else:
            circuit.vsource(f"V{suffix}", in_a, "0", a_from)
        driver.instantiate(circuit, f"inv{suffix}", in_a, out_a, "vdd")
        receiver.instantiate(circuit, f"recv{suffix}", far_a, rec_a, "vdd")
        circuit.capacitor(f"cl_{suffix}", rec_a, "0", 10e-15)
        initial.update({in_a: a_from, out_a: vdd - a_from, far_a: vdd - a_from,
                        rec_a: a_from})
        aggressor_inputs.append(in_a)
        aggressor_far_ends.append(far_a)

    # --- coupled line bundle ---------------------------------------------
    spec = config.line_spec()
    terminals = [("out_x", "in_u")]
    couplings = []
    for k in range(config.n_aggressors):
        suffix = f"y{k + 1}" if config.n_aggressors > 1 else "y"
        terminals.append((f"out_{suffix}", f"in_v{k + 1}"))
        couplings.append(CouplingSpec(line_a=0, line_b=k + 1,
                                      total_cm=config.coupling_per_aggressor))
    add_coupled_lines(circuit, "bundle", terminals,
                      [spec] * (config.n_aggressors + 1), couplings)

    # --- victim receiver and fanout chain ---------------------------------
    receiver.instantiate(circuit, "invu", "in_u", "out_u", "vdd")
    chain_nodes = []
    prev = "out_u"
    level = float(initial["out_u"])
    for k, stage in enumerate(chain):
        nxt = f"w{k + 1}"
        stage.instantiate(circuit, f"chain{k + 1}", prev, nxt, "vdd")
        level = 0.0 if level > vdd / 2 else vdd
        initial[nxt] = level
        chain_nodes.append(nxt)
        prev = nxt

    nodes = TestbenchNodes(
        victim_input="in_x",
        victim_driver_out="out_x",
        victim_far_end="in_u",
        receiver_out="out_u",
        chain_nodes=tuple(chain_nodes),
        aggressor_inputs=tuple(aggressor_inputs),
        aggressor_far_ends=tuple(aggressor_far_ends),
    )
    return Testbench(circuit=circuit, nodes=nodes, initial_voltages=initial)


def receiver_fixture(config: CrosstalkConfig, dt: float = 1e-12,
                     solver_backend: str = "auto",
                     adaptive: bool = True) -> GateFixture:
    """The victim receiver with its Figure 1 fanout chain, as a forced-input
    fixture for technique evaluation.

    ``adaptive=False`` runs the fixture simulations on the fixed grid
    (``max_step = dt``).
    """
    return GateFixture(
        cell=config.receiver_cell(),
        chain=config.chain_cells(),
        dt=dt,
        solver_backend=solver_backend,
        adaptive=adaptive,
    )
