"""Cross-validation: the NLDM STA engine against transistor-level simulation.

The whole point of table-based STA is to predict what the circuit
simulator would say without running it.  This integration test closes the
loop: characterise the cells with the simulator, run STA on an inverter
chain, then simulate the *same* chain at transistor level and compare the
endpoint arrival and slew.  Errors come only from table interpolation and
the ramp abstraction at stage boundaries, so single-digit-picosecond
agreement is expected — this guards the consistency of the library,
characterisation, and STA subsystems against each other.
"""

import numpy as np
import pytest

from repro.circuit.netlist import Circuit
from repro.circuit.sources import RampSource
from repro.circuit.transient import TransientJob
from repro.library.cells import standard_cell
from repro.library.characterize import characterize_cell
from repro.sta.analysis import InputSpec, StaEngine
from repro.sta.netlist import GateNetlist

VDD = 1.2
SLEW_IN = 120e-12
ARRIVAL_IN = 0.3e-9
DRIVES = (1, 4, 16)


@pytest.fixture(scope="module")
def library():
    slews = np.array([40e-12, 120e-12, 300e-12])
    cells = {}
    for drive in DRIVES:
        loads = np.array([1e-15, 6e-15, 30e-15]) * drive
        cells[f"INVX{drive}"] = characterize_cell(
            standard_cell(drive), input_slews=slews, loads=loads, dt=2e-12)
    return cells


@pytest.fixture(scope="module")
def simulated_chain():
    """Transistor-level reference of the INVX1→INVX4→INVX16 chain."""
    c = Circuit("chain")
    c.vsource("Vdd", "vdd", "0", VDD)
    c.vsource("Vin", "n0", "0", RampSource(ARRIVAL_IN, SLEW_IN, 0.0, VDD))
    for k, drive in enumerate(DRIVES):
        standard_cell(drive).instantiate(c, f"u{k}", f"n{k}", f"n{k + 1}", "vdd")
    initial = {"n0": 0.0, "n1": VDD, "n2": 0.0, "n3": VDD, "vdd": VDD}
    res = TransientJob(c, t_stop=1.6e-9, dt=1e-12,
                       initial_voltages=initial).run()
    return {f"n{k}": res.waveform(f"n{k}") for k in range(len(DRIVES) + 1)}


@pytest.fixture(scope="module")
def sta_result(library):
    netlist = GateNetlist.inverter_chain(list(DRIVES))
    engine = StaEngine(library)
    # The ramp source crosses 50% half a transition after ARRIVAL_IN.
    arrival50 = ARRIVAL_IN + 0.5 * SLEW_IN / 0.8
    return engine.analyze(netlist, inputs={"n0": InputSpec(arrival=arrival50,
                                                           slew=SLEW_IN)})


REQUIRED_N3 = 1.5e-9


@pytest.fixture(scope="module")
def simulated_chain_falling():
    """The same chain driven by a *falling* input ramp (opposite edges)."""
    c = Circuit("chain")
    c.vsource("Vdd", "vdd", "0", VDD)
    c.vsource("Vin", "n0", "0", RampSource(ARRIVAL_IN, SLEW_IN, VDD, 0.0))
    for k, drive in enumerate(DRIVES):
        standard_cell(drive).instantiate(c, f"u{k}", f"n{k}", f"n{k + 1}", "vdd")
    initial = {"n0": VDD, "n1": 0.0, "n2": VDD, "n3": 0.0, "vdd": VDD}
    res = TransientJob(c, t_stop=1.6e-9, dt=1e-12,
                       initial_voltages=initial).run()
    return {f"n{k}": res.waveform(f"n{k}") for k in range(len(DRIVES) + 1)}


@pytest.fixture(scope="module")
def sta_with_required(library):
    netlist = GateNetlist.inverter_chain(list(DRIVES))
    arrival50 = ARRIVAL_IN + 0.5 * SLEW_IN / 0.8
    return StaEngine(library).analyze(
        netlist,
        inputs={"n0": InputSpec(arrival=arrival50, slew=SLEW_IN)},
        required_times={"n3": REQUIRED_N3})


class TestStaVsSimulation:
    def test_endpoint_arrival_matches(self, sta_result, simulated_chain):
        simulated = simulated_chain["n3"].arrival_time(VDD, which="last")
        predicted = sta_result.arrival("n3")
        assert predicted == pytest.approx(simulated, abs=12e-12)

    def test_intermediate_arrivals_match(self, sta_result, simulated_chain):
        for net in ("n1", "n2"):
            simulated = simulated_chain[net].arrival_time(VDD, which="last")
            assert sta_result.arrival(net) == pytest.approx(simulated, abs=12e-12)

    def test_endpoint_slew_matches(self, sta_result, simulated_chain):
        simulated = simulated_chain["n3"].slew(VDD)
        _, timing = sta_result.worst_edge("n3")
        assert timing.slew == pytest.approx(simulated, rel=0.35)

    def test_edges_alternate_correctly(self, sta_result, simulated_chain):
        # n0 rises, so n1 falls, n2 rises, n3 falls in the simulation.
        # STA tracks *both* hypothetical edges per net; the arrival of the
        # edge matching the actual transition must agree with the circuit.
        expected = {"n1": "fall", "n2": "rise", "n3": "fall"}
        for net, direction in expected.items():
            polarity = simulated_chain[net].polarity()
            assert polarity == ("rising" if direction == "rise" else "falling")
            timing = (sta_result.rise if direction == "rise"
                      else sta_result.fall)[net]
            simulated = simulated_chain[net].arrival_time(VDD, which="last")
            assert timing.arrival == pytest.approx(simulated, abs=12e-12)


class TestRequiredTimesVsSimulation:
    """Cross-validate the backward pass against transient arrival differences.

    In a single-path chain the required time of the causal edge at net
    *x* is ``REQ(n3) − (downstream delay from x to n3)``, and the
    transistor-level reference for that downstream delay is
    ``sim_arrival(n3) − sim_arrival(x)``.  Equivalently, every causal
    edge along the path must carry (within interpolation tolerance) the
    *same* slack as the endpoint.  Both transition polarities are
    checked, against the rising-input and falling-input simulations.
    Errors are differences of two ≈12 ps-accurate arrivals, hence the
    25 ps budget.
    """

    CAUSAL_RISING_INPUT = {"n1": "fall", "n2": "rise", "n3": "fall"}
    CAUSAL_FALLING_INPUT = {"n1": "rise", "n2": "fall", "n3": "rise"}

    def _check(self, sta, sim, causal_edges):
        end_sim = sim["n3"].arrival_time(VDD, which="last")
        endpoint_slack = REQUIRED_N3 - end_sim
        for net, edge in causal_edges.items():
            req = (sta.required_rise if edge == "rise"
                   else sta.required_fall)[net]
            sim_arr = sim[net].arrival_time(VDD, which="last")
            downstream = end_sim - sim_arr
            assert req == pytest.approx(REQUIRED_N3 - downstream,
                                        abs=25e-12), (net, edge)
            assert sta.slack_edge(net, edge) == pytest.approx(
                endpoint_slack, abs=25e-12), (net, edge)

    def test_falling_edges_of_rising_input(self, sta_with_required,
                                           simulated_chain):
        self._check(sta_with_required, simulated_chain,
                    self.CAUSAL_RISING_INPUT)

    def test_rising_edges_of_falling_input(self, sta_with_required,
                                           simulated_chain_falling):
        sim = simulated_chain_falling
        # Sanity: the falling-input simulation produces the opposite
        # polarities at every net.
        for net, edge in self.CAUSAL_FALLING_INPUT.items():
            assert sim[net].polarity() == ("rising" if edge == "rise"
                                           else "falling")
        self._check(sta_with_required, sim, self.CAUSAL_FALLING_INPUT)

    def test_required_reaches_input_both_edges(self, sta_with_required):
        # The backward pass must constrain both edges of the primary input.
        assert "n0" in sta_with_required.required_rise
        assert "n0" in sta_with_required.required_fall
        assert sta_with_required.required["n0"] == pytest.approx(
            min(sta_with_required.required_rise["n0"],
                sta_with_required.required_fall["n0"]))
