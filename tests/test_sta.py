"""Tests for the STA engine: netlists, timing graph, analysis, noise-aware."""

import numpy as np
import pytest

from repro.interconnect.rcline import RcLineSpec
from repro.library.cells import make_inverter
from repro.library.characterize import CharacterizedCell
from repro.library.nldm import NldmTable, TimingArc
from repro.sta.analysis import InputSpec, StaEngine
from repro.sta.graph import TimingGraph, TimingGraphError
from repro.sta.netlist import GateNetlist, NetlistError
from repro.sta.verilog import read_verilog

VDD = 1.2


# ----------------------------------------------------------------------
# A synthetic library with analytically simple tables:
#     delay = d0 * drive_factor + 0.1 * slew + 1e9 * load / drive
#     out_slew = 0.5 * slew + 2e9 * load
# so STA results can be hand-checked without any simulation.
# ----------------------------------------------------------------------
def _stub_cell(drive: int, d0: float = 20e-12) -> CharacterizedCell:
    slews = np.array([10e-12, 100e-12, 400e-12])
    loads = np.array([1e-15, 10e-15, 100e-15]) * drive
    delay = np.empty((3, 3))
    tran = np.empty((3, 3))
    for i, s in enumerate(slews):
        for j, ld in enumerate(loads):
            delay[i, j] = d0 + 0.1 * s + 1e9 * ld / drive
            tran[i, j] = 0.5 * s + 2e9 * ld / drive
    table = NldmTable(slews, loads, delay)
    ttable = NldmTable(slews, loads, tran)
    arc = TimingArc(related_pin="A", output_pin="Y", inverting=True,
                    cell_rise=table, cell_fall=table,
                    rise_transition=ttable, fall_transition=ttable)
    return CharacterizedCell(cell=make_inverter(drive), arc=arc,
                             input_slews=slews, loads=loads)


@pytest.fixture()
def stub_library():
    return {f"INVX{d}": _stub_cell(d) for d in (1, 4, 16, 64)}


# ----------------------------------------------------------------------
# Constant-delay cells (no slew/load dependence): arrivals are exact
# longest-path sums, so required times and slacks are hand-computable.
# ----------------------------------------------------------------------
def _const_arc(rise: float, fall: float, related_pin: str = "A",
               inverting: bool = True, tran: float = 50e-12) -> TimingArc:
    slews = np.array([10e-12, 400e-12])
    loads = np.array([1e-15, 100e-15])
    def const(v):
        return NldmTable(slews, loads, np.full((2, 2), v))
    return TimingArc(related_pin=related_pin, output_pin="Y",
                     inverting=inverting,
                     cell_rise=const(rise), cell_fall=const(fall),
                     rise_transition=const(tran), fall_transition=const(tran))


def _const_cell(rise: float, fall: float, inverting: bool = True,
                arcs: "tuple[TimingArc, ...]" = ()) -> CharacterizedCell:
    first = arcs[0] if arcs else _const_arc(rise, fall, inverting=inverting)
    return CharacterizedCell(cell=make_inverter(1), arc=first,
                             input_slews=first.cell_rise.input_slews,
                             loads=first.cell_rise.loads,
                             arcs=arcs if len(arcs) > 1 else ())


class TestGateNetlist:
    def test_chain_constructor(self):
        net = GateNetlist.inverter_chain([1, 4, 16])
        assert len(net.instances) == 3
        assert net.primary_inputs == ["n0"]
        assert net.primary_outputs == ["n3"]
        net.validate()

    def test_duplicate_instance_rejected(self):
        net = GateNetlist()
        net.add_instance("u0", "INVX1", "a", "b")
        with pytest.raises(ValueError, match="duplicate"):
            net.add_instance("u0", "INVX1", "b", "c")

    def test_multiply_driven_net_rejected(self):
        net = GateNetlist()
        net.add_input("a")
        net.add_instance("u0", "INVX1", "a", "y")
        net.add_instance("u1", "INVX1", "a", "y")
        with pytest.raises(NetlistError, match="multiple"):
            net.validate()

    def test_undriven_input_rejected(self):
        net = GateNetlist()
        net.add_instance("u0", "INVX1", "ghost", "y")
        with pytest.raises(NetlistError, match="undriven"):
            net.validate()

    def test_driver_and_loads_queries(self):
        net = GateNetlist.inverter_chain([1, 4])
        assert net.driver_of("n1").name == "u0"
        assert net.driver_of("n0") is None
        assert [i.name for i in net.loads_of("n1")] == ["u1"]
        assert net.fanout_count("n2") == 0


class TestVerilogParser:
    SOURCE = """
    // a comment
    module chain (a, y);
      input a;
      output y;
      wire n1, n2;
      INVX1 u0 (.A(a), .Y(n1));
      INVX4 u1 (.A(n1), .Y(n2));  /* inline */
      INVX16 u2 (.A(n2), .Y(y));
    endmodule
    """

    def test_parses_structure(self):
        net = read_verilog(self.SOURCE)
        assert net.name == "chain"
        assert net.primary_inputs == ["a"]
        assert net.primary_outputs == ["y"]
        assert [i.cell for i in net.instances] == ["INVX1", "INVX4", "INVX16"]

    def test_missing_module_rejected(self):
        with pytest.raises(NetlistError):
            read_verilog("wire x;")

    def test_missing_endmodule_rejected(self):
        with pytest.raises(NetlistError):
            read_verilog("module m (a); input a;")

    def test_positional_ports_rejected(self):
        src = "module m (a, y); input a; output y; INVX1 u0 (a, y); endmodule"
        with pytest.raises(NetlistError, match="named ports"):
            read_verilog(src)

    def test_decl_keyword_not_matched_inside_identifier(self):
        # Regression: the old decl regex had no word boundary, so the
        # instance of a cell named ``winput`` was read as an input
        # declaration of net ``y``.
        src = """
        module m (a, y);
          input a; output y;
          winput u0 (.A(a), .Y(y));
        endmodule
        """
        net = read_verilog(src)
        assert net.primary_inputs == ["a"]
        assert [i.cell for i in net.instances] == ["winput"]

    def test_vector_declarations_rejected(self):
        src = "module m (a, y); input [3:0] a; output y; endmodule"
        with pytest.raises(NetlistError, match="[Vv]ector"):
            read_verilog(src)

    def test_multi_port_instance(self):
        src = """
        module m (a, b, y);
          input a, b; output y; wire w;
          NAND2X1 u0 (.A(a), .B(b), .Y(w));
          INVX1 u1 (.A(w), .Y(y));
        endmodule
        """
        net = read_verilog(src)
        u0 = net.instances[0]
        assert dict(u0.inputs) == {"A": "a", "B": "b"}
        assert u0.output_net == "w"
        assert u0.output_pin == "Y"


class TestTimingGraph:
    def test_levels_topological(self):
        net = GateNetlist.inverter_chain([1, 1, 1])
        order = TimingGraph.build(net).levels()
        assert order.index("n0") < order.index("n1") < order.index("n3")

    def test_cycle_detected(self):
        net = GateNetlist()
        net.add_input("a")
        net.add_instance("u0", "INVX1", "a", "x")
        net.add_instance("u1", "INVX1", "y", "z")
        net.add_instance("u2", "INVX1", "z", "y")
        net.primary_outputs.append("x")
        with pytest.raises(TimingGraphError, match="cycle"):
            TimingGraph.build(net).levels()

    def test_depth(self):
        net = GateNetlist.inverter_chain([1, 4, 16, 64])
        g = TimingGraph.build(net)
        assert g.depth_of("n0") == 0
        assert g.depth_of("n4") == 4

    def test_transitive_fanin(self):
        net = GateNetlist.inverter_chain([1, 4, 16])
        g = TimingGraph.build(net)
        assert g.transitive_fanin_nets("n2") == ["n0", "n1", "n2"]


class TestStaAnalysis:
    def test_single_stage_hand_computed(self, stub_library):
        net = GateNetlist.inverter_chain([4])
        # INVX4 output drives nothing: load = 0 ⇒ extrapolated table value.
        engine = StaEngine(stub_library)
        res = engine.analyze(net, inputs={"n0": InputSpec(arrival=1e-9,
                                                          slew=100e-12)})
        d_expect = 20e-12 + 0.1 * 100e-12 + 0.0
        assert res.arrival("n1") == pytest.approx(1e-9 + d_expect, rel=1e-6)

    def test_chain_loads_seen_by_each_stage(self, stub_library):
        net = GateNetlist.inverter_chain([1, 4])
        engine = StaEngine(stub_library)
        res = engine.analyze(net, inputs={"n0": InputSpec(slew=100e-12)})
        cin4 = stub_library["INVX4"].cell.input_capacitance
        d0 = 20e-12 + 0.1 * 100e-12 + 1e9 * cin4 / 1
        assert res.arrival("n1") == pytest.approx(d0, rel=1e-6)
        s1 = 0.5 * 100e-12 + 2e9 * cin4 / 1
        d1 = 20e-12 + 0.1 * s1 + 0.0
        assert res.arrival("n2") == pytest.approx(d0 + d1, rel=1e-6)

    def test_wire_adds_elmore_delay(self, stub_library):
        from repro.interconnect.elmore import elmore_delays_line
        net = GateNetlist.inverter_chain([1, 4])
        spec = RcLineSpec(total_r=500.0, total_c=50e-15, n_segments=3)
        bare = StaEngine(stub_library).analyze(
            net, inputs={"n0": InputSpec(slew=100e-12)})
        wired = StaEngine(stub_library, wire_specs={"n1": spec}).analyze(
            net, inputs={"n0": InputSpec(slew=100e-12)})
        assert wired.arrival("n1") > bare.arrival("n1")
        cin4 = stub_library["INVX4"].cell.input_capacitance
        elm = elmore_delays_line(500.0, 50e-15, 3, load_c=cin4)
        extra_gate = 1e9 * spec.total_c / 1  # wire cap also loads the driver
        assert wired.arrival("n1") - bare.arrival("n1") == pytest.approx(
            elm + extra_gate, rel=1e-6)

    def test_edges_alternate_through_inverters(self, stub_library):
        net = GateNetlist.inverter_chain([1, 1])
        engine = StaEngine(stub_library)
        res = engine.analyze(net, inputs={"n0": InputSpec(arrival=0.0,
                                                          slew=100e-12)})
        # Both edges exist everywhere and are finite.
        for n in ("n1", "n2"):
            assert np.isfinite(res.rise[n].arrival)
            assert np.isfinite(res.fall[n].arrival)

    def test_required_times_and_slack(self, stub_library):
        net = GateNetlist.inverter_chain([1, 4, 16])
        engine = StaEngine(stub_library)
        res = engine.analyze(net, inputs={"n0": InputSpec(slew=100e-12)},
                             required_times={"n3": 1e-9})
        assert res.slack("n3") == pytest.approx(1e-9 - res.arrival("n3"))
        assert res.worst_slack() <= res.slack("n3")
        assert "n0" in res.required  # propagated to the input

    def test_critical_path_traces_chain(self, stub_library):
        net = GateNetlist.inverter_chain([1, 4, 16])
        res = StaEngine(stub_library).analyze(
            net, inputs={"n0": InputSpec(slew=100e-12)})
        assert res.critical_path("n3") == ["n0", "n1", "n2", "n3"]

    def test_unknown_cell_raises(self, stub_library):
        net = GateNetlist()
        net.add_input("a")
        net.add_instance("u0", "NAND2X1", "a", "y")
        net.add_output("y")
        with pytest.raises(KeyError, match="NAND2X1"):
            StaEngine(stub_library).analyze(net)


class TestRequiredTimePropagation:
    """Regression: required times must subtract the *causal* edge's arc
    delay, not the gap between output arrival and the max input arrival.

    Chain: n0 -> INV_A (rise 50ps / fall 10ps) -> n1 -> INV_B
    (rise 100ps / fall 10ps) -> n2, required(n2) = 120ps.

    Hand computation (constant tables, so arrivals are exact sums):
      n1: rise 50ps (caused by n0 fall), fall 10ps (caused by n0 rise)
      n2: rise 110ps (caused by n1 fall), fall 60ps (caused by n1 rise)
      req_rise(n1) = req_fall(n2) - 10ps = 110ps  -> slack 60ps
      req_fall(n1) = req_rise(n2) - 100ps = 20ps  -> slack 10ps
      required(n1) = min = 20ps

    The old backward pass subtracted ``arrival(n2,worst) - max(arrival
    rise/fall at n1)`` = 110 - 50 = 60ps and reported required(n1) =
    60ps — matching *neither* edge (off by 40ps against the causal fall
    edge) — so these asserts fail on the pre-fix code.
    """

    @pytest.fixture()
    def result(self):
        lib = {"INV_A": _const_cell(50e-12, 10e-12),
               "INV_B": _const_cell(100e-12, 10e-12)}
        net = GateNetlist()
        net.add_input("n0")
        net.add_instance("u0", "INV_A", "n0", "n1")
        net.add_instance("u1", "INV_B", "n1", "n2")
        net.add_output("n2")
        return StaEngine(lib).analyze(
            net, inputs={"n0": InputSpec(slew=50e-12)},
            required_times={"n2": 120e-12})

    def test_asymmetric_arrivals(self, result):
        assert result.rise["n1"].arrival == pytest.approx(50e-12, rel=1e-9)
        assert result.fall["n1"].arrival == pytest.approx(10e-12, rel=1e-9)
        assert result.rise["n2"].arrival == pytest.approx(110e-12, rel=1e-9)
        assert result.fall["n2"].arrival == pytest.approx(60e-12, rel=1e-9)

    def test_per_edge_required_times(self, result):
        assert result.required_rise["n1"] == pytest.approx(110e-12, rel=1e-9)
        assert result.required_fall["n1"] == pytest.approx(20e-12, rel=1e-9)

    def test_summary_required_is_min_over_edges(self, result):
        # Pre-fix value was 60ps (gap to the max input arrival).
        assert result.required["n1"] == pytest.approx(20e-12, rel=1e-9)

    def test_hand_computed_slacks(self, result):
        assert result.slack_edge("n1", "rise") == pytest.approx(60e-12, rel=1e-9)
        assert result.slack_edge("n1", "fall") == pytest.approx(10e-12, rel=1e-9)
        assert result.slack("n1") == pytest.approx(10e-12, rel=1e-9)
        assert result.worst_slack() == pytest.approx(10e-12, rel=1e-9)

    def test_required_reaches_primary_input(self, result):
        # req_rise(n0) = req_fall(n1) - 10ps; req_fall(n0) = req_rise(n1) - 50ps.
        assert result.required_rise["n0"] == pytest.approx(10e-12, rel=1e-9)
        assert result.required_fall["n0"] == pytest.approx(60e-12, rel=1e-9)
        assert result.required["n0"] == pytest.approx(10e-12, rel=1e-9)


class TestCriticalPathEdges:
    """Regression: path tracing follows the recorded causal ``from_edge``
    instead of flipping the edge at every stage (wrong for non-inverting
    arcs, which ``TimingArc.inverting=False`` already supported)."""

    @pytest.fixture()
    def result(self):
        lib = {"INV": _const_cell(50e-12, 10e-12),
               "BUF": _const_cell(30e-12, 10e-12, inverting=False)}
        net = GateNetlist()
        net.add_input("n0")
        net.add_instance("u0", "INV", "n0", "n1")
        net.add_instance("u1", "BUF", "n1", "n2")
        net.add_output("n2")
        return StaEngine(lib).analyze(net, inputs={"n0": InputSpec()})

    def test_non_inverting_arc_keeps_edge(self, result):
        # n2 rise (50+30=80ps) is caused by n1 *rise*, not a flipped fall.
        assert result.rise["n2"].arrival == pytest.approx(80e-12, rel=1e-9)
        assert result.rise["n2"].from_edge == "rise"
        assert result.fall["n2"].from_edge == "fall"
        # The inverter stage does flip: n1 rise is caused by n0 fall.
        assert result.rise["n1"].from_edge == "fall"

    def test_trace_selected_edge(self, result):
        assert result.critical_path("n2") == ["n0", "n1", "n2"]
        assert result.critical_path("n2", edge="fall") == ["n0", "n1", "n2"]
        # Fall at n2 traces n1 fall (10ps) back to n0 rise.
        assert result.fall["n2"].arrival == pytest.approx(20e-12, rel=1e-9)


class TestMultiInputCells:
    """Per-arc propagation through a 2-input gate with per-pin delays."""

    @pytest.fixture()
    def library(self):
        arc_a = _const_arc(20e-12, 15e-12, related_pin="A")
        arc_b = _const_arc(40e-12, 35e-12, related_pin="B")
        nand = CharacterizedCell(cell=make_inverter(1), arc=arc_a,
                                 input_slews=arc_a.cell_rise.input_slews,
                                 loads=arc_a.cell_rise.loads,
                                 arcs=(arc_a, arc_b), input_cap=2e-15)
        return {"NAND2": nand, "INV": _const_cell(50e-12, 10e-12)}

    def test_worst_arc_wins(self, library):
        net = GateNetlist()
        net.add_input("a")
        net.add_input("b")
        net.add_instance("u0", "NAND2", {"A": "a", "B": "b"}, "y")
        net.add_output("y")
        res = StaEngine(library).analyze(
            net, inputs={"a": InputSpec(), "b": InputSpec()})
        # Both inputs at t=0: the slower B arc dominates both edges.
        assert res.rise["y"].arrival == pytest.approx(40e-12, rel=1e-9)
        assert res.fall["y"].arrival == pytest.approx(35e-12, rel=1e-9)
        assert res.rise["y"].from_pin == "B"
        assert res.rise["y"].from_net == "b"

    def test_late_arrival_switches_pin(self, library):
        net = GateNetlist()
        net.add_input("a")
        net.add_input("b")
        net.add_instance("u0", "NAND2", {"A": "a", "B": "b"}, "y")
        net.add_output("y")
        res = StaEngine(library).analyze(
            net, inputs={"a": InputSpec(arrival=100e-12), "b": InputSpec()})
        # A arrives 100ps late: 100+20 beats 0+40 on the rise.
        assert res.rise["y"].arrival == pytest.approx(120e-12, rel=1e-9)
        assert res.rise["y"].from_pin == "A"
        assert res.critical_path("y") == ["a", "y"]

    def test_per_pin_required_times(self, library):
        net = GateNetlist()
        net.add_input("a")
        net.add_input("b")
        net.add_instance("u0", "NAND2", {"A": "a", "B": "b"}, "y")
        net.add_output("y")
        res = StaEngine(library).analyze(
            net, inputs={"a": InputSpec(), "b": InputSpec()},
            required_times={"y": 100e-12})
        # req_fall(a) = req_rise(y) - 20ps; req_fall(b) = req_rise(y) - 40ps.
        assert res.required_fall["a"] == pytest.approx(80e-12, rel=1e-9)
        assert res.required_fall["b"] == pytest.approx(60e-12, rel=1e-9)
        assert res.required_rise["a"] == pytest.approx(85e-12, rel=1e-9)
        assert res.required_rise["b"] == pytest.approx(65e-12, rel=1e-9)

    def test_depth_and_levels_with_reconvergence(self, library):
        # a -> inv -> x; NAND(a, x) -> y : reconvergent fanin.
        net = GateNetlist()
        net.add_input("a")
        net.add_instance("u0", "INV", "a", "x")
        net.add_instance("u1", "NAND2", {"A": "a", "B": "x"}, "y")
        net.add_output("y")
        g = TimingGraph.build(net)
        order = g.levels()
        assert order.index("a") < order.index("x") < order.index("y")
        assert g.depth_of("y") == 2
        assert g.transitive_fanin_nets("y") == ["a", "x", "y"]
        res = StaEngine(library).analyze(net, inputs={"a": InputSpec()})
        # Path through the inverter dominates: x rises at 50ps, the B-pin
        # fall arc adds 35ps.
        assert res.arrival("y") == pytest.approx(85e-12, rel=1e-9)


class TestNoiseAwarePath:
    @pytest.fixture(scope="class")
    def quiet_stage(self):
        from repro.sta.noise_aware import NoisyStage
        return NoisyStage(
            driver=make_inverter(1),
            line=RcLineSpec.from_length(500.0),
            receiver=make_inverter(4),
        )

    def test_quiet_stage_technique_matches_reference(self, quiet_stage):
        from repro.core.ramp import SaturatedRamp
        from repro.sta.noise_aware import propagate_path
        ramp = SaturatedRamp.from_arrival_slew(0.3e-9, 150e-12, VDD, rising=False)
        tech = propagate_path([quiet_stage], ramp, dt=4e-12)
        ref = propagate_path([quiet_stage], ramp, dt=4e-12, full_waveform=True)
        assert tech[0].output_arrival == pytest.approx(ref[0].output_arrival,
                                                       abs=20e-12)

    def test_aggressor_changes_arrival(self, quiet_stage):
        from dataclasses import replace
        from repro.core.ramp import SaturatedRamp
        from repro.sta.noise_aware import AggressorSpec, propagate_path
        ramp = SaturatedRamp.from_arrival_slew(0.3e-9, 150e-12, VDD, rising=False)
        agg = AggressorSpec(coupling=100e-15, transition_start=0.35e-9,
                            rising=False, slew=150e-12,
                            driver=make_inverter(1))
        noisy_stage = replace(quiet_stage, aggressors=(agg,))
        quiet = propagate_path([quiet_stage], ramp, dt=4e-12)
        noisy = propagate_path([noisy_stage], ramp, dt=4e-12)
        assert abs(noisy[0].output_arrival - quiet[0].output_arrival) > 5e-12
