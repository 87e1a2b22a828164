"""Tests for RC lines, coupled bundles and Elmore delays."""

import numpy as np
import pytest

from repro.circuit.netlist import Circuit
from repro.circuit.sources import RampSource
from repro.circuit.transient import TransientJob
from repro.interconnect.coupling import CouplingSpec, add_coupled_lines
from repro.interconnect.elmore import RcTree, elmore_delay, elmore_delays_line
from repro.interconnect.rcline import RcLineSpec, WIRE_C_PER_UM, WIRE_R_PER_UM, add_rc_line


class TestRcLineSpec:
    def test_figure1_parameters_from_length(self):
        spec = RcLineSpec.from_length(1000.0)
        # Figure 1: three cells of R = 8.5 Ω and 2 × 4.8 fF each.
        assert spec.r_per_segment == pytest.approx(8.5)
        assert spec.c_per_segment == pytest.approx(9.6e-15)

    def test_length_scaling(self):
        half = RcLineSpec.from_length(500.0)
        full = RcLineSpec.from_length(1000.0)
        assert full.total_r == pytest.approx(2 * half.total_r)
        assert full.total_c == pytest.approx(2 * half.total_c)

    def test_validation(self):
        with pytest.raises(ValueError):
            RcLineSpec(total_r=0.0, total_c=1e-15)
        with pytest.raises(ValueError):
            RcLineSpec(total_r=1.0, total_c=1e-15, n_segments=0)

    def test_junction_nodes(self):
        spec = RcLineSpec(total_r=30.0, total_c=30e-15, n_segments=3)
        nodes = spec.junction_nodes("w", "near", "far")
        assert nodes == ["near", "w.n1", "w.n2", "far"]


class TestAddRcLine:
    def test_element_counts_and_totals(self):
        c = Circuit()
        spec = RcLineSpec(total_r=30.0, total_c=30e-15, n_segments=3)
        add_rc_line(c, "w", "a", "b", spec)
        assert len(c.resistors) == 3
        assert sum(r.resistance for r in c.resistors) == pytest.approx(30.0)
        assert sum(cap.capacitance for cap in c.capacitors) == pytest.approx(30e-15)

    def test_single_segment(self):
        c = Circuit()
        add_rc_line(c, "w", "a", "b", RcLineSpec(total_r=10.0, total_c=1e-15,
                                                 n_segments=1))
        assert len(c.resistors) == 1
        assert c.nodes == ["a", "b"]


class TestCoupling:
    def test_coupling_caps_created(self):
        c = Circuit()
        spec = RcLineSpec(total_r=30.0, total_c=30e-15, n_segments=3)
        bundle = add_coupled_lines(
            c, "b", [("a0", "a1"), ("v0", "v1")], [spec, spec],
            [CouplingSpec(0, 1, 90e-15)])
        cm = [cap for cap in c.capacitors if ".cm" in cap.name]
        assert len(cm) == 3
        assert sum(cap.capacitance for cap in cm) == pytest.approx(90e-15)
        assert bundle.far_end(0) == "a1" and bundle.near_end(1) == "v0"

    def test_segment_count_mismatch_rejected(self):
        c = Circuit()
        s3 = RcLineSpec(total_r=30.0, total_c=30e-15, n_segments=3)
        s2 = RcLineSpec(total_r=30.0, total_c=30e-15, n_segments=2)
        with pytest.raises(ValueError, match="segment count"):
            add_coupled_lines(c, "b", [("a", "b"), ("c", "d")], [s3, s2],
                              [CouplingSpec(0, 1, 1e-15)])

    def test_self_coupling_rejected(self):
        with pytest.raises(ValueError):
            CouplingSpec(1, 1, 1e-15)

    def test_three_line_bundle(self):
        c = Circuit()
        spec = RcLineSpec(total_r=10.0, total_c=10e-15, n_segments=2)
        add_coupled_lines(
            c, "b", [("v_in", "v_out"), ("a1_in", "a1_out"), ("a2_in", "a2_out")],
            [spec] * 3,
            [CouplingSpec(0, 1, 50e-15), CouplingSpec(0, 2, 50e-15)])
        cm = [cap for cap in c.capacitors if ".cm" in cap.name]
        assert len(cm) == 4  # two couplings x two coupling points

    def test_quiet_aggressor_capacitively_loads_victim(self):
        # A grounded-aggressor bundle behaves like extra ground cap on the
        # victim: the far end still settles, slower than uncoupled.
        def far_slew(with_coupling: bool) -> float:
            c = Circuit()
            spec = RcLineSpec.from_length(1000.0)
            c.vsource("Vin", "drv", "0", RampSource(0.1e-9, 150e-12, 0.0, 1.2))
            c.resistor("Rdrv", "drv", "near", 500.0)
            if with_coupling:
                c.vsource("Vagg", "anear", "0", 0.0)
                add_coupled_lines(c, "b", [("near", "far"), ("anear", "afar")],
                                  [spec, spec], [CouplingSpec(0, 1, 100e-15)])
            else:
                add_rc_line(c, "b.l0", "near", "far", spec)
            res = TransientJob(c, t_stop=3e-9, dt=5e-12).run()
            return res.waveform("far").slew(1.2)

        assert far_slew(True) > far_slew(False)


class TestElmore:
    def test_single_rc(self):
        tree = RcTree(root="in")
        tree.add_resistor("in", "out", 1e3)
        tree.add_capacitance("out", 1e-12)
        assert elmore_delay(tree, "out") == pytest.approx(1e-9)

    def test_two_segment_ladder_hand_computed(self):
        tree = RcTree(root="n0")
        tree.add_resistor("n0", "n1", 100.0)
        tree.add_resistor("n1", "n2", 100.0)
        tree.add_capacitance("n1", 1e-12)
        tree.add_capacitance("n2", 2e-12)
        # T(n2) = R1*(C1 + C2) + R2*C2
        assert elmore_delay(tree, "n2") == pytest.approx(100 * 3e-12 + 100 * 2e-12)

    def test_branching_tree_side_load(self):
        tree = RcTree(root="r")
        tree.add_resistor("r", "m", 50.0)
        tree.add_resistor("m", "a", 100.0)
        tree.add_resistor("m", "b", 200.0)
        tree.add_capacitance("a", 1e-12)
        tree.add_capacitance("b", 1e-12)
        # Shared resistance to the off-path sink is only the trunk.
        assert elmore_delay(tree, "a") == pytest.approx(50 * 2e-12 + 100 * 1e-12)

    def test_downstream_capacitance(self):
        tree = RcTree(root="r")
        tree.add_resistor("r", "a", 1.0)
        tree.add_resistor("a", "b", 1.0)
        tree.add_capacitance("a", 1e-15)
        tree.add_capacitance("b", 2e-15)
        assert tree.downstream_capacitance("a") == pytest.approx(3e-15)

    def test_line_helper_matches_manual_tree(self):
        spec = RcLineSpec(total_r=30.0, total_c=30e-15, n_segments=3)
        value = elmore_delays_line(spec.total_r, spec.total_c, 3, load_c=10e-15)
        tree = RcTree(root="n0")
        half = 5e-15
        tree.add_capacitance("n0", half)
        for k in range(1, 4):
            tree.add_resistor(f"n{k - 1}", f"n{k}", 10.0)
            tree.add_capacitance(f"n{k}", half if k == 3 else 2 * half)
        tree.add_capacitance("n3", 10e-15)
        assert value == pytest.approx(elmore_delay(tree, "n3"))

    def test_elmore_brackets_simulated_delay(self):
        # Elmore overestimates the 50% step delay of an RC line but is
        # within ~2x for a near-step input — the classic sanity check.
        spec = RcLineSpec(total_r=2000.0, total_c=200e-15, n_segments=5)
        elm = elmore_delays_line(spec.total_r, spec.total_c, 5)
        c = Circuit()
        c.vsource("Vin", "in", "0", [(0.0, 0.0), (1e-12, 1.0)])
        add_rc_line(c, "w", "in", "out", spec)
        res = TransientJob(c, t_stop=5 * elm, dt=elm / 200).run()
        t50 = res.waveform("out").cross_time(0.5)
        assert 0.4 * elm < t50 < 1.5 * elm

    def test_wire_constants_match_figure1(self):
        assert WIRE_R_PER_UM * 1000 == pytest.approx(25.5)
        assert WIRE_C_PER_UM * 1000 == pytest.approx(28.8e-15)
