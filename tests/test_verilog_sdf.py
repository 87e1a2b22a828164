"""Verilog/SDF ingestion against the checked-in golden corpus.

``tests/data/`` holds a c17-style design (``c17.v``), a constant-table
Liberty library (``c17.lib``), an SDF annotation with min:typ:max
corners (``c17.sdf``) and hand-computed expectations (``golden.json``).
The library tables are constant, so every golden number is an exact
longest-path sum — any deviation is an engine bug, not interpolation.
"""

import json
from pathlib import Path

import pytest

from repro.library.liberty import parse_liberty
from repro.sta import (
    InputSpec,
    NetlistError,
    SdfDelays,
    SdfEngine,
    SdfError,
    SdfTriple,
    StaEngine,
    read_sdf,
    read_verilog,
)
from tests.helpers import seeded_mutations

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def golden():
    return json.loads((DATA / "golden.json").read_text())


@pytest.fixture(scope="module")
def netlist():
    return read_verilog((DATA / "c17.v").read_text())


@pytest.fixture(scope="module")
def library():
    return parse_liberty((DATA / "c17.lib").read_text())


@pytest.fixture(scope="module")
def sdf_delays():
    return read_sdf((DATA / "c17.sdf").read_text())


def _inputs(netlist):
    return {net: InputSpec(slew=50e-12) for net in netlist.primary_inputs}


class TestCorpusParse:
    def test_netlist_structure(self, netlist):
        assert netlist.name == "c17"
        assert sorted(netlist.primary_inputs) == ["N1", "N2", "N3", "N6", "N7"]
        assert sorted(netlist.primary_outputs) == ["N22", "N23"]
        assert len(netlist.instances) == 6
        u10 = next(i for i in netlist.instances if i.name == "u10")
        assert dict(u10.inputs) == {"A": "N1", "B": "N3"}
        assert u10.output_net == "N10"

    def test_library_arcs(self, library):
        nand = library["NAND2X1"]
        assert {a.related_pin for a in nand.timing_arcs} == {"A", "B"}
        assert all(a.inverting for a in nand.timing_arcs)
        assert nand.input_capacitance == pytest.approx(2e-15)

    def test_sdf_annotation(self, sdf_delays):
        assert sdf_delays.timescale == pytest.approx(1e-9)
        rise, fall = sdf_delays.iopath("u10", "A", "Y")
        assert rise.typ == pytest.approx(20e-12)
        assert fall.typ == pytest.approx(15e-12)
        assert rise.min == pytest.approx(10e-12)
        assert rise.max == pytest.approx(40e-12)
        wire = sdf_delays.interconnects[("u10/Y", "u22/A")]
        assert wire[0].typ == pytest.approx(5e-12)


class TestGoldenNldm:
    @pytest.fixture(scope="class")
    def result(self, netlist, library, golden):
        required = {net: golden["required_time"]
                    for net in netlist.primary_outputs}
        return StaEngine(library).analyze(netlist, inputs=_inputs(netlist),
                                          required_times=required)

    def test_arrivals_both_edges(self, result, golden):
        for net, want in golden["nldm"]["arrival_rise"].items():
            assert result.rise[net].arrival == pytest.approx(want, abs=1e-16), net
        for net, want in golden["nldm"]["arrival_fall"].items():
            assert result.fall[net].arrival == pytest.approx(want, abs=1e-16), net

    def test_slacks(self, result, golden):
        for net, want in golden["nldm"]["slack"].items():
            assert result.slack(net) == pytest.approx(want, abs=1e-16), net

    def test_per_edge_required_times(self, result, golden):
        assert result.required_rise["N16"] == pytest.approx(
            golden["nldm"]["required_rise_N16"], abs=1e-16)
        assert result.required_fall["N16"] == pytest.approx(
            golden["nldm"]["required_fall_N16"], abs=1e-16)

    def test_critical_path(self, result, golden):
        assert result.critical_path("N22") == golden["nldm"]["critical_path_N22"]


class TestGoldenSdf:
    @pytest.mark.parametrize("corner", ["min", "typ", "max"])
    def test_corner_arrivals(self, netlist, library, sdf_delays, golden, corner):
        scale = golden["sdf"]["corner_scale"].get(corner, 1.0)
        engine = SdfEngine(sdf_delays, corner=corner, library=library)
        res = engine.analyze(netlist, inputs=_inputs(netlist))
        for net, want in golden["sdf"]["arrival_rise"].items():
            assert res.rise[net].arrival == pytest.approx(want * scale,
                                                          abs=1e-16), net
        for net, want in golden["sdf"]["arrival_fall"].items():
            assert res.fall[net].arrival == pytest.approx(want * scale,
                                                          abs=1e-16), net

    def test_missing_annotation_raises(self, netlist, sdf_delays):
        pruned = SdfDelays(design=sdf_delays.design,
                           timescale=sdf_delays.timescale,
                           iopaths={k: v for k, v in sdf_delays.iopaths.items()
                                    if k[0] != "u16"},
                           interconnects=dict(sdf_delays.interconnects))
        with pytest.raises(SdfError, match="u16"):
            SdfEngine(pruned).analyze(netlist, inputs=_inputs(netlist))


class TestVerilogReaderErrors:
    def test_escaped_identifier_rejected(self):
        src = r"module m (a, y); input a; output y; wire \w[1] ; endmodule"
        with pytest.raises(NetlistError, match="escaped identifier"):
            read_verilog(src)

    def test_assign_rejected(self):
        src = "module m (a, y); input a; output y; assign y = a; endmodule"
        with pytest.raises(NetlistError, match="assign"):
            read_verilog(src)

    def test_parameter_override_rejected(self):
        src = ("module m (a, y); input a; output y; "
               "INVX1 #(.W(2)) u0 (.A(a), .Y(y)); endmodule")
        with pytest.raises(NetlistError, match=r"#"):
            read_verilog(src)

    def test_constant_connection_rejected(self):
        src = ("module m (y); output y; "
               "NAND2X1 u0 (.A(1'b0), .B(1'b1), .Y(y)); endmodule")
        with pytest.raises(NetlistError, match="constant"):
            read_verilog(src)

    def test_instance_without_output_pin_rejected(self):
        src = ("module m (a, y); input a; output y; "
               "INVX1 u0 (.A(a), .B(y)); endmodule")
        with pytest.raises(NetlistError, match="exactly one output"):
            read_verilog(src)

    @pytest.mark.parametrize("instances,match", [
        ("INVX1 u0 (.A(a), .Y(b)); INVX1 u0 (.A(b), .Y(y));",
         "duplicate instance name"),
        ("NAND2X1 u0 (.A(a), .A(a), .Y(y));", "duplicate input pin"),
    ])
    def test_duplicate_names_rejected(self, instances, match):
        src = f"module m (a, y); input a; output y; wire b; {instances} endmodule"
        with pytest.raises(NetlistError, match=match):
            read_verilog(src)

    def test_undeclared_header_port_rejected(self):
        src = "module m (a, y); input a; endmodule"
        with pytest.raises(NetlistError, match="no input/output declaration"):
            read_verilog(src)

    def test_output_pin_override(self):
        src = ("module m (a, y); input a; output y; "
               "CUSTOM u0 (.A(a), .ZN(y)); endmodule")
        with pytest.raises(NetlistError, match="exactly one output"):
            read_verilog(src)
        net = read_verilog(src, output_pin_of={"CUSTOM": "ZN"})
        assert net.instances[0].output_pin == "ZN"
        assert net.instances[0].output_net == "y"


class TestSdfReader:
    def test_timescale_units(self):
        sdf = '(DELAYFILE (DESIGN "x") (TIMESCALE 100 ps))'
        assert read_sdf(sdf).timescale == pytest.approx(100e-12)

    def test_single_value_triple_serves_all_corners(self):
        sdf = """(DELAYFILE (TIMESCALE 1ns)
                  (CELL (CELLTYPE "INVX1") (INSTANCE u0)
                    (DELAY (ABSOLUTE (IOPATH A Y (0.5))))))"""
        rise, fall = read_sdf(sdf).iopath("u0", "A", "Y")
        assert rise == fall == SdfTriple(0.5e-9, 0.5e-9, 0.5e-9)

    def test_malformed_triple_rejected(self):
        sdf = """(DELAYFILE (TIMESCALE 1ns)
                  (CELL (INSTANCE u0)
                    (DELAY (ABSOLUTE (IOPATH A Y (1:2))))))"""
        with pytest.raises(SdfError, match="triple"):
            read_sdf(sdf)

    def test_unbalanced_parens_rejected(self):
        with pytest.raises(SdfError, match="[Uu]nbalanced"):
            read_sdf("(DELAYFILE (TIMESCALE 1ns)")

    def test_deep_nesting_rejected(self):
        with pytest.raises(SdfError, match="nest deeper"):
            read_sdf("(" * 100_000)

    def test_non_delayfile_rejected(self):
        with pytest.raises(SdfError, match="DELAYFILE"):
            read_sdf("(SPICE stuff)")

    def test_triple_pick(self):
        t = SdfTriple(1.0, 2.0, 3.0)
        assert (t.pick("min"), t.pick("typ"), t.pick("max")) == (1.0, 2.0, 3.0)
        with pytest.raises(ValueError, match="corner"):
            t.pick("worst")


class TestSdfEngineInline:
    """Library-free back-annotated run over an inline inverter chain."""

    VERILOG = """
    module chain (a, y);
      input a; output y; wire w;
      INVX1 u0 (.A(a), .Y(w));
      INVX1 u1 (.A(w), .Y(y));
    endmodule
    """
    SDF = """(DELAYFILE (DESIGN "chain") (TIMESCALE 1ns)
      (CELL (CELLTYPE "INVX1") (INSTANCE u0)
        (DELAY (ABSOLUTE (IOPATH A Y (0.100) (0.050)))))
      (CELL (CELLTYPE "INVX1") (INSTANCE u1)
        (DELAY (ABSOLUTE (IOPATH A Y (0.080) (0.040)))))
      (CELL (CELLTYPE "chain") (INSTANCE)
        (DELAY (ABSOLUTE (INTERCONNECT u0/Y u1/A (0.010) (0.020))))))"""

    def test_hand_computed_arrivals(self):
        netlist = read_verilog(self.VERILOG)
        engine = SdfEngine(read_sdf(self.SDF))
        res = engine.analyze(netlist, inputs={"a": InputSpec(slew=60e-12)})
        # w: rise 100ps (from a fall), fall 50ps (from a rise).
        assert res.rise["w"].arrival == pytest.approx(100e-12, abs=1e-16)
        assert res.fall["w"].arrival == pytest.approx(50e-12, abs=1e-16)
        # y rise: fall(w) + wire(fall edge) + iopath rise = 50+20+80.
        assert res.rise["y"].arrival == pytest.approx(150e-12, abs=1e-16)
        # y fall: rise(w) + wire(rise edge) + iopath fall = 100+10+40.
        assert res.fall["y"].arrival == pytest.approx(150e-12, abs=1e-16)
        # Slews pass through unchanged (SDF carries no transition data).
        assert res.rise["y"].slew == pytest.approx(60e-12)
        assert res.critical_path("y") == ["a", "w", "y"]


class TestSeededMutations:
    """2,000 seeded byte-level mutations each of the c17 netlist and SDF
    file either parse or raise the reader's declared error — never an
    ``IndexError``/``KeyError``/``RecursionError`` from inside it."""

    @pytest.mark.parametrize("name,reader,error,seed,punct", [
        ("c17.v", read_verilog, NetlistError, 20052, "();,.#\\[]:= \n/*"),
        ("c17.sdf", read_sdf, SdfError, 20053, '()":.* \n/-0e'),
    ])
    def test_mutations_raise_only_declared_errors(self, name, reader, error,
                                                  seed, punct):
        parsed = 0
        for text in seeded_mutations((DATA / name).read_text(), seed, punct):
            try:
                reader(text)
            except error:
                continue
            parsed += 1
        # Both outcomes occur: the mutations are neither all fatal nor
        # all harmless.
        assert 0 < parsed < 2000
