"""Tests for cells, NLDM tables, characterisation and Liberty I/O."""

from pathlib import Path

import numpy as np
import pytest

from repro.exec import ExecutionConfig, ResultStore, set_default_execution
from repro.library.cells import (
    STANDARD_DRIVES,
    make_inverter,
    standard_cell,
    standard_cells,
)
from repro.library.characterize import (
    characterize_cell,
    default_load_grid,
    default_slew_grid,
)
from repro.library.liberty import (
    LibertyParseError,
    parse_liberty,
    write_liberty,
)
from repro.library.nldm import NldmTable, TimingArc
from tests.helpers import characterisation_response, seeded_mutations

VDD = 1.2
C17_LIB = (Path(__file__).parent / "data" / "c17.lib").read_text()


class TestCells:
    def test_standard_family(self):
        cells = standard_cells()
        assert set(cells) == {f"INVX{d}" for d in STANDARD_DRIVES}

    def test_drive_scales_geometry(self):
        c1, c4 = make_inverter(1), make_inverter(4)
        assert c4.wn == pytest.approx(4 * c1.wn)
        assert c4.wp == pytest.approx(4 * c1.wp)
        assert c4.input_capacitance == pytest.approx(4 * c1.input_capacitance)

    def test_unit_input_capacitance_magnitude(self):
        # ~2.3 fF for the 1x cell in a 0.13 µm-class process.
        assert 1e-15 < make_inverter(1).input_capacitance < 5e-15

    def test_invalid_drive_rejected(self):
        with pytest.raises(ValueError):
            standard_cell(3)
        with pytest.raises(ValueError):
            make_inverter(0)

    def test_instantiate_adds_two_fets(self):
        from repro.circuit.netlist import Circuit
        c = Circuit()
        c.vsource("Vdd", "vdd", "0", VDD)
        standard_cell(1).instantiate(c, "u1", "a", "y", "vdd")
        assert len(c.mosfets) == 2


class TestNldmTable:
    def _table(self):
        return NldmTable(
            input_slews=np.array([10e-12, 100e-12]),
            loads=np.array([1e-15, 10e-15]),
            values=np.array([[1e-12, 2e-12], [3e-12, 4e-12]]),
        )

    def test_exact_corner_lookup(self):
        t = self._table()
        assert t.lookup(10e-12, 1e-15) == pytest.approx(1e-12)
        assert t.lookup(100e-12, 10e-15) == pytest.approx(4e-12)

    def test_bilinear_midpoint(self):
        t = self._table()
        assert t.lookup(55e-12, 5.5e-15) == pytest.approx(2.5e-12)

    def test_extrapolates_linearly(self):
        t = self._table()
        # One grid step beyond the top slew continues the last slope.
        assert t.lookup(190e-12, 1e-15) == pytest.approx(5e-12)

    def test_single_row_table(self):
        t = NldmTable(np.array([50e-12]), np.array([1e-15, 3e-15]),
                      np.array([[1e-12, 3e-12]]))
        assert t.lookup(50e-12, 2e-15) == pytest.approx(2e-12)

    def test_single_cell_table(self):
        t = NldmTable(np.array([1e-12]), np.array([1e-15]), np.array([[7e-12]]))
        assert t.lookup(9.0, 9.0) == pytest.approx(7e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            NldmTable(np.array([1e-12, 2e-12]), np.array([1e-15]),
                      np.array([[1.0, 2.0]]))

    def test_unsorted_grid_rejected(self):
        with pytest.raises(ValueError):
            NldmTable(np.array([2e-12, 1e-12]), np.array([1e-15]),
                      np.array([[1.0], [2.0]]))

    def test_timing_arc_edge_mapping(self):
        tab = self._table()
        arc = TimingArc(related_pin="A", output_pin="Y", inverting=True,
                        cell_rise=tab, cell_fall=tab.map_values(lambda v: v * 2),
                        rise_transition=tab, fall_transition=tab)
        d_rise, _, rising = arc.delay_and_slew(10e-12, 1e-15, input_rising=False)
        d_fall, _, falling = arc.delay_and_slew(10e-12, 1e-15, input_rising=True)
        assert rising is True and falling is False
        assert d_fall == pytest.approx(2 * d_rise)


class TestCharacterisation:
    def test_gate_response_measures(self, invx4_response):
        r = invx4_response
        assert 5e-12 < r.gate_delay < 300e-12
        assert 10e-12 < r.output_slew < 500e-12
        assert r.v_out.v_final == pytest.approx(0.0, abs=0.02)

    def test_delay_grows_with_load(self):
        cell = standard_cell(1)
        fast = characterisation_response(cell, 100e-12, 2e-15, True, dt=2e-12)
        slow = characterisation_response(cell, 100e-12, 40e-15, True, dt=2e-12)
        assert slow.gate_delay > fast.gate_delay
        assert slow.output_slew > fast.output_slew

    def test_characterize_tables_monotone_in_load(self):
        cell = standard_cell(4)
        cc = characterize_cell(cell, input_slews=np.array([60e-12, 200e-12]),
                               loads=np.array([5e-15, 40e-15]), dt=2e-12)
        for table in (cc.arc.cell_rise, cc.arc.cell_fall):
            assert np.all(np.diff(table.values, axis=1) > 0)

    def test_warm_store_rerun_solves_nothing(self, tmp_path):
        # The grid is one run_jobs submission under the default
        # execution, so an installed store answers a rerun outright.
        store = ResultStore(tmp_path)
        previous = set_default_execution(ExecutionConfig(store=store))
        try:
            grid = dict(input_slews=np.array([60e-12, 200e-12]),
                        loads=np.array([2e-15, 10e-15]), dt=2e-12)
            cold = characterize_cell(standard_cell(1), **grid)
            store.reset_counters()
            warm = characterize_cell(standard_cell(1), **grid)
        finally:
            set_default_execution(previous)
        assert (store.hits, store.misses) == (8, 0)
        for attr in ("cell_rise", "cell_fall", "rise_transition",
                     "fall_transition"):
            assert np.array_equal(getattr(warm.arc, attr).values,
                                  getattr(cold.arc, attr).values)

    def test_default_grids(self):
        cell = standard_cell(4)
        assert default_slew_grid().size >= 4
        assert np.all(default_load_grid(cell) == 4 * default_load_grid(standard_cell(1)))


class TestLiberty:
    @pytest.fixture(scope="class")
    def char_cell(self):
        return characterize_cell(standard_cell(1),
                                 input_slews=np.array([60e-12, 200e-12]),
                                 loads=np.array([2e-15, 10e-15]), dt=2e-12)

    def test_roundtrip_tables(self, char_cell):
        text = write_liberty([char_cell])
        back = parse_liberty(text)["INVX1"]
        for attr in ("cell_rise", "cell_fall", "rise_transition", "fall_transition"):
            a = getattr(char_cell.arc, attr).values
            b = getattr(back.arc, attr).values
            assert np.allclose(a, b, rtol=1e-5)
        assert np.allclose(char_cell.arc.cell_rise.input_slews,
                           back.arc.cell_rise.input_slews, rtol=1e-6)

    def test_roundtrip_metadata(self, char_cell):
        back = parse_liberty(write_liberty([char_cell]))["INVX1"]
        assert back.arc.inverting
        assert back.arc.related_pin == "A"
        assert back.cell.vdd == pytest.approx(1.2)

    def test_parser_tolerates_comments_and_unknown_attrs(self, char_cell):
        text = write_liberty([char_cell])
        text = text.replace("library (repro013) {",
                            "library (repro013) { /* vendor: x */\n"
                            "  operating_conditions (tt) { process : 1; }\n"
                            "  // a line comment\n")
        assert "INVX1" in parse_liberty(text)

    def test_parser_rejects_garbage(self):
        with pytest.raises(LibertyParseError):
            parse_liberty("cell (INVX1) { }")
        with pytest.raises(LibertyParseError):
            parse_liberty("library (x) { cell (WEIRD9) { pin (Y) "
                          "{ direction : output; } } }")

    def test_parser_requires_tables(self):
        text = ('library (x) { cell (INVX1) { pin (Y) { direction : output; '
                'timing () { related_pin : "A"; } } } }')
        with pytest.raises(LibertyParseError, match="missing"):
            parse_liberty(text)

    def test_writer_units_are_ns_pf(self, char_cell):
        text = write_liberty([char_cell])
        assert 'time_unit : "1ns"' in text
        assert "capacitive_load_unit (1, pf)" in text


class TestLibertyErrors:
    """Malformed Liberty text raises :class:`LibertyParseError` and
    nothing else, so callers (the ``sta_mc`` service spec) can catch one
    declared type."""

    def _bad(self, old, new, match):
        assert old in C17_LIB
        with pytest.raises(LibertyParseError, match=match):
            parse_liberty(C17_LIB.replace(old, new, 1))

    @pytest.mark.parametrize("attr", ["index_1", "index_2", "values"])
    def test_table_missing_attribute(self, attr):
        line = {"index_1": 'index_1 ("0.05");',
                "index_2": 'index_2 ("0.002");',
                "values": 'values ("0.020");'}[attr]
        self._bad(line, "", f"cell_rise table has no {attr}")

    @pytest.mark.parametrize("old,new", [
        ('values ("0.020")', 'values ("0.02x")'),
        ("nom_voltage : 1.2", "nom_voltage : 1.2.1"),
        ("capacitance : 0.002", "capacitance : 0.00 2"),
    ])
    def test_non_numeric_number(self, old, new):
        self._bad(old, new, "bad number")

    def test_values_count_mismatch(self):
        self._bad('values ("0.020")', 'values ("0.020, 0.021")',
                  "values count 2 != 1x1")

    @pytest.mark.parametrize("old,new,match", [
        ("cell (NAND2X1)", "cell ()", "cell group has no name"),
        ("nom_voltage : 1.2", "nom_voltage : 0", "vdd must be positive"),
        ('values ("0.020")', 'values ("nan")', "must be finite"),
    ])
    def test_model_invariants(self, old, new, match):
        self._bad(old, new, match)

    def test_service_spec_reports_bad_liberty(self):
        from repro.service.jobs import JobSpecError, build_job
        verilog = (Path(__file__).parent / "data" / "c17.v").read_text()
        liberty = C17_LIB.replace('index_1 ("0.05");', "", 1)
        with pytest.raises(JobSpecError, match="bad liberty"):
            build_job({"kind": "sta_mc", "verilog": verilog,
                       "liberty": liberty})

    def test_seeded_byte_mutations_raise_only_parse_errors(self):
        """2,000 seeded byte-level mutations of the c17 library (span
        deletions, inserted punctuation, spliced copies; one to three
        each) either parse or raise LibertyParseError."""
        parsed = 0
        for text in seeded_mutations(C17_LIB, 20051, '(){};:,"/*\\ \n.-0e'):
            try:
                parse_liberty(text)
            except LibertyParseError:
                continue
            parsed += 1
        # Both outcomes occur: the mutations are neither all fatal nor
        # all harmless (comment-only edits, extra whitespace).
        assert 0 < parsed < 2000
