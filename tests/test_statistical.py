"""Monte-Carlo statistical STA: determinism, sharding, cache reuse."""

import functools
import json
import math
import os
import threading
import tracemalloc
import zlib
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import repro.sta.statistical as statistical
from repro.exec import ExecutionConfig, run_indexed
from repro.interconnect.rcline import RcLineSpec
from repro.library.cells import make_inverter
from repro.library.characterize import CharacterizedCell
from repro.library.liberty import parse_liberty
from repro.library.nldm import NldmTable, TimingArc
from repro.sta import (
    InputSpec,
    McVariation,
    StaEngine,
    read_verilog,
    run_noise_monte_carlo,
    run_sta_monte_carlo,
    sample_library,
    sample_wire_specs,
)
from repro.sta.graph import TimingGraph
from repro.sta.netlist import GateNetlist
from repro.sta.statistical import _rng_for

from tests.helpers import pin_block
from tests.test_sta import _const_cell, _nand_netlist


@pytest.fixture()
def design():
    lib = {"INV_A": _const_cell(50e-12, 10e-12),
           "INV_B": _const_cell(100e-12, 10e-12)}
    net = GateNetlist()
    net.add_input("n0")
    net.add_instance("u0", "INV_A", "n0", "n1")
    net.add_instance("u1", "INV_B", "n1", "n2")
    net.add_output("n2")
    wires = {"n1": RcLineSpec(total_r=300.0, total_c=10e-15)}
    return net, lib, wires


def _run(design, seed=7, samples=16, execution=None, sigma_cell=0.05,
         sigma_wire=0.10):
    net, lib, wires = design
    return run_sta_monte_carlo(
        net, lib, wire_specs=wires, inputs={"n0": InputSpec(slew=50e-12)},
        required_times={"n2": 400e-12},
        variation=McVariation(sigma_cell=sigma_cell, sigma_wire=sigma_wire),
        samples=samples, seed=seed, execution=execution)


def _c17():
    data = os.path.join(os.path.dirname(__file__), "data")
    with open(os.path.join(data, "c17.v")) as fh:
        net = read_verilog(fh.read())
    with open(os.path.join(data, "c17.lib")) as fh:
        lib = parse_liberty(fh.read())
    return net, lib


class TestDeterminism:
    def test_seeded_reproducibility(self, design):
        a = _run(design, seed=7)
        b = _run(design, seed=7)
        assert a.rows == b.rows
        assert a.quantiles == b.quantiles

    def test_different_seeds_differ(self, design):
        a = _run(design, seed=7)
        b = _run(design, seed=8)
        assert a.rows != b.rows

    def test_sharded_matches_serial_bit_for_bit(self, design):
        serial = _run(design, execution=ExecutionConfig(workers=1))
        sharded = _run(design,
                       execution=ExecutionConfig(workers=2, min_pool_jobs=2))
        assert serial.rows == sharded.rows
        assert serial.quantiles == sharded.quantiles
        assert serial.diag["mode"] == "serial"
        # Pool creation can legitimately fall back inline in constrained
        # sandboxes; the rows above prove equality either way.
        assert sharded.diag["mode"] in ("sharded", "serial")

    def test_zero_sigma_collapses_to_nominal(self, design):
        res = _run(design, sigma_cell=0.0, sigma_wire=0.0, samples=4)
        arrivals = [r["arrival"]["n2"] for r in res.rows]
        assert len(set(arrivals)) == 1
        q = res.quantiles["arrival"]["n2"]
        assert q["q05"] == q["q50"] == q["q95"] == arrivals[0]

    def test_rng_streams_are_index_independent(self):
        # Stream i is fully determined by (tag, seed, i) — not by how
        # many draws any other stream made.
        a = _rng_for("ssta", 3, 5).normal()
        _rng_for("ssta", 3, 4).normal()
        assert _rng_for("ssta", 3, 5).normal() == a
        assert _rng_for("other", 3, 5).normal() != a


class TestBlockSampler:
    """:func:`_block_normals` draws what per-sample ``default_rng`` does."""

    # Seeds and indices on both sides of 2**32 and 2**64: SeedSequence
    # reads an integer as one 32-bit word per 32 bits, low first.
    SEEDS = (0, 2**32 - 1, 2**32, 2**64 + 5)
    INDICES = (0, 1, 255, 2**32 - 1, 2**32, 2**32 + 9, 2**64 + 3)

    @staticmethod
    def _reference(tag, seed, indices, sigmas):
        rows = []
        for i in indices:
            rng = np.random.default_rng(
                [statistical._STREAM_SALT, zlib.crc32(tag.encode()), seed, i])
            rows.append([rng.normal(0.0, s) if s > 0 else 0.0
                         for s in sigmas])
        return np.array(rows, dtype=float)

    @pytest.mark.parametrize("tag", ["ssta", "noise-mc"])
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("sigma_cell,sigma_wire", [
        (0.05, 0.1), (0.0, 0.1), (0.05, 0.0), (0.0, 0.0)])
    def test_matches_per_sample_streams(self, tag, seed, sigma_cell,
                                        sigma_wire):
        # Three cells, then (R, C) of two nets: the SSTA column layout.
        sigmas = np.array([sigma_cell] * 3 + [sigma_wire] * 4)
        got = statistical._block_normals(tag, seed, self.INDICES, sigmas)
        want = self._reference(tag, seed, self.INDICES, sigmas)
        assert got.tobytes() == want.tobytes()

    def test_subnormal_sigma_keeps_positive_zero(self):
        # normal(0, σ) computes 0.0 + σ·z: where σ·z rounds to -0.0 the
        # draw is still +0.0, and so must the block sampler's be.
        sigma, indices = 5e-324, range(64)
        got = statistical._block_normals("ssta", 0, indices, [sigma])
        want = self._reference("ssta", 0, indices, [sigma])
        assert got.tobytes() == want.tobytes()
        z = np.array([_rng_for("ssta", 0, i).standard_normal()
                      for i in indices])
        assert np.signbit(sigma * z[(z < 0) & (z > -0.5)]).any()
        assert not np.signbit(got[got == 0.0]).any()

    def test_ziggurat_tables_match_numpy_at_every_edge(self):
        # The fast path accepts ``rabs < ki[idx]`` and returns
        # ``±rabs·wi[idx]``: at rabs = 1 (the bare ``wi``), ki − 1 and ki,
        # both signs, for every idx, NumPy itself must agree bit for bit.
        wi, ki = statistical._ziggurat()
        bitgen = np.random.PCG64(0)
        gen = np.random.Generator(bitgen)
        inverse = pow(statistical._PCG_MULT, -1, 2**128)
        raws, want_x, want_fast = [], [], []
        for idx in range(256):
            edge = int(ki[idx])
            for rabs in sorted(r for r in {1, edge - 1, edge}
                               if 0 <= r < 2**52):
                for sign in (0, 1):
                    r = (rabs << 9) | (sign << 8) | idx
                    bitgen.state = {"bit_generator": "PCG64",
                                    "state": {"state": (r - 1) * inverse
                                              % 2**128, "inc": 1},
                                    "has_uint32": 0, "uinteger": 0}
                    want_x.append(gen.standard_normal())
                    want_fast.append(bitgen.state["state"]["state"] == r)
                    raws.append(r)
        got_x, got_fast = statistical._ziggurat_fast(
            np.array(raws, dtype=np.uint64))
        want_x, want_fast = np.array(want_x), np.array(want_fast)
        assert got_fast.tolist() == want_fast.tolist()
        assert got_x[want_fast].tobytes() == want_x[want_fast].tobytes()
        assert ki[1] == 0 and (ki[2:] > 2**51).all()

    @pytest.mark.parametrize("width", [1, 3])
    def test_rejection_rows_match_per_sample_streams(self, width,
                                                     monkeypatch):
        # Streams whose first draw hits the tail (idx byte 0), idx byte 1
        # (ki = 0) or rabs >= ki, and whose 2nd or 3rd draw alone
        # rejects, found with the per-sample oracle, among plain rows.
        found = _rejection_indices("ssta", 8)
        indices = [i for i in range(40) if i not in found.values()]
        for key in ("tail", "idx1", "rabs_ge_ki", "second", "third"):
            indices.insert(len(indices) // 2, found[key])
        restarts = []
        scalar = statistical._scalar_normals

        def spy(draws, rows):
            restarts.extend(rows)
            return scalar(draws, rows)

        monkeypatch.setattr(statistical, "_scalar_normals", spy)
        sigmas = np.array([0.05, 0.1, 0.2][:width])
        got = statistical._block_normals("ssta", 8, indices, sigmas)
        want = self._reference("ssta", 8, indices, sigmas)
        assert got.tobytes() == want.tobytes()
        # Each rejecting row restarts at its first rejected draw.
        column = {indices[row]: col for row, col, _s, _i in restarts}
        assert column[found["tail"]] == column[found["idx1"]] == \
            column[found["rabs_ge_ki"]] == 0
        if width == 3:
            assert column[found["second"]] == 1
            assert column[found["third"]] == 2

    def test_c17_block_mostly_on_the_fast_path(self, monkeypatch):
        # A 256-sample c17 block (one column) sends at most 4% of its
        # rows to the per-row scalar path.
        net, lib = _c17()
        rows = []
        scalar = statistical._scalar_normals

        def spy(draws, restarts):
            rows.append(len(restarts))
            return scalar(draws, restarts)

        monkeypatch.setattr(statistical, "_scalar_normals", spy)
        res = run_sta_monte_carlo(net, lib, samples=statistical._BLOCK,
                                  seed=1234, journal=False,
                                  execution=ExecutionConfig(workers=1))
        assert res.diag["jobs"] == 1
        assert 1 <= sum(rows) <= 0.04 * statistical._BLOCK, rows


@functools.cache
def _rejection_indices(tag: str, seed: int) -> dict:
    """The first index of each rejection kind, scanned with ``default_rng``.

    A draw is on the ziggurat fast path when NumPy's PCG64 moved exactly
    one step for it.  Kinds: the first draw rejects with idx byte 0 (the
    tail), idx byte 1, or another idx (``rabs >= ki``); only the 2nd or
    only the 3rd of three draws rejects.
    """
    found: dict = {}
    for i in range(200_000):
        gen = _rng_for(tag, seed, i)
        bitgen = gen.bit_generator
        start = bitgen.state
        first = int(bitgen.random_raw()) & 0xFF
        bitgen.state = start
        s, inc = start["state"]["state"], start["state"]["inc"]
        fast = []
        while len(fast) < 3 and all(fast):
            s = (s * statistical._PCG_MULT + inc) % 2**128
            gen.standard_normal()
            fast.append(bitgen.state["state"]["state"] == s)
        kind = {(False,): {0: "tail", 1: "idx1"}.get(first, "rabs_ge_ki"),
                (True, False): "second",
                (True, True, False): "third"}.get(tuple(fast))
        if kind is not None:
            found.setdefault(kind, i)
            if len(found) == 5:
                return found
    raise AssertionError(f"only found {found}")


def _oracle_rows(net, lib, wires, inputs, required, variation, seed, n,
                 watch):
    """Rows of the per-sample scalar engine on scaled copies (the oracle)."""
    rows = []
    for i in range(n):
        rng = _rng_for("ssta", seed, i)
        res = StaEngine(
            sample_library(lib, rng, variation.sigma_cell),
            wire_specs=sample_wire_specs(wires, rng, variation.sigma_wire),
        ).analyze(net, inputs=inputs, required_times=required)
        row = {"index": i, "arrival": {w: res.arrival(w) for w in watch}}
        if required:
            row["slack"] = {w: res.slack(w) for w in watch
                            if w in res.required}
            row["worst_slack"] = res.worst_slack()
        rows.append(row)
    return rows


def _bits(row):
    """A row as text that tells every double apart (``repr`` round-trips)."""
    return json.dumps(row, sort_keys=True)


def _assert_rows(got, want, text=_bits):
    """``text(got) == text(want)``, checked and reported row by row: a
    failure names the first differing row instead of diffing two whole
    sweeps' text."""
    assert len(got) == len(want)
    for k, (g, w) in enumerate(zip(got, want)):
        if text(g) != text(w):
            pytest.fail(f"row {k} differs:\n  got  {text(g)}\n"
                        f"  want {text(w)}", pytrace=False)


def _per_q(values):
    """5/50/95 quantiles, one ``np.quantile`` call per q (the reference)."""
    return {key: float(np.quantile(np.asarray(values), q))
            for key, q in zip(("q05", "q50", "q95"), (0.05, 0.5, 0.95))}


def _table(rng, slews, loads):
    values = rng.uniform(5e-12, 80e-12, (len(slews), len(loads)))
    return NldmTable(np.array(slews), np.array(loads), values)


def _grid_cell(rng, pins, inverting, slews, loads, cap):
    arcs = tuple(
        TimingArc(related_pin=pin, output_pin="Y", inverting=inverting,
                  cell_rise=_table(rng, slews, loads),
                  cell_fall=_table(rng, slews, loads),
                  rise_transition=_table(rng, slews, loads),
                  fall_transition=_table(rng, slews, loads))
        for pin in pins)
    return CharacterizedCell(cell=make_inverter(1), arc=arcs[0],
                             input_slews=np.array(slews),
                             loads=np.array(loads),
                             arcs=arcs if len(arcs) > 1 else (),
                             input_cap=cap)


@pytest.fixture()
def grid_design():
    """Non-linear NLDM grids (3×3, 2×3, 3×1, 1×3), two wires, slews and
    loads on both sides of the grids, inverting and non-inverting arcs."""
    rng = np.random.default_rng(20240517)
    slews = [10e-12, 100e-12, 400e-12]
    loads = [1e-15, 10e-15, 50e-15]
    lib = {
        "NAND2": _grid_cell(rng, ("A", "B"), True, slews, loads, 3e-15),
        "BUF": _grid_cell(rng, ("A",), False, slews[:2], loads, 2e-15),
        "INV_S": _grid_cell(rng, ("A",), True, slews, loads[:1], 4e-15),
        "INV_L": _grid_cell(rng, ("A",), True, slews[1:2], loads, 1e-15),
    }
    net = GateNetlist()
    for pi in ("a", "b", "c"):
        net.add_input(pi)
    net.add_instance("u0", "NAND2", {"A": "a", "B": "b"}, "n1")
    net.add_instance("u1", "BUF", "n1", "n2")
    net.add_instance("u2", "NAND2", {"A": "n2", "B": "c"}, "n3")
    net.add_instance("u3", "INV_S", "n3", "n4")
    net.add_instance("u4", "INV_L", "n1", "n5")
    net.add_instance("u5", "NAND2", {"A": "n4", "B": "n5"}, "y")
    net.add_output("y")
    net.add_output("n3")
    # n1's wire pushes its load past the grid; n3's stays inside.
    wires = {"n1": RcLineSpec(total_r=400.0, total_c=80e-15, n_segments=3),
             "n3": RcLineSpec(total_r=150.0, total_c=4e-15, n_segments=1)}
    inputs = {"a": InputSpec(arrival=5e-12, slew=5e-12),     # below grid
              "b": InputSpec(slew=150e-12),                   # inside
              "c": InputSpec(arrival=-3e-12, slew=900e-12)}   # above
    required = {"y": 260e-12, "n3": 150e-12}
    return net, lib, wires, inputs, required


class TestBlockOracle:
    """Every row equals the scalar engine on that sample's scaled copy."""

    def test_c17_rows_bitwise(self):
        net, lib = _c17()
        inputs = {pi: InputSpec(slew=50e-12) for pi in net.primary_inputs}
        required = {po: 100e-12 for po in net.primary_outputs}
        res = run_sta_monte_carlo(net, lib, inputs=inputs,
                                  required_times=required, samples=500,
                                  seed=1001, journal=False,
                                  execution=ExecutionConfig(workers=1))
        want = _oracle_rows(net, lib, {}, inputs, required, McVariation(),
                            1001, 500, tuple(net.primary_outputs))
        _assert_rows(res.rows, want)

    def test_c17_payload_and_stream_match_oracle_bytes(self):
        # Rows are derived from the sweep's columns: the JSON payload
        # and the streamed rows must equal the oracle's byte for byte,
        # key order included (no sort_keys).
        net, lib = _c17()
        inputs = {pi: InputSpec(slew=50e-12) for pi in net.primary_inputs}
        required = {po: 100e-12 for po in net.primary_outputs}
        seen = []
        res = run_sta_monte_carlo(net, lib, inputs=inputs,
                                  required_times=required, samples=300,
                                  seed=77, journal=False,
                                  on_sample=seen.append,
                                  execution=ExecutionConfig(workers=1))
        want = _oracle_rows(net, lib, {}, inputs, required, McVariation(),
                            77, 300, tuple(net.primary_outputs))
        _assert_rows(res.to_dict()["rows"], want, json.dumps)
        _assert_rows(seen, want, json.dumps)
        assert all(type(r["worst_slack"]) is float for r in seen)
        watch = tuple(net.primary_outputs)
        assert json.dumps(res.quantiles) == json.dumps({
            "arrival": {w: _per_q([r["arrival"][w] for r in want])
                        for w in watch},
            "slack": {w: _per_q([r["slack"][w] for r in want])
                      for w in watch},
            "worst_slack": _per_q([r["worst_slack"] for r in want])})

    @pytest.mark.parametrize("variation", [
        McVariation(), McVariation(sigma_cell=0.2, sigma_wire=0.0),
        McVariation(sigma_cell=0.0, sigma_wire=0.3)])
    def test_grid_design_rows_bitwise(self, grid_design, variation):
        net, lib, wires, inputs, required = grid_design
        watch = ("y", "n3", "n1", "a")
        res = run_sta_monte_carlo(net, lib, wire_specs=wires, inputs=inputs,
                                  required_times=required,
                                  variation=variation, samples=40, seed=5,
                                  watch=list(watch), journal=False,
                                  execution=ExecutionConfig(workers=1))
        want = _oracle_rows(net, lib, wires, inputs, required, variation,
                            5, 40, watch)
        _assert_rows(res.rows, want)
        assert len({r["arrival"]["y"] for r in res.rows}) > 1

    def test_grid_design_leaves_the_grid(self, grid_design):
        # The oracle test above is only as strong as the lookups it
        # reaches: loads and slews fall on both sides of the grids.
        net, lib, wires, inputs, _ = grid_design
        engine = StaEngine(lib, wire_specs=wires)
        res = engine.analyze(net, inputs=inputs)
        graph = TimingGraph.build(net)
        assert engine.net_load(graph, "n1") > 50e-15
        assert engine.net_load(graph, "n3") < 50e-15
        slews = [res.rise[n].slew for n in res.rise]
        assert min(slews) < 10e-12 and max(slews) > 400e-12

    def test_rows_independent_of_block_composition(self, grid_design,
                                                   monkeypatch):
        net, lib, wires, inputs, required = grid_design
        runs = []
        for block in (1, 7, statistical._BLOCK):
            pin_block(monkeypatch, block)
            res = run_sta_monte_carlo(
                net, lib, wire_specs=wires, inputs=inputs,
                required_times=required, samples=23, seed=9, journal=False,
                execution=ExecutionConfig(workers=1))
            assert res.diag["jobs"] == -(-23 // block)
            runs.append(res.rows)
        _assert_rows(runs[1], runs[0])
        _assert_rows(runs[2], runs[0])

    def test_small_blocks_shard_bit_identical(self, grid_design,
                                              monkeypatch):
        net, lib, wires, inputs, required = grid_design
        pin_block(monkeypatch, 4)

        def run(execution):
            return run_sta_monte_carlo(
                net, lib, wire_specs=wires, inputs=inputs,
                required_times=required, samples=30, seed=4, journal=False,
                execution=execution)

        serial = run(ExecutionConfig(workers=1))
        sharded = run(ExecutionConfig(workers=2, min_pool_jobs=2))
        assert sharded.diag["jobs"] == 8
        assert sharded.diag["mode"] == "sharded" or \
            sharded.diag["fallback_shards"] >= 1
        _assert_rows(sharded.rows, serial.rows)
        assert sharded.quantiles == serial.quantiles


@pytest.fixture()
def fanout_design():
    """2-D (3×3, 2×3) and constant (1×1) tables, a non-inverting
    buffer, an arc whose rise and fall tables sit on different grids (of
    other shapes, and of one shape), wires on nets that fan out to
    several gates, and a net on both pins of one gate."""
    rng = np.random.default_rng(20261019)
    slews = [10e-12, 100e-12, 400e-12]
    loads = [1e-15, 10e-15, 50e-15]
    split = TimingArc(
        related_pin="A", output_pin="Y", inverting=True,
        cell_rise=_table(rng, slews, loads),
        cell_fall=_table(rng, slews[:2], loads[1:]),
        rise_transition=_table(rng, slews, loads),
        fall_transition=_table(rng, [20e-12, 150e-12, 600e-12], loads))
    lib = {
        "BUF": _grid_cell(rng, ("A",), False, slews, loads, 2e-15),
        "INV": _grid_cell(rng, ("A",), True, slews[:2], loads, 3e-15),
        "INV1": _grid_cell(rng, ("A",), True, slews[:1], loads[:1], 2e-15),
        "NAND2": _grid_cell(rng, ("A", "B"), True, slews, loads, 3e-15),
        "SPLIT": CharacterizedCell(cell=make_inverter(1), arc=split,
                                   input_slews=np.array(slews),
                                   loads=np.array(loads), input_cap=1e-15),
    }
    net = GateNetlist()
    for pi in ("a", "b"):
        net.add_input(pi)
    net.add_instance("u0", "BUF", "a", "n1")
    net.add_instance("u1", "INV", "n1", "n2")
    net.add_instance("u2", "NAND2", {"A": "n1", "B": "n1"}, "n3")
    net.add_instance("u3", "NAND2", {"A": "n1", "B": "b"}, "n4")
    net.add_instance("u4", "SPLIT", "n4", "n5")
    net.add_instance("u5", "NAND2", {"A": "n4", "B": "n2"}, "y")
    net.add_instance("u6", "BUF", "n3", "n6")
    net.add_instance("u7", "INV", "n5", "n7")  # reads n5's split slews
    net.add_instance("u8", "INV1", "n6", "n8")
    for po in ("y", "n5", "n6", "n7", "n8"):
        net.add_output(po)
    # n1 feeds four pins of three gates, n4 two gates.
    wires = {"n1": RcLineSpec(total_r=300.0, total_c=30e-15, n_segments=4),
             "n4": RcLineSpec(total_r=120.0, total_c=6e-15, n_segments=2)}
    inputs = {"a": InputSpec(arrival=2e-12, slew=30e-12),
              "b": InputSpec(arrival=-5e-12, slew=500e-12)}
    required = {"y": 300e-12, "n5": 250e-12, "n6": 200e-12, "n7": 280e-12,
                "n8": 260e-12}
    return net, lib, wires, inputs, required


def _scalar_arc(rise, fall, tran, related_pin="A", inverting=True):
    """An arc of constant 1×1 tables."""
    def table(value):
        return NldmTable(np.array([50e-12]), np.array([5e-15]),
                         np.array([[value]]))
    return TimingArc(related_pin=related_pin, output_pin="Y",
                     inverting=inverting, cell_rise=table(rise),
                     cell_fall=table(fall), rise_transition=table(tran),
                     fall_transition=table(tran))


def _signed_design():
    """Constant 1×1 tables holding -0.0, 0.0 and negative entries behind
    a -0.0 input arrival, with mixed-unate arcs, and a 2-D cell reading a
    negative table slew: adding the ideal net's 0.0 and taking |slew|
    change bits here."""
    rng = np.random.default_rng(5)
    lib = {
        "INV": _grid_cell(rng, ("A",), True, [10e-12, 60e-12],
                          [1e-15, 20e-15], 2e-15),
        "ZERO": _const_cell(0.0, 0.0, arcs=(
            _scalar_arc(-0.0, 0.0, tran=-30e-12),)),
        "BUF": _const_cell(0.0, 0.0, arcs=(
            _scalar_arc(20e-12, -0.0, 0.0, inverting=False),)),
        "MIXED": _const_cell(0.0, 0.0, arcs=(
            _scalar_arc(15e-12, -0.0, 20e-12, inverting=False),
            _scalar_arc(-0.0, 12e-12, -10e-12, related_pin="B"))),
    }
    net = GateNetlist()
    for pi in ("a", "b"):
        net.add_input(pi)
    net.add_instance("u0", "ZERO", "a", "n1")
    net.add_instance("u1", "BUF", "n1", "n2")
    net.add_instance("u2", "MIXED", {"A": "n2", "B": "b"}, "y")
    net.add_instance("u3", "INV", "n1", "n3")  # n1's table slew: -30 ps
    net.add_output("y")
    net.add_output("n3")
    inputs = {"a": InputSpec(arrival=-0.0, slew=20e-12),
              "b": InputSpec(arrival=-0.0, slew=20e-12)}
    required = {"y": 0.0, "a": -0.0}
    return net, lib, inputs, required


class TestStackedPassOracle:
    """The ``(2, n)`` pass against per-sample :meth:`StaEngine.analyze`
    on designs c17 does not reach."""

    @pytest.mark.parametrize("variation", [
        McVariation(), McVariation(sigma_cell=0.3, sigma_wire=0.0),
        McVariation(sigma_cell=0.0, sigma_wire=0.4)])
    def test_fanout_design_rows_bitwise(self, fanout_design, variation):
        net, lib, wires, inputs, required = fanout_design
        watch = ("y", "n5", "n6", "n7", "n8", "n1", "n3", "b")
        res = run_sta_monte_carlo(net, lib, wire_specs=wires, inputs=inputs,
                                  required_times=required,
                                  variation=variation, samples=60, seed=11,
                                  watch=list(watch), journal=False,
                                  execution=ExecutionConfig(workers=1))
        want = _oracle_rows(net, lib, wires, inputs, required, variation,
                            11, 60, watch)
        _assert_rows(res.rows, want, json.dumps)
        assert len({r["slack"]["n6"] for r in res.rows}) > 1

    def test_fanout_design_reaches_every_lookup_kind(self, fanout_design):
        net, lib, wires, _inputs, required = fanout_design
        spec = statistical._McSpec(
            netlist=net, library=lib, wire_specs=wires, inputs={},
            required_times=required, variation=McVariation(), seed=0,
            watch=("y",))
        plan = statistical._compile(spec, TimingGraph.build(net))
        pairs = [pair for gate in plan.gates for arc in gate[4]
                 for pair in arc[2:]]
        split = [p for p in pairs if p.values is None]  # split grids
        assert {p.tables[0].values.shape == p.tables[1].values.shape
                for p in split} == {True, False}
        assert any(p.values is not None and p.values.shape[1:] == (3, 3)
                   for p in pairs)
        inverting = {arc[0]: arc[1] for gate in plan.gates
                     for arc in gate[4]}
        assert inverting["a"] is False and inverting["n1"] is True
        pins = [arc[0] for gate in plan.gates if gate[0] == "n3"
                for arc in gate[4]]
        assert pins == ["n1", "n1"]

    def test_signed_constant_tables_rows_bitwise(self):
        net, lib, inputs, required = _signed_design()
        watch = ("y", "n1", "n2", "n3", "a")
        for variation in (McVariation(), McVariation(0.0, 0.0)):
            res = run_sta_monte_carlo(
                net, lib, inputs=inputs, required_times=required,
                variation=variation, samples=20, seed=2, watch=list(watch),
                journal=False, execution=ExecutionConfig(workers=1))
            want = _oracle_rows(net, lib, {}, inputs, required, variation,
                                2, 20, watch)
            _assert_rows(res.rows, want, json.dumps)
        # The case is live: -0.0 + 0.0 made this arrival +0.0.
        assert json.dumps(want[0]["arrival"]["n1"]) == "0.0"


class TestCompiledGraphReuse:
    """A design compiles once per process (``statistical._compiled``); a
    design that differs compiles anew and times as in a fresh process."""

    @pytest.fixture()
    def builds(self, monkeypatch):
        build = TimingGraph.build.__func__
        calls = []

        def counting(cls, netlist):
            calls.append(netlist)
            return build(cls, netlist)

        monkeypatch.setattr(TimingGraph, "build", classmethod(counting))
        return calls

    def test_sweep_compiles_its_graph_once(self, builds, monkeypatch):
        # One graph serves the first sweep's fail-fast check and every
        # block; a repeat of the design builds none.
        net, lib = _c17()
        pin_block(monkeypatch, 4)
        for samples, want in ((12, 1), (40, 0)):  # 3 and 10 blocks
            builds.clear()
            res = run_sta_monte_carlo(
                net, lib, required_times={po: 100e-12
                                          for po in net.primary_outputs},
                samples=samples, seed=3, journal=False,
                execution=ExecutionConfig(workers=1))
            assert res.diag["jobs"] == samples // 4
            assert len(builds) == want, len(builds)

    @pytest.mark.parametrize("change", ["instance", "cell", "required",
                                        "inputs"])
    def test_changed_design_recompiles(self, design, builds, change):
        net, lib, wires = design
        inputs = {"n0": InputSpec(slew=50e-12)}
        required = {"n2": 400e-12}
        watch = ["n1", "n2"]

        def sweep():
            return run_sta_monte_carlo(
                net, lib, wire_specs=wires, inputs=inputs,
                required_times=required, samples=24, seed=5, watch=watch,
                journal=False, execution=ExecutionConfig(workers=1)).rows

        sweep()
        if change == "instance":  # the same netlist object, one gate more
            net.add_instance("u2", "INV_A", "n2", "n3")
            watch = ["n1", "n3"]
        elif change == "cell":  # an equal cell, but another object
            lib = {**lib, "INV_B": _const_cell(100e-12, 10e-12)}
        elif change == "required":
            required = {"n2": 400e-12, "n1": 150e-12}
        else:
            inputs = {"n0": InputSpec(arrival=20e-12, slew=80e-12)}
        builds.clear()
        got = sweep()
        assert len(builds) == 1
        statistical._compiled.cache_clear()  # as a fresh process compiles
        _assert_rows(got, sweep())
        _assert_rows(got, _oracle_rows(net, lib, wires, inputs, required,
                                       McVariation(), 5, 24, watch))

    def test_value_equal_inputs_keep_their_signed_zeros(self, design,
                                                        builds):
        # InputSpec(arrival=-0.0) equals InputSpec(arrival=0.0), so both
        # sweeps share one plan; each still reports its own zero.
        net, lib, wires = design
        for arrival, compiles in ((0.0, 1), (-0.0, 0)):
            inputs = {"n0": InputSpec(arrival=arrival)}
            builds.clear()
            res = run_sta_monte_carlo(
                net, lib, wire_specs=wires, inputs=inputs, samples=8,
                seed=1, watch=["n0", "n2"], journal=False,
                execution=ExecutionConfig(workers=1))
            assert len(builds) == compiles
            _assert_rows(res.rows, _oracle_rows(
                net, lib, wires, inputs, {}, McVariation(), 1, 8,
                ["n0", "n2"]), json.dumps)
            assert json.dumps(res.rows[0]["arrival"]["n0"]) == repr(arrival)

    def test_threads_sharing_a_design_match_a_serial_run(self, monkeypatch):
        # Two threads sweep one design at once, from a cold memo, with
        # the rejection path live in both.
        net, lib = _c17()
        required = {po: 100e-12 for po in net.primary_outputs}

        def sweep(seed):
            return run_sta_monte_carlo(
                net, lib, required_times=required, samples=500, seed=seed,
                journal=False, execution=ExecutionConfig(workers=1)).rows

        seeds = ((1, 2, 3), (4, 5, 6))
        serial = {seed: sweep(seed) for group in seeds for seed in group}
        restarts = {}
        scalar = statistical._scalar_normals

        def spy(draws, rows):
            thread = threading.get_ident()
            restarts[thread] = restarts.get(thread, 0) + len(rows)
            return scalar(draws, rows)

        monkeypatch.setattr(statistical, "_scalar_normals", spy)
        statistical._compiled.cache_clear()
        barrier = threading.Barrier(len(seeds))

        def worker(group):
            barrier.wait()
            return {seed: sweep(seed) for seed in group}

        with ThreadPoolExecutor(len(seeds)) as pool:
            threaded = {seed: rows for part in pool.map(worker, seeds)
                        for seed, rows in part.items()}
        for seed, rows in serial.items():
            _assert_rows(threaded[seed], rows)
        assert len(restarts) == 2 and min(restarts.values()) > 0, restarts


def _budgeted(net, lib, wires=None):
    """A sweep's spec, compiled graph and budgeted block size, with
    required times on and every primary output watched."""
    spec = statistical._McSpec(
        netlist=net, library=dict(lib), wire_specs=dict(wires or {}),
        inputs={}, required_times={po: 1e-9 for po in net.primary_outputs},
        variation=McVariation(), seed=0, watch=tuple(net.primary_outputs))
    graph = TimingGraph.build(net)
    return spec, graph, statistical._block_size(spec, graph)


class TestBlockBudget:
    """A block holds as many samples as fit the byte budget, never fewer
    than the ``_BLOCK`` floor, and its size never changes a row."""

    def test_c17_500_sample_sweep_is_one_block(self):
        net, lib = _c17()
        res = run_sta_monte_carlo(net, lib, samples=500, seed=1,
                                  journal=False,
                                  execution=ExecutionConfig(workers=2))
        assert res.diag["jobs"] == 1
        assert res.diag["mode"] == "serial"

    def test_large_design_keeps_the_floor(self):
        _net, lib = _c17()
        net = _nand_netlist(2000)
        assert _budgeted(net, lib)[2] == statistical._BLOCK == 256
        res = run_sta_monte_carlo(net, lib, samples=257, seed=1,
                                  journal=False,
                                  execution=ExecutionConfig(workers=1))
        assert res.diag["jobs"] == 2

    @pytest.mark.parametrize("gates,wired", [
        (0, False), (0, True), (60, False), (60, True)])
    def test_block_arrays_fit_the_budget(self, gates, wired):
        # Above the floor, the block's arrays, temporaries included,
        # stay within the budget (73-94% of it with NumPy 2.4).  The
        # margin of 16 sample-wide arrays past it (1.9-14% of the budget
        # here) leaves room for a NumPy release that keeps a few more
        # temporaries alive than ``_block_size`` counts.
        net, lib = _c17()
        if gates:
            net = _nand_netlist(gates)
        wires = {n: RcLineSpec(total_r=200.0, total_c=5e-15, n_segments=3)
                 for n in net.nets if n not in net.primary_inputs} \
            if wired else {}
        spec, graph, size = _budgeted(net, lib, wires)
        assert size > statistical._BLOCK
        plan = statistical._compile(spec, graph)
        statistical._evaluate(spec, plan, range(8))  # one-time tables
        tracemalloc.start()
        try:
            statistical._evaluate(spec, plan, range(size))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= statistical._BLOCK_BYTES + 16 * 8 * size, \
            (size, peak)

    @pytest.mark.parametrize("workers,min_pool_jobs", [(1, 4), (2, 2)],
                             ids=["serial", "pool"])
    def test_budgeted_blocks_match_floor_blocks(self, workers,
                                                min_pool_jobs, monkeypatch):
        net, lib = _c17()
        inputs = {pi: InputSpec(slew=50e-12) for pi in net.primary_inputs}
        required = {po: 100e-12 for po in net.primary_outputs}
        samples = _budgeted(net, lib)[2] + 300  # two budgeted blocks
        execution = ExecutionConfig(workers=workers,
                                    min_pool_jobs=min_pool_jobs)

        def run():
            res = run_sta_monte_carlo(
                net, lib, inputs=inputs, required_times=required,
                samples=samples, seed=21, journal=False,
                execution=execution)
            assert res.diag["mode"] == ("serial" if workers == 1 else
                                        "sharded") or \
                res.diag["fallback_shards"] >= 1
            return res

        budgeted = run()
        pin_block(monkeypatch, 256)
        floor = run()
        assert budgeted.diag["jobs"] == 2
        assert floor.diag["jobs"] == -(-samples // 256)
        _assert_rows(budgeted.rows, floor.rows)
        assert json.dumps(budgeted.quantiles) == json.dumps(floor.quantiles)


def _bad_design(kind):
    """A two-inverter netlist broken in one way, and its library."""
    lib = {"INV_A": _const_cell(50e-12, 10e-12),
           "INV_B": _const_cell(100e-12, 10e-12)}
    net = GateNetlist()
    net.add_input("n0")
    net.add_output("n2")
    second = {"missing_cell": ("NOPE", "n1", "n2"),
              "missing_arc": ("INV_B", {"Z": "n1"}, "n2"),
              "multiply_driven": ("INV_B", "n0", "n1"),
              "cycle": ("INV_B", {"A": "n1", "B": "n2"}, "n2")}[kind]
    net.add_instance("u0", "INV_A", "n0", "n1")
    net.add_instance("u1", *second)
    return net, lib


class TestFailFast:
    """A bad design raises what :meth:`StaEngine.analyze` raises, in
    process, before any block is handed to :func:`run_indexed`."""

    @pytest.mark.parametrize("kind", ["missing_cell", "missing_arc",
                                      "multiply_driven", "cycle"])
    def test_raises_before_any_block(self, kind, monkeypatch):
        net, lib = _bad_design(kind)
        with pytest.raises(Exception) as want:
            StaEngine(lib).analyze(net, required_times={"n2": 1e-10})

        def unreachable(*args, **kwargs):
            raise AssertionError("run_indexed reached")

        monkeypatch.setattr(statistical, "run_indexed", unreachable)
        with pytest.raises(type(want.value)) as got:
            run_sta_monte_carlo(net, lib, required_times={"n2": 1e-10},
                                samples=8, seed=0, journal=False)
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)
        assert type(want.value).__name__ == {
            "missing_cell": "KeyError", "missing_arc": "KeyError",
            "multiply_driven": "NetlistError",
            "cycle": "TimingGraphError"}[kind]

    def test_unknown_watch_raises_before_any_block(self, design,
                                                   monkeypatch):
        net, lib, _ = design

        def unreachable(*args, **kwargs):
            raise AssertionError("run_indexed reached")

        monkeypatch.setattr(statistical, "run_indexed", unreachable)
        with pytest.raises(ValueError,
                           match=r"unknown watch net\(s\) \['nope', 'zz'\]"):
            run_sta_monte_carlo(net, lib, watch=["n1", "zz", "nope"],
                                samples=8, seed=0, journal=False)


class TestColumnarSummary:
    """The sort-based summary equals per-column, per-q ``np.quantile``."""

    @pytest.mark.parametrize("n", [1, 2, 3, 20, 21, 500, 513])
    def test_bitwise_equal_to_per_quantile_calls(self, n):
        rng = np.random.default_rng(n)
        ties = rng.choice([1e-10, 2e-10, 2e-10, 3e-10], n)
        nan = rng.normal(size=n)
        nan[n // 2] = np.nan
        columns = {
            "arrival": {"a": rng.normal(1e-10, 1e-11, n),
                        "ties": ties,
                        "const": np.full(n, 7e-11)},
            "slack": {"nan": nan, "neg": -rng.exponential(1e-11, n)},
            "worst_slack": rng.uniform(-1.0, 1.0, n),
        }
        got = statistical._summarise(columns)
        want = {
            "arrival": {net: _per_q(v)
                        for net, v in columns["arrival"].items()},
            "slack": {net: _per_q(v)
                      for net, v in columns["slack"].items()},
            "worst_slack": _per_q(columns["worst_slack"]),
        }
        assert json.dumps(got) == json.dumps(want)
        assert math.isnan(got["slack"]["nan"]["q50"])
        assert not math.isnan(got["slack"]["neg"]["q50"])

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_sorted_summary_equals_quantile_for_every_n(self):
        # Ties, single-signed zeros, ±inf (inf - inf interpolates to NaN,
        # as in np.quantile) and NaN, for every n from 1 to 600.
        for n in range(1, 601):
            rng = np.random.default_rng(n)
            nan = rng.normal(size=n)
            nan[rng.random(n) < 0.1] = np.nan
            columns = {
                "ties": rng.choice([1e-10, 2e-10, 2e-10, 3e-10], n),
                "neg_zero": rng.choice([-0.0, -0.0, 1.0, -1.0], n),
                "pos_zero": rng.choice([0.0, 0.0, 1.0, -1.0], n),
                "inf": rng.choice([np.inf, -np.inf, 0.5, -0.0, 2.0], n),
                "nan": nan,
            }
            got = statistical._summarise({"slack": columns})["slack"]
            want = {net: _per_q(v) for net, v in columns.items()}
            assert json.dumps(got) == json.dumps(want), n

    def test_mixed_signed_zeros_equal_quantile_as_values(self):
        # With -0.0 and 0.0 both present the sign of a zero quantile is
        # the tie order's (np.quantile's own stacked and per-q calls
        # disagree on it); the values are equal.
        for n in range(1, 601):
            column = np.random.default_rng(n).choice([0.0, -0.0, 1.0], n)
            got = statistical._summarise({"worst_slack": column})
            assert got["worst_slack"] == _per_q(column), n

    def test_empty_metric_keeps_its_key(self):
        got = statistical._summarise({"arrival": {"y": np.ones(3)},
                                      "slack": {},
                                      "worst_slack": np.zeros(3)})
        assert list(got) == ["arrival", "slack", "worst_slack"]
        assert got["slack"] == {}


class TestSeedValidation:
    def test_negative_seed_rejected(self, design):
        with pytest.raises(ValueError, match="seed"):
            _run(design, seed=-3)

    def test_noise_mc_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            run_noise_monte_carlo([object()], None, samples=1, seed=-1)

    @pytest.mark.parametrize("field,value", [
        ("seed", -3), ("seed", True), ("seed", False), ("samples", True)])
    def test_service_spec_rejects(self, field, value):
        from repro.service.jobs import JobSpecError, build_job
        data = os.path.join(os.path.dirname(__file__), "data")
        with open(os.path.join(data, "c17.v")) as fh:
            verilog = fh.read()
        with open(os.path.join(data, "c17.lib")) as fh:
            liberty = fh.read()
        spec = {"kind": "sta_mc", "verilog": verilog, "liberty": liberty,
                field: value}
        with pytest.raises(JobSpecError, match=field):
            build_job(spec)

    def test_cli_negative_seed_is_usage_error(self, capsys):
        from repro.sta.__main__ import main
        data = os.path.join(os.path.dirname(__file__), "data")
        with pytest.raises(SystemExit) as exc:
            main([os.path.join(data, "c17.v"), "--liberty",
                  os.path.join(data, "c17.lib"), "--mc", "4",
                  "--seed", "-1"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err

    def test_cli_workers_keep_the_environment_config(self, monkeypatch):
        import repro.sta.__main__ as cli
        from repro.exec import set_default_execution

        class Captured(Exception):
            pass

        def capture(*args, **kwargs):
            raise Captured(kwargs)

        monkeypatch.setenv("REPRO_SHARD_TIMEOUT", "30")
        monkeypatch.setattr(cli, "run_sta_monte_carlo", capture)
        data = os.path.join(os.path.dirname(__file__), "data")
        previous = set_default_execution(None)  # re-read the environment
        try:
            with pytest.raises(Captured) as got:
                cli.main([os.path.join(data, "c17.v"), "--liberty",
                          os.path.join(data, "c17.lib"), "--mc", "4",
                          "--workers", "2"])
        finally:
            set_default_execution(previous)
        kwargs = got.value.args[0]
        assert kwargs["execution"].workers == 2
        assert kwargs["execution"].shard_timeout == 30.0
        assert "seed" not in kwargs  # the driver's default applies


class TestSampling:
    def test_sample_library_scales_all_tables(self, design):
        _, lib, _ = design
        drawn = sample_library(lib, _rng_for("t", 0, 0), 0.2)
        assert set(drawn) == set(lib)
        for name in lib:
            base = lib[name].arc
            got = drawn[name].arc
            ratio = got.cell_rise.values / base.cell_rise.values
            assert np.allclose(ratio, ratio.flat[0])  # one factor per cell
            assert np.allclose(got.cell_fall.values / base.cell_fall.values,
                               ratio.flat[0])

    def test_sample_library_order_independent(self, design):
        _, lib, _ = design
        reordered = dict(reversed(list(lib.items())))
        a = sample_library(lib, _rng_for("t", 0, 0), 0.2)
        b = sample_library(reordered, _rng_for("t", 0, 0), 0.2)
        for name in lib:
            assert np.array_equal(a[name].arc.cell_rise.values,
                                  b[name].arc.cell_rise.values)

    def test_sample_wire_specs(self):
        wires = {"n1": RcLineSpec(total_r=100.0, total_c=1e-15)}
        drawn = sample_wire_specs(wires, _rng_for("t", 0, 0), 0.3)
        assert drawn["n1"].total_r > 0 and drawn["n1"].total_c > 0
        assert drawn["n1"].n_segments == wires["n1"].n_segments
        assert sample_wire_specs(wires, _rng_for("t", 0, 0), 0.0) == wires


class TestRunIndexed:
    def test_results_in_index_order(self):
        diag = {}
        out = run_indexed(_square, 7, execution=ExecutionConfig(workers=1),
                          diag=diag)
        assert out == [i * i for i in range(7)]
        assert diag["mode"] == "serial"

    def test_small_counts_stay_serial(self):
        diag = {}
        run_indexed(_square, 2,
                    execution=ExecutionConfig(workers=4, min_pool_jobs=8),
                    diag=diag)
        assert diag["mode"] == "serial"

    def test_empty(self):
        assert run_indexed(_square, 0) == []

    def test_unpicklable_fn_falls_back_inline(self):
        diag = {}
        out = run_indexed(lambda i: i + 1, 8,
                          execution=ExecutionConfig(workers=2, min_pool_jobs=2),
                          diag=diag)
        assert out == list(range(1, 9))
        # Either the pool never came up or every chunk's pickling failed;
        # both paths re-evaluate inline and count their shards.
        assert diag["fallback_shards"] >= 1


def _square(i: int) -> int:
    return i * i


class TestNoiseMonteCarlo:
    @pytest.fixture()
    def path(self):
        from repro.sta.noise_aware import AggressorSpec, NoisyStage
        agg = AggressorSpec(coupling=60e-15, transition_start=0.35e-9,
                            rising=True, slew=120e-12,
                            driver=make_inverter(4))
        stage = NoisyStage(driver=make_inverter(1),
                           line=RcLineSpec.from_length(400.0),
                           receiver=make_inverter(4), aggressors=(agg,))
        from repro.core.ramp import SaturatedRamp
        ramp = SaturatedRamp.from_arrival_slew(0.3e-9, 120e-12, 1.2,
                                               rising=False)
        return [stage], ramp

    def test_quiet_reference_solved_once(self, path):
        from repro.sta.noise_aware import clear_quiet_cache, quiet_cache_stats
        stages, ramp = path
        clear_quiet_cache()
        run_noise_monte_carlo(stages, ramp, sigma_align=20e-12, samples=4,
                              seed=3, dt=4e-12)
        stats = quiet_cache_stats()
        # The pinned window keeps one quiet-reference key for the sweep:
        # one solve, then hits — despite per-sample alignment jitter.
        assert stats["misses"] == 1
        assert stats["hits"] == 3

    def test_seeded_reproducibility_and_jitter(self, path):
        stages, ramp = path
        a = run_noise_monte_carlo(stages, ramp, sigma_align=20e-12,
                                  samples=3, seed=11, dt=4e-12)
        b = run_noise_monte_carlo(stages, ramp, sigma_align=20e-12,
                                  samples=3, seed=11, dt=4e-12)
        assert a.rows == b.rows
        offsets = [r["offsets"][0] for r in a.rows]
        assert len(set(offsets)) == 3  # distinct draws per sample
        assert "window_end" in a.diag

    def test_zero_sigma_is_degenerate(self, path):
        stages, ramp = path
        res = run_noise_monte_carlo(stages, ramp, sigma_align=0.0,
                                    samples=2, seed=0, dt=4e-12)
        arrivals = [r["arrival"]["out"] for r in res.rows]
        assert arrivals[0] == arrivals[1]
        assert all(o == 0.0 for r in res.rows for o in r["offsets"])

    def test_zero_sigma_offsets_are_positive_zero(self, path):
        # Offsets are journaled: σ = 0 leaves them +0.0, never -0.0.
        # Sample 0's stream starts below zero, where a bare σ·z is -0.0.
        stages, ramp = path
        assert _rng_for("noise-mc", 1, 0).standard_normal() < 0
        res = run_noise_monte_carlo(stages, ramp, sigma_align=0.0,
                                    samples=2, seed=1, dt=4e-12)
        assert [math.copysign(1.0, o) for r in res.rows
                for o in r["offsets"]] == [1.0, 1.0]


class TestServiceJobKind:
    VERILOG = ("module m (a, y); input a; output y; wire w;"
               " INV_A u0 (.A(a), .Y(w)); INV_A u1 (.A(w), .Y(y));"
               " endmodule")

    def test_sta_mc_registered(self):
        from repro.service.jobs import JOB_KINDS
        assert "sta_mc" in JOB_KINDS

    def test_bad_verilog_is_spec_error(self):
        from repro.service.jobs import JobSpecError, build_job
        with pytest.raises(JobSpecError):
            build_job({"kind": "sta_mc", "verilog": "module broken",
                       "liberty": "library (x) {}"})
