"""Write-ahead run journal: crash-safe resume with bit-identical output.

The contract under test: a sweep killed between samples resumes at the
first unfinished one (zero recomputation of completed samples) and its
final quantiles are *byte*-identical to an uninterrupted run's —
because the journal records IEEE-754 doubles through ``json``'s
``repr`` round-trip.  Torn tails, stale headers and foreign files all
degrade to "start fresh", never to an exception.
"""

import json

import pytest

from repro.exec import (ExecutionConfig, ResultStore, RunJournal,
                        journal_for, set_default_execution)
from repro.exec.journal import JOURNAL_VERSION
from repro.interconnect.rcline import RcLineSpec
from repro.sta import InputSpec, McVariation, run_sta_monte_carlo
from repro.sta.netlist import GateNetlist

from tests.helpers import pin_block
from tests.test_sta import _const_cell

KEY = "ab" * 32  # a plausible 64-hex run key


@pytest.fixture
def journal(tmp_path):
    return RunJournal.open(tmp_path, KEY, total=8)


class TestRunJournal:
    def test_record_and_replay(self, journal, tmp_path):
        journal.record(0, {"v": 1.5})
        journal.record(3, {"v": [0.1 + 0.2, 5e-324]})
        journal.close()
        again = RunJournal.open(tmp_path, KEY, total=8)
        done = again.completed()
        assert set(done) == {0, 3}
        assert done[3]["v"] == [0.1 + 0.2, 5e-324]  # exact doubles

    def test_no_file_no_records(self, journal):
        assert journal.completed() == {}

    def test_torn_tail_is_dropped(self, journal, tmp_path):
        for i in range(3):
            journal.record(i, {"v": i})
        journal.close()
        raw = journal.path.read_bytes().splitlines()
        journal.path.write_bytes(
            b"\n".join(raw[:-1]) + b"\n" + raw[-1][: len(raw[-1]) // 2])
        again = RunJournal.open(tmp_path, KEY, total=8)
        assert set(again.completed()) == {0, 1}

    def test_stale_header_discards(self, journal, tmp_path):
        journal.record(0, {"v": 1})
        journal.close()
        # Same key, different total: records cannot be spliced.
        again = RunJournal.open(tmp_path, KEY, total=9)
        assert again.completed() == {}
        assert not journal.path.exists()

    def test_foreign_file_discards(self, tmp_path):
        path = tmp_path / f"{KEY}.jsonl"
        path.write_bytes(b"not a journal at all\n")
        journal = RunJournal.open(tmp_path, KEY, total=8)
        assert journal.completed() == {}
        assert not path.exists()

    def test_out_of_range_records_ignored(self, journal, tmp_path):
        journal.record(1, {"v": 1})
        with open(journal.path, "ab") as f:
            f.write(json.dumps({"i": 99, "row": {}}).encode() + b"\n")
            f.write(json.dumps({"i": "x", "row": {}}).encode() + b"\n")
        journal.close()
        again = RunJournal.open(tmp_path, KEY, total=8)
        assert set(again.completed()) == {1}

    def test_finish_deletes(self, journal):
        journal.record(0, {"v": 1})
        journal.finish()
        assert not journal.path.exists()

    def test_pickles_without_handle(self, journal):
        import pickle
        journal.record(0, {"v": 1})
        clone = pickle.loads(pickle.dumps(journal))
        clone.record(1, {"v": 2})  # appends through its own descriptor
        clone.close()
        journal.close()
        assert set(RunJournal.open(journal.path.parent, KEY,
                                   total=8).completed()) == {0, 1}

    def test_numpy_rows_journal_exactly(self, journal, tmp_path):
        import numpy as np
        journal.record(0, {"f": np.float64(0.1), "i": np.int64(7),
                           "b": np.bool_(True), "a": np.arange(3.0)})
        journal.close()
        row = RunJournal.open(tmp_path, KEY, total=8).completed()[0]
        assert row == {"f": 0.1, "i": 7, "b": True, "a": [0.0, 1.0, 2.0]}

    def test_header_versioned(self, journal):
        journal.record(0, {})
        header = json.loads(journal.path.read_bytes().splitlines()[0])
        assert header == {"journal": JOURNAL_VERSION, "run": KEY, "total": 8}


class TestJournalFor:
    def test_off_by_default_without_knob(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_JOURNAL", raising=False)
        cfg = ExecutionConfig(store=ResultStore(tmp_path))
        assert journal_for("x", (1,), 4, execution=cfg) is None

    def test_knob_enables(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_JOURNAL", "1")
        cfg = ExecutionConfig(store=ResultStore(tmp_path))
        jr = journal_for("x", (1,), 4, execution=cfg)
        assert jr is not None
        assert jr.path.parent == tmp_path / "journal"

    def test_no_store_warns_and_degrades(self):
        with pytest.warns(RuntimeWarning, match="no result store"):
            assert journal_for("x", (1,), 4,
                               execution=ExecutionConfig(),
                               enabled=True) is None

    def test_unkeyable_payload_warns_and_degrades(self, tmp_path):
        cfg = ExecutionConfig(store=ResultStore(tmp_path))
        with pytest.warns(RuntimeWarning, match="no canonical run key"):
            assert journal_for("x", object(), 4, execution=cfg,
                               enabled=True) is None

    def test_key_depends_on_label_and_payload(self, tmp_path):
        cfg = ExecutionConfig(store=ResultStore(tmp_path))
        keys = {journal_for(label, payload, 4, execution=cfg,
                            enabled=True).run_key
                for label, payload in [("a", (1,)), ("a", (2,)),
                                       ("b", (1,))]}
        assert len(keys) == 3


# ----------------------------------------------------------------------
# end-to-end resume through the MC drivers
# ----------------------------------------------------------------------
@pytest.fixture
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


def _mc(design, execution, journal):
    net, lib, wires = design
    return run_sta_monte_carlo(
        net, lib, wire_specs=wires, inputs={"n0": InputSpec(slew=50e-12)},
        required_times={"n2": 400e-12}, variation=McVariation(),
        samples=8, seed=7, execution=execution, journal=journal)


class TestMonteCarloResume:
    def test_fresh_run_journals_then_cleans_up(self, design, tmp_path):
        cfg = ExecutionConfig(store=ResultStore(tmp_path))
        res = _mc(design, cfg, journal=True)
        assert res.diag["journal"] == {"resumed": 0, "computed": 8}
        assert not list((tmp_path / "journal").glob("*.jsonl"))

    def test_kill_between_samples_resumes_bit_identical(
            self, design, tmp_path, monkeypatch):
        cfg = ExecutionConfig(store=ResultStore(tmp_path))
        base = _mc(design, cfg, journal=False)

        recorded = []
        orig = RunJournal.record

        def dying_record(self, i, row):
            orig(self, i, row)
            recorded.append(i)
            if len(recorded) == 5:
                raise KeyboardInterrupt  # stand-in for kill -9

        monkeypatch.setattr(RunJournal, "record", dying_record)
        with pytest.raises(KeyboardInterrupt):
            _mc(design, cfg, journal=True)
        monkeypatch.undo()

        res = _mc(design, cfg, journal=True)
        assert res.diag["journal"] == {"resumed": 5, "computed": 3}
        assert res.rows == base.rows
        # Byte-identity, not closeness: the acceptance bar for resume.
        assert json.dumps(res.quantiles) == json.dumps(base.quantiles)
        assert not list((tmp_path / "journal").glob("*.jsonl"))

    def test_resumed_rows_interleave_with_fresh_blocks(
            self, design, tmp_path, monkeypatch):
        # A pool killed mid-sweep leaves every block partly journalled:
        # here samples 1, 3, 4 and 6 never reach the journal, so the
        # resume solves blocks (1, 3, 4) and (6,) and merges their
        # columns between the replayed rows 0, 2, 5 and 7.
        pin_block(monkeypatch, 3)
        cfg = ExecutionConfig(workers=1, store=ResultStore(tmp_path))
        base = _mc(design, cfg, journal=False)

        orig = RunJournal.record

        def lossy_record(self, i, row):
            if i not in (1, 3, 4, 6):
                orig(self, i, row)
            if i == 7:
                raise KeyboardInterrupt  # stand-in for kill -9

        monkeypatch.setattr(RunJournal, "record", lossy_record)
        with pytest.raises(KeyboardInterrupt):
            _mc(design, cfg, journal=True)
        monkeypatch.setattr(RunJournal, "record", orig)

        seen = []
        net, lib, wires = design
        res = run_sta_monte_carlo(
            net, lib, wire_specs=wires,
            inputs={"n0": InputSpec(slew=50e-12)},
            required_times={"n2": 400e-12}, variation=McVariation(),
            samples=8, seed=7, execution=cfg, journal=True,
            on_sample=seen.append)
        assert res.diag["journal"] == {"resumed": 4, "computed": 4}
        assert res.diag["jobs"] == 2
        assert res.rows == base.rows
        assert json.dumps(seen) == json.dumps(base.rows)
        assert json.dumps(res.quantiles) == json.dumps(base.quantiles)
        assert not list((tmp_path / "journal").glob("*.jsonl"))

    def test_different_sweep_params_do_not_cross_resume(
            self, design, tmp_path, monkeypatch):
        cfg = ExecutionConfig(store=ResultStore(tmp_path))
        orig = RunJournal.record

        def dying_record(self, i, row):
            orig(self, i, row)
            raise KeyboardInterrupt

        monkeypatch.setattr(RunJournal, "record", dying_record)
        with pytest.raises(KeyboardInterrupt):
            _mc(design, cfg, journal=True)
        monkeypatch.undo()
        net, lib, wires = design
        res = run_sta_monte_carlo(
            net, lib, wire_specs=wires,
            inputs={"n0": InputSpec(slew=50e-12)},
            required_times={"n2": 400e-12}, variation=McVariation(),
            samples=8, seed=8, execution=cfg, journal=True)  # other seed
        assert res.diag["journal"] == {"resumed": 0, "computed": 8}

    def test_journal_knob_drives_default(self, design, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_JOURNAL", "1")
        cfg = ExecutionConfig(store=ResultStore(tmp_path))
        res = _mc(design, cfg, journal=None)
        assert "journal" in res.diag

    def test_no_journal_no_diag_entry(self, design, tmp_path):
        cfg = ExecutionConfig(store=ResultStore(tmp_path))
        res = _mc(design, cfg, journal=False)
        assert "journal" not in res.diag
