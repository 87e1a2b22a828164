"""Chaos harness: seeded fault storms through the real production seams.

Each test installs a :class:`repro.faults.FaultPlan` and drives the
actual layer — pool workers, store I/O, service connections, Newton
refactorisation — asserting the documented degradation *and* that
results stay bit-identical (or within the backend ladder's <1e-9 V
contract, for the solver seam).  Counters reconcile against the plan
via :func:`repro.faults.would_fire`, the prediction half of the
replayability contract.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro.circuit.netlist import Circuit
from repro.circuit.sources import RampSource
from repro.circuit.transient import (TransientJob, TransientOptions,
                                     simulate_transient_many)
from repro.exec import ExecutionConfig, ResultStore, run_jobs
from repro.faults import FaultPlan, install_plan, injected, would_fire
from repro.experiments.setup import CrosstalkConfig, build_testbench
from repro.library.liberty import parse_liberty
from repro.sta import InputSpec, read_verilog, run_sta_monte_carlo
from repro.service import ServiceClient, ServiceSettings, serve_in_thread
from repro.service.protocol import encode
from tests.helpers import pin_block


@pytest.fixture(autouse=True)
def _clean_registry():
    install_plan(None)
    yield
    install_plan(None)


def rc_job(start: float = 50e-12, r_ohm: float = 1e3) -> TransientJob:
    c = Circuit("rc")
    c.vsource("Vin", "in", "0", RampSource(start, 1e-10, 0.0, 1.2))
    c.resistor("R1", "in", "out", r_ohm)
    c.capacitor("C1", "out", "0", 2e-14)
    return TransientJob(c, t_stop=5e-10, dt=2e-12)


def _jobs(n: int) -> list:
    """Two resistor values, so two job groups: shards hold whole groups,
    and a one-group list would run inline without reaching the pool."""
    return [rc_job(start=20e-12 + 10e-12 * k,
                   r_ohm=1e3 if k % 2 == 0 else 2e3) for k in range(n)]


def _c17_sweep(execution):
    """A 512-sample c17 Monte-Carlo sweep.  Under ``pin_block(monkeypatch,
    256)`` that is two blocks, so two chunks at ``workers=2``."""
    data = Path(__file__).parent / "data"
    net = read_verilog((data / "c17.v").read_text(encoding="utf-8"))
    lib = parse_liberty((data / "c17.lib").read_text(encoding="utf-8"))
    return run_sta_monte_carlo(
        net, lib, inputs={pi: InputSpec(slew=50e-12)
                          for pi in net.primary_inputs},
        required_times={po: 100e-12 for po in net.primary_outputs},
        samples=512, seed=11, journal=False, execution=execution)


def _assert_identical(results, baseline):
    assert len(results) == len(baseline)
    for res, ref in zip(results, baseline):
        np.testing.assert_array_equal(res.times, ref.times)
        np.testing.assert_array_equal(res._x, ref._x)


# ----------------------------------------------------------------------
# pool seams
# ----------------------------------------------------------------------
class TestPoolChaos:
    def test_all_workers_crash_results_bit_identical(self):
        jobs = _jobs(8)
        baseline = simulate_transient_many(_jobs(8))
        diag: dict = {}
        with injected("seed=1; pool.worker=crash"):
            results = run_jobs(jobs,
                               ExecutionConfig(workers=2, min_pool_jobs=2),
                               diag=diag)
        _assert_identical(results, baseline)
        # Every shard's worker died; every shard fell back inline.
        assert diag["fallback_shards"] >= 1
        if diag["mode"] == "sharded":
            assert diag["fallback_shards"] == diag["shards"]

    def test_crash_counters_reconcile_with_plan(self):
        # p=0.5: the parent can predict exactly which shard indices
        # crashed (the token is the shard index) without hearing from
        # the dead workers.
        spec = "seed=7; pool.worker=crash:p=0.5"
        jobs = _jobs(8)
        baseline = simulate_transient_many(_jobs(8))
        diag: dict = {}
        with injected(spec):
            results = run_jobs(jobs,
                               ExecutionConfig(workers=4, min_pool_jobs=2),
                               diag=diag)
        _assert_identical(results, baseline)
        if diag["mode"] == "sharded":
            plan = FaultPlan.parse(spec)
            predicted = sum(
                1 for s in range(diag["shards"])
                if would_fire(plan, "pool.worker", s) is not None)
            assert diag["fallback_shards"] == predicted

    def test_wedged_workers_hit_the_deadline_not_the_wall_clock(self):
        jobs = _jobs(6)
        baseline = simulate_transient_many(_jobs(6))
        diag: dict = {}
        t0 = time.monotonic()
        with injected("pool.worker=wedge:arg=30"):
            results = run_jobs(
                jobs, ExecutionConfig(workers=2, min_pool_jobs=2,
                                      shard_timeout=0.3),
                diag=diag)
        elapsed = time.monotonic() - t0
        _assert_identical(results, baseline)
        assert elapsed < 20.0, "wedge outlived the shard deadline"
        if diag["mode"] == "sharded":
            assert diag["timeout_shards"] == diag["shards"]
            assert diag["fallback_shards"] == diag["shards"]

    def test_indexed_crashes_reconcile_with_plan(self, monkeypatch):
        # The token of a run_indexed chunk is its first index; seed 1
        # crashes the second of the sweep's two chunks and spares the first.
        spec = "seed=1; pool.indexed=crash:p=0.5"
        pin_block(monkeypatch, 256)
        serial = _c17_sweep(ExecutionConfig(workers=1))
        with injected(spec):
            res = _c17_sweep(ExecutionConfig(workers=2, min_pool_jobs=2))
        assert json.dumps(res.rows) == json.dumps(serial.rows)
        assert json.dumps(res.quantiles) == json.dumps(serial.quantiles)
        assert res.diag["jobs"] == 2
        if res.diag["mode"] != "sharded":
            # No pool could be made: both chunks fell back inline.
            assert res.diag["fallback_shards"] == 2
            return
        plan = FaultPlan.parse(spec)
        predicted = sum(
            1 for first in (0, 1)
            if would_fire(plan, "pool.indexed", first) is not None)
        assert predicted == 1
        assert res.diag["shards"] == 2
        assert res.diag["fallback_shards"] == predicted

    def test_wedged_indexed_chunks_hit_the_deadline(self, monkeypatch):
        pin_block(monkeypatch, 256)
        serial = _c17_sweep(ExecutionConfig(workers=1))
        with injected("pool.indexed=wedge:arg=30"):
            res = _c17_sweep(ExecutionConfig(workers=2, min_pool_jobs=2,
                                             shard_timeout=0.3))
        assert json.dumps(res.quantiles) == json.dumps(serial.quantiles)
        assert res.diag["jobs"] == 2
        assert res.diag["fallback_shards"] == 2
        if res.diag["mode"] == "sharded":
            assert res.diag["shards"] == 2
            assert res.diag["timeout_shards"] == 2


# ----------------------------------------------------------------------
# store seams
# ----------------------------------------------------------------------
class TestStoreChaos:
    def test_corrupt_reads_heal_and_stay_bit_identical(self, tmp_path):
        store = ResultStore(tmp_path)
        cfg = ExecutionConfig(store=store)
        job = rc_job()
        warm = run_jobs([job], cfg)[0]
        with injected("seed=3; store.read=corrupt:n=2"):
            first = run_jobs([rc_job()], cfg)[0]   # corrupt -> resolve
            second = run_jobs([rc_job()], cfg)[0]  # corrupt -> resolve
            third = run_jobs([rc_job()], cfg)[0]   # window over -> hit
        assert store.corrupt == 2
        for res in (first, second, third):
            np.testing.assert_array_equal(res._x, warm._x)
        assert third.stats["source"] == "store"
        assert not store.miss_only  # read faults never poison writes

    @pytest.mark.parametrize("kind", ["fail", "partial", "enospc"])
    def test_write_failures_degrade_to_miss_only(self, tmp_path, kind):
        store = ResultStore(tmp_path)
        cfg = ExecutionConfig(store=store)
        baseline = rc_job().run()
        with injected(f"store.write={kind}:n=1"):
            with pytest.warns(RuntimeWarning, match="miss-only"):
                res = run_jobs([rc_job()], cfg)[0]
        np.testing.assert_array_equal(res._x, baseline._x)
        assert store.miss_only and store.write_failures == 1
        assert store.stores == 0 and len(store) == 0
        # No torn temp files survive the failed write.
        assert not list(tmp_path.glob("*.tmp"))

    def test_unlink_failure_memoises_the_undeletable_entry(self, tmp_path):
        store = ResultStore(tmp_path)
        cfg = ExecutionConfig(store=store)
        run_jobs([rc_job()], cfg)
        with injected("store.read=corrupt:n=1; store.unlink=fail:n=1"):
            res = run_jobs([rc_job()], cfg)[0]
        # Healing failed: counted corrupt once, remembered, and the
        # fresh re-store supersedes the memo.
        assert store.corrupt == 1
        np.testing.assert_array_equal(res._x, rc_job().run()._x)
        assert run_jobs([rc_job()], cfg)[0].stats["source"] == "store"


# ----------------------------------------------------------------------
# service seams
# ----------------------------------------------------------------------
class TestServiceChaos:
    def test_mid_stream_disconnect_drops_one_client_not_the_service(self):
        svc, shutdown = serve_in_thread(ServiceSettings(port=0))
        try:
            # Ordinal 0 is the hello; ordinal 1 — the pong — is the
            # send injected to die mid-stream.
            with injected("service.send=disconnect:after=1:n=1"):
                with ServiceClient(port=svc.port, timeout=10.0) as victim:
                    with pytest.raises((ConnectionError, OSError)):
                        victim.ping()
            assert svc.dropped_clients >= 1
            # The service survives: a fresh client round-trips fine.
            with ServiceClient(port=svc.port, timeout=10.0) as healthy:
                assert healthy.ping()["event"] == "pong"
        finally:
            shutdown()

    def test_truncated_frame_is_one_bad_request_not_a_hang(self):
        svc, shutdown = serve_in_thread(ServiceSettings(port=0))
        try:
            with ServiceClient(port=svc.port, timeout=10.0) as client:
                with injected("service.frame=truncate:n=1"):
                    torn = encode({"op": "ping"})
                assert not torn.endswith(b"\n")
                # The torn frame stitches onto the next line; the server
                # must parse the combination as one malformed request.
                client._file.write(torn)
                client._file.write(encode({"op": "ping"}))
                client._file.flush()
                reply = client._read()
                assert reply["event"] == "error"
                # The connection (and the service) remain usable.
                assert client.ping()["event"] == "pong"
            assert svc.bad_requests == 1
        finally:
            shutdown()

    def test_slow_send_delays_but_delivers(self):
        svc, shutdown = serve_in_thread(ServiceSettings(port=0))
        try:
            with ServiceClient(port=svc.port, timeout=10.0) as client:
                with injected("service.send=slow:arg=0.2:n=1"):
                    t0 = time.monotonic()
                    assert client.ping()["event"] == "pong"
                    assert time.monotonic() - t0 >= 0.2
        finally:
            shutdown()


# ----------------------------------------------------------------------
# solver seam
# ----------------------------------------------------------------------
class TestSolverChaos:
    def test_singular_refactorization_rides_the_backend_ladder(self):
        # A gate driving a 48-segment line: forced "banded" runs the
        # bordered kernel, whose Schur factorization the fault hits.
        tb = build_testbench(
            CrosstalkConfig(name="deep48", n_aggressors=1,
                            line_length_um=1000.0,
                            coupling_per_aggressor=100e-15, n_segments=48),
            0.05e-9, (0.06e-9,))
        ref = TransientJob(
            tb.circuit, t_stop=0.3e-9, dt=5e-12,
            initial_voltages=dict(tb.initial_voltages),
            options=TransientOptions(backend="dense")).run()
        # Unlimited storm: the DC operating-point solve has its own
        # (uncounted) dense fallback and would eat a one-shot fault
        # before the transient Newton loop ever saw it.
        with injected("solver.refactor=singular"):
            res = TransientJob(
                tb.circuit, t_stop=0.3e-9, dt=5e-12,
                initial_voltages=dict(tb.initial_voltages),
                options=TransientOptions(backend="banded")).run()
        assert res.stats["backend"] == "banded"
        assert res.stats["newton_fallbacks"] >= 1
        worst = max(float(np.max(np.abs(res.voltages_at(n, ref.times)
                                        - ref.voltage_samples(n))))
                    for n in ref.node_names)
        assert worst < 1e-9
