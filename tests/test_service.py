"""STA job-service tests: admission-control policy, the wire protocol,
job-spec validation, and full client↔server round-trips (streaming,
rejection + retry backoff, per-tenant store namespaces, shutdown)."""

from __future__ import annotations

import random
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.circuit.netlist import Circuit
from repro.circuit.sources import RampSource
from repro.circuit.transient import TransientJob, simulate_transient_many
from repro.exec import ExecutionConfig, ResultStore
from repro.service import (AdmissionQueue, JOB_KINDS, JobSpecError,
                           Rejected, ServiceClient, ServiceError, ServiceJob,
                           ServiceSettings, build_job, decode, encode,
                           register_job_kind, serve_in_thread)
from repro.service.protocol import MAX_LINE_BYTES, ProtocolError


# ----------------------------------------------------------------------
# shared fixtures / helpers
# ----------------------------------------------------------------------
RC_SPEC = {
    "kind": "transient",
    "netlist": {"name": "rc", "elements": [
        {"kind": "vsource", "name": "Vin", "a": "in", "b": "0",
         "source": {"kind": "ramp", "t_start": 5e-11, "slew": 1e-10,
                    "v_from": 0.0, "v_to": 1.2}},
        {"kind": "resistor", "name": "R1", "a": "in", "b": "out",
         "value": 1e3},
        {"kind": "capacitor", "name": "C1", "a": "out", "b": "0",
         "value": 2e-14},
    ]},
    "t_stop": 5e-10, "dt": 2e-12, "probes": ["out"],
}


def rc_job() -> TransientJob:
    """The same job RC_SPEC describes, built directly."""
    c = Circuit("rc")
    c.vsource("Vin", "in", "0", RampSource(5e-11, 1e-10, 0.0, 1.2))
    c.resistor("R1", "in", "out", 1e3)
    c.capacitor("C1", "out", "0", 2e-14)
    return TransientJob(c, t_stop=5e-10, dt=2e-12)


#: token -> gate; _GateJob blocks until its gate is set.  The service
#: under test runs in this process, so module state is shared.
_GATES: dict[str, threading.Event] = {}


class _GateJob(ServiceJob):
    """Test-only job kind that holds a worker until released."""

    kind = "gate"

    def __init__(self, spec: dict):
        self.token = str(spec.get("token", ""))

    def run(self, execution, emit):
        gate = _GATES[self.token]
        assert gate.wait(timeout=30.0), "test forgot to release the gate"
        return {"token": self.token}


@pytest.fixture
def gate_kind():
    register_job_kind(_GateJob.kind, _GateJob)
    yield
    JOB_KINDS.pop(_GateJob.kind, None)
    _GATES.clear()


def _gate(token: str) -> dict:
    _GATES[token] = threading.Event()
    return {"kind": "gate", "token": token}


@pytest.fixture
def service():
    svc, shutdown = serve_in_thread(ServiceSettings(port=0))
    yield svc
    shutdown()


# ----------------------------------------------------------------------
# protocol
# ----------------------------------------------------------------------
class TestProtocol:
    def test_round_trip_is_exact(self):
        msg = {"op": "submit", "x": 0.1 + 0.2, "tiny": 5e-324,
               "arr": [1.2345678901234567e-12, -0.0]}
        assert decode(encode(msg)) == msg

    def test_one_line_per_message(self):
        line = encode({"a": 1})
        assert line.endswith(b"\n") and line.count(b"\n") == 1

    def test_decode_rejects_garbage(self):
        with pytest.raises(ProtocolError):
            decode(b"not json\n")
        with pytest.raises(ProtocolError):
            decode(b"[1, 2, 3]\n")  # a list, not an object
        with pytest.raises(ProtocolError):
            decode(b"[" * 200_000)  # nesting past the recursion limit


# ----------------------------------------------------------------------
# admission queue (pure policy, no I/O)
# ----------------------------------------------------------------------
class TestAdmissionQueue:
    def test_priority_then_fifo(self):
        q = AdmissionQueue(max_depth=16)
        q.submit("low-1", priority=0)
        q.submit("high", priority=5)
        q.submit("low-2", priority=0)
        assert [q.pop().payload for _ in range(3)] \
            == ["high", "low-1", "low-2"]

    def test_depth_bound_counts_running_jobs(self):
        q = AdmissionQueue(max_depth=2)
        q.submit("a")
        running = q.pop()
        q.submit("b")  # depth 1 + running 1 == max_depth
        with pytest.raises(Rejected) as exc:
            q.submit("c")
        assert exc.value.reason == "queue full"
        assert exc.value.retry_after > 0
        assert q.rejected_full == 1
        q.finish(running)
        q.submit("c")  # slot freed

    def test_quota_is_per_client(self):
        q = AdmissionQueue(max_depth=16, quota=1)
        q.submit("a1", client="a")
        with pytest.raises(Rejected) as exc:
            q.submit("a2", client="a")
        assert exc.value.reason == "client quota exceeded"
        q.submit("b1", client="b")  # different client: admitted
        assert q.rejected_quota == 1
        job = q.pop()
        q.finish(job)
        q.submit("again", client=job.client)

    def test_retry_after_tracks_backlog_and_durations(self):
        q = AdmissionQueue(max_depth=64, concurrency=1)
        empty_hint = q.retry_after()
        for k in range(4):
            q.submit(k)
        assert q.retry_after() > empty_hint
        # Fast completions shrink the duration estimate (EMA).
        before = q.retry_after()
        for _ in range(4):
            q.finish(q.pop(), seconds=0.01)
        q.submit("x")
        assert q.retry_after() < before

    def test_stats_shape(self):
        q = AdmissionQueue()
        q.submit("a", client="t")
        stats = q.stats()
        assert stats["depth"] == 1 and stats["clients"] == 1
        assert stats["submitted"] == 1 and stats["completed"] == 0

    def test_finish_is_idempotent_per_job(self):
        # Abrupt-disconnect cleanup can race normal completion into a
        # double finish; the second call must not release another
        # job's quota slot or drive the accounting negative.
        q = AdmissionQueue(max_depth=16, quota=1)
        job = q.submit("a", client="a")
        popped = q.pop()
        q.finish(popped)
        q.finish(popped)  # duplicate: no-op
        assert q.running == 0 and q.completed == 1
        q.submit("a-again", client="a")  # quota slot back — exactly one
        with pytest.raises(Rejected):
            q.submit("a-too-many", client="a")
        assert job.finished

    def test_quota_released_exactly_once_under_random_disconnect_orders(self):
        # Property-style: random interleavings of submit / pop / finish
        # / duplicate-finish (the disconnect-cleanup race) must always
        # drain to empty accounting, with completed == unique finishes.
        for seed in range(20):
            rng = random.Random(seed)
            q = AdmissionQueue(max_depth=64, quota=4)
            clients = ["a", "b", "c"]
            popped, finished = [], []
            for _ in range(120):
                roll = rng.random()
                if roll < 0.4:
                    try:
                        q.submit("job", client=rng.choice(clients),
                                 priority=rng.randrange(3))
                    except Rejected:
                        pass
                elif roll < 0.7:
                    job = q.pop()
                    if job is not None:
                        popped.append(job)
                elif popped and roll < 0.9:
                    job = popped.pop(rng.randrange(len(popped)))
                    q.finish(job)
                    finished.append(job)
                elif finished:  # disconnect cleanup re-finishes
                    q.finish(rng.choice(finished))
            while q.depth or popped:  # drain everything still live
                job = q.pop()
                if job is not None:
                    popped.append(job)
                q.finish(popped.pop())
            assert q.running == 0
            assert q._held == {}, f"leaked quota slots (seed {seed})"
            # Duplicate finishes never inflate the completion count:
            # every admitted job was drained and counted exactly once.
            assert q.completed == q.submitted


# ----------------------------------------------------------------------
# job specs
# ----------------------------------------------------------------------
class TestJobSpecs:
    def test_unknown_kind(self):
        with pytest.raises(JobSpecError, match="unknown job kind"):
            build_job({"kind": "nonsense"})
        with pytest.raises(JobSpecError):
            build_job("not a dict")

    def test_transient_spec_builds(self):
        job = build_job(RC_SPEC)
        assert job.kind == "transient"
        assert job.describe() == "transient(rc)"

    def test_bad_netlist_rejected(self):
        bad = dict(RC_SPEC, netlist={"elements": [
            {"kind": "warp-coil", "name": "W1", "a": "x", "b": "0"}]})
        with pytest.raises(JobSpecError, match="unknown element kind"):
            build_job(bad)
        with pytest.raises(JobSpecError, match="non-empty 'elements'"):
            build_job(dict(RC_SPEC, netlist={"elements": []}))

    def test_unknown_probe_rejected(self):
        with pytest.raises(JobSpecError, match="unknown probe node"):
            build_job(dict(RC_SPEC, probes=["nowhere"]))

    def test_unknown_option_rejected(self):
        with pytest.raises(JobSpecError, match="unknown option"):
            build_job(dict(RC_SPEC, options={"turbo": True}))

    def test_bad_initial_voltages_rejected(self):
        # Rejected at submit, not in a worker thread.
        for bad, match in (([1, 2], "must be a JSON object"),
                           ({"out": "x"}, "field 'out' must be a number"),
                           ({"out": float("nan")}, "'out' must be finite"),
                           ({"nope": 0.5}, r"unknown initial-voltage node\(s\) \['nope'\]")):
            with pytest.raises(JobSpecError, match=match):
                build_job(dict(RC_SPEC, initial_voltages=bad))
        job = build_job(dict(RC_SPEC, initial_voltages={"out": 0.5, "0": 0}))
        assert job.job.initial_voltages == {"out": 0.5, "0": 0}

    def test_non_boolean_use_ic_rejected(self):
        with pytest.raises(JobSpecError, match="'use_ic' must be a boolean"):
            build_job(dict(RC_SPEC, use_ic="false"))
        assert build_job(dict(RC_SPEC, use_ic=True)).job.use_ic is True

    def test_bad_grid_rejected(self):
        with pytest.raises(JobSpecError, match="t_stop > t_start"):
            build_job(dict(RC_SPEC, t_stop=0.0))

    def test_table1_spec_validates(self):
        job = build_job({"kind": "table1", "config": ["I", "II"],
                         "n_cases": 2, "polarity": "opposing"})
        assert job.describe() == "table1(I,II)"
        with pytest.raises(JobSpecError, match="unknown configuration"):
            build_job({"kind": "table1", "config": "XIV"})
        with pytest.raises(JobSpecError, match="n_cases"):
            build_job({"kind": "table1", "n_cases": 1})
        with pytest.raises(JobSpecError, match="polarity"):
            build_job({"kind": "table1", "polarity": "sideways"})
        # Rejected at submit, not in a worker thread.
        for bad in ({"solver_backend": "bogus"}, {"solver_backend": 5}):
            with pytest.raises(JobSpecError, match="solver_backend"):
                build_job(dict(bad, kind="table1"))
        with pytest.raises(JobSpecError, match="'dt' must be > 0"):
            build_job({"kind": "table1", "dt": -1e-12})

    def test_sta_mc_rejects_unknown_watch_nets(self):
        data = Path(__file__).parent / "data"
        spec = {"kind": "sta_mc", "verilog": (data / "c17.v").read_text(),
                "liberty": (data / "c17.lib").read_text()}
        assert build_job(dict(spec, watch=["N22"])).watch == ["N22"]
        with pytest.raises(JobSpecError,
                           match=r"unknown watch net\(s\) \['nope'\]"):
            build_job(dict(spec, watch=["N22", "nope"]))


# ----------------------------------------------------------------------
# client ↔ server round trips
# ----------------------------------------------------------------------
class TestRoundTrip:
    def test_ping_and_stats(self, service):
        with ServiceClient(port=service.port) as svc:
            assert svc.ping()["event"] == "pong"
            stats = svc.stats()
            assert stats["queue"]["depth"] == 0
            assert stats["jobs_done"] == 0

    def test_transient_matches_batch_bit_for_bit(self, service):
        """A waveform fetched through the service is the batch result
        exactly: JSON round-trips every finite double."""
        serial = simulate_transient_many([rc_job()])[0]
        events = []
        with ServiceClient(port=service.port, client="t") as svc:
            result = svc.submit(RC_SPEC, on_event=events.append)
        kinds = [ev["event"] for ev in events]
        assert kinds == ["accepted", "waveform", "done"]
        wave = events[1]
        assert wave["node"] == "out"
        assert wave["times"] == serial.times.tolist()
        assert wave["voltages"] == serial.voltage_samples("out").tolist()
        assert result["nodes"] == ["out"]
        assert result["n_steps"] == len(serial.times) - 1

    def test_bad_spec_reports_error_and_connection_survives(self, service):
        with ServiceClient(port=service.port) as svc:
            with pytest.raises(ServiceError, match="unknown job kind"):
                svc.submit({"kind": "nope"})
            assert svc.ping()["event"] == "pong"
            assert svc.submit(RC_SPEC)["nodes"] == ["out"]

    def test_failing_job_streams_error_not_crash(self, service, gate_kind):
        """A job that raises takes down neither the worker nor the
        connection."""
        def boom(spec):
            job = _GateJob({"token": "missing"})
            return job
        register_job_kind("gate", boom)
        _GATES.pop("missing", None)
        with ServiceClient(port=service.port) as svc:
            with pytest.raises(ServiceError, match="KeyError"):
                svc.submit({"kind": "gate"})
            assert svc.ping()["event"] == "pong"
        assert service.job_errors == 1

    def test_deeply_nested_line_is_one_bad_request(self, service):
        before = service.bad_requests
        with ServiceClient(port=service.port) as svc:
            svc._file.write(b"[" * 200_000 + b"\n")
            svc._file.flush()
            reply = svc._read()
            assert reply["event"] == "error"
            assert "JSON" in reply["error"]
            # The same connection then serves a valid request.
            assert svc.submit(RC_SPEC)["nodes"] == ["out"]
        assert service.bad_requests == before + 1

    def test_oversized_request_is_refused(self, monkeypatch):
        # Patch the limit down so the oversized line fits in the socket
        # buffers (a real 4 MiB write could block the test on flush).
        from repro.service import server as server_mod
        monkeypatch.setattr(server_mod, "MAX_LINE_BYTES", 4096)
        svc, shutdown = serve_in_thread(ServiceSettings(port=0))
        try:
            with ServiceClient(port=svc.port) as client:
                client._file.write(b"x" * 8192 + b"\n")
                client._file.flush()
                reply = client._read()
                assert reply["event"] == "error"
                assert "bytes" in reply["error"]
        finally:
            shutdown()


class TestAdmissionOverWire:
    def test_queue_full_rejection_and_retry(self, gate_kind):
        svc, shutdown = serve_in_thread(
            ServiceSettings(port=0, queue_depth=1, quota=8))
        try:
            blocker = ServiceClient(port=svc.port, client="hog")
            stream = blocker.iter_submit(_gate("t1"))
            assert next(stream)["event"] == "accepted"

            with ServiceClient(port=svc.port, client="other") as other:
                with pytest.raises(Rejected) as exc:
                    other.submit(RC_SPEC)
                assert exc.value.reason == "queue full"
                assert exc.value.retry_after > 0

                # submit_with_retry honours the hint; releasing the gate
                # inside the injected sleep lets the retry land.
                waits = []

                def sleep(seconds):
                    waits.append(seconds)
                    _GATES["t1"].set()
                    time.sleep(0.05)  # let the worker finish the gate job

                result = other.submit_with_retry(RC_SPEC, sleep=sleep,
                                                 attempts=20)
                assert result["nodes"] == ["out"]
                assert waits, "first attempt must have been rejected"

            for event in stream:  # drain the blocker to completion
                pass
            blocker.close()
        finally:
            shutdown()
        assert svc.queue.rejected_full >= 1

    def test_quota_rejection_names_the_reason(self, gate_kind):
        svc, shutdown = serve_in_thread(
            ServiceSettings(port=0, queue_depth=8, quota=1))
        try:
            hog = ServiceClient(port=svc.port, client="hog")
            stream = hog.iter_submit(_gate("q1"))
            assert next(stream)["event"] == "accepted"
            with pytest.raises(Rejected) as exc:
                hog.submit(_gate("q2"))
            assert exc.value.reason == "client quota exceeded"
            # A different client still has room (admitted and queued —
            # the single worker is still held by the gate job, so only
            # assert admission here, not completion).
            with ServiceClient(port=svc.port, client="polite") as polite:
                polite_stream = polite.iter_submit(RC_SPEC)
                assert next(polite_stream)["event"] == "accepted"
                _GATES["q1"].set()
                done = [ev for ev in polite_stream
                        if ev["event"] == "done"]
                assert done[0]["result"]["nodes"] == ["out"]
            for event in stream:
                pass
            hog.close()
        finally:
            shutdown()
        assert svc.queue.rejected_quota == 1


class TestRetryBackoff:
    """Decorrelated-jitter backoff, unit-tested without a server: the
    whole policy is pure given an injected rng and sleep."""

    def _rejecting_client(self, retry_after=0.2):
        client = ServiceClient.__new__(ServiceClient)  # no socket
        calls = []

        def submit(job, *, priority=0, on_event=None):
            calls.append(job)
            raise Rejected("queue full", retry_after)

        client.submit = submit
        return client, calls

    def test_jitter_spreads_and_respects_the_cap(self):
        client, calls = self._rejecting_client()
        waits = []
        with pytest.raises(Rejected):
            client.submit_with_retry({}, attempts=6, max_wait=1.0,
                                     base_wait=0.05, rng=random.Random(0),
                                     sleep=waits.append)
        assert len(calls) == 6
        assert len(waits) == 5  # the last refusal propagates unslept
        assert all(0.05 <= w <= 1.0 for w in waits)
        # Jittered, not the herd-synchronising verbatim hint.
        assert len(set(waits)) > 1
        assert waits != [0.2] * 5

    def test_seeded_sequence_is_reproducible(self):
        runs = []
        for _ in range(2):
            client, _ = self._rejecting_client()
            waits = []
            with pytest.raises(Rejected):
                client.submit_with_retry({}, attempts=5,
                                         rng=random.Random(7),
                                         sleep=waits.append)
            runs.append(waits)
        assert runs[0] == runs[1]

    def test_two_clients_with_different_seeds_desynchronise(self):
        sequences = []
        for seed in (1, 2):
            client, _ = self._rejecting_client()
            waits = []
            with pytest.raises(Rejected):
                client.submit_with_retry({}, attempts=8,
                                         rng=random.Random(seed),
                                         sleep=waits.append)
            sequences.append(waits)
        assert sequences[0] != sequences[1]

    def test_backoff_grows_toward_the_cap(self):
        # The 3x-last-wait target makes the *upper bound* exponential;
        # with a large hintless window the draws trend upward until
        # max_wait clips them.
        client, _ = self._rejecting_client(retry_after=0.0)
        waits = []
        with pytest.raises(Rejected):
            client.submit_with_retry({}, attempts=12, max_wait=0.8,
                                     base_wait=0.05,
                                     rng=random.Random(3),
                                     sleep=waits.append)
        assert max(waits) <= 0.8
        assert max(waits[-4:]) > waits[0]

    def test_success_after_refusals_returns_the_result(self):
        client = ServiceClient.__new__(ServiceClient)
        outcomes = [Rejected("queue full", 0.1),
                    Rejected("queue full", 0.1), {"ok": True}]

        def submit(job, *, priority=0, on_event=None):
            out = outcomes.pop(0)
            if isinstance(out, Exception):
                raise out
            return out

        client.submit = submit
        waits = []
        assert client.submit_with_retry({}, rng=random.Random(0),
                                        sleep=waits.append) == {"ok": True}
        assert len(waits) == 2


class TestTenantNamespaces:
    def test_tenants_share_the_daemon_not_the_entries(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        svc, shutdown = serve_in_thread(ServiceSettings(
            port=0, execution=ExecutionConfig(workers=1, store=store)))
        try:
            with ServiceClient(port=svc.port, client="alpha") as alpha:
                cold = alpha.submit(RC_SPEC)
                warm = alpha.submit(RC_SPEC)
            assert (cold["store_misses"], cold["store_hits"]) == (1, 0)
            assert (warm["store_misses"], warm["store_hits"]) == (0, 1)
            with ServiceClient(port=svc.port, client="beta") as beta:
                other = beta.submit(RC_SPEC)
            # beta must not hit alpha's entry: namespaces isolate tenants.
            assert (other["store_misses"], other["store_hits"]) == (1, 0)
            with ServiceClient(port=svc.port) as probe:
                stats = probe.stats()
            assert set(stats["tenants"]) == {"alpha", "beta"}
            assert stats["tenants"]["alpha"]["hits"] == 1
        finally:
            shutdown()


class TestShutdown:
    def test_shutdown_op_stops_the_service(self):
        svc, shutdown = serve_in_thread(ServiceSettings(port=0))
        with ServiceClient(port=svc.port) as client:
            client.shutdown()
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline and not svc._stopped.is_set():
            time.sleep(0.01)
        assert svc._stopped.is_set(), "service must stop after shutdown op"
        shutdown()  # idempotent

    def test_shutdown_after_shutdown_op_leaves_no_coroutine(
            self, monkeypatch):
        """``shutdown()`` landing after a client's shutdown op, while the
        loop thread sits between the service stopping and the loop
        closing, must not leave a never-awaited ``stop()`` coroutine."""
        import asyncio
        import gc
        import warnings

        closing, release = threading.Event(), threading.Event()
        new_event_loop = asyncio.new_event_loop

        def held_loop():
            loop = new_event_loop()
            close = loop.close

            def held_close():
                closing.set()
                release.wait(10.0)
                close()

            loop.close = held_close
            return loop

        monkeypatch.setattr(asyncio, "new_event_loop", held_loop)
        svc, shutdown = serve_in_thread(ServiceSettings(port=0))
        with ServiceClient(port=svc.port) as client:
            client.shutdown()
        assert closing.wait(10.0), "the loop never left the service"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            timer = threading.Timer(0.2, release.set)
            timer.start()
            shutdown()
            timer.join()
            gc.collect()
        assert not [w for w in caught
                    if issubclass(w.category, RuntimeWarning)], \
            [str(w.message) for w in caught]

    def test_submit_after_shutdown_is_rejected(self, gate_kind):
        svc, shutdown = serve_in_thread(ServiceSettings(port=0))
        try:
            blocker = ServiceClient(port=svc.port)
            stream = blocker.iter_submit(_gate("s1"))
            assert next(stream)["event"] == "accepted"
            with ServiceClient(port=svc.port) as late:
                late._write({"op": "shutdown"})
                assert late._read()["event"] == "bye"
            with ServiceClient(port=svc.port) as refused:
                with pytest.raises(Rejected, match="shutting down"):
                    refused.submit(RC_SPEC)
            _GATES["s1"].set()
            done = [ev for ev in stream if ev["event"] == "done"]
            assert done and done[0]["result"]["token"] == "s1"
            blocker.close()
        finally:
            shutdown()


class TestTable1OverService:
    def test_rows_match_the_batch_path_bit_for_bit(self, tmp_path):
        """A Table-1 sweep through the service equals run_table1 exactly
        — same execution stack, and JSON round-trips every double."""
        from repro.experiments.setup import CONFIG_I
        from repro.experiments.table1 import run_table1

        store = ResultStore(tmp_path / "store")
        execution = ExecutionConfig(workers=1, store=store)
        svc, shutdown = serve_in_thread(
            ServiceSettings(port=0, execution=execution))
        try:
            events = []
            with ServiceClient(port=svc.port, client="t1") as client:
                result = client.submit(
                    {"kind": "table1", "config": "I", "n_cases": 2,
                     "polarity": "opposing"},
                    on_event=events.append)
        finally:
            shutdown()

        kinds = [ev["event"] for ev in events]
        assert kinds[0] == "accepted" and kinds[-1] == "done"
        assert "progress" in kinds and kinds.count("row") >= 2

        batch = run_table1(CONFIG_I, n_cases=2, polarity="opposing",
                           execution=ExecutionConfig(
                               workers=1,
                               store=store.namespaced("t1")))
        by_technique = {row.technique: row for row in batch.rows}
        table = result["tables"][0]
        assert table["config"] == "I" and table["n_cases"] == 2
        for row in table["rows"]:
            ref = by_technique[row["technique"]]
            assert row["delay"]["max_abs"] == ref.delay.max_abs
            assert row["delay"]["rms"] == ref.delay.rms
            assert row["arrival"]["max_abs"] == ref.arrival.max_abs
            assert row["arrival"]["mean_signed"] == ref.arrival.mean_signed
