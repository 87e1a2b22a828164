"""The long-running noise-aware STA job service.

One :class:`StaService` owns the three things a batch script re-pays on
every invocation and a daemon pays once:

* the **process-wide analysis caches** — frozen sparsity patterns,
  Newton partitions and structure signatures
  (:func:`repro.circuit.mna.clear_analysis_cache`'s LRU) stay warm
  across requests because the process never exits;
* a persistent :class:`~repro.exec.ExecutionConfig` — the same worker
  pool + content-keyed :class:`~repro.exec.ResultStore` stack every
  batch entry point uses, shared by all requests (per-tenant store
  namespaces keep clients from aliasing each other's entries);
* an :class:`~repro.service.queue.AdmissionQueue` in front of it all —
  bounded depth, per-client quotas, reject-with-retry-after — so
  overload degrades into early refusals instead of unbounded latency.

Transport is the JSON-lines protocol of :mod:`repro.service.protocol`
over asyncio TCP (stdlib only).  Jobs execute on a small thread pool
(the solvers are numpy-bound and release the GIL; the event loop stays
free for admission and streaming), and partial results stream to the
submitting connection as the job produces them — a Table-1 submission
yields each configuration's rows while later configurations still
solve.  A client that disconnects mid-job is dropped from streaming but
the job completes: its solves warm the store for the retry.
"""

from __future__ import annotations

import asyncio
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

from .._knobs import knob
from ..exec import ExecutionConfig, default_execution, fleet_stats
from ..faults import maybe_fault
from .jobs import JobSpecError, ServiceJob, build_job
from .protocol import (MAX_LINE_BYTES, PROTOCOL_VERSION, ProtocolError,
                       decode, encode)
from .queue import AdmissionQueue, QueuedJob, Rejected

__all__ = ["ServiceSettings", "StaService", "serve_in_thread"]


@dataclass(frozen=True)
class ServiceSettings:
    """How a :class:`StaService` listens and queues.

    Attributes
    ----------
    host / port:
        Bind address; ``port=0`` picks an ephemeral port (read it back
        from :attr:`StaService.port` after start).
    queue_depth / quota:
        Admission control (see :class:`~repro.service.queue.AdmissionQueue`).
    concurrency:
        Jobs executed at once (worker tasks, each on its own executor
        thread).  The per-job parallelism inside a run stays with the
        execution config's ``workers``.
    execution:
        Base :class:`~repro.exec.ExecutionConfig` for every job;
        ``None`` resolves :func:`~repro.exec.default_execution` at
        start (the ``REPRO_WORKERS`` / ``REPRO_STORE`` /
        ``REPRO_SHARD_TIMEOUT`` environment).
    """

    host: str = "127.0.0.1"
    port: int = 8472
    queue_depth: int = 64
    quota: int = 16
    concurrency: int = 1
    execution: "ExecutionConfig | None" = None

    @classmethod
    def from_env(cls, env: "os._Environ | dict | None" = None) -> "ServiceSettings":
        """Settings from the declared ``REPRO_SERVICE_*`` knobs."""
        return cls(host=knob("REPRO_SERVICE_HOST", env),
                   port=knob("REPRO_SERVICE_PORT", env),
                   queue_depth=knob("REPRO_SERVICE_QUEUE_DEPTH", env),
                   quota=knob("REPRO_SERVICE_QUOTA", env))


@dataclass
class _Pending:
    """One admitted submission: runnable job + streaming destination."""

    job_id: int
    job: ServiceJob
    tenant: str
    writer: asyncio.StreamWriter
    client_gone: bool = False
    events: "asyncio.Queue[object]" = field(default_factory=asyncio.Queue)


_SENTINEL = object()


class StaService:
    """Asyncio STA job service; see the module docstring.

    Lifecycle: :meth:`start` binds and spawns workers,
    :meth:`serve_forever` blocks until a ``shutdown`` op (or
    :meth:`stop`), :meth:`stop` drains the queue, finishes in-flight
    jobs, and tears the listener down.
    """

    def __init__(self, settings: "ServiceSettings | None" = None):
        self.settings = settings if settings is not None else ServiceSettings()
        self.queue = AdmissionQueue(max_depth=self.settings.queue_depth,
                                    quota=self.settings.quota,
                                    concurrency=self.settings.concurrency)
        self._execution: ExecutionConfig | None = self.settings.execution
        self._tenant_execution: dict[str, ExecutionConfig] = {}
        self._server: asyncio.base_events.Server | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._workers: list[asyncio.Task] = []
        self._connections: dict[asyncio.Task, asyncio.StreamWriter] = {}
        self._work_available = asyncio.Event()
        self._stopping = False
        self._stopped = asyncio.Event()
        self._next_id = 1
        self.jobs_done = 0
        self.job_errors = 0
        self.bad_requests = 0
        self.dropped_clients = 0

    # -- lifecycle -------------------------------------------------------
    @property
    def host(self) -> str:
        return self.settings.host

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` after :meth:`start`)."""
        if self._server is not None and self._server.sockets:
            return self._server.sockets[0].getsockname()[1]
        return self.settings.port

    async def start(self) -> None:
        """Bind the listener and spawn the worker tasks."""
        if self._execution is None:
            self._execution = default_execution()
        self._executor = ThreadPoolExecutor(
            max_workers=self.settings.concurrency,
            thread_name_prefix="repro-service")
        self._server = await asyncio.start_server(
            self._handle, host=self.settings.host, port=self.settings.port,
            limit=MAX_LINE_BYTES)
        self._workers = [asyncio.create_task(self._worker())
                         for _ in range(self.settings.concurrency)]

    async def serve_forever(self) -> None:
        """Block until the service stops (``shutdown`` op or :meth:`stop`)."""
        await self._stopped.wait()

    async def stop(self) -> None:
        """Drain queued jobs, finish in-flight ones, close the listener."""
        if self._stopping:
            await self._stopped.wait()
            return
        self._stopping = True
        self._work_available.set()  # wake idle workers so they can exit
        if self._workers:
            await asyncio.gather(*self._workers)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Wake idle connection handlers with an EOF so their tasks can
        # finish before the loop goes away (otherwise their transports
        # are garbage-collected against a closed loop).
        for writer in self._connections.values():
            try:
                writer.close()
            except (ConnectionError, OSError):
                self.dropped_clients += 1
        if self._connections:
            await asyncio.gather(*self._connections,
                                 return_exceptions=True)
        if self._executor is not None:
            self._executor.shutdown(wait=True)
        self._stopped.set()

    # -- connection handling ----------------------------------------------
    async def _send(self, writer: asyncio.StreamWriter, message: dict) -> bool:
        """Write one event line; ``False`` when the client is gone.

        The ``service.send`` injection point fires inside the existing
        failure path: ``disconnect`` raises the same ``ConnectionError``
        a mid-stream client death produces (counted in
        ``dropped_clients``; the job keeps running), ``slow`` stalls the
        write like a congested client.
        """
        try:
            rule = maybe_fault("service.send")
            if rule is not None:
                if rule.kind == "slow":
                    await asyncio.sleep(rule.delay())
                elif rule.kind == "disconnect":
                    raise ConnectionResetError(
                        "injected mid-stream client disconnect")
            writer.write(encode(message))
            await writer.drain()
            return True
        except (ConnectionError, RuntimeError, OSError):
            self.dropped_clients += 1
            return False

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        self._connections[task] = writer
        await self._send(writer, {"event": "hello",
                                  "version": PROTOCOL_VERSION})
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    self.bad_requests += 1
                    await self._send(writer, {
                        "event": "error",
                        "error": f"request line over {MAX_LINE_BYTES} bytes"})
                    break
                if not line:
                    break  # EOF: client closed
                if not line.strip():
                    continue
                try:
                    request = decode(line)
                except ProtocolError as exc:
                    self.bad_requests += 1
                    if not await self._send(writer, {"event": "error",
                                                     "error": str(exc)}):
                        break
                    continue
                if not await self._dispatch(request, writer):
                    break
        finally:
            self._connections.pop(task, None)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                self.dropped_clients += 1

    async def _dispatch(self, request: dict,
                        writer: asyncio.StreamWriter) -> bool:
        """Handle one request; ``False`` closes the connection."""
        op = request.get("op")
        if op == "ping":
            return await self._send(writer, {"event": "pong",
                                             "version": PROTOCOL_VERSION})
        if op == "stats":
            return await self._send(writer, {"event": "stats",
                                             "stats": self.stats()})
        if op == "shutdown":
            await self._send(writer, {"event": "bye"})
            asyncio.create_task(self.stop())
            return False
        if op == "submit":
            return await self._submit(request, writer)
        self.bad_requests += 1
        return await self._send(writer, {"event": "error",
                                         "error": f"unknown op {op!r}"})

    async def _submit(self, request: dict,
                      writer: asyncio.StreamWriter) -> bool:
        if self._stopping:
            return await self._send(writer, {
                "event": "rejected", "reason": "shutting down",
                "retry_after": self.queue.retry_after()})
        try:
            job = build_job(request.get("job"))
        except JobSpecError as exc:
            self.bad_requests += 1
            return await self._send(writer, {"event": "error",
                                             "error": str(exc)})
        tenant = str(request.get("client", ""))
        priority = request.get("priority", 0)
        if not isinstance(priority, int) or isinstance(priority, bool):
            self.bad_requests += 1
            return await self._send(writer, {
                "event": "error", "error": "'priority' must be an integer"})
        job_id = self._next_id
        self._next_id += 1
        pending = _Pending(job_id=job_id, job=job, tenant=tenant,
                           writer=writer)
        try:
            self.queue.submit(pending, priority=priority, client=tenant)
        except Rejected as exc:
            return await self._send(writer, {
                "event": "rejected", "reason": exc.reason,
                "retry_after": exc.retry_after})
        self._work_available.set()
        return await self._send(writer, {
            "event": "accepted", "id": job_id, "kind": job.kind,
            "queue_depth": self.queue.depth + self.queue.running})

    # -- execution ---------------------------------------------------------
    def _execution_for(self, tenant: str) -> ExecutionConfig:
        """The tenant's execution config: base, with a namespaced store.

        Cached per tenant so its store counters accumulate across
        requests (the ``stats`` op reports them) instead of resetting
        per job.
        """
        base = self._execution
        if not tenant or base.store is None:
            return base
        cfg = self._tenant_execution.get(tenant)
        if cfg is None:
            cfg = replace(base, store=base.store.namespaced(tenant))
            self._tenant_execution[tenant] = cfg
        return cfg

    async def _worker(self) -> None:
        while True:
            item = self.queue.pop()
            if item is None:
                if self._stopping:
                    return
                # No await between pop() and clear(): the loop is
                # single-threaded, so a submit cannot slip in between
                # and be lost to the cleared event.
                self._work_available.clear()
                await self._work_available.wait()
                continue
            await self._execute(item)

    async def _execute(self, item: QueuedJob) -> None:
        pending: _Pending = item.payload
        loop = asyncio.get_running_loop()
        events = pending.events

        def emit(event: dict) -> None:
            # Called from the executor thread.
            loop.call_soon_threadsafe(events.put_nowait, event)

        execution = self._execution_for(pending.tenant)
        job = pending.job

        def runner() -> None:
            try:
                result = job.run(execution, emit)
                emit({"event": "done", "result": result})
            except Exception as exc:
                # A failing job must not take the worker down; the
                # client gets the reason, the service counts it.
                self.job_errors += 1
                emit({"event": "error", "error": f"{type(exc).__name__}: {exc}"})
            finally:
                loop.call_soon_threadsafe(events.put_nowait, _SENTINEL)

        t0 = loop.time()
        loop.run_in_executor(self._executor, runner)
        while True:
            event = await events.get()
            if event is _SENTINEL:
                break
            message = dict(event)
            message["id"] = pending.job_id
            if not pending.client_gone:
                # A gone client stops the streaming, never the solve:
                # the store stays warm for the client's retry.
                pending.client_gone = not await self._send(pending.writer,
                                                           message)
        self.queue.finish(item, seconds=loop.time() - t0)
        self.jobs_done += 1

    # -- introspection -----------------------------------------------------
    def stats(self) -> dict:
        """Queue, store (base + per-tenant), and fleet statistics."""
        base = self._execution
        store_stats = None
        if base is not None and base.store is not None:
            store_stats = base.store.stats()
        return {
            "queue": self.queue.stats(),
            "jobs_done": self.jobs_done,
            "job_errors": self.job_errors,
            "bad_requests": self.bad_requests,
            "dropped_clients": self.dropped_clients,
            "store": store_stats,
            "tenants": {name: cfg.store.stats()
                        for name, cfg in sorted(self._tenant_execution.items())},
            "fleet": fleet_stats(),
        }


def serve_in_thread(settings: "ServiceSettings | None" = None):
    """Run a service on a fresh event loop in a daemon thread.

    For tests and embedders: returns ``(service, shutdown)`` once the
    listener is bound (so ``service.port`` is final); ``shutdown()``
    drains and joins.  The daemon entry point
    (:mod:`repro.service.__main__`) runs the loop in the main thread
    instead.
    """
    import threading

    loop = asyncio.new_event_loop()
    service = StaService(settings)
    started = threading.Event()

    async def _main() -> None:
        await service.start()
        started.set()
        await service.serve_forever()

    def _run() -> None:
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(_main())
        finally:
            loop.close()

    thread = threading.Thread(target=_run, name="repro-service-loop",
                              daemon=True)
    thread.start()
    started.wait(timeout=30.0)

    def stop_in_loop() -> None:
        # Runs on the loop thread, so the stop() coroutine is created
        # only when the live loop will run it; a service that is already
        # stopping needs nothing more.
        if not service._stopping:
            loop.create_task(service.stop())

    def shutdown(timeout: float = 30.0) -> None:
        # Don't wait on the scheduled callback: if the service already
        # stopped (a client's ``shutdown`` op), the loop may be exiting
        # run_until_complete right now and never run it.  The loop
        # thread exits exactly when the service has stopped, so joining
        # it is the race-free wait in both cases.
        if thread.is_alive() and not loop.is_closed():
            try:
                loop.call_soon_threadsafe(stop_in_loop)
            except RuntimeError:
                pass  # loop closed between the check and the call
        thread.join(timeout=timeout)
        if thread.is_alive():
            raise RuntimeError("service did not stop within "
                               f"{timeout:.0f}s")

    return service, shutdown
