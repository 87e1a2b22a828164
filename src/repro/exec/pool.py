"""Process-pool shard scheduler for independent transient jobs.

:func:`simulate_transient_many` amortises the per-step Python cost of
topology-sharing jobs inside one process; the experiments' workloads
(Table 1 sweeps, Figure 2, ablations) are additionally *embarrassingly
parallel across processes*.  :func:`run_jobs` is the execution front end
that combines the three scaling layers of this repo:

1. **Store** — every job is first looked up in the
   :class:`~repro.exec.store.ResultStore` (when the
   :class:`~repro.exec.ExecutionConfig` carries one); hits skip
   simulation entirely and warm experiment re-runs perform zero
   transient solves.
2. **Shards** — the remaining jobs are partitioned into per-worker
   shards of *whole* :func:`~repro.circuit.transient.job_group_key`
   groups, and each shard runs ``simulate_transient_many`` in a forked
   worker process.  A group is never split: a stack's wall time hardly
   grows with its width, so a split would make every worker pay the
   full per-step overhead again.
3. **Batch** — inside every worker the batched engines do their usual
   stacked-Newton / structured-solve work.

Determinism and fallback
------------------------
Shard assignment is a pure function of the job list and worker count,
results are merged back in submission order, and every group solves
with exactly the membership the serial path gives it, so a sharded run
returns the same list as ``simulate_transient_many`` bit for bit, on
fixed and strided grids alike.  ``workers=1``, tiny job lists, a plan
of a single shard, pool creation failure, and *per-shard worker
crashes* all fall back to the deterministic in-process path — a crash
costs time, never results.

Workers can also *wedge* rather than crash — a deadlock, a stalled NFS
mount — and a wedged worker raises nothing, ever.  When the
:class:`~repro.exec.ExecutionConfig` carries a ``shard_timeout``
(``REPRO_SHARD_TIMEOUT``), every shard future gets a deadline scaled by
the shard's estimated cost (:func:`job_cost`); a future past its
deadline is abandoned (its worker process terminated so pool teardown
cannot hang either) and the shard re-solves inline exactly like the
crash path, counted in both ``fallback_shards`` and the dedicated
``timeout_shards`` diagnostic.  :func:`run_indexed` chunks get the same
deadline, unscaled.

Workers receive their shard by pickling the jobs (circuits, sources and
options are plain data) and return ``(times, solutions, stats)`` arrays;
the parent rebuilds :class:`~repro.circuit.transient.TransientResult`
objects against its own compiled systems, so solver handles and other
unpicklables never cross the process boundary.  :func:`run_indexed`
fans index-addressed work out through the same pool loop.
"""

from __future__ import annotations

import multiprocessing as mp
import sys
import time
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as _FutureTimeout

import numpy as np

from ..circuit.mna import MnaSystem
from ..circuit.transient import (TransientJob, TransientResult, job_group_key,
                                 simulate_transient_many)
from ..faults import FaultError, maybe_fault
from .config import ExecutionConfig, default_execution

__all__ = ["run_jobs", "run_indexed", "make_shards", "job_cost",
           "fleet_stats", "reset_fleet_stats"]


def _honour_entry_fault(rule) -> None:
    """Act out an injected worker-entry fault (chaos harness only).

    ``crash`` raises in the worker — the parent sees a dead future and
    re-solves the shard inline; ``wedge``/``slow`` sleep — a wedge long
    enough to trip the shard deadline, a slow just perturbing timing.
    """
    if rule.kind == "crash":
        raise FaultError(f"injected {rule.point} crash")
    time.sleep(rule.delay())


def _simulate_shard(jobs: list[TransientJob],
                    fault_token: "int | None" = None) -> list[tuple[np.ndarray, np.ndarray, dict]]:
    """Worker entry point: solve a shard, return picklable payloads.

    ``fault_token`` is the shard index — a stable token, so which shards
    an injected plan crashes or wedges is predictable from the parent
    (:func:`repro.faults.would_fire`) even though the fire itself
    happens (and dies) worker-side.
    """
    rule = maybe_fault("pool.worker", fault_token)
    if rule is not None:
        _honour_entry_fault(rule)
    results = simulate_transient_many(jobs)
    return [(r.times, r._x, r.stats) for r in results]


# ----------------------------------------------------------------------
# Fleet stats: cross-call, cross-worker solver totals
# ----------------------------------------------------------------------

#: Process-wide accumulator over every :func:`run_jobs` call.  Worker
#: stats come home inside each result's payload, so sharded runs
#: contribute exactly like serial ones.
_FLEET: dict = {}

#: Per-result stats entries that are not additive counters.
_FLEET_SKIP = frozenset({"batch_size", "backend"})


def reset_fleet_stats() -> None:
    """Zero the process-wide fleet totals."""
    _FLEET.clear()


def _fleet_round(value: float) -> "int | float":
    return int(round(value)) if abs(value - round(value)) < 1e-6 else value


def fleet_stats() -> dict:
    """Solver totals accumulated across every :func:`run_jobs` call.

    ``runs``/``jobs``/``store_hits``/``store_misses``/``shards``/
    ``fallback_shards`` describe the execution layer; the engine
    counters (``newton_iters``, ``halvings``, ``matrix_builds``,
    ``newton_fallbacks``, ``lte_rejects`` …) are the fleet
    sums of the per-group transient stats, merged across workers.
    Per-group counters are recovered exactly from the per-result copies
    (see :func:`_accumulate_fleet`), so integer counters come back as
    integers.
    """
    flat = {k: _fleet_round(v) for k, v in _FLEET.items()
            if not isinstance(v, dict)}
    for k, v in _FLEET.items():
        if isinstance(v, dict):
            flat[k] = {kk: vv for kk, vv in v.items()}
    return flat


def _accumulate_fleet(solved: "list[TransientResult | None]",
                      info: dict) -> None:
    """Fold one call's solved results and diagnostics into the fleet.

    Every member of a batched solve group carries an identical *copy* of
    the group's stats dict (and sharded groups come home as exactly the
    members the worker solved together), so each group counter is summed
    ``batch_size`` times at weight ``1/batch_size`` — recovering the
    group total without needing a shared-identity marker that would not
    survive pickling.  Store hits contribute nothing: their simulations
    ran (and were counted) when the store was populated.
    """
    _FLEET["runs"] = _FLEET.get("runs", 0) + 1
    for key in ("jobs", "store_hits", "store_misses", "shards",
                "fallback_shards", "timeout_shards"):
        _FLEET[key] = _FLEET.get(key, 0) + info.get(key, 0)
    for res in solved:
        if res is None:
            continue
        stats = res.stats
        weight = 1.0 / max(1, int(stats.get("batch_size", 1)))
        for key, value in stats.items():
            if key in _FLEET_SKIP:
                continue
            if isinstance(value, dict):
                bucket = _FLEET.setdefault(key, {})
                for kk, vv in value.items():
                    bucket[kk] = bucket.get(kk, 0.0) + vv * weight
            elif isinstance(value, (int, float)) \
                    and not isinstance(value, bool):
                _FLEET[key] = _FLEET.get(key, 0.0) + value * weight


def job_cost(job: TransientJob, mna: MnaSystem) -> float:
    """Relative wall-clock estimate of one transient job.

    ``n_steps × size² × (1 + n_mosfets)``: the per-step cost of every
    engine is dominated by work over the (size × size) system, and
    MOSFET circuits pay it once per Newton *iteration* rather than once
    per step — the device count is the cheap proxy for how many.  Only
    relative magnitudes matter; the units are arbitrary.
    """
    n_steps = max(1, int(round((job.t_stop - job.t_start) / job.dt)))
    return float(n_steps) * float(mna.size) ** 2 * (1.0 + mna.n_mosfets)


def make_shards(indices: Sequence[int], jobs: Sequence[TransientJob],
                mnas: Sequence[MnaSystem], n_workers: int) -> list[list[int]]:
    """Partition job ``indices`` into at most ``n_workers`` shards of whole groups.

    Every group of batch-compatible jobs (equal
    :func:`~repro.circuit.transient.job_group_key`) lands whole in one
    shard, so each worker solves exactly the stacks the serial path
    solves.  Groups go, costliest first by summed :func:`job_cost`, to
    the least-loaded shard (ties to the lowest shard index); the cost
    only orders whole groups.  The plan is a pure function of the job
    list and worker count, and holds fewer shards than workers when
    there are fewer groups.
    """
    groups: dict[tuple, list[int]] = {}
    for k in indices:
        groups.setdefault(job_group_key(jobs[k], mnas[k]), []).append(k)
    costed = [(sum(job_cost(jobs[k], mnas[k]) for k in members), members)
              for members in groups.values()]
    shards: list[list[int]] = [[] for _ in range(n_workers)]
    loads = [0.0] * n_workers
    # Stable sort: equal-cost groups keep their build order.
    for cost, members in sorted(costed, key=lambda c: c[0], reverse=True):
        w = loads.index(min(loads))
        shards[w].extend(members)
        loads[w] += cost
    return [s for s in shards if s]


def _run_indexed_chunk(fn, indices: list[int]) -> list:
    """Worker entry point for :func:`run_indexed`: evaluate one chunk.

    The fault token is the chunk's first index — stable for a given
    ``(count, workers)``, so injected crashes and wedges land on
    predictable chunks.
    """
    rule = maybe_fault("pool.indexed", indices[0])
    if rule is not None:
        _honour_entry_fault(rule)
    return [fn(i) for i in indices]


def run_indexed(
    fn,
    count: int,
    execution: ExecutionConfig | None = None,
    diag: dict | None = None,
) -> list:
    """Evaluate ``[fn(0), fn(1), ..., fn(count-1)]``, sharded over workers.

    The generic fan-out companion of :func:`run_jobs` for index-addressed
    work that is not a transient job — blocks of Monte-Carlo samples
    above all (:func:`repro.sta.run_sta_monte_carlo` passes one index
    per block, each block one array pass over its samples).  ``fn`` must
    be picklable (a module-level function or ``functools.partial`` over
    one) and *pure in its index*: each call derives everything it needs
    (e.g. its samples' RNG streams) from ``i`` alone, which is what makes
    the result independent of the sharding.  Chunks hold contiguous
    indices and the pool only forks for ``count >= min_pool_jobs``, so
    callers should size an index's work to outweigh a shard's fixed
    overhead rather than hand out many tiny indices.

    Determinism contract: results come back in index order, and the
    value of ``fn(i)`` cannot depend on the worker count, so
    ``run_indexed(fn, n, cfg)`` is *bit-identical* for every
    ``cfg.workers`` — the property the statistical STA smoke asserts.

    Failure handling mirrors :func:`run_jobs`: pool-creation failure and
    per-chunk worker crashes fall back to evaluating the chunk inline,
    counted in ``diag["fallback_shards"]``; a crash costs time, never
    results or determinism.  With a ``shard_timeout``, every chunk gets
    that budget (chunks are equal slices of interchangeable indices), and
    a chunk past it is abandoned and evaluated inline, counted in
    ``diag["timeout_shards"]`` as well.
    """
    count = int(count)
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    cfg = execution if execution is not None else default_execution()
    info = {"mode": "serial", "jobs": count, "shards": 0,
            "fallback_shards": 0, "timeout_shards": 0}
    if diag is not None:
        diag.update(info)

    # Contiguous chunks, one per worker: a pure function of (count,
    # workers), and irrelevant to the results by the purity contract.
    n_chunks = min(max(1, int(cfg.workers)), count) \
        if count >= cfg.min_pool_jobs else 1
    bounds = [round(count * w / n_chunks) for w in range(n_chunks + 1)]
    chunks = [list(range(bounds[w], bounds[w + 1])) for w in range(n_chunks)
              if bounds[w] < bounds[w + 1]]
    results: list = [None] * count

    def accept(chunk: list[int], payload: list) -> None:
        for i, value in zip(chunk, payload):
            results[i] = value

    _fan_out(_run_indexed_chunk, chunks, [(fn, c) for c in chunks],
             lambda chunk: accept(chunk, [fn(i) for i in chunk]), accept,
             info, [cfg.shard_timeout or None] * len(chunks))
    if diag is not None:
        diag.update(info)
    return results


def _pool_context():
    """Prefer ``fork`` on Linux (cheap, no scipy re-import per worker).

    Elsewhere use the platform default: fork-without-exec is unsafe with
    macOS's Objective-C/Accelerate runtimes — the reason CPython made
    ``spawn`` the macOS default.
    """
    if sys.platform == "linux" and "fork" in mp.get_all_start_methods():
        return mp.get_context("fork")
    return mp.get_context()


def run_jobs(
    jobs: Sequence[TransientJob],
    execution: ExecutionConfig | None = None,
    diag: dict | None = None,
) -> list[TransientResult]:
    """Run many independent transient jobs through the execution layer.

    Results come back in submission order.  Shards hold whole job
    groups (:func:`make_shards`), so every stack solves with the serial
    membership and a cold run is *bit identical* to
    ``simulate_transient_many(jobs)`` for any worker count; with a warm
    store results are bit identical to the run that populated it.  A
    *partially*-warm group whose strides can grow
    (:attr:`~repro.circuit.transient.TransientJob.stride_rungs`)
    discards its store hits and re-solves whole, so every such group
    this call actually solves uses exactly the serial baseline's
    lockstep grouping; a partially warm fixed-grid (``max_step = dt``)
    group solves only its misses, on any worker count.  A *fully*-warm
    strided hit, however, replays the accepted grid of whatever
    submission populated the store (the content key deliberately
    ignores group membership), which may differ from the grid the
    current submission would produce; both lie within the LTE tolerance
    of the same fixed-grid golden, which is the engine's equivalence
    contract for grown strides.

    Parameters
    ----------
    jobs:
        The simulations to perform.
    execution:
        Worker/store configuration; ``None`` uses
        :func:`~repro.exec.config.default_execution` (the
        ``REPRO_WORKERS`` / ``REPRO_STORE`` environment knobs).
    diag:
        Optional dict filled with run diagnostics: ``mode``
        (``"serial"``/``"sharded"``), ``jobs``, ``store_hits``,
        ``store_misses``, ``shards``, ``fallback_shards`` (shards whose
        worker failed — or timed out — and were re-run in-process) and
        ``timeout_shards`` (the subset of those abandoned at their
        ``shard_timeout`` deadline).
    """
    jobs = list(jobs)
    cfg = execution if execution is not None else default_execution()
    info = {"mode": "serial", "jobs": len(jobs), "store_hits": 0,
            "store_misses": 0, "shards": 0, "fallback_shards": 0,
            "timeout_shards": 0}
    if diag is not None:
        diag.update(info)
    if not jobs:
        return []

    store = cfg.store
    workers = max(1, int(cfg.workers))
    results: list[TransientResult | None] = [None] * len(jobs)
    mnas = [MnaSystem(job.circuit) for job in jobs]
    keys: list[str | None] = [None] * len(jobs)
    pending: list[int] = []
    for k, (job, mna) in enumerate(zip(jobs, mnas)):
        if store is not None:
            key = store.key_for(job, mna)
            keys[k] = key
            if key is not None:
                cached = store.lookup(key, job, mna)
                if cached is not None:
                    results[k] = cached
                    continue
        pending.append(k)
    if store is not None and pending:
        pending = _coherent_strided_pending(jobs, mnas, results, pending,
                                            keys, store)
    if store is not None:
        info["store_hits"] = len(jobs) - len(pending)
        info["store_misses"] = len(pending)

    if pending:
        shards = make_shards(pending, jobs, mnas, workers) \
            if workers > 1 and len(pending) >= cfg.min_pool_jobs else [pending]

        def solve_inline(shard: list[int]) -> None:
            solved = simulate_transient_many([jobs[k] for k in shard],
                                             mnas=[mnas[k] for k in shard])
            for k, res in zip(shard, solved):
                results[k] = res

        def accept(shard: list[int], payload: list) -> None:
            for k, (times, x, stats) in zip(shard, payload):
                results[k] = TransientResult(mnas[k], times, x, stats=stats)

        _fan_out(_simulate_shard, shards,
                 [([jobs[k] for k in shard], s_idx)
                  for s_idx, shard in enumerate(shards)],
                 solve_inline, accept, info,
                 _shard_deadlines(shards, jobs, mnas, cfg.shard_timeout))

    if store is not None:
        for k in pending:
            if keys[k] is not None:
                try:
                    store.store(keys[k], results[k])
                except Exception:
                    # Persistence is an optimisation: a full disk or
                    # revoked permission must degrade to an uncached run,
                    # never discard hours of completed simulation.  The
                    # store itself already degrades to miss-only on write
                    # failure; this belt catches anything it cannot.
                    store.write_failures += 1
    if diag is not None:
        diag.update(info)
    _accumulate_fleet([results[k] for k in pending], info)
    return results  # type: ignore[return-value]


def _coherent_strided_pending(
    jobs: list[TransientJob],
    mnas: list[MnaSystem],
    results: "list[TransientResult | None]",
    pending: list[int],
    keys: "list[str | None]",
    store,
) -> list[int]:
    """Discard store hits of partially-warm groups whose strides can grow.

    The engine advances a batch-compatible group in lockstep, so where
    strides can grow a job's accepted grid (and waveforms, within the
    LTE tolerance) depend on which group it solves with.  If only some
    members of such a group hit the store, re-solving just the misses
    would run them in a smaller group than the serial baseline
    ``simulate_transient_many(jobs)`` uses — the whole group re-solves
    (and re-stores) instead, keeping ``run_jobs`` equivalent to the
    baseline.  Fixed-grid groups (no rung to climb) solve only their
    misses.  The discarded lookups are recounted
    as misses.  Fully-warm and fully-cold groups are unaffected, so warm
    reruns still perform zero solves.
    """
    groups: dict[tuple, list[int]] = {}
    for k, (job, mna) in enumerate(zip(jobs, mnas)):
        if job.stride_rungs:
            groups.setdefault(job_group_key(job, mna), []).append(k)
    pending_set = set(pending)
    for members in groups.values():
        missed = sum(k in pending_set for k in members)
        if 0 < missed < len(members):
            for k in members:
                if k not in pending_set:
                    results[k] = None
                    pending_set.add(k)
                    store.discard_hit(keys[k])
    return sorted(pending_set)


def _shard_deadlines(shards: list[list[int]], jobs: Sequence[TransientJob],
                     mnas: Sequence[MnaSystem],
                     shard_timeout: float) -> "list[float | None]":
    """Per-shard deadline budgets in seconds (``None`` = wait forever).

    ``shard_timeout`` is the budget of an *average-cost* shard of this
    run; each shard's own budget scales with its estimated cost
    (:func:`job_cost`), never below the base — a shard three times the
    mean gets three times as long before it is declared wedged, so one
    knob serves heterogeneous Table-1 + interconnect mixes without
    killing their slowest (largest), healthy shard.
    """
    if shard_timeout <= 0.0:
        return [None] * len(shards)
    shard_costs = [sum(job_cost(jobs[k], mnas[k]) for k in shard)
                   for shard in shards]
    mean_cost = sum(shard_costs) / max(1, len(shard_costs))
    if mean_cost <= 0.0:
        return [shard_timeout] * len(shards)
    return [shard_timeout * max(1.0, cost / mean_cost)
            for cost in shard_costs]


def _abandon_pool(executor: ProcessPoolExecutor) -> None:
    """Tear down a pool that still holds wedged workers.

    ``shutdown(wait=True)`` — and interpreter exit, which joins the
    executor's management thread — would block on a wedged worker
    forever, re-creating the very hang the shard deadline just broke.
    Every healthy shard's payload has already been collected by the
    time this runs, so terminating the remaining worker processes loses
    nothing; the management thread then observes the broken pool and
    exits on its own.
    """
    for proc in list((getattr(executor, "_processes", None) or {}).values()):
        try:
            proc.terminate()
        except (OSError, ValueError):
            pass  # already exited / already closed
    executor.shutdown(wait=False, cancel_futures=True)


def _fan_out(entry, shards: list[list[int]], args: list[tuple], inline,
             accept, info: dict,
             budgets: "list[float | None] | None" = None) -> None:
    """Run ``entry(*args[s])`` for every shard ``s`` on a process pool.

    The one pool loop of :func:`run_jobs` and :func:`run_indexed`.  A
    plan of fewer than two shards runs ``inline`` with no fork and
    leaves ``info`` in serial mode; otherwise each worker's payload goes
    to ``accept(shard, payload)``.  Pool creation failure resolves every
    shard inline (mode back to ``"serial"``); a worker that fails, or
    whose future passes its ``budgets`` deadline (seconds, ``None`` =
    wait forever), resolves its shard inline, counted in
    ``fallback_shards`` (and, for a deadline, ``timeout_shards``).
    """
    if len(shards) < 2:
        for shard in shards:
            inline(shard)
        return
    info.update({"mode": "sharded", "shards": len(shards)})
    try:
        executor = ProcessPoolExecutor(max_workers=len(shards),
                                       mp_context=_pool_context())
    except Exception:
        # Pool creation can fail outright (fork limits, missing
        # semaphores in containers); degrade to the deterministic
        # in-process path, counted per shard in the diagnostics.
        info.update({"mode": "serial", "shards": 0})
        info["fallback_shards"] += len(shards)
        for shard in shards:
            inline(shard)
        return

    budgets = budgets or [None] * len(shards)
    abandoned = False
    try:
        futures = [executor.submit(entry, *a) for a in args]
        # All shards run concurrently (max_workers == len(shards)), so
        # absolute deadlines are measured from one submission instant;
        # waiting for them in submission order costs nothing.
        t_submit = time.monotonic()
        for shard, future, budget in zip(shards, futures, budgets):
            try:
                payload = future.result(
                    timeout=None if budget is None
                    else max(0.0, t_submit + budget - time.monotonic()))
            except _FutureTimeout:
                # A *wedged* worker (deadlock, NFS stall) raises
                # nothing, ever — without this deadline the whole run
                # hangs even though crashes fall back cleanly.  Abandon
                # the future and re-solve inline.
                future.cancel()
                abandoned = True
                info["timeout_shards"] += 1
                info["fallback_shards"] += 1
                inline(shard)
                continue
            except Exception:
                # A dead or failing worker (crash, OOM kill, pickling
                # error) must not take the run down: re-solve its shard
                # in-process, deterministically.
                info["fallback_shards"] += 1
                inline(shard)
                continue
            accept(shard, payload)
    finally:
        if abandoned:
            _abandon_pool(executor)
        else:
            executor.shutdown(wait=True)
