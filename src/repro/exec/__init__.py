"""Execution layer: process-level sharding and cross-run memoisation.

The third scaling layer of this reproduction, on top of the in-process
batched engine (PR 1) and the structured solver backends (PR 2):

* :mod:`repro.exec.pool` — :func:`run_jobs`, a drop-in front end for
  :func:`~repro.circuit.transient.simulate_transient_many` that shards
  independent jobs over a process pool and merges results in submission
  order (deterministic serial fallback when ``workers=1`` or the pool is
  unavailable); :func:`fleet_stats` totals the per-shard solver stats
  across every call and worker;
* :mod:`repro.exec.store` — :class:`ResultStore`, a content-keyed
  on-disk memo of transient results (topology signature + source
  fingerprints + grid + options, versioned) that makes repeat experiment
  runs near-free;
* :mod:`repro.exec.config` — :class:`ExecutionConfig`, the single object
  the experiment drivers thread both layers through, with
  ``REPRO_WORKERS`` / ``REPRO_STORE`` environment defaults;
* :mod:`repro.exec.journal` — :class:`RunJournal`, a write-ahead journal
  of completed sweep samples under the store root, so a killed
  Monte-Carlo run resumes at the first unfinished sample with
  bit-identical output (``REPRO_JOURNAL``).
"""

from .config import (ExecutionConfig, default_execution,
                     set_default_execution, store_max_bytes)
from .journal import RunJournal, journal_for
from .pool import (fleet_stats, job_cost, make_shards, reset_fleet_stats,
                   run_indexed, run_jobs)
from .store import (STORE_VERSION, ResultStore, UnkeyableJobError,
                    content_key, job_key)

__all__ = [
    "ExecutionConfig",
    "default_execution",
    "set_default_execution",
    "store_max_bytes",
    "run_jobs",
    "run_indexed",
    "make_shards",
    "job_cost",
    "fleet_stats",
    "reset_fleet_stats",
    "ResultStore",
    "job_key",
    "content_key",
    "UnkeyableJobError",
    "STORE_VERSION",
    "RunJournal",
    "journal_for",
]
