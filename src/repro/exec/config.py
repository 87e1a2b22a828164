"""Execution configuration: worker count, result store and shard deadline.

One :class:`ExecutionConfig` travels through every experiment driver
(``run_noise_cases``, ``run_table1``, ``generate_figure2``, the
ablations, ``propagate_path``), so a single object decides how *all*
simulations of a run execute — in-process, sharded over a pool, and/or
memoised through the on-disk store.  The config is plain data: its store
memoises transient results only, and resolving or installing a default
config changes no other process-wide state.

Environment knobs (read once, by :func:`default_execution`; all declared
in :mod:`repro._knobs`):

``REPRO_WORKERS``
    Process count for the shard scheduler (default 1 = in-process).
``REPRO_STORE``
    Directory of the content-keyed result store; unset disables it.
``REPRO_STORE_MAX_BYTES``
    Size budget of that store (default 512 MiB).
``REPRO_SHARD_TIMEOUT``
    Per-shard worker deadline in seconds (0 disables it); see
    :attr:`ExecutionConfig.shard_timeout`.

Tests and programs that need a different default (e.g. a temporary
store) install one with :func:`set_default_execution` instead of
mutating the environment.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .._knobs import knob
from .._util import require
from .store import DEFAULT_MAX_BYTES, ResultStore

__all__ = ["ExecutionConfig", "default_execution", "set_default_execution",
           "store_max_bytes"]


def store_max_bytes(env: "os._Environ | dict" = os.environ) -> int:
    """The store size budget the environment asks for (bytes).

    Malformed *and* non-positive values fall back to the default —
    ``REPRO_STORE_MAX_BYTES=0`` must not crash every subsequent run
    (unset ``REPRO_STORE`` to disable the store).  Parsing lives in the
    :mod:`repro._knobs` declaration table.
    """
    return knob("REPRO_STORE_MAX_BYTES", env)


@dataclass(frozen=True)
class ExecutionConfig:
    """How the execution layer runs a list of transient jobs.

    Attributes
    ----------
    workers:
        Worker processes for the shard scheduler.  ``1`` (default) keeps
        everything in-process — the deterministic serial path the
        sharded path must agree with.
    store:
        Content-keyed on-disk result store consulted before, and
        populated after, every simulation; ``None`` disables
        memoisation.
    min_pool_jobs:
        Smallest pending-job (or :func:`~repro.exec.run_indexed` index)
        count worth forking a pool for.  Tiny submissions (a
        propagate_path stage's 2 jobs, a single Figure 2 re-simulation)
        solve in milliseconds — pool creation plus pickling would dwarf
        them — so they run inline even when ``workers > 1``.  Shards
        hold whole job groups, so a larger submission that forms a
        single group runs inline too.
    shard_timeout:
        Deadline, in seconds, for an *average-cost* shard's worker
        future; each shard's own deadline scales with its estimated
        cost (:func:`repro.exec.pool.job_cost`).  A worker past its
        deadline — wedged, not crashed: a deadlock or an NFS stall
        never raises — is abandoned and its shard re-solved inline, so
        one stuck process can no longer hang the whole run.  ``0.0``
        (default) waits forever.  Results are bit-identical either
        way: the inline re-solve runs the same whole groups on the
        serial path the crash fallback uses.  :func:`~repro.exec.run_indexed`
        gives each of its equal chunks the unscaled budget.
    """

    workers: int = 1
    store: ResultStore | None = None
    min_pool_jobs: int = 4
    shard_timeout: float = 0.0

    def __post_init__(self) -> None:
        require(self.workers >= 1, "workers must be at least 1")
        require(self.min_pool_jobs >= 2, "min_pool_jobs must be at least 2")
        require(self.shard_timeout >= 0.0,
                "shard_timeout must be >= 0 (0 disables the deadline)")

    @classmethod
    def from_env(cls, env: "os._Environ | dict" = os.environ) -> "ExecutionConfig":
        """Build the configuration the environment asks for.

        Every knob resolves through the :mod:`repro._knobs` declaration
        table, so malformed values (``REPRO_WORKERS=lots``,
        ``REPRO_SHARD_TIMEOUT=soon``) fall back to their declared defaults
        instead of crashing the run.
        """
        store = None
        root = knob("REPRO_STORE", env)
        if root:
            store = ResultStore(root, max_bytes=store_max_bytes(env))
        return cls(workers=knob("REPRO_WORKERS", env), store=store,
                   shard_timeout=knob("REPRO_SHARD_TIMEOUT", env))


_DEFAULT: ExecutionConfig | None = None


def default_execution() -> ExecutionConfig:
    """The process-wide default configuration (environment, read once)."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = ExecutionConfig.from_env()
    return _DEFAULT


def set_default_execution(config: ExecutionConfig | None) -> ExecutionConfig | None:
    """Install a new process-wide default; returns the previous one.

    ``None`` resets to "unset": the next :func:`default_execution` call
    re-reads the environment.
    """
    global _DEFAULT
    previous = _DEFAULT
    _DEFAULT = config
    return previous
