"""Sharded Table-1 sweeps: the whole-group shard plan, rows equal to the
single-process run, and the warm-store rerun guarantee.

* The Table-1 sweep runs once through the single-process batched path
  and once sharded over a 2-worker process pool
  (``ExecutionConfig(workers=2)``).  Every shard plan the pool makes
  must place each ``job_group_key`` group in exactly one shard, and the
  sharded rows must equal the single-process rows exactly: whole-group
  shards solve every stack with the serial membership.  Wall-clock speed
  is measured by hand, not here.
* The warm-store rerun — a cold-then-warm ``run_table1`` against a fresh
  result store: the warm rerun must perform **zero** transient solves and
  reproduce the cold table exactly.

Sweep density follows ``REPRO_CASES`` (default 6 here).
"""

from __future__ import annotations

import shutil
import tempfile

import pytest

from repro.circuit.transient import job_group_key
from repro.exec import ExecutionConfig, ResultStore
from repro.exec import pool as pool_mod
from repro.experiments.noise_injection import SweepTiming
from repro.experiments.setup import CONFIG_I
from repro.experiments.table1 import default_case_count, run_table1


@pytest.fixture(scope="module")
def timing():
    return SweepTiming(dt=2e-12)


def _table1(n_cases, timing, execution):
    # Pinned to the fixed grid (max_step = dt): every variant's rows are
    # independent of its stack mates there.
    return run_table1(CONFIG_I, n_cases=n_cases, timing=timing,
                      execution=execution, adaptive=False)


def test_sharded_table1_keeps_groups_whole_and_rows_exact(timing, monkeypatch):
    """Whole-group shard plans; sharded rows equal the single-process rows."""
    plans = []
    real = pool_mod.make_shards

    def recorded(indices, jobs, mnas, n_workers):
        shards = real(indices, jobs, mnas, n_workers)
        plans.append([[job_group_key(jobs[k], mnas[k]) for k in shard]
                      for shard in shards])
        return shards

    monkeypatch.setattr(pool_mod, "make_shards", recorded)
    n_cases = default_case_count(fallback=6)
    single = _table1(n_cases, timing, ExecutionConfig(workers=1))
    sharded = _table1(n_cases, timing, ExecutionConfig(workers=2))

    assert any(len(plan) == 2 for plan in plans), "the pool was never reached"
    for plan in plans:
        homes = {}
        for s_idx, keys in enumerate(plan):
            for key in keys:
                assert homes.setdefault(key, s_idx) == s_idx, \
                    "a job group was split across shards"
    assert sharded == single, "sharded rows differ from single-process rows"


def test_warm_store_rerun_is_free_and_exact(timing, monkeypatch):
    """A warm-store ``run_table1`` rerun: zero transient solves, exact rows."""
    calls = {"jobs": 0}
    real = pool_mod.simulate_transient_many

    def counted(jobs, *args, **kwargs):
        calls["jobs"] += len(jobs)
        return real(jobs, *args, **kwargs)

    monkeypatch.setattr(pool_mod, "simulate_transient_many", counted)

    n_cases = default_case_count(fallback=6)
    root = tempfile.mkdtemp(prefix="repro-store-")
    try:
        execution = ExecutionConfig(store=ResultStore(root))
        cold = _table1(n_cases, timing, execution)
        cold_solves = calls["jobs"]
        calls["jobs"] = 0
        warm = _table1(n_cases, timing, execution)

        assert cold_solves > 0
        assert calls["jobs"] == 0, "warm store must satisfy every simulation"
        assert warm == cold, "warm rerun must match the cold run exactly"
    finally:
        shutil.rmtree(root, ignore_errors=True)
