"""Sharded vs single-process wall-clock on the Table-1 workload, plus the
warm-store rerun guarantee.

* ``BENCH_shard.json`` (written next to the repo root) — the Table-1
  sweep through the single-process batched path versus the same sweep
  sharded over a process pool (``ExecutionConfig(workers=N)``), with the
  ≥1.5× gate.  The gate needs
  real parallel headroom: with fewer than :data:`GATE_MIN_CORES` cores
  (single-core boxes, oversubscribed 2-core shared runners where a noisy
  neighbour can eat the margin) the measurement is still recorded
  (``gated`` names the reason) but the assertion is skipped.  The
  equivalence check (sharded rows ≡ single-process rows) always runs.
* The warm-store rerun — a cold-then-warm ``run_table1`` against a fresh
  result store: the warm rerun must perform **zero** transient solves and
  reproduce the cold table exactly.  It writes no artifact.

Sweep density follows ``REPRO_CASES`` (default 6 here).
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import time
from pathlib import Path

import pytest

from repro.exec import ExecutionConfig, ResultStore
from repro.exec import pool as pool_mod
from repro.experiments.noise_injection import SweepTiming
from repro.experiments.setup import CONFIG_I
from repro.experiments.table1 import default_case_count, run_table1

SPEEDUP_FLOOR = 1.5
#: Assert the wall-clock gate only with this many cores: 2 workers need
#: two free cores *plus* headroom for the OS/runner, and tier-1 collects
#: this file too — a noisy 2-core shared runner must not flake the suite.
GATE_MIN_CORES = 4
ROW_TOL = 1e-12
ROOT = Path(__file__).resolve().parents[1]
BENCH_PATH = ROOT / "BENCH_shard.json"


@pytest.fixture(scope="module")
def timing():
    return SweepTiming(dt=2e-12)


def _time_table1(n_cases, timing, execution):
    t0 = time.perf_counter()
    # Fixed-grid stepping pinned so the artifact measures the shard
    # scheduler under a stable workload regardless of REPRO_ADAPTIVE
    # (the adaptive engine has its own gate in test_adaptive_speedup.py).
    result = run_table1(CONFIG_I, n_cases=n_cases, timing=timing,
                        execution=execution, adaptive=False)
    return result, time.perf_counter() - t0


def _row_divergence(a, b):
    worst = 0.0
    for ra, rb in zip(a.rows, b.rows):
        assert ra.technique == rb.technique
        if ra.delay.max_abs is not None and rb.delay.max_abs is not None:
            worst = max(worst, abs(ra.delay.max_abs - rb.delay.max_abs),
                        abs(ra.delay.mean_abs - rb.delay.mean_abs))
    return worst


def test_shard_speedup_on_table1_workload(timing):
    """Sharded Table-1 sweep ≥1.5× over the single-process batched path."""
    n_cases = default_case_count(fallback=6)
    cores = os.cpu_count() or 1
    workers = max(2, min(4, cores))

    single, t_single = _time_table1(n_cases, timing, ExecutionConfig(workers=1))
    sharded, t_sharded = _time_table1(n_cases, timing,
                                      ExecutionConfig(workers=workers))
    speedup = t_single / t_sharded

    if speedup < SPEEDUP_FLOOR and cores >= GATE_MIN_CORES:
        # One retry absorbs transient machine noise on shared runners.
        single, t_single = _time_table1(n_cases, timing,
                                        ExecutionConfig(workers=1))
        sharded, t_sharded = _time_table1(n_cases, timing,
                                          ExecutionConfig(workers=workers))
        speedup = t_single / t_sharded

    divergence = _row_divergence(single, sharded)
    gated = None if cores >= GATE_MIN_CORES else \
        f"only {cores} CPU core(s) available (gate needs {GATE_MIN_CORES})"
    payload = {
        "workload": f"Table 1, Configuration {single.config_name}",
        "n_cases": n_cases,
        "dt": timing.dt,
        "workers": workers,
        "cpu_count": cores,
        "single_process_seconds": round(t_single, 4),
        "sharded_seconds": round(t_sharded, 4),
        "speedup": round(speedup, 3),
        "speedup_floor": SPEEDUP_FLOOR,
        "gated": gated,
        "max_row_divergence_seconds": divergence,
    }
    BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    assert divergence < ROW_TOL, \
        f"sharded table diverges from single-process by {divergence:.3e} s"
    if gated is not None:
        pytest.skip(f"speedup gate skipped: {gated} (recorded {speedup:.2f}x "
                    f"in {BENCH_PATH.name})")
    assert speedup >= SPEEDUP_FLOOR, (
        f"sharded Table-1 sweep only {speedup:.2f}x faster "
        f"({t_sharded:.2f}s vs {t_single:.2f}s on {workers} workers); "
        f"see {BENCH_PATH}"
    )


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
        cold, _ = _time_table1(n_cases, timing, execution)
        cold_solves = calls["jobs"]
        calls["jobs"] = 0
        warm, _ = _time_table1(n_cases, timing, execution)

        assert cold_solves > 0
        assert calls["jobs"] == 0, "warm store must satisfy every simulation"
        assert warm == cold, "warm rerun must match the cold run exactly"
    finally:
        shutil.rmtree(root, ignore_errors=True)
