"""Adaptive (LTE-controlled) vs fixed-grid stepping on a long-window
Table-1 sweep: the step-count saving, plus the golden-deviation guarantee.

The settled tail dominates ``t_stop ≫ transition`` windows: all source
activity of the Configuration I noise sweep finishes ~1.7 ns in, so a
14 ns window is mostly tail — exactly the regime the adaptive engine
targets.  The whole sweep (every alignment case plus the quiet
reference) runs twice through the single-process batched engine — fixed
grid, then ``TransientOptions(adaptive=True)`` — and the benchmark
asserts

* the adaptive runs take at most 0.2x the fixed grid's accepted steps
  (a deterministic count, unlike the wall-clock speedup it stands for,
  which is recorded but not gated), and
* every node of every case within 1e-6 V of the fixed-grid golden on
  the golden's axis (the same gate `tests/test_adaptive_stepping.py`
  enforces per circuit class).

``BENCH_adaptive.json`` is written next to the repo root with timings,
step counts and the measured deviation.  Both runs pin their stepping
mode explicitly, so the artifact is stable under ``REPRO_ADAPTIVE``.
Sweep density follows ``REPRO_CASES`` (default 6 here).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.exec import ExecutionConfig, run_jobs
from tests.helpers import max_node_deviation
from repro.experiments.noise_injection import SweepTiming, prepare_noise_sweep
from repro.experiments.setup import CONFIG_I
from repro.experiments.table1 import default_case_count
from repro.experiments.noise_injection import alignment_offsets

STEP_RATIO_CEILING = 0.2  # adaptive steps / fixed steps
DEVIATION_GATE = 1e-6  # volts, vs the fixed-grid golden
BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_adaptive.json"

#: Long-window frame: activity ends ~1.7 ns in, the rest is settled tail.
TIMING = SweepTiming(dt=2e-12, t_stop=16e-9)


def _sweep_jobs(n_cases: int, adaptive: bool):
    offsets_list = [tuple(base for _ in range(CONFIG_I.n_aggressors))
                    for base in alignment_offsets(n_cases, TIMING.window)]
    plan = prepare_noise_sweep(CONFIG_I, offsets_list, TIMING,
                               include_noiseless=True, adaptive=adaptive)
    return list(plan.jobs)


def _run(n_cases: int, adaptive: bool):
    jobs = _sweep_jobs(n_cases, adaptive)
    t0 = time.perf_counter()
    results = run_jobs(jobs, ExecutionConfig(workers=1))
    return results, time.perf_counter() - t0


def _max_deviation(golden_results, adaptive_results) -> float:
    # Same golden-axis comparison the test-suite harness gates on.
    return max(max_node_deviation(g, a)
               for g, a in zip(golden_results, adaptive_results))


def test_adaptive_speedup_on_long_window_sweep():
    """Adaptive takes ≤0.2x the fixed grid's steps at <1e-6 V deviation."""
    n_cases = default_case_count(fallback=6)

    golden, t_fixed = _run(n_cases, adaptive=False)
    adaptive, t_adaptive = _run(n_cases, adaptive=True)
    speedup = t_fixed / t_adaptive

    deviation = _max_deviation(golden, adaptive)
    fixed_steps = sum(len(r.times) - 1 for r in golden)
    adaptive_steps = sum(len(r.times) - 1 for r in adaptive)

    payload = {
        "workload": f"Table 1 noise sweep, Configuration {CONFIG_I.name} "
                    f"(long window)",
        "n_cases": n_cases,
        "dt": TIMING.dt,
        "t_stop": TIMING.t_stop,
        "fixed_seconds": round(t_fixed, 4),
        "adaptive_seconds": round(t_adaptive, 4),
        "speedup": round(speedup, 3),
        "step_ratio_ceiling": STEP_RATIO_CEILING,
        "fixed_steps": fixed_steps,
        "adaptive_steps": adaptive_steps,
        "step_reduction": round(fixed_steps / max(adaptive_steps, 1), 2),
        "max_deviation_volts": deviation,
        "deviation_gate_volts": DEVIATION_GATE,
        "lte_rejects": adaptive[0].stats.get("lte_rejects"),
        "newton_rejects": adaptive[0].stats.get("newton_rejects"),
    }
    BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    assert deviation < DEVIATION_GATE, (
        f"adaptive sweep deviates {deviation:.3e} V from the fixed-grid "
        f"golden; see {BENCH_PATH}"
    )
    assert adaptive_steps <= STEP_RATIO_CEILING * fixed_steps, (
        f"adaptive long-window sweep took {adaptive_steps} steps against "
        f"{fixed_steps} fixed ({adaptive_steps / fixed_steps:.3f}x, ceiling "
        f"{STEP_RATIO_CEILING}x); see {BENCH_PATH}"
    )
