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
  (a deterministic count, in place of the wall-clock speedup it stands
  for, which is measured by hand), and
* every node of every case within 1e-6 V of the fixed-grid golden on
  the golden's axis (the same gate `tests/test_adaptive_stepping.py`
  enforces per circuit class).

Both runs pin their stepping mode explicitly, so the gate is stable
under ``REPRO_ADAPTIVE``.  Sweep density follows ``REPRO_CASES``
(default 6 here).
"""

from __future__ import annotations

from repro.exec import ExecutionConfig, run_jobs
from tests.helpers import max_node_deviation
from repro.experiments.noise_injection import SweepTiming, prepare_noise_sweep
from repro.experiments.setup import CONFIG_I
from repro.experiments.table1 import default_case_count
from repro.experiments.noise_injection import alignment_offsets

STEP_RATIO_CEILING = 0.2  # adaptive steps / fixed steps
DEVIATION_GATE = 1e-6  # volts, vs the fixed-grid golden

#: Long-window frame: activity ends ~1.7 ns in, the rest is settled tail.
TIMING = SweepTiming(dt=2e-12, t_stop=16e-9)


def _sweep_jobs(n_cases: int, adaptive: bool):
    offsets_list = [tuple(base for _ in range(CONFIG_I.n_aggressors))
                    for base in alignment_offsets(n_cases, TIMING.window)]
    plan = prepare_noise_sweep(CONFIG_I, offsets_list, TIMING,
                               include_noiseless=True, adaptive=adaptive)
    return list(plan.jobs)


def _run(n_cases: int, adaptive: bool):
    return run_jobs(_sweep_jobs(n_cases, adaptive), ExecutionConfig(workers=1))


def _max_deviation(golden_results, adaptive_results) -> float:
    # Same golden-axis comparison the test-suite harness gates on.
    return max(max_node_deviation(g, a)
               for g, a in zip(golden_results, adaptive_results))


def test_adaptive_speedup_on_long_window_sweep():
    """Adaptive takes ≤0.2x the fixed grid's steps at <1e-6 V deviation."""
    n_cases = default_case_count(fallback=6)

    golden = _run(n_cases, adaptive=False)
    adaptive = _run(n_cases, adaptive=True)

    deviation = _max_deviation(golden, adaptive)
    fixed_steps = sum(len(r.times) - 1 for r in golden)
    adaptive_steps = sum(len(r.times) - 1 for r in adaptive)

    assert deviation < DEVIATION_GATE, (
        f"adaptive sweep deviates {deviation:.3e} V from the fixed-grid "
        f"golden"
    )
    assert adaptive_steps <= STEP_RATIO_CEILING * fixed_steps, (
        f"adaptive long-window sweep took {adaptive_steps} steps against "
        f"{fixed_steps} fixed ({adaptive_steps / fixed_steps:.3f}x, ceiling "
        f"{STEP_RATIO_CEILING}x)"
    )
