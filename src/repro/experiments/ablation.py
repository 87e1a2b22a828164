"""Ablation studies backing the paper's design-choice claims.

* **Sampling count P** (§4.2): "small P tends to result in lower timing
  analysis accuracy" — sweep SGDP's accuracy against P.
* **Causal mask** (this reproduction's documented deviation, README
  "Deviations from the paper"): quantify SGDP with and without the
  output-settling mask.
* **Alignment granularity**: how coarse an aggressor-alignment sweep may
  be before the worst-case delay push-out is underestimated — the
  implicit experimental-design question behind "200 cases in 1 ns".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._util import require
from ..core.propagation import finish_evaluation, prepare_evaluation
from ..core.techniques import PropagationInputs
from ..core.techniques.sgdp import Sgdp
from ..core.metrics import ErrorStats, error_stats
from ..exec import ExecutionConfig, run_jobs
from .noise_injection import SweepTiming, alignment_offsets, run_noise_cases
from .setup import CONFIG_I, CrosstalkConfig, receiver_fixture

__all__ = ["SamplingAblationRow", "sampling_ablation", "causal_mask_ablation",
           "alignment_ablation"]


@dataclass(frozen=True)
class SamplingAblationRow:
    """SGDP accuracy at one sampling count P."""

    n_samples: int
    stats: ErrorStats


def _alignment_sweep(config: CrosstalkConfig, n_cases: int,
                     timing: SweepTiming,
                     execution: ExecutionConfig | None):
    """The shared noise sweep of an ablation: one batched submission."""
    offsets_list = [tuple(base for _ in range(config.n_aggressors))
                    for base in alignment_offsets(n_cases, timing.window)]
    return run_noise_cases(config, offsets_list, timing,
                           include_noiseless=True, execution=execution)


def _sgdp_errors(config: CrosstalkConfig, sgdp: Sgdp, ref, cases,
                 n_samples: int, timing: SweepTiming,
                 execution: ExecutionConfig | None = None) -> ErrorStats:
    """Delay-error statistics of one SGDP variant over precomputed cases.

    All cases' golden + SGDP re-simulations form one execution-layer
    submission (the :func:`~repro.core.propagation.prepare_evaluation` /
    ``finish_evaluation`` pattern), so they shard with ``workers > 1``
    instead of trickling through 2-job-at-a-time calls.
    """
    fixture = receiver_fixture(config, dt=timing.dt)
    plans = []
    jobs = []
    for case in cases:
        inputs = PropagationInputs(
            v_in_noisy=case.v_in_noisy, vdd=config.vdd,
            v_in_noiseless=ref.v_in, v_out_noiseless=ref.v_out,
            n_samples=n_samples,
        )
        plan = prepare_evaluation(fixture, inputs, [sgdp])
        plans.append(plan)
        jobs.extend(plan.jobs)
    sims = run_jobs(jobs, execution)
    errors: list[float | None] = []
    cursor = 0
    for plan in plans:
        _, results = finish_evaluation(plan, sims[cursor:cursor + plan.n_jobs])
        cursor += plan.n_jobs
        errors.append(results["SGDP"].delay_error)
    return error_stats(errors)


def sampling_ablation(
    sample_counts: tuple[int, ...] = (5, 9, 17, 35, 69),
    config: CrosstalkConfig = CONFIG_I,
    n_cases: int = 9,
    timing: SweepTiming | None = None,
    execution: ExecutionConfig | None = None,
) -> list[SamplingAblationRow]:
    """SGDP accuracy versus the sampling count P (§4.2's claim).

    The alignment sweep does not depend on P, so it is simulated once
    and shared by every row; each row re-runs only its own golden+SGDP
    fixture evaluations (the equivalent ramp depends on P).
    """
    require(len(sample_counts) >= 2, "sweep at least two sample counts")
    timing = timing or SweepTiming()
    ref, cases = _alignment_sweep(config, n_cases, timing, execution)
    rows = []
    for p in sample_counts:
        stats = _sgdp_errors(config, Sgdp(), ref, cases, p, timing, execution)
        rows.append(SamplingAblationRow(n_samples=p, stats=stats))
    return rows


def causal_mask_ablation(
    config: CrosstalkConfig = CONFIG_I,
    n_cases: int = 9,
    timing: SweepTiming | None = None,
    execution: ExecutionConfig | None = None,
) -> dict[str, ErrorStats]:
    """SGDP with the causal ρ_eff mask versus the paper-literal remap.

    The mask matters in the strong-glitch regime this testbench produces
    (crosstalk sags after the output has switched); see README
    "Deviations from the paper".
    Both variants score the same simulated sweep (computed once).
    """
    timing = timing or SweepTiming()
    ref, cases = _alignment_sweep(config, n_cases, timing, execution)
    return {
        "causal-mask": _sgdp_errors(config, Sgdp(causal_mask=True), ref, cases,
                                    35, timing, execution),
        "paper-literal": _sgdp_errors(config, Sgdp(causal_mask=False), ref,
                                      cases, 35, timing, execution),
    }


def alignment_ablation(
    granularities: tuple[int, ...] = (5, 9, 17, 33),
    config: CrosstalkConfig = CONFIG_I,
    timing: SweepTiming | None = None,
    execution: ExecutionConfig | None = None,
) -> dict[int, float]:
    """Worst-case golden delay push-out found at each sweep density.

    Returns granularity → worst push-out (seconds) of the golden receiver
    output arrival relative to the noiseless arrival.  Coarse sweeps can
    miss the worst alignment; the finest granularity is the reference.

    The union of all granularities' distinct alignments is simulated as
    one submission through the execution layer (duplicate alignments
    across densities are computed once, as before).
    """
    timing = timing or SweepTiming()
    per_density = {
        n: [round(float(base), 15) for base in alignment_offsets(n, timing.window)]
        for n in granularities
    }
    unique: list[float] = []
    seen: set[float] = set()
    for n in granularities:
        for key in per_density[n]:
            if key not in seen:
                seen.add(key)
                unique.append(key)

    offsets_list = [tuple(base for _ in range(config.n_aggressors))
                    for base in unique]
    ref, cases = run_noise_cases(config, offsets_list, timing,
                                 include_noiseless=True, execution=execution)
    arrival = {key: case.golden_output_arrival
               for key, case in zip(unique, cases)}
    # Push-outs floor at zero, as in the per-case loop this replaces.
    return {
        n: max([0.0] + [arrival[key] - ref.output_arrival
                        for key in per_density[n]])
        for n in per_density
    }
