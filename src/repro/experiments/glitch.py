"""Quiet-victim glitch (functional noise) analysis.

The paper's techniques handle crosstalk on a *switching* victim.  The
complementary SI question — how large a noise pulse the same aggressors
inject into a *quiet* victim, and whether the receiver propagates it — is
what noise-analysis tools check first, and it characterises the strength
of the coupling regime the timing experiments run in.  The paper reports
no glitch heights, so these numbers have no paper counterpart.

:func:`measure_glitch` holds the victim input at its rail, fires the
aggressors, and measures the victim far-end noise pulse and the
receiver-output response.  :func:`glitch_sweep` maps pulse height against
aggressor alignment; :func:`worst_glitch` reports the maximum.  A sweep
(and :func:`measure_glitch`, a sweep of one) is one
:func:`repro.exec.run_jobs` submission.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .._util import require
from ..core.waveform import Waveform
from ..exec import run_jobs
from .noise_injection import SweepTiming, _bench_job, alignment_offsets
from .setup import CrosstalkConfig, build_testbench

__all__ = ["GlitchMeasurement", "measure_glitch", "glitch_sweep", "worst_glitch"]


@dataclass(frozen=True)
class GlitchMeasurement:
    """One quiet-victim noise measurement.

    Attributes
    ----------
    offsets:
        Aggressor start times relative to the sweep's victim reference.
    v_victim / v_receiver_out:
        Waveforms at the victim far end and the receiver output.
    peak_height:
        Largest excursion of the victim far end from its quiet rail
        (volts, positive regardless of direction).
    width_at_half:
        Duration the victim excursion exceeds half its peak (seconds; 0.0
        for vanishing glitches).
    output_disturbance:
        Largest excursion of the receiver output from its quiet rail —
        how much of the glitch the gate propagates.
    """

    offsets: tuple[float, ...]
    v_victim: Waveform
    v_receiver_out: Waveform
    peak_height: float
    width_at_half: float
    output_disturbance: float

    def propagates(self, vdd: float, fraction: float = 0.5) -> bool:
        """True when the receiver output is disturbed past ``fraction·Vdd``
        — the classic functional-noise failure criterion."""
        return self.output_disturbance > fraction * vdd


def _excursion(wave: Waveform, quiet_level: float) -> tuple[float, float]:
    """(peak excursion from quiet level, width at half peak)."""
    dev = np.abs(wave.values - quiet_level)
    peak = float(np.max(dev))
    if peak <= 0.0:
        return 0.0, 0.0
    above = dev >= 0.5 * peak
    if not bool(above.any()):
        return peak, 0.0
    t = wave.times
    idx = np.flatnonzero(above)
    return peak, float(t[idx[-1]] - t[idx[0]])


def _measure_glitches(config: CrosstalkConfig,
                      offsets_list: "list[tuple[float, ...]]",
                      timing: SweepTiming | None,
                      toward_threshold: bool) -> list[GlitchMeasurement]:
    """One quiet-victim glitch per offset tuple, in one submission."""
    timing = timing or SweepTiming()
    if toward_threshold:
        # Victim rests at its pre-transition rail; an aggressor moving in
        # the victim's own transition direction lifts it toward threshold
        # — that is the "same-direction" (non-opposing) configuration.
        config = replace(config, aggressors_opposing=False)
    benches = []
    for offsets in offsets_list:
        require(len(offsets) == config.n_aggressors, "one offset per aggressor")
        benches.append(build_testbench(
            config, victim_start=timing.victim_start,
            aggressor_starts=[timing.victim_start + off for off in offsets],
            aggressor_active=True, victim_active=False))
    results = run_jobs([_bench_job(b, timing) for b in benches])
    quiet = 0.0 if config.victim_line_rising else config.vdd
    out = []
    for offsets, bench, result in zip(offsets_list, benches, results):
        v_victim = result.waveform(bench.nodes.victim_far_end)
        v_out = result.waveform(bench.nodes.receiver_out)
        out.append(GlitchMeasurement(tuple(offsets), v_victim, v_out,
                                     *_excursion(v_victim, quiet),
                                     _excursion(v_out, config.vdd - quiet)[0]))
    return out


def measure_glitch(config: CrosstalkConfig, offsets: tuple[float, ...],
                   timing: SweepTiming | None = None,
                   toward_threshold: bool = True) -> GlitchMeasurement:
    """Fire the aggressors against a quiet victim and measure the noise.

    Parameters
    ----------
    config:
        Testbench configuration (the victim transition direction decides
        which rail the victim rests at: a rising victim rests low).
    offsets:
        Per-aggressor start offsets relative to ``timing.victim_start``.
    toward_threshold:
        ``True`` (default) picks the aggressor transition direction that
        pushes the quiet victim *toward* the switching threshold — the
        dangerous glitch; ``False`` keeps the configuration's direction,
        which for opposing-aggressor configs drives the victim past its
        own rail (an overshoot glitch the receiver ignores).
    """
    return _measure_glitches(config, [offsets], timing, toward_threshold)[0]


def glitch_sweep(config: CrosstalkConfig, n_cases: int,
                 timing: SweepTiming | None = None) -> list[GlitchMeasurement]:
    """Measure the quiet-victim glitch across an aggressor-alignment sweep.

    For a quiet victim the glitch barely depends on absolute alignment
    (nothing else moves), so a modest ``n_cases`` suffices; the sweep
    exists to expose multi-aggressor constructive overlap in Config II.
    """
    timing = timing or SweepTiming()
    offsets_list = [tuple(base for _ in range(config.n_aggressors))
                    for base in alignment_offsets(n_cases, timing.window)]
    return _measure_glitches(config, offsets_list, timing, True)


#: Peaks closer than this (volts) are one peak: the engine's fixed-grid
#: equivalence, within which a stacked and a lone run may differ.
_PEAK_TIE = 1e-9


def worst_glitch(measurements: list[GlitchMeasurement]) -> GlitchMeasurement:
    """The measurement with the largest victim-side peak: the first, in
    sweep order, within :data:`_PEAK_TIE` of the maximum, so peaks that
    tie to rounding do not pick by their last bits."""
    require(len(measurements) > 0, "no measurements")
    top = max(m.peak_height for m in measurements)
    return next(m for m in measurements if m.peak_height >= top - _PEAK_TIE)
