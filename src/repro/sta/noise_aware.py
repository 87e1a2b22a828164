"""Noise-aware timing propagation — "efficient propagation of equivalent
waveforms throughout the circuit" (the paper's stated goal).

A :class:`NoisyStage` is one victim segment: a driver cell, a coupled RC
line with aggressors, and the receiving cell.  :func:`propagate_path`
walks a chain of such stages.  At each coupled stage it

1. simulates the stage circuit driven by the *equivalent ramp* carried in
   from the previous stage (the STA abstraction — only arrival/slew/shape
   summary crosses stage boundaries),
2. extracts the noisy waveform at the receiver input,
3. collapses it back to a new equivalent ramp with the chosen technique
   (SGDP by default), and
4. hands that ramp to the next stage.

A full-waveform reference mode propagates the actual simulated waveform
instead, so the per-stage and accumulated abstraction error of any
technique can be measured — the multi-stage generalisation of Table 1.

Simulation strategy
-------------------
The noisy stage and its quiet-aggressor (noiseless) reference are
submitted together through the execution layer
(:func:`repro.exec.run_jobs`, honouring the shared
:class:`~repro.exec.ExecutionConfig`); stages without aggressors share a
topology with their reference and advance through one stacked Newton
loop, and a configured result store memoises every stage simulation
across runs.  Technique mode re-times the receiver from the equivalent
ramp on Table 1's gate harness (:class:`~repro.core.propagation.GateFixture`).

The quiet reference depends only on the stage configuration and the
incoming stimulus — not on the aggressor alignment — so it is memoised in
a :class:`QuietReferenceCache` keyed on ``(quiet stage, stimulus record,
window end, dt)``.  Re-propagating the same path (for another technique,
another aggressor alignment, or a reference run) re-simulates each
distinct quiet reference exactly once; the cache is shared module-wide by
default and can be passed explicitly.  :func:`quiet_cache_stats` reports
its ``hits``/``misses``/``size`` and :func:`clear_quiet_cache` empties it;
both cover this cache only, since the result store and the solver totals
report through :mod:`repro.exec`.

Slew fallback policy
--------------------
A partial-swing receiver output has no 10–90 slew; the equivalent ramp
handed to the next stage then needs a substitute value.  That policy is
explicit: ``propagate_path(..., slew_fallback=...)`` gives the substitute
(default 100 ps, the historical behaviour), ``slew_fallback=None`` raises
instead.  Every substitution is recorded on the returned
:class:`StageTiming` (``output_slew_substituted`` /
``retime_slew_substituted``).
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field, replace

from .._util import require
from ..circuit.netlist import Circuit
from ..circuit.sources import RampSource
from ..circuit.transient import TransientJob, TransientOptions
from ..core.ramp import SaturatedRamp
from ..exec import ExecutionConfig, run_jobs
from ..core.techniques import PropagationInputs, Technique
from ..core.techniques.sgdp import Sgdp
from ..core.waveform import Waveform
from ..interconnect.coupling import CouplingSpec, add_coupled_lines
from ..interconnect.rcline import RcLineSpec
from ..library.cells import InverterCell

__all__ = [
    "AggressorSpec",
    "NoisyStage",
    "StageTiming",
    "propagate_path",
    "QuietReferenceCache",
    "clear_quiet_cache",
    "quiet_cache_stats",
]


@dataclass(frozen=True)
class AggressorSpec:
    """One aggressor coupled to a stage's victim line.

    Attributes
    ----------
    coupling:
        Total coupling capacitance to the victim line (farads).
    transition_start:
        Absolute start time of the aggressor driver-input ramp.
    rising:
        Direction of the aggressor *line* transition.
    slew:
        Aggressor primary-input slew.
    driver:
        Aggressor driver cell.
    """

    coupling: float
    transition_start: float
    rising: bool
    slew: float
    driver: InverterCell


@dataclass(frozen=True)
class NoisyStage:
    """One victim stage: driver → coupled line → receiver.

    The receiver of stage *k* is the driver of stage *k+1* in
    :func:`propagate_path`; the last stage's receiver output is the path
    endpoint.
    """

    driver: InverterCell
    line: RcLineSpec
    receiver: InverterCell
    aggressors: tuple[AggressorSpec, ...] = ()
    receiver_load: float = 10e-15


@dataclass(frozen=True)
class StageTiming:
    """Result of propagating through one stage.

    Attributes
    ----------
    ramp:
        Equivalent ramp at the receiver *output* handed to the next stage
        (technique mode) — or the fitted summary of the actual waveform
        (reference mode).
    v_receiver_in / v_receiver_out:
        Simulated waveforms at the receiver input (far end of the line)
        and output.
    output_arrival:
        Latest 0.5·Vdd crossing of the receiver output.
    output_slew:
        Receiver output 10–90% transition time (NaN for partial swings).
    output_slew_substituted:
        True when ``output_slew`` was NaN and ``ramp`` was built with the
        ``slew_fallback`` substitute instead.
    retime_slew_substituted:
        True when the re-timed receiver output (technique mode) had no
        measurable slew and the fallback was substituted for the next
        stage's stimulus.
    """

    ramp: SaturatedRamp
    v_receiver_in: Waveform
    v_receiver_out: Waveform
    output_arrival: float
    output_slew: float
    output_slew_substituted: bool = False
    retime_slew_substituted: bool = False


class QuietReferenceCache:
    """Memoised quiet-aggressor reference simulations.

    Maps ``(quiet stage, stimulus waveform, window end, dt)`` to the
    simulated ``(far-end, receiver-output)`` waveform pair.  A bounded
    FIFO keeps memory flat on long sweeps; ``hits``/``misses`` expose the
    behaviour to tests and benchmarks.
    """

    def __init__(self, maxsize: int = 64):
        require(maxsize >= 1, "cache needs at least one slot")
        self.maxsize = maxsize
        self._data: "OrderedDict[tuple, tuple[Waveform, Waveform]]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def lookup(self, key: tuple) -> tuple[Waveform, Waveform] | None:
        """The cached waveform pair, or ``None`` (counted as a miss)."""
        pair = self._data.get(key)
        if pair is None:
            self.misses += 1
            return None
        self.hits += 1
        return pair

    def store(self, key: tuple, pair: tuple[Waveform, Waveform]) -> None:
        """Insert a simulated pair, evicting the oldest entry when full."""
        if key not in self._data and len(self._data) >= self.maxsize:
            self._data.popitem(last=False)
        self._data[key] = pair

    def clear(self) -> None:
        """Drop all entries and reset the hit/miss counters."""
        self._data.clear()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._data)


#: Module-wide cache shared by all :func:`propagate_path` calls.
_QUIET_CACHE = QuietReferenceCache()


def clear_quiet_cache() -> None:
    """Empty the module-wide quiet-reference cache and zero its counters
    (this cache only: the store and solver totals live in :mod:`repro.exec`)."""
    _QUIET_CACHE.clear()


def quiet_cache_stats() -> dict:
    """``hits``/``misses``/``size`` of the module-wide quiet-reference cache
    (store and solver totals report through :mod:`repro.exec`)."""
    return {"hits": _QUIET_CACHE.hits, "misses": _QUIET_CACHE.misses,
            "size": len(_QUIET_CACHE)}


def _stage_job(stage: NoisyStage, wave_in: Waveform, t_stop: float,
               dt: float, options: TransientOptions) -> TransientJob:
    """The stage netlist with ``wave_in`` forced at the driver input,
    seeded with logic-consistent pre-transition node voltages for fast DC
    solves.  The line's far end is node ``far``, the receiver output
    ``out``."""
    vdd = stage.driver.vdd
    circuit = Circuit("stage")
    circuit.vsource("Vdd", "vdd", "0", vdd)
    stage.driver.instantiate(circuit, "drv", "in", "near", "vdd")

    terminals = [("near", "far")]
    specs = [stage.line]
    couplings = []
    for k, agg in enumerate(stage.aggressors):
        a_in, a_near, a_far = f"a{k}_in", f"a{k}_near", f"a{k}_far"
        v_from, v_to = (vdd, 0.0) if agg.rising else (0.0, vdd)
        circuit.vsource(f"Va{k}", a_in, "0",
                        RampSource(agg.transition_start, agg.slew, v_from, v_to))
        agg.driver.instantiate(circuit, f"adrv{k}", a_in, a_near, "vdd")
        circuit.capacitor(f"acl{k}", a_far, "0", 5e-15)
        terminals.append((a_near, a_far))
        specs.append(stage.line)
        couplings.append(CouplingSpec(line_a=0, line_b=k + 1, total_cm=agg.coupling))
    add_coupled_lines(circuit, "net", terminals, specs, couplings)

    stage.receiver.instantiate(circuit, "recv", "far", "out", "vdd")
    if stage.receiver_load > 0:
        circuit.capacitor("cl", "out", "0", stage.receiver_load)
    circuit.vsource("Vin", "in", "0", wave_in)

    level = wave_in.v_initial
    near = vdd - level if level in (0.0, vdd) else vdd / 2
    initial = {"in": level, "near": near, "far": near,
               "out": vdd - near, "vdd": vdd}
    for k, agg in enumerate(stage.aggressors):
        a_from = vdd if agg.rising else 0.0
        initial[f"a{k}_in"] = a_from
        initial[f"a{k}_near"] = initial[f"a{k}_far"] = vdd - a_from
    return TransientJob(circuit, t_stop=t_stop, dt=dt, t_start=wave_in.t_start,
                        initial_voltages=initial, options=options)


def _slew_or_fallback(slew: float, fallback: float | None,
                      context: str) -> tuple[float, bool]:
    """Apply the explicit slew-substitution policy.

    Returns ``(usable slew, substituted?)``; raises :class:`ValueError`
    when the slew is NaN (partial swing) and no fallback is allowed.
    """
    if not math.isnan(slew):
        return slew, False
    if fallback is None:
        raise ValueError(
            f"{context}: output transition has no measurable 10-90 slew "
            f"(partial swing) and slew_fallback is None"
        )
    return fallback, True


def propagate_path(
    stages: list[NoisyStage],
    input_ramp: SaturatedRamp,
    technique: Technique | None = None,
    dt: float = 2e-12,
    settle_margin: float = 800e-12,
    full_waveform: bool = False,
    slew_fallback: float | None = 100e-12,
    quiet_cache: QuietReferenceCache | None = None,
    solver_backend: str = "auto",
    execution: ExecutionConfig | None = None,
    window_end: float | None = None,
) -> list[StageTiming]:
    """Propagate timing through a chain of (possibly coupled) stages.

    Parameters
    ----------
    stages:
        The victim path, driver side first.
    input_ramp:
        Equivalent waveform at the first driver input.
    technique:
        Equivalent-waveform technique used at stage boundaries (default
        SGDP).  Ignored in ``full_waveform`` mode.
    dt:
        Simulation step.
    settle_margin:
        Extra simulated time past the stimulus end.
    full_waveform:
        ``True`` propagates the actual simulated waveform between stages
        (reference mode) instead of the equivalent ramp.
    slew_fallback:
        Substitute slew (seconds) when a receiver output has no
        measurable 10–90 transition (partial swing).  ``None`` raises
        :class:`ValueError` instead of substituting.  Substitutions are
        recorded on the returned :class:`StageTiming` entries.
    quiet_cache:
        Cache of quiet-reference simulations; defaults to the module-wide
        instance, so repeated propagation over the same stage
        configuration and stimulus simulates the noiseless reference
        exactly once.
    solver_backend:
        Linear-solver backend request for the stage simulations
        (``TransientOptions.backend``); every backend produces
        equivalent waveforms, so cached quiet references remain valid
        across backend choices.
    execution:
        Execution-layer configuration for the stage simulations; with a
        result store, re-propagating a path (another technique, another
        run) re-simulates nothing that was already solved.  ``None``
        uses the environment defaults.
    window_end:
        Optional floor on every stage's simulation-window end.  The
        window normally tracks the stimulus and aggressor alignments —
        which makes the quiet-reference cache/store key depend on them.
        A Monte-Carlo sweep that jitters alignments pins ``window_end``
        to a common value covering all samples, so the quiet reference
        (and its store entry) is shared across the whole sweep.

    Returns
    -------
    list[StageTiming]
        One entry per stage, in path order.
    """
    from ..core.propagation import GateFixture  # keeps it out of `import repro.sta`

    require(len(stages) >= 1, "need at least one stage")
    tech = technique or Sgdp()
    sim_opts = TransientOptions(backend=solver_backend)
    cache = quiet_cache if quiet_cache is not None else _QUIET_CACHE
    results: list[StageTiming] = []
    stimulus: "Waveform | SaturatedRamp" = input_ramp

    for stage_index, stage in enumerate(stages):
        vdd = stage.driver.vdd
        if isinstance(stimulus, SaturatedRamp):
            t0 = stimulus.t_begin - 100e-12
            t1 = stimulus.t_finish + settle_margin
            wave_in = stimulus.to_waveform(t0, t1)
        else:
            wave_in = stimulus
            t1 = wave_in.t_end

        # The aggressor windows may extend past the victim stimulus.
        for agg in stage.aggressors:
            t1 = max(t1, agg.transition_start + agg.slew / 0.8 + settle_margin)
        if window_end is not None:
            t1 = max(t1, window_end)

        if wave_in.t_end < t1:
            wave_in = Waveform(list(wave_in.times) + [t1],
                               list(wave_in.values) + [wave_in.v_final])
        jobs = [_stage_job(stage, wave_in, t1, dt, sim_opts)]

        # Noiseless reference for the receiver: same stage, quiet
        # aggressors — memoised per (stage config, stimulus, window, dt).
        quiet = replace(stage, aggressors=())
        # The solver backend deliberately does not key the entry.
        quiet_key = (quiet, wave_in, t1, dt)
        quiet_pair = cache.lookup(quiet_key)
        if quiet_pair is None:
            jobs.append(_stage_job(quiet, wave_in, t1, dt, sim_opts))

        # Aggressor-free stages share a topology with their quiet
        # reference, so this advances both through one stacked solve.
        sims = run_jobs(jobs, execution)
        v_far, v_out = sims[0].waveform("far"), sims[0].waveform("out")
        if quiet_pair is None:
            quiet_pair = (sims[1].waveform("far"), sims[1].waveform("out"))
            cache.store(quiet_key, quiet_pair)

        inputs = PropagationInputs(
            v_in_noisy=v_far, vdd=vdd,
            v_in_noiseless=quiet_pair[0],
            v_out_noiseless=quiet_pair[1],
        )
        gamma_in = tech.equivalent_waveform(inputs)

        arrival = v_out.arrival_time(vdd, which="last")
        try:
            out_slew = v_out.slew(vdd)
        except ValueError:
            out_slew = float("nan")
        ramp_slew, out_substituted = _slew_or_fallback(
            out_slew, slew_fallback, f"stage {stage_index} receiver output")
        out_rising = v_out.polarity() == "rising"
        # Summary of the receiver *output* as (arrival, slew) — what a
        # conventional STA would carry across the stage boundary.
        out_ramp = SaturatedRamp.from_arrival_slew(
            arrival=arrival, slew=ramp_slew, vdd=vdd, rising=out_rising)

        retime_substituted = False
        if full_waveform:
            stimulus = v_out
        else:
            # Re-time the receiver from the equivalent input waveform: the
            # next stage sees only the abstraction, as a real STA would.
            retime = GateFixture(stage.receiver, extra_load=stage.receiver_load,
                                 dt=dt, solver_backend=solver_backend)
            window = (min(gamma_in.t_begin - 100e-12, wave_in.t_start),
                      max(gamma_in.t_finish + settle_margin, t1))
            re_out = retime.measure(run_jobs(
                [retime.transient_job(gamma_in, window)], execution)[0])
            slw, retime_substituted = _slew_or_fallback(
                re_out.output_slew, slew_fallback,
                f"stage {stage_index} re-timed output")
            stimulus = SaturatedRamp.from_arrival_slew(
                arrival=re_out.output_arrival, slew=slw, vdd=vdd,
                rising=re_out.v_out.polarity() == "rising")

        results.append(StageTiming(
            ramp=out_ramp,
            v_receiver_in=v_far,
            v_receiver_out=v_out,
            output_arrival=arrival,
            output_slew=out_slew,
            output_slew_substituted=out_substituted,
            retime_slew_substituted=retime_substituted,
        ))
    return results
