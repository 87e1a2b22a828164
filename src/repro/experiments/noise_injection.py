"""Noise-injection sweep driver (§4.1: "200 noise injection timing cases
in a range of 1 ns").

Each *case* picks an aggressor alignment relative to the victim
transition, simulates the full coupled Figure 1 circuit, and records the
noisy waveform at the victim far end (``in_u``) together with the golden
receiver output (``out_u``).  One additional run with quiet aggressors
yields the noiseless reference pair every sensitivity-based technique
needs.

All cases of a sweep share the Figure 1 topology — only the aggressor
source timings differ — so :func:`run_noise_cases` submits the whole
sweep (optionally including the quiet-aggressor reference, whose circuit
differs only in its source functions) as one batch through the execution
layer (:func:`repro.exec.run_jobs`): an
:class:`~repro.exec.ExecutionConfig` decides whether that batch runs
in-process, sharded over worker processes, and/or against the
content-keyed result store.

Every simulation takes the same path: :func:`prepare_noise_sweep`
builds the jobs, :func:`~repro.exec.run_jobs` runs them and
:func:`finish_noise_sweep` extracts the waveforms.  The single-case
drivers (:func:`run_noiseless`, :func:`run_noise_case`,
:func:`iter_noise_cases`) are one-job sweeps on that path, and every
driver takes the shared ``execution`` object (defaulting to the
``REPRO_WORKERS`` / ``REPRO_STORE`` environment configuration) instead
of constructing its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._util import require
from ..circuit.transient import TransientJob, TransientOptions
from ..core.waveform import Waveform
from ..exec import ExecutionConfig, run_jobs
from .setup import CrosstalkConfig, Testbench, build_testbench

__all__ = [
    "SweepTiming",
    "NoiseCase",
    "NoiselessReference",
    "NoiseSweepPlan",
    "alignment_offsets",
    "prepare_noise_sweep",
    "finish_noise_sweep",
    "run_noiseless",
    "run_noise_case",
    "run_noise_cases",
    "iter_noise_cases",
]


@dataclass(frozen=True)
class SweepTiming:
    """Timing frame of the sweep.

    Attributes
    ----------
    victim_start:
        Victim primary-input ramp start (absolute seconds).
    window:
        Width of the aggressor-alignment range (the paper uses 1 ns).
    t_stop:
        Simulation end; must leave room for the latest aggressor bump to
        settle through the receiver.
    dt:
        Simulation step.
    """

    victim_start: float = 0.8e-9
    window: float = 1.0e-9
    t_stop: float = 2.6e-9
    dt: float = 1e-12

    def __post_init__(self) -> None:
        require(self.t_stop > self.victim_start + self.window / 2,
                "simulation window too short for the sweep range")


@dataclass(frozen=True)
class NoiseCase:
    """One noise-injection case: stimulus alignment plus measured waveforms.

    Attributes
    ----------
    offsets:
        Aggressor start times minus the victim start time.
    v_in_noisy / v_out_noisy:
        Victim far-end (``in_u``) and receiver output (``out_u``) from the
        full coupled simulation.
    golden_output_arrival:
        Latest 0.5·Vdd crossing of ``out_u`` — the full-circuit golden.
    """

    offsets: tuple[float, ...]
    v_in_noisy: Waveform
    v_out_noisy: Waveform
    golden_output_arrival: float


@dataclass(frozen=True)
class NoiselessReference:
    """The quiet-aggressor run: the noiseless input/output pair at the gate."""

    v_in: Waveform
    v_out: Waveform
    output_arrival: float


def alignment_offsets(n_cases: int, window: float = 1.0e-9) -> np.ndarray:
    """Uniformly spaced aggressor offsets over ``[-window/2, +window/2]``.

    The paper's 200 cases over a 1 ns range correspond to
    ``alignment_offsets(200)``.
    """
    require(n_cases >= 1, "need at least one case")
    return np.linspace(-window / 2.0, window / 2.0, n_cases)


def run_noiseless(config: CrosstalkConfig, timing: SweepTiming | None = None,
                  solver_backend: str = "auto",
                  execution: ExecutionConfig | None = None) -> NoiselessReference:
    """Simulate the testbench with quiet aggressors.

    A one-job :func:`run_noise_cases` sweep (``include_noiseless=True``,
    no alignment cases); parameters as there.
    """
    ref, _ = run_noise_cases(config, [], timing, include_noiseless=True,
                             solver_backend=solver_backend,
                             execution=execution)
    return ref


def run_noise_case(config: CrosstalkConfig, offsets: tuple[float, ...],
                   timing: SweepTiming | None = None,
                   solver_backend: str = "auto",
                   execution: ExecutionConfig | None = None) -> NoiseCase:
    """Simulate one aggressor alignment.

    A one-case :func:`run_noise_cases` sweep; ``offsets`` holds one
    start-time offset per aggressor relative to the victim start, the
    other parameters are as there (a single simulation still benefits
    from the result store on repeat runs).
    """
    _, cases = run_noise_cases(config, [offsets], timing,
                               solver_backend=solver_backend,
                               execution=execution)
    return cases[0]


def _bench_job(bench: Testbench, timing: SweepTiming,
               solver_backend: str = "auto",
               adaptive: bool = True) -> TransientJob:
    return TransientJob(bench.circuit, t_stop=timing.t_stop, dt=timing.dt,
                        initial_voltages=bench.initial_voltages,
                        options=TransientOptions(
                            backend=solver_backend,
                            max_step=0.0 if adaptive else timing.dt))


def _probe(bench: Testbench, result, vdd: float):
    """Victim far-end and receiver-output waveforms of one simulation,
    plus the output's latest 0.5·Vdd crossing."""
    v_in = result.waveform(bench.nodes.victim_far_end)
    v_out = result.waveform(bench.nodes.receiver_out)
    return v_in, v_out, v_out.arrival_time(vdd, which="last")


@dataclass(frozen=True)
class NoiseSweepPlan:
    """A prepared (not yet simulated) noise-injection sweep.

    Built by :func:`prepare_noise_sweep`; ``jobs`` is what the execution
    layer must run (one result per job, in order) before
    :func:`finish_noise_sweep` extracts the reference and cases.
    Callers that want a wider batch front (e.g.
    :func:`~repro.experiments.table1.run_table1_many`) concatenate the
    ``jobs`` of several plans into one submission and hand each plan its
    slice of the results.
    """

    config: CrosstalkConfig
    offsets_list: tuple[tuple[float, ...], ...]
    include_noiseless: bool
    benches: tuple[Testbench, ...]
    jobs: tuple[TransientJob, ...]

    @property
    def n_jobs(self) -> int:
        """Number of results :func:`finish_noise_sweep` expects."""
        return len(self.jobs)


def prepare_noise_sweep(
    config: CrosstalkConfig,
    offsets_list: "list[tuple[float, ...]]",
    timing: SweepTiming | None = None,
    include_noiseless: bool = False,
    solver_backend: str = "auto",
    adaptive: bool = True,
) -> NoiseSweepPlan:
    """Build the testbenches and jobs of one alignment sweep.

    ``adaptive=False`` runs every job on the fixed grid (``max_step =
    dt``).
    """
    timing = timing or SweepTiming()
    benches: list[Testbench] = []
    if include_noiseless:
        benches.append(build_testbench(
            config, victim_start=timing.victim_start,
            aggressor_starts=[timing.victim_start] * config.n_aggressors,
            aggressor_active=False))
    for offsets in offsets_list:
        require(len(offsets) == config.n_aggressors, "one offset per aggressor")
        starts = [timing.victim_start + off for off in offsets]
        benches.append(build_testbench(config, victim_start=timing.victim_start,
                                       aggressor_starts=starts,
                                       aggressor_active=True))
    return NoiseSweepPlan(
        config=config,
        offsets_list=tuple(tuple(o) for o in offsets_list),
        include_noiseless=include_noiseless,
        benches=tuple(benches),
        jobs=tuple(_bench_job(b, timing, solver_backend, adaptive)
                   for b in benches),
    )


def finish_noise_sweep(
    plan: NoiseSweepPlan, results
) -> tuple[NoiselessReference | None, list[NoiseCase]]:
    """Extract the reference and cases from a prepared sweep's results."""
    require(len(results) == plan.n_jobs,
            f"sweep plan expects {plan.n_jobs} results, got {len(results)}")
    probes = [_probe(bench, result, plan.config.vdd)
              for bench, result in zip(plan.benches, results)]
    ref = NoiselessReference(*probes.pop(0)) if plan.include_noiseless else None
    cases = [NoiseCase(offsets, *probe)
             for offsets, probe in zip(plan.offsets_list, probes)]
    return ref, cases


def run_noise_cases(
    config: CrosstalkConfig,
    offsets_list: "list[tuple[float, ...]]",
    timing: SweepTiming | None = None,
    include_noiseless: bool = False,
    solver_backend: str = "auto",
    adaptive: bool = True,
    execution: ExecutionConfig | None = None,
) -> tuple[NoiselessReference | None, list[NoiseCase]]:
    """Simulate many aggressor alignments through the execution layer.

    All alignment cases (and the optional quiet-aggressor reference)
    share one circuit topology, so they advance through stacked Newton
    loops — sharded over worker processes and/or served from the result
    store as the ``execution`` configuration directs.

    Parameters
    ----------
    config:
        The crosstalk configuration.
    offsets_list:
        One per-aggressor offset tuple per case.
    timing:
        Sweep timing frame.
    include_noiseless:
        Also simulate the quiet-aggressor reference (in the same batch)
        and return it as the first element.
    solver_backend:
        Linear-solver backend request (``TransientOptions.backend``)
        applied to every simulation of the sweep.
    adaptive:
        ``False`` runs every simulation of the sweep on the fixed grid
        (``max_step = dt``).
    execution:
        Shared execution-layer configuration; ``None`` uses the
        ``REPRO_WORKERS`` / ``REPRO_STORE`` environment defaults.

    Returns
    -------
    (noiseless, cases):
        The reference (or ``None``) and one :class:`NoiseCase` per offset
        tuple, in order.
    """
    plan = prepare_noise_sweep(config, offsets_list, timing,
                               include_noiseless=include_noiseless,
                               solver_backend=solver_backend,
                               adaptive=adaptive)
    return finish_noise_sweep(plan, run_jobs(list(plan.jobs), execution))


def iter_noise_cases(config: CrosstalkConfig, n_cases: int,
                     timing: SweepTiming | None = None,
                     stagger: float = 0.0,
                     solver_backend: str = "auto",
                     execution: ExecutionConfig | None = None):
    """Yield :class:`NoiseCase` objects across the alignment sweep.

    With multiple aggressors, all are swept together; ``stagger`` offsets
    aggressor ``k`` by ``k·stagger`` from the first (the paper does not
    specify the multi-aggressor alignment policy — synchronised aggressors
    maximise the injected noise, which is the interesting regime).

    Lazy: one coupled simulation per ``next()``, each a one-case
    :func:`run_noise_case` sweep through the shared ``execution``
    configuration — so a warm result store feeds the iterator for free,
    and consumers that break early never pay for the rest of the sweep.
    Use :func:`run_noise_cases` for the batched/sharded all-at-once
    front.
    """
    timing = timing or SweepTiming()
    for base in alignment_offsets(n_cases, timing.window):
        offsets = tuple(base + k * stagger for k in range(config.n_aggressors))
        yield run_noise_case(config, offsets, timing,
                             solver_backend=solver_backend,
                             execution=execution)
