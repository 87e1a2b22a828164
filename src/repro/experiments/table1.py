"""Table 1 reproduction: accuracy comparison of all techniques.

For each configuration the harness sweeps aggressor alignments over a
1 ns window (§4.1: 200 noise-injection timing cases), runs the full
coupled circuit for the golden reference, applies every technique to the
noisy waveform at the victim far end, re-simulates the receiver with each
Γ_eff, and aggregates the gate-delay errors into the paper's Max / Avg
columns.

Both aggressor switching directions are swept by default (``polarity=
"both"``): opposing transitions inject slow-down noise, same-direction
transitions speed-up noise — each stresses different techniques (P2/E4
are pessimistic on slow-down glitches; P1/WLS5 misjudge sped-up
transitions).  The paper does not state its aggressor direction policy;
a single-direction sweep is available via ``polarity="opposing"`` /
``"same"``.

The case count defaults to the ``REPRO_CASES`` environment variable
(falling back to 24 for tractable CI runs); set ``REPRO_CASES=200`` to
match the paper's sweep density.

The sweep is batched end to end with the *widest possible front*: the
coupled-circuit noise cases of **every polarity of every configuration**
(plus the quiet-aggressor references) form one submission to the
execution layer, and all cases' golden-plus-techniques fixture
re-simulations form a second — so a multi-worker
:class:`~repro.exec.ExecutionConfig` shards the whole workload in two
passes, and a warm result store satisfies it without a single transient
solve.  :func:`run_table1_many` exposes the multi-configuration front
directly.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import asdict, dataclass, replace

from .._knobs import knob
from .._util import require
from ..core.metrics import ErrorStats, error_stats, format_ps
from ..core.propagation import finish_evaluation, prepare_evaluation
from ..core.techniques import PropagationInputs, Technique, all_techniques
from ..exec import ExecutionConfig, journal_for, run_jobs
from .noise_injection import (SweepTiming, alignment_offsets,
                              finish_noise_sweep, prepare_noise_sweep)
from .setup import CrosstalkConfig, receiver_fixture

__all__ = ["Table1Row", "Table1Result", "run_table1", "run_table1_many",
           "default_case_count", "PAPER_TABLE1"]

#: The paper's Table 1 numbers (ps), for side-by-side reporting:
#: {technique: {config: (max, avg)}}.
PAPER_TABLE1 = {
    "P1": {"I": (81.3, 29.3), "II": (134.2, 48.5)},
    "P2": {"I": (82.7, 24.5), "II": (144.5, 51.3)},
    "LSF3": {"I": (75.1, 30.9), "II": (110.8, 45.4)},
    "E4": {"I": (82.3, 14.5), "II": (145.3, 33.4)},
    "WLS5": {"I": (42.4, 10.3), "II": (49.3, 17.4)},
    "SGDP": {"I": (38.3, 9.2), "II": (44.5, 14.8)},
}

_POLARITIES = ("both", "opposing", "same")


def default_case_count(fallback: int = 24) -> int:
    """Sweep density: the ``REPRO_CASES`` knob or ``fallback``.

    Declared in :mod:`repro._knobs`; unset, unparseable, and sub-2
    values all resolve to ``fallback``.
    """
    n = knob("REPRO_CASES")
    return fallback if n is None else n


@dataclass(frozen=True)
class Table1Row:
    """One technique's row: delay-error and arrival-error statistics."""

    technique: str
    delay: ErrorStats
    arrival: ErrorStats


@dataclass(frozen=True)
class Table1Result:
    """The full accuracy-comparison table for one configuration."""

    config_name: str
    n_cases: int
    polarity: str
    rows: tuple[Table1Row, ...]

    def row(self, technique: str) -> Table1Row:
        """Row for a technique name."""
        for r in self.rows:
            if r.technique == technique:
                return r
        raise KeyError(technique)

    def format(self, include_paper: bool = True) -> str:
        """Render the paper-style table (plus our extra diagnostics)."""
        lines = [
            f"Table 1 — Configuration {self.config_name} "
            f"({self.n_cases} noise-injection cases, {self.polarity} aggressors)",
            f"{'Method':7s} {'Max(ps)':>8s} {'Avg(ps)':>8s} {'Bias(ps)':>9s} "
            f"{'Fail':>5s}" + ("   paper Max/Avg" if include_paper else ""),
        ]
        for r in self.rows:
            paper = ""
            if include_paper and r.technique in PAPER_TABLE1:
                pm, pa = PAPER_TABLE1[r.technique].get(self.config_name, (None, None))
                if pm is not None:
                    paper = f"   {pm:6.1f}/{pa:5.1f}"
            lines.append(
                f"{r.technique:7s} {format_ps(r.delay.max_abs):>8s} "
                f"{format_ps(r.delay.mean_abs):>8s} "
                f"{r.delay.mean_signed * 1e12:+9.1f} {r.delay.failures:5d}{paper}"
            )
        return "\n".join(lines)


def _result_payload(result: Table1Result) -> dict:
    """A :class:`Table1Result` as a JSON-journalable dict."""
    return {"config_name": result.config_name, "n_cases": result.n_cases,
            "polarity": result.polarity,
            "rows": [{"technique": r.technique, "delay": asdict(r.delay),
                      "arrival": asdict(r.arrival)} for r in result.rows]}


def _result_from_payload(payload: dict) -> Table1Result:
    """Rebuild a journaled :class:`Table1Result` (inverse of
    :func:`_result_payload`; exact — JSON round-trips doubles and NaN)."""
    return Table1Result(
        config_name=payload["config_name"], n_cases=payload["n_cases"],
        polarity=payload["polarity"],
        rows=tuple(Table1Row(technique=r["technique"],
                             delay=ErrorStats(**r["delay"]),
                             arrival=ErrorStats(**r["arrival"]))
                   for r in payload["rows"]))


def run_table1(
    config: CrosstalkConfig,
    n_cases: int | None = None,
    timing: SweepTiming | None = None,
    techniques: list[Technique] | None = None,
    polarity: str = "both",
    progress: bool = False,
    solver_backend: str = "auto",
    adaptive: bool = True,
    execution: ExecutionConfig | None = None,
    journal: "bool | None" = None,
) -> Table1Result:
    """Run the Table 1 sweep for one configuration.

    Parameters
    ----------
    config:
        :data:`~repro.experiments.setup.CONFIG_I` or ``CONFIG_II`` (or a
        custom configuration).
    n_cases:
        Total alignment cases (split evenly across polarities for
        ``polarity="both"``).  Defaults to :func:`default_case_count`.
    timing:
        Sweep timing frame.
    techniques:
        Technique instances; defaults to all six in Table 1 order.
    polarity:
        ``"both"`` (default), ``"opposing"`` or ``"same"`` aggressor
        transition directions.
    progress:
        Announce each batched submission as it starts and print one
        line per case once its results are scored (for long interactive
        runs; per-case lines necessarily follow the batched solves).
    solver_backend:
        Linear-solver backend request (``TransientOptions.backend``)
        applied to every simulation of the sweep — the coupled-circuit
        noise cases and the fixture re-simulations alike.
    adaptive:
        ``False`` runs every simulation of the sweep on the fixed grid
        (``max_step = dt``); the ``tests/test_adaptive_stepping.py``
        harness pins the default strided sweep to the fixed-grid one
        within the LTE tolerance.
    execution:
        Shared execution-layer configuration (workers + result store);
        ``None`` uses the ``REPRO_WORKERS`` / ``REPRO_STORE``
        environment defaults.
    journal:
        Crash-safe resume through the write-ahead run journal
        (:mod:`repro.exec.journal`), one record per completed
        configuration.  ``None`` (default) follows the
        ``REPRO_JOURNAL`` knob; needs a configured result store.

    Returns
    -------
    Table1Result
    """
    return run_table1_many(
        [config], n_cases=n_cases, timing=timing, techniques=techniques,
        polarity=polarity, progress=progress,
        solver_backend=solver_backend, adaptive=adaptive,
        execution=execution, journal=journal)[0]


def run_table1_many(
    configs: Sequence[CrosstalkConfig],
    n_cases: int | None = None,
    timing: SweepTiming | None = None,
    techniques: list[Technique] | None = None,
    polarity: str = "both",
    progress: bool = False,
    solver_backend: str = "auto",
    adaptive: bool = True,
    execution: ExecutionConfig | None = None,
    journal: "bool | None" = None,
) -> list[Table1Result]:
    """Run the Table 1 sweep for several configurations at once.

    The widest batch front of the repo: *all* coupled-circuit noise
    cases — every polarity of every configuration, plus one
    quiet-aggressor reference per (configuration, polarity) — go through
    the execution layer as one submission, and every case's
    golden-plus-techniques fixture re-simulations form a second.  With
    ``workers > 1`` both submissions shard across processes; with a warm
    result store neither performs a single transient solve.

    Parameters are as in :func:`run_table1`.  Returns one
    :class:`Table1Result` per configuration, in order.
    """
    require(polarity in _POLARITIES, f"polarity must be one of {_POLARITIES}")
    require(len(configs) >= 1, "need at least one configuration")
    timing = timing or SweepTiming()
    techs = techniques if techniques is not None else all_techniques()
    n_total = n_cases if n_cases is not None else default_case_count()
    require(n_total >= 2, "need at least two cases")

    jr = journal_for(
        "table1",
        (tuple(configs), int(n_total), timing,
         tuple(t.name for t in techs), polarity,
         str(solver_backend), bool(adaptive)),
        len(configs), execution=execution, enabled=journal)
    if jr is not None:
        # Resumable mode trades the cross-configuration batch front for
        # per-configuration checkpoints: each configuration runs through
        # the plain (journal-less) path below and is recorded on
        # completion, so a killed multi-configuration sweep resumes at
        # the first unfinished configuration.  Per-configuration results
        # are bit-identical either way — sharding never changes results.
        done = jr.completed()
        results: list[Table1Result] = []
        for c_idx, config in enumerate(configs):
            if c_idx in done:
                results.append(_result_from_payload(done[c_idx]))
                continue
            res = run_table1_many(
                [config], n_cases=n_total, timing=timing, techniques=techs,
                polarity=polarity, progress=progress,
                solver_backend=solver_backend, adaptive=adaptive,
                execution=execution, journal=False)[0]
            jr.record(c_idx, _result_payload(res))
            results.append(res)
        jr.finish()
        return results

    if polarity == "both":
        plan_dirs = [("opposing", True), ("same", False)]
        counts = [n_total - n_total // 2, n_total // 2]
    else:
        plan_dirs = [(polarity, polarity == "opposing")]
        counts = [n_total]

    def announce(message):
        # Phase-level liveness for long interactive runs: the per-case
        # lines can only appear after a batched submission returns, so
        # say what each submission contains before it starts.
        if progress:
            print(f"  {message}", flush=True)

    # --- phase 1: every noise case of every (config, polarity) plan ----
    plans = []  # (config index, label, NoiseSweepPlan)
    jobs = []
    for c_idx, config in enumerate(configs):
        for (label, opposing), n_here in zip(plan_dirs, counts):
            cfg = replace(config, aggressors_opposing=opposing)
            offsets_list = [tuple(base for _ in range(cfg.n_aggressors))
                            for base in alignment_offsets(n_here, timing.window)]
            sweep = prepare_noise_sweep(cfg, offsets_list, timing,
                                        include_noiseless=True,
                                        solver_backend=solver_backend,
                                        adaptive=adaptive)
            plans.append((c_idx, label, sweep))
            jobs.extend(sweep.jobs)
    announce(f"simulating {len(jobs)} coupled noise cases "
             f"({len(plans)} sweep plan(s))...")
    sims = run_jobs(jobs, execution)

    # --- phase 2: golden + technique re-simulations for every case -----
    fixtures = [receiver_fixture(config, dt=timing.dt,
                                 solver_backend=solver_backend,
                                 adaptive=adaptive)
                for config in configs]
    eval_plans = []  # (config index, label, case, EvaluationPlan)
    eval_jobs = []
    cursor = 0
    for c_idx, label, sweep in plans:
        ref, cases = finish_noise_sweep(sweep, sims[cursor:cursor + sweep.n_jobs])
        cursor += sweep.n_jobs
        for case in cases:
            inputs = PropagationInputs(
                v_in_noisy=case.v_in_noisy,
                vdd=sweep.config.vdd,
                v_in_noiseless=ref.v_in,
                v_out_noiseless=ref.v_out,
            )
            plan = prepare_evaluation(fixtures[c_idx], inputs, techs)
            eval_plans.append((c_idx, label, case, plan))
            eval_jobs.extend(plan.jobs)
    # The coupled-circuit solution matrices are large at sweep scale and
    # fully consumed (each case keeps only its two waveforms): release
    # them before the second batch solves.
    del sims, jobs
    announce(f"re-simulating {len(eval_jobs)} golden+technique fixtures "
             f"({len(eval_plans)} cases)...")
    eval_sims = run_jobs(eval_jobs, execution)

    # --- scoring -------------------------------------------------------
    order = [t.name for t in techs]
    delay_errors = [{name: [] for name in order} for _ in configs]
    arrival_errors = [{name: [] for name in order} for _ in configs]
    cursor = 0
    for c_idx, label, case, plan in eval_plans:
        _, results = finish_evaluation(plan, eval_sims[cursor:cursor + plan.n_jobs])
        cursor += plan.n_jobs
        for name, ev in results.items():
            delay_errors[c_idx][name].append(ev.delay_error)
            arrival_errors[c_idx][name].append(ev.arrival_error)
        if progress:
            worst = max((abs(e.delay_error or 0.0) for e in results.values()),
                        default=0.0)
            print(f"  config {configs[c_idx].name} {label} offset "
                  f"{case.offsets[0] * 1e12:+6.1f} ps "
                  f"worst |err| {worst * 1e12:6.1f} ps")

    return [
        Table1Result(
            config_name=config.name, n_cases=n_total, polarity=polarity,
            rows=tuple(
                Table1Row(
                    technique=name,
                    delay=error_stats(delay_errors[c_idx][name]),
                    arrival=error_stats(arrival_errors[c_idx][name]),
                )
                for name in order
            ),
        )
        for c_idx, config in enumerate(configs)
    ]
