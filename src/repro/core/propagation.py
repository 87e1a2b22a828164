"""Gate delay propagation: drive a receiver gate with a waveform or Γ_eff.

This is the evaluation harness of the paper: take the noisy waveform at a
gate input, build each technique's equivalent waveform, apply it to the
gate (receiver plus its realistic downstream load) in the circuit
simulator, and measure the resulting output arrival.  The error of a
technique is the difference between its output arrival and the golden
output arrival obtained by applying the *actual* noisy waveform to the
same gate — exactly the Hspice comparison of Table 1.

All fixture circuits for one evaluation share a topology (only the forced
``Vin`` stimulus differs), so :func:`evaluate_techniques` submits the
golden run and every technique's Γ_eff re-simulation as one batch to
:func:`~repro.circuit.transient.simulate_transient_many` — one stacked
Newton loop instead of ~7 sequential simulations.  Each technique's
simulation window is extended to cover its *own* ramp
(``ramp.t_finish + settle_margin``), so a late/slow equivalent ramp is
never clipped mid-transition by the noisy waveform's window.
"""

from __future__ import annotations

from dataclasses import dataclass
from dataclasses import replace as _dc_replace

from .._util import require
from ..circuit.netlist import Circuit
from ..circuit.transient import (TransientJob, TransientOptions,
                                 TransientResult, simulate_transient_many)
from ..library.cells import InverterCell
from .ramp import SaturatedRamp
from .techniques.base import PropagationInputs, Technique, TechniqueError
from .waveform import Waveform

__all__ = ["GateFixture", "GateOutput", "TechniqueEvaluation",
           "EvaluationPlan", "prepare_evaluation", "finish_evaluation",
           "evaluate_techniques"]


@dataclass(frozen=True)
class GateOutput:
    """Measured response of the fixture to one stimulus.

    Attributes
    ----------
    v_in, v_out:
        Stimulus (as applied) and gate-output waveforms.
    output_arrival:
        Latest 0.5·Vdd crossing of the gate output (absolute time).
    output_slew:
        10–90% output transition time.
    gate_delay:
        Output arrival minus the stimulus' latest 0.5·Vdd crossing — the
        paper's gate-delay measurement.
    """

    v_in: Waveform
    v_out: Waveform
    output_arrival: float
    output_slew: float
    gate_delay: float


@dataclass
class GateFixture:
    """A receiver gate with its downstream load, driven by a forced source.

    The paper's victim receiver is 4INVx loaded by a 16INVx → 64INVx
    fanout chain; :func:`repro.experiments.setup.receiver_fixture` builds
    exactly that.  ``chain`` gates are real transistor-level stages so the
    receiver sees a nonlinear, Miller-coupled load, not a lumped cap.

    Attributes
    ----------
    cell:
        The gate under test (input pin forced by the stimulus).
    chain:
        Downstream inverter stages loading the gate output, in order.
    extra_load:
        Additional lumped capacitance at the gate output (farads).
    dt:
        Simulation time step.
    settle_margin:
        Extra simulated time after the stimulus ends.
    solver_backend:
        Linear-solver backend request for the fixture simulations
        (``TransientOptions.backend``): ``"auto"``, ``"dense"``,
        ``"sparse"`` or ``"banded"``.
    adaptive:
        ``True`` (default) lets the fixture simulations grow their
        strides; ``False`` runs them on the fixed grid (``max_step =
        dt``).
    """

    cell: InverterCell
    chain: tuple[InverterCell, ...] = ()
    extra_load: float = 0.0
    dt: float = 1e-12
    settle_margin: float = 500e-12
    solver_backend: str = "auto"
    adaptive: bool = True

    def _build(self, stimulus: Waveform) -> tuple[Circuit, dict[str, float]]:
        vdd = self.cell.vdd
        circuit = Circuit(f"fixture.{self.cell.name}")
        circuit.vsource("Vdd", "vdd", "0", vdd)
        circuit.vsource("Vin", "in", "0", stimulus)
        self.cell.instantiate(circuit, "dut", "in", "out", "vdd")
        if self.extra_load > 0:
            circuit.capacitor("CL", "out", "0", self.extra_load)
        prev = "out"
        for k, stage in enumerate(self.chain):
            nxt = f"w{k + 1}"
            stage.instantiate(circuit, f"chain{k + 1}", prev, nxt, "vdd")
            prev = nxt
        # Logic-consistent initial state for fast DC convergence.
        level = stimulus.v_initial
        initial = {"in": level, "vdd": vdd}
        node = "out"
        for k in range(len(self.chain) + 1):
            level = 0.0 if level > vdd / 2 else vdd  # each stage inverts
            initial[node] = level
            node = f"w{k + 1}"
        return circuit, initial

    def transient_job(self, stimulus: "Waveform | SaturatedRamp",
                      t_window: tuple[float, float] | None = None) -> TransientJob:
        """Prepare the simulation job for one stimulus (without running it).

        Ramps are sampled over ``t_window``; waveform records that end
        before the window are extended with their settled value.  Jobs
        built from the same fixture share a topology, so a list of them
        batches through
        :func:`~repro.circuit.transient.simulate_transient_many`.
        """
        if isinstance(stimulus, SaturatedRamp):
            if t_window is None:
                t_window = (stimulus.t_begin - 100e-12,
                            stimulus.t_finish + self.settle_margin)
            wave = stimulus.to_waveform(t_window[0], t_window[1])
        else:
            wave = stimulus
            if t_window is None:
                t_window = (wave.t_start, wave.t_end + self.settle_margin)
            if t_window[1] > wave.t_end:
                # Extend the record with its settled value.
                wave = Waveform(
                    list(wave.times) + [t_window[1]],
                    list(wave.values) + [wave.v_final],
                )
        require(t_window[1] > t_window[0], "empty simulation window")

        circuit, initial = self._build(wave)
        return TransientJob(circuit=circuit, t_stop=t_window[1], dt=self.dt,
                            t_start=t_window[0], initial_voltages=initial,
                            options=TransientOptions(
                                backend=self.solver_backend,
                                max_step=0.0 if self.adaptive else self.dt))

    def measure(self, result: TransientResult) -> GateOutput:
        """Extract the :class:`GateOutput` measurements from a simulation."""
        vdd = self.cell.vdd
        v_out = result.waveform("out")
        v_in = result.waveform("in")
        arrival = v_out.arrival_time(vdd, which="last")
        try:
            out_slew = v_out.slew(vdd)
        except ValueError:
            # Partial swings (pathological stimuli) have no 10-90 slew.
            out_slew = float("nan")
        return GateOutput(
            v_in=v_in,
            v_out=v_out,
            output_arrival=arrival,
            output_slew=out_slew,
            gate_delay=arrival - v_in.arrival_time(vdd, which="last"),
        )

    def response(self, stimulus: "Waveform | SaturatedRamp",
                 t_window: tuple[float, float] | None = None) -> GateOutput:
        """Simulate the fixture driven by ``stimulus`` and measure the output.

        Parameters
        ----------
        stimulus:
            A sampled waveform or an equivalent ramp.  Ramps are sampled
            over ``t_window`` (required for ramps unless their transition
            fixes a natural window).
        t_window:
            Absolute simulation window.  Defaults to the waveform's span
            plus the settle margin.
        """
        return self.measure(self.transient_job(stimulus, t_window).run())


@dataclass(frozen=True)
class TechniqueEvaluation:
    """Outcome of one technique on one noisy waveform.

    Two signed error metrics are recorded (positive = pessimistic):

    * ``delay_error`` — the paper's Table 1 metric: the technique's gate
      delay (output 0.5·Vdd crossing minus *its own* Γ_eff 0.5·Vdd
      crossing) minus the golden gate delay (golden output crossing minus
      the *noisy waveform's* latest 0.5·Vdd crossing).  Each gate delay is
      referenced to its own input representation, isolating the gate
      *propagation* error — §4.1: "the gate delay was calculated as the
      difference between the 0.5Vdd crossing points of the input and
      output waveforms".
    * ``arrival_error`` — absolute output-arrival difference on the shared
      time axis; this additionally charges the technique for misplacing
      the input arrival itself.

    ``failed`` carries the error message when the technique was not
    applicable.
    """

    technique: str
    ramp: SaturatedRamp | None
    output: GateOutput | None
    arrival_error: float | None
    delay_error: float | None = None
    failed: str | None = None


@dataclass
class EvaluationPlan:
    """The prepared (but not yet simulated) half of a technique evaluation.

    :func:`prepare_evaluation` builds every simulation job one scoring
    needs — the golden run (unless supplied) plus one re-simulation per
    applicable technique — without running anything.  Callers that score
    many noisy waveforms (e.g. the Table 1 sweep) concatenate the
    ``jobs`` of all their plans into one submission to the execution
    layer, then hand each plan its slice of the results via
    :func:`finish_evaluation`; ``evaluate_techniques`` is the
    one-evaluation convenience wrapper around the same pair.
    """

    fixture: GateFixture
    inputs: PropagationInputs
    jobs: list[TransientJob]
    evaluable: list[tuple[Technique, SaturatedRamp]]
    failed: dict[str, TechniqueEvaluation]
    golden: GateOutput | None

    @property
    def n_jobs(self) -> int:
        """Number of simulation results :func:`finish_evaluation` expects."""
        return len(self.jobs)


def prepare_evaluation(
    fixture: GateFixture,
    inputs: PropagationInputs,
    techniques: list[Technique],
    golden: GateOutput | None = None,
) -> EvaluationPlan:
    """Build the simulation jobs of one technique evaluation.

    Techniques whose equivalent-waveform construction fails are recorded
    as failures immediately; the rest contribute one fixture job each,
    after the golden job (present only when ``golden`` is omitted).
    """
    base_window = (inputs.v_in_noisy.t_start,
                   inputs.v_in_noisy.t_end + fixture.settle_margin)
    failed: dict[str, TechniqueEvaluation] = {}
    evaluable: list[tuple[Technique, SaturatedRamp]] = []
    jobs: list[TransientJob] = []
    if golden is None:
        jobs.append(fixture.transient_job(
            inputs.v_in_noisy, (inputs.v_in_noisy.t_start, base_window[1])))
    for tech in techniques:
        try:
            ramp = tech.equivalent_waveform(inputs)
            # Cover the technique's own ramp on both sides: an early ramp
            # would otherwise be sampled from mid-transition, a late one
            # clipped before it completes.
            window = (min(base_window[0], ramp.t_begin - 100e-12),
                      max(base_window[1], ramp.t_finish + fixture.settle_margin))
            job = fixture.transient_job(ramp, window)
        except (TechniqueError, ValueError) as exc:
            failed[tech.name] = TechniqueEvaluation(
                technique=tech.name, ramp=None, output=None,
                arrival_error=None, delay_error=None, failed=str(exc),
            )
            continue
        evaluable.append((tech, ramp))
        jobs.append(job)
    return EvaluationPlan(fixture=fixture, inputs=inputs, jobs=jobs,
                          evaluable=evaluable, failed=failed, golden=golden)


def finish_evaluation(
    plan: EvaluationPlan,
    sims: list[TransientResult],
) -> tuple[GateOutput, dict[str, TechniqueEvaluation]]:
    """Score a prepared evaluation from its simulation results.

    ``sims`` must hold one result per ``plan.jobs`` entry, in order.
    """
    require(len(sims) == len(plan.jobs),
            f"evaluation plan expects {len(plan.jobs)} results, got {len(sims)}")
    fixture = plan.fixture
    golden = plan.golden
    results = dict(plan.failed)
    cursor = 0
    if golden is None:
        golden = fixture.measure(sims[0])
        cursor = 1
    for tech, ramp in plan.evaluable:
        sim = sims[cursor]
        cursor += 1
        try:
            out = fixture.measure(sim)
        except ValueError as exc:
            results[tech.name] = TechniqueEvaluation(
                technique=tech.name, ramp=None, output=None,
                arrival_error=None, delay_error=None, failed=str(exc),
            )
            continue
        results[tech.name] = TechniqueEvaluation(
            technique=tech.name,
            ramp=ramp,
            output=out,
            arrival_error=out.output_arrival - golden.output_arrival,
            delay_error=out.gate_delay - golden.gate_delay,
        )
    return golden, results


def evaluate_techniques(
    fixture: GateFixture,
    inputs: PropagationInputs,
    techniques: list[Technique],
    golden: GateOutput | None = None,
    solver_backend: str | None = None,
) -> tuple[GateOutput, dict[str, TechniqueEvaluation]]:
    """Score ``techniques`` on one noisy waveform against the golden gate.

    The golden run and every technique's re-simulation share the fixture
    topology, so :func:`prepare_evaluation` builds them as one batch,
    :func:`~repro.circuit.transient.simulate_transient_many` runs it as a
    single stacked Newton loop and :func:`finish_evaluation` scores it.

    Each technique's window covers its *own* equivalent ramp: sampling a
    late/slow ramp over only the noisy waveform's span would clip it
    mid-transition and measure the "output arrival" on a truncated
    record, so per technique the window is widened to
    ``[min(start, ramp.t_begin - 100 ps), max(end, ramp.t_finish +
    settle_margin)]``.

    Parameters
    ----------
    fixture:
        The receiver gate under evaluation.
    inputs:
        Noisy waveform plus noiseless reference data.
    techniques:
        Technique instances to score.
    golden:
        Pre-computed golden response (the fixture driven by the noisy
        waveform itself); computed here when omitted.
    solver_backend:
        Overrides the fixture's linear-solver backend request for this
        evaluation (``None`` keeps ``fixture.solver_backend``).

    Returns
    -------
    (golden, results):
        The golden response and a name → evaluation map.
    """
    if solver_backend is not None and solver_backend != fixture.solver_backend:
        fixture = _dc_replace(fixture, solver_backend=solver_backend)
    plan = prepare_evaluation(fixture, inputs, techniques, golden=golden)
    return finish_evaluation(plan, simulate_transient_many(plan.jobs))
