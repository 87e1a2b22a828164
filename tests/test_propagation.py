"""Tests for GateFixture and the technique-evaluation driver."""

import math

import pytest

from repro.core.propagation import (GateFixture, evaluate_techniques,
                                    finish_evaluation, prepare_evaluation)
from repro.core.ramp import SaturatedRamp
from repro.core.techniques import PropagationInputs, technique_by_name
from repro.exec import ExecutionConfig, ResultStore, set_default_execution
from repro.library.cells import standard_cell

from tests.helpers import VDD, sigmoid_edge


@pytest.fixture(scope="module")
def fixture():
    return GateFixture(cell=standard_cell(4), chain=(standard_cell(16),),
                       dt=4e-12)


class TestGateFixture:
    def test_ramp_stimulus_default_window(self, fixture):
        ramp = SaturatedRamp.from_arrival_slew(0.5e-9, 150e-12, VDD)
        out = fixture.response(ramp)
        assert out.output_arrival > ramp.arrival_time()
        assert out.gate_delay > 0
        assert not math.isnan(out.output_slew)

    def test_waveform_stimulus_extends_settled_tail(self, fixture):
        wave = sigmoid_edge(0.5e-9, 150e-12, t_start=0.0, t_end=0.9e-9)
        out = fixture.response(wave, t_window=(0.0, 1.8e-9))
        # The record is extended with its settled value, so the output
        # completes even though the stimulus record ended early.
        assert out.v_out.v_final == pytest.approx(0.0, abs=0.02)

    def test_falling_stimulus(self, fixture):
        ramp = SaturatedRamp.from_arrival_slew(0.5e-9, 150e-12, VDD, rising=False)
        out = fixture.response(ramp)
        assert out.v_out.v_final == pytest.approx(VDD, abs=0.02)

    def test_extra_load_slows_gate(self):
        light = GateFixture(cell=standard_cell(4), dt=4e-12, extra_load=2e-15)
        heavy = GateFixture(cell=standard_cell(4), dt=4e-12, extra_load=60e-15)
        ramp = SaturatedRamp.from_arrival_slew(0.5e-9, 150e-12, VDD)
        assert heavy.response(ramp).gate_delay > light.response(ramp).gate_delay

    def test_gate_delay_definition(self, fixture):
        ramp = SaturatedRamp.from_arrival_slew(0.5e-9, 150e-12, VDD)
        out = fixture.response(ramp)
        assert out.gate_delay == pytest.approx(
            out.output_arrival - out.v_in.arrival_time(VDD, which="last"),
            abs=1e-15)


class TestEvaluateTechniques:
    def test_records_failures_instead_of_raising(self, fixture):
        # WLS5 without a noiseless reference must surface as `failed`.
        inputs = PropagationInputs(
            v_in_noisy=sigmoid_edge(0.5e-9, 150e-12, t_start=0.0, t_end=1.5e-9),
            vdd=VDD)
        golden, results = evaluate_techniques(
            fixture, inputs, [technique_by_name("WLS5"), technique_by_name("P2")])
        assert results["WLS5"].failed is not None
        assert results["WLS5"].delay_error is None
        assert results["P2"].failed is None
        assert results["P2"].delay_error is not None

    def test_reuses_precomputed_golden(self, fixture):
        wave = sigmoid_edge(0.5e-9, 150e-12, t_start=0.0, t_end=1.5e-9)
        inputs = PropagationInputs(v_in_noisy=wave, vdd=VDD)
        golden = fixture.response(wave)
        golden2, results = evaluate_techniques(fixture, inputs,
                                               [technique_by_name("P2")],
                                               golden=golden)
        assert golden2 is golden
        # Clean stimulus: P2's ramp reproduces the golden delay closely.
        assert abs(results["P2"].delay_error) < 30e-12

    def test_warm_store_rerun_solves_nothing(self, fixture, tmp_path):
        # The golden run and the re-simulations are one run_jobs
        # submission under the default execution, and a fixture response
        # is a submission of one, so an installed store answers a rerun
        # of both outright, with the cold run's values.
        wave = sigmoid_edge(0.5e-9, 150e-12, t_start=0.0, t_end=1.5e-9)
        inputs = PropagationInputs(v_in_noisy=wave, vdd=VDD)
        techs = [technique_by_name("P2"), technique_by_name("E4")]
        ramp = SaturatedRamp.from_arrival_slew(0.5e-9, 150e-12, VDD)
        store = ResultStore(tmp_path)
        previous = set_default_execution(ExecutionConfig(store=store))
        try:
            golden, cold = evaluate_techniques(fixture, inputs, techs)
            cold_out = fixture.response(ramp)
            store.reset_counters()
            golden_warm, warm = evaluate_techniques(fixture, inputs, techs)
            warm_out = fixture.response(ramp)
        finally:
            set_default_execution(previous)
        assert (store.hits, store.misses) == (4, 0)
        assert golden_warm.output_arrival == golden.output_arrival
        for name in ("P2", "E4"):
            assert warm[name].delay_error == cold[name].delay_error
        assert warm_out.output_arrival == cold_out.output_arrival
        assert warm_out.output_slew == cold_out.output_slew
        assert warm_out.gate_delay == cold_out.gate_delay

    def test_batched_matches_sequential(self, fixture):
        wave = sigmoid_edge(0.5e-9, 150e-12, t_start=0.0, t_end=1.5e-9)
        inputs = PropagationInputs(v_in_noisy=wave, vdd=VDD)
        techs = [technique_by_name("P2"), technique_by_name("E4")]
        golden_b, res_b = evaluate_techniques(fixture, inputs, techs)
        # Reference: the same plan, each job run alone as a stack of one.
        plan = prepare_evaluation(fixture, inputs, techs)
        golden_s, res_s = finish_evaluation(
            plan, [job.run() for job in plan.jobs])
        assert golden_b.output_arrival == pytest.approx(
            golden_s.output_arrival, abs=1e-13)
        for name in ("P2", "E4"):
            assert res_b[name].delay_error == pytest.approx(
                res_s[name].delay_error, abs=1e-13)

    def test_late_ramp_window_not_truncated(self, fixture):
        # Regression: a technique whose equivalent ramp transitions *after*
        # the noisy waveform's record used to be sampled over the noisy
        # window only — the stimulus was clipped mid-transition and the
        # "output arrival" measured on a truncated record.  The window now
        # extends to ramp.t_finish + settle_margin per technique.
        wave = sigmoid_edge(0.5e-9, 150e-12, t_start=0.0, t_end=0.9e-9)

        class LateRamp:
            name = "LATE"

            def equivalent_waveform(self, inputs):
                # Transition completes ~0.9 ns after the noisy record ends,
                # well past the old window end (t_end + settle_margin).
                return SaturatedRamp.from_arrival_slew(
                    arrival=wave.t_end + 0.8e-9, slew=150e-12, vdd=VDD)

        inputs = PropagationInputs(v_in_noisy=wave, vdd=VDD)
        golden = fixture.response(wave)
        _, results = evaluate_techniques(fixture, inputs, [LateRamp()],
                                         golden=golden)
        ev = results["LATE"]
        assert ev.failed is None
        ramp = ev.ramp
        # The simulated record covers the whole ramp plus the settle
        # margin (the grid rounds t_stop to the nearest step).
        assert ev.output.v_in.t_end >= ramp.t_finish + fixture.settle_margin - fixture.dt
        # The stimulus completes its transition (not clipped mid-swing)...
        assert ev.output.v_in.v_final == pytest.approx(VDD, abs=1e-6)
        # ...and the output responds to it and settles.
        assert ev.output.output_arrival > ramp.arrival_time()
        assert ev.output.v_out.v_final == pytest.approx(0.0, abs=0.02)

    def test_early_ramp_window_not_truncated(self, fixture):
        # Mirror case: a ramp that *begins* before the noisy record would
        # be sampled from mid-transition (and the fixture's DC state
        # seeded mid-swing) if the window start were not extended too.
        wave = sigmoid_edge(0.5e-9, 150e-12, t_start=0.4e-9, t_end=1.4e-9)

        class EarlyRamp:
            name = "EARLY"

            def equivalent_waveform(self, inputs):
                # Transition starts well before the noisy record's t_start.
                return SaturatedRamp.from_arrival_slew(
                    arrival=wave.t_start - 0.1e-9, slew=150e-12, vdd=VDD)

        inputs = PropagationInputs(v_in_noisy=wave, vdd=VDD)
        golden = fixture.response(wave)
        _, results = evaluate_techniques(fixture, inputs, [EarlyRamp()],
                                         golden=golden)
        ev = results["EARLY"]
        assert ev.failed is None
        # The stimulus record starts on the pre-transition rail, covering
        # the whole ramp, not a mid-swing sample.
        assert ev.output.v_in.t_start <= ev.ramp.t_begin
        assert ev.output.v_in.v_initial == pytest.approx(0.0, abs=1e-6)
        assert ev.output.v_out.v_final == pytest.approx(0.0, abs=0.02)
