"""Batched transient engine: equivalence with the sequential path.

The contract of :func:`repro.circuit.transient.simulate_transient_many` /
``simulate_transient_batch`` on the fixed grid (``max_step = dt``) is
numerical equivalence with running :func:`simulate_transient` per
variant — these tests pin it to <1e-9 V on every node for the Table-1
testbench, a coupled noisy stage, and the recursive step-halving path
(which previously had no coverage at all).
"""

import numpy as np
import pytest

from repro.circuit.netlist import Circuit
from repro.circuit.sources import Dc, RampSource
from repro.circuit.transient import (
    BatchStimulus,
    ConvergenceError,
    TransientJob,
    TransientOptions,
    simulate_transient,
    simulate_transient_batch,
    simulate_transient_many,
)
from repro.experiments.noise_injection import SweepTiming
from repro.experiments.setup import CONFIG_I, CrosstalkConfig, build_testbench
from repro.library.cells import make_inverter

VOLTAGE_TOL = 1e-9


def _fixed(dt: float, **kw) -> TransientOptions:
    """The fixed grid: no stride may exceed the base step."""
    return TransientOptions(max_step=dt, **kw)


def _worst_dv(seq, bat):
    return max(
        float(np.max(np.abs(seq.voltage_samples(n) - bat.voltage_samples(n))))
        for n in seq.node_names
    )


def _assert_equivalent(seq_results, bat_results):
    assert len(seq_results) == len(bat_results)
    for seq, bat in zip(seq_results, bat_results):
        assert len(seq.times) == len(bat.times)
        np.testing.assert_allclose(seq.times, bat.times, rtol=0, atol=0)
        assert _worst_dv(seq, bat) < VOLTAGE_TOL


class TestTable1FixtureEquivalence:
    """Batched vs sequential on the paper's Figure 1 testbench."""

    @pytest.fixture(scope="class")
    def timing(self):
        return SweepTiming(dt=4e-12, t_stop=2.2e-9)

    def test_noise_sweep_matches_sequential(self, timing):
        offsets = [-0.2e-9, 0.0, 0.15e-9]
        benches = [
            build_testbench(CONFIG_I, victim_start=timing.victim_start,
                            aggressor_starts=[timing.victim_start + off],
                            aggressor_active=True)
            for off in offsets
        ]
        jobs = [TransientJob(b.circuit, t_stop=timing.t_stop, dt=timing.dt,
                             initial_voltages=b.initial_voltages,
                             options=_fixed(timing.dt))
                for b in benches]
        seq = [simulate_transient(b.circuit, t_stop=timing.t_stop, dt=timing.dt,
                                  initial_voltages=b.initial_voltages,
                                  options=_fixed(timing.dt))
               for b in benches]
        bat = simulate_transient_many(jobs)
        assert bat[0].stats["batch_size"] == len(offsets)
        _assert_equivalent(seq, bat)

    def test_quiet_reference_joins_the_batch(self, timing):
        # The noiseless run differs only in source functions, not topology.
        quiet = build_testbench(CONFIG_I, victim_start=timing.victim_start,
                                aggressor_starts=[timing.victim_start],
                                aggressor_active=False)
        noisy = build_testbench(CONFIG_I, victim_start=timing.victim_start,
                                aggressor_starts=[timing.victim_start],
                                aggressor_active=True)
        jobs = [TransientJob(b.circuit, t_stop=timing.t_stop, dt=timing.dt,
                             initial_voltages=b.initial_voltages,
                             options=_fixed(timing.dt))
                for b in (quiet, noisy)]
        bat = simulate_transient_many(jobs)
        assert bat[0].stats["batch_size"] == 2
        seq = [simulate_transient(b.circuit, t_stop=timing.t_stop, dt=timing.dt,
                                  initial_voltages=b.initial_voltages,
                                  options=_fixed(timing.dt))
               for b in (quiet, noisy)]
        _assert_equivalent(seq, bat)


class TestCoupledStageEquivalence:
    """Batched vs sequential on a coupled noisy stage (sta layer circuit)."""

    def test_stage_with_aggressor(self):
        from repro.core.ramp import SaturatedRamp
        from repro.interconnect.rcline import RcLineSpec
        from repro.sta.noise_aware import (AggressorSpec, NoisyStage,
                                           _build_stage_circuit, _stage_initial)

        vdd = 1.2
        agg = AggressorSpec(coupling=100e-15, transition_start=0.35e-9,
                            rising=False, slew=150e-12, driver=make_inverter(1))
        stage = NoisyStage(driver=make_inverter(1),
                           line=RcLineSpec.from_length(500.0),
                           receiver=make_inverter(4), aggressors=(agg,))
        circuit, _, far, out = _build_stage_circuit(stage, vdd)
        ramps = [
            SaturatedRamp.from_arrival_slew(0.3e-9, 150e-12, vdd, rising=False),
            SaturatedRamp.from_arrival_slew(0.35e-9, 220e-12, vdd, rising=False),
        ]
        waves = [r.to_waveform(0.1e-9, 1.4e-9) for r in ramps]
        initial = _stage_initial(stage, vdd, vdd)
        circuit.vsource("Vin", "in", "0", waves[0])

        stimuli = [BatchStimulus(sources={"Vin": w}, initial_voltages=initial)
                   for w in waves]
        bat = simulate_transient_batch(circuit, stimuli, t_stop=1.4e-9,
                                       dt=4e-12, t_start=0.1e-9,
                                       options=_fixed(4e-12))
        assert bat[0].stats["batch_size"] == 2

        seq = []
        for w in waves:
            c, _, _, _ = _build_stage_circuit(stage, vdd)
            c.vsource("Vin", "in", "0", w)
            seq.append(simulate_transient(c, t_stop=1.4e-9, dt=4e-12,
                                          t_start=0.1e-9,
                                          initial_voltages=initial,
                                          options=_fixed(4e-12)))
        _assert_equivalent(seq, bat)
        # Sanity: the two variants actually differ (distinct stimuli).
        assert _worst_dv(bat[0], bat[1]) > 1e-3
        assert bat[0].waveform(far) is not None and bat[0].waveform(out) is not None


def _sharp_inverter():
    """An inverter hit by a near-step input: Newton needs many iterations
    at the switching time step, so a small ``max_newton`` forces halving."""
    c = Circuit("inv")
    c.vsource("Vdd", "vdd", "0", 1.2)
    c.vsource("Vin", "in", "0", RampSource(0.2e-9, 20e-12, 0.0, 1.2))
    make_inverter(4).instantiate(c, "u0", "in", "out", "vdd")
    c.capacitor("cl", "out", "0", 20e-15)
    return c


INITIAL = {"in": 0.0, "out": 1.2, "vdd": 1.2}


class TestStepHalving:
    """The recursive step-halving fallback (previously untested)."""

    def test_halving_engages_and_converges(self):
        opts = TransientOptions(max_newton=4)
        res = simulate_transient(_sharp_inverter(), t_stop=1e-9, dt=20e-12,
                                 initial_voltages=INITIAL, options=opts)
        assert res.stats["halvings"] > 0
        # Output still switches rail to rail.
        out = res.voltage_samples("out")
        assert out[0] == pytest.approx(1.2, abs=0.05)
        assert out[-1] == pytest.approx(0.0, abs=0.05)

    def test_matrix_cache_keyed_on_depth(self):
        # One extra matrix build per halving depth reached — not one per
        # floating-point step value (the old cache keyed on drifting h).
        opts = TransientOptions(max_newton=3)
        res = simulate_transient(_sharp_inverter(), t_stop=1e-9, dt=20e-12,
                                 initial_voltages=INITIAL, options=opts)
        assert res.stats["halvings"] > 2
        # Many halvings, but only as many builds as distinct depths; depth
        # is bounded by max_halvings, and repeats must hit the cache.
        assert res.stats["matrix_builds"] <= opts.max_halvings + 1
        assert res.stats["matrix_builds"] < res.stats["halvings"] + 1

    def test_convergence_error_when_halving_exhausted(self):
        opts = TransientOptions(max_newton=2, max_halvings=1)
        with pytest.raises(ConvergenceError):
            simulate_transient(_sharp_inverter(), t_stop=1e-9, dt=20e-12,
                               initial_voltages=INITIAL, options=opts)

    def test_halving_respects_min_step_in_a_batch(self):
        # h/2 = 10 ps would undercut min_step: the failing switching step
        # must raise at its full 20 ps size, alone or inside a batch.
        opts = TransientOptions(max_newton=4, min_step=15e-12)
        message = r"t=2\.4000e-10s even at dt=2\.00e-11s"
        with pytest.raises(ConvergenceError, match=message):
            simulate_transient(_sharp_inverter(), t_stop=1e-9, dt=20e-12,
                               initial_voltages=INITIAL, options=opts)
        stimuli = [
            BatchStimulus(initial_voltages=INITIAL),
            BatchStimulus(sources={"Vin": RampSource(0.2e-9, 200e-12, 0.0, 1.2)},
                          initial_voltages=INITIAL),
        ]
        with pytest.raises(ConvergenceError, match=message):
            simulate_transient_batch(_sharp_inverter(), stimuli, t_stop=1e-9,
                                     dt=20e-12, options=opts)

    def test_batched_halving_matches_sequential(self):
        # Two variants: a sharp edge (needs halving) and a gentle one.
        opts = _fixed(20e-12, max_newton=4)
        base = _sharp_inverter()
        stimuli = [
            BatchStimulus(initial_voltages=INITIAL),
            BatchStimulus(sources={"Vin": RampSource(0.2e-9, 200e-12, 0.0, 1.2)},
                          initial_voltages=INITIAL),
        ]
        bat = simulate_transient_batch(base, stimuli, t_stop=1e-9, dt=20e-12,
                                       options=opts)
        assert bat[0].stats["halvings"] > 0

        seq = [simulate_transient(_sharp_inverter(), t_stop=1e-9, dt=20e-12,
                                  initial_voltages=INITIAL, options=opts)]
        gentle = _sharp_inverter()
        gentle.vsources[1] = type(gentle.vsources[1])(
            "Vin", "in", "0", RampSource(0.2e-9, 200e-12, 0.0, 1.2))
        seq.append(simulate_transient(gentle, t_stop=1e-9, dt=20e-12,
                                      initial_voltages=INITIAL, options=opts))
        _assert_equivalent(seq, bat)


class TestManyMisc:
    """Grouping, truncation and override plumbing of the batch front ends."""

    def _rc(self):
        c = Circuit("rc")
        c.vsource("Vin", "in", "0", RampSource(0.1e-9, 100e-12, 0.0, 1.0))
        c.resistor("R", "in", "out", 1e3)
        c.capacitor("C", "out", "0", 100e-15)
        return c

    def test_mixed_topologies_keep_input_order(self):
        rc_job = TransientJob(self._rc(), t_stop=1e-9, dt=10e-12)
        inv_job = TransientJob(_sharp_inverter(), t_stop=1e-9, dt=10e-12,
                               initial_voltages=INITIAL)
        rc_job2 = TransientJob(self._rc(), t_stop=1e-9, dt=10e-12)
        out = simulate_transient_many([rc_job, inv_job, rc_job2])
        assert out[0].node_names == out[2].node_names == ["in", "out"]
        assert "vdd" in out[1].node_names
        # The two RC jobs batched together; the inverter ran alone.
        assert out[0].stats["batch_size"] == 2
        assert out[1].stats["batch_size"] == 1

    def test_per_variant_t_stop_truncates(self):
        base = self._rc()
        stimuli = [BatchStimulus(), BatchStimulus(t_stop=0.5e-9)]
        full, short = simulate_transient_batch(base, stimuli, t_stop=1e-9,
                                               dt=10e-12,
                                               options=_fixed(10e-12))
        assert len(short.times) == 51
        assert len(full.times) == 101
        ref = simulate_transient(self._rc(), t_stop=0.5e-9, dt=10e-12,
                                 options=_fixed(10e-12))
        _assert_equivalent([ref], [short])

    def test_unknown_source_override_rejected(self):
        with pytest.raises(ValueError, match="unknown source"):
            simulate_transient_batch(self._rc(),
                                     [BatchStimulus(sources={"nope": Dc(1.0)})],
                                     t_stop=1e-9, dt=10e-12)

    def test_lu_reuse_matches_plain_solve(self):
        # MOSFET-free circuits take the factored-LU path; results must
        # match the reference integration regardless.
        res = simulate_transient(self._rc(), t_stop=2e-9, dt=5e-12,
                                 options=_fixed(5e-12))
        v = res.voltage_samples("out")
        assert v[-1] == pytest.approx(1.0, abs=1e-3)
        assert res.stats["matrix_builds"] == 1


def _table1_bench():
    return build_testbench(CONFIG_I, victim_start=0.2e-9,
                           aggressor_starts=[0.25e-9],
                           aggressor_active=True)


def _deep_line_bench():
    """Config I on a 96-segment line: the structured Newton workload."""
    config = CrosstalkConfig(name="deep96", n_aggressors=1,
                             line_length_um=1000.0,
                             coupling_per_aggressor=100e-15, n_segments=96)
    return build_testbench(config, 0.05e-9, (0.06e-9,))


def _assert_phases_sum_to_total(phases):
    assert set(phases) <= {"factor", "stamp", "device_eval", "solve",
                           "overhead", "total"}
    assert all(v >= 0.0 for v in phases.values())
    known = sum(v for k, v in phases.items() if k != "total")
    assert phases["total"] > 0.0
    assert known == pytest.approx(phases["total"], rel=1e-6)


class TestPhaseTimers:
    def _run(self):
        tb = _table1_bench()
        return simulate_transient(tb.circuit, t_stop=0.4e-9, dt=4e-12,
                                  initial_voltages=tb.initial_voltages)

    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_PHASE_TIMERS", raising=False)
        assert "phase_seconds" not in self._run().stats

    def test_enabled_by_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_PHASE_TIMERS", "1")
        _assert_phases_sum_to_total(self._run().stats["phase_seconds"])

    def test_off_switch_values(self, monkeypatch):
        monkeypatch.setenv("REPRO_PHASE_TIMERS", "0")
        assert "phase_seconds" not in self._run().stats

    @pytest.mark.parametrize("backend", ["banded", "sparse"])
    def test_structured_newton_times_device_eval(self, monkeypatch,
                                                 backend):
        # The bordered Newton steps linearise the devices inside their
        # solve calls; that work is device_eval, not solve — for
        # a single job and a stack alike.  A forced "sparse" request runs
        # dense Newton, which times its stamping the same way.
        monkeypatch.setenv("REPRO_PHASE_TIMERS", "1")
        tb = _deep_line_bench()
        opts = TransientOptions(backend=backend, max_step=2e-12)
        jobs = [TransientJob(tb.circuit, t_stop=0.1e-9, dt=2e-12,
                             initial_voltages=tb.initial_voltages,
                             options=opts)
                for _ in range(2)]
        scalar = jobs[0].run()
        stacked = simulate_transient_many(jobs)[0]
        for res in (scalar, stacked):
            assert res.stats["backend"] == \
                ("banded" if backend == "banded" else "dense")
            phases = res.stats["phase_seconds"]
            assert phases["device_eval"] > 0.0
            assert phases["solve"] > 0.0
            _assert_phases_sum_to_total(phases)
