"""Golden-grid accuracy harness for LTE-controlled stepping.

The engine's contract: with its default options, on ``t_stop ≫
transition`` windows it takes *strictly fewer* steps than the fixed grid
(``max_step = dt``) while every node stays within ``1e-6·Vdd`` of that
golden reference on a resampled common axis, and the STA metrics (slew,
gate delay) move by less than 0.1 ps.  The fixed grid itself keeps its
own contract: the uniform axis ``t_start + dt·arange(n + 1)``, and a
stacked run equal to each variant run alone (same axis, <1e-9 V).
Covered workloads: both Table-1 gate configurations
(the full coupled testbench and the receiver fixture), the 3-line RC
bundle, a late-burst stimulus (the source-barrier fence), and the
batched lockstep group.  The `_StepMatrixCache` re-key (quantised step
value, bounded LRU) gets its own spy tests, mirroring PR 1's.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuit.mna import MnaSystem
from repro.circuit.netlist import Circuit
from repro.circuit.sources import PulseSource, RampSource
from repro.circuit.transient import (TransientJob, TransientOptions,
                                     _STEP_CACHE_ENTRIES, _StepMatrixCache,
                                     simulate_transient_many)
from repro.core.waveform import Waveform
from repro.experiments.noise_injection import SweepTiming
from repro.experiments.setup import CONFIG_I, CONFIG_II, build_testbench, receiver_fixture
from repro.interconnect.coupling import CouplingSpec, add_coupled_lines
from repro.interconnect.rcline import RcLineSpec
from repro.library.cells import make_inverter

from tests.helpers import VDD, max_node_deviation

#: The golden-grid accuracy gate: 1e-6 · Vdd.
VOLTAGE_GATE = 1e-6 * VDD
#: STA metrics (slew, gate delay) must agree with the golden to 0.1 ps.
METRIC_GATE = 0.1e-12

ADAPTIVE = TransientOptions()
#: Long window: transitions finish ~1.6 ns in, the rest is settled tail.
LONG = SweepTiming(dt=2e-12, t_stop=8e-9)


def rc_bundle(n_segments: int = 12, delay: float = 0.0) -> Circuit:
    """The 3-line coupled RC bundle driven by staggered ramps."""
    c = Circuit("bundle3")
    spec = RcLineSpec.from_length(500.0, n_segments=n_segments)
    terminals = []
    for k in range(3):
        c.vsource(f"V{k}", f"in{k}", "0",
                  RampSource(0.2e-9 + 0.15e-9 * k + delay, 150e-12, 0.0, VDD))
        c.capacitor(f"CL{k}", f"far{k}", "0", 10e-15)
        terminals.append((f"in{k}", f"far{k}"))
    add_coupled_lines(c, "b", terminals, [spec] * 3,
                      [CouplingSpec(0, 1, 100e-15), CouplingSpec(1, 2, 100e-15)])
    return c


def run_both(circuit, t_stop, dt, initial=None):
    """The fixed-grid golden and the adaptive run of one circuit."""
    golden = TransientJob(circuit, t_stop=t_stop, dt=dt,
                          initial_voltages=initial,
                          options=TransientOptions(max_step=dt)).run()
    adaptive = TransientJob(circuit, t_stop=t_stop, dt=dt,
                            initial_voltages=initial, options=ADAPTIVE).run()
    return golden, adaptive


class TestGoldenGridAccuracy:
    """max |ΔV| < 1e-6·Vdd on the golden axis, strictly fewer steps."""

    @pytest.mark.parametrize("config", [CONFIG_I, CONFIG_II],
                             ids=lambda c: f"config-{c.name}")
    def test_table1_testbench(self, config):
        bench = build_testbench(
            config, victim_start=LONG.victim_start,
            aggressor_starts=[LONG.victim_start + 0.2e-9] * config.n_aggressors)
        golden, adaptive = run_both(bench.circuit, LONG.t_stop, LONG.dt,
                                    bench.initial_voltages)
        assert max_node_deviation(golden, adaptive) < VOLTAGE_GATE
        assert len(adaptive.times) < len(golden.times)
        # STA metrics of the receiver output agree to well under 0.1 ps.
        g_out = golden.waveform(bench.nodes.receiver_out)
        a_out = adaptive.waveform(bench.nodes.receiver_out)
        assert abs(a_out.slew(config.vdd) - g_out.slew(config.vdd)) < METRIC_GATE
        g_in = golden.waveform(bench.nodes.victim_far_end)
        a_in = adaptive.waveform(bench.nodes.victim_far_end)
        g_delay = g_out.arrival_time(config.vdd) - g_in.arrival_time(config.vdd)
        a_delay = a_out.arrival_time(config.vdd) - a_in.arrival_time(config.vdd)
        assert abs(a_delay - g_delay) < METRIC_GATE

    def test_rc_bundle(self):
        golden, adaptive = run_both(rc_bundle(), 8e-9, 2e-12)
        assert max_node_deviation(golden, adaptive) < VOLTAGE_GATE
        assert len(adaptive.times) < len(golden.times)
        for k in range(3):
            g = golden.waveform(f"far{k}")
            a = adaptive.waveform(f"far{k}")
            assert abs(a.slew(VDD) - g.slew(VDD)) < METRIC_GATE
            assert abs(a.cross_time(VDD / 2) - g.cross_time(VDD / 2)) < METRIC_GATE

    @pytest.mark.parametrize("config", [CONFIG_I, CONFIG_II],
                             ids=lambda c: f"config-{c.name}")
    def test_receiver_fixture(self, config):
        """The Table-1 gate fixture: Δdelay and slew within 0.1 ps."""
        stim = Waveform.ramp(t_start=0.3e-9, slew=150e-12, vdd=config.vdd)
        window = (0.0, 4e-9)
        fix_g = receiver_fixture(config, dt=1e-12, adaptive=False)
        fix_a = receiver_fixture(config, dt=1e-12, adaptive=True)
        job_g = fix_g.transient_job(stim, window)
        job_a = fix_a.transient_job(stim, window)
        assert job_a.stride_rungs and not job_g.stride_rungs
        res_g, res_a = job_g.run(), job_a.run()
        assert max_node_deviation(res_g, res_a) < VOLTAGE_GATE
        assert len(res_a.times) < len(res_g.times)
        out_g = fix_g.measure(res_g)
        out_a = fix_a.measure(res_a)
        assert abs(out_a.gate_delay - out_g.gate_delay) < METRIC_GATE
        assert abs(out_a.output_slew - out_g.output_slew) < METRIC_GATE

    def test_late_burst_is_not_stepped_over(self):
        """A pulse deep in the settled tail: the source barrier forces the
        engine back to base resolution, so the burst is fully resolved."""
        def circuit():
            c = Circuit("late")
            c.vsource("Vin", "n0", "0",
                      PulseSource(6.0e-9, 100e-12, 200e-12, 100e-12, 0.0, VDD))
            c.resistor("R", "n0", "n1", 1e3)
            c.capacitor("C", "n1", "0", 50e-15)
            return c
        golden, adaptive = run_both(circuit(), 8e-9, 2e-12)
        assert max_node_deviation(golden, adaptive) < VOLTAGE_GATE
        # The quiet 6 ns lead-in must have been strided over...
        assert len(adaptive.times) < len(golden.times) / 2
        # ...while the burst itself is sampled at base resolution.
        t = adaptive.times
        burst = (t >= 6.0e-9) & (t <= 6.4e-9)
        assert np.all(np.diff(t[burst]) <= 2e-12 * 1.0001)

    def test_small_current_glitch_is_not_stepped_over(self):
        """Barrier significance is relative to each source's own span, so
        a sub-microampere current glitch into a high-impedance node (a
        12 mV disturbance, but an ampere-valued span far below any volt
        scale) is fenced off exactly like a volt-scale ramp."""
        def circuit():
            c = Circuit("iglitch")
            c.vsource("Vb", "n0", "0", 0.0)
            c.resistor("R", "n0", "n1", 1e6)
            c.capacitor("C", "n1", "0", 20e-15)
            c.isource("Ig", "0", "n1",
                      PulseSource(6.0e-9, 70e-12, 140e-12, 70e-12, 0.0, 5e-7))
            return c
        golden, adaptive = run_both(circuit(), 8e-9, 2e-12)
        assert max_node_deviation(golden, adaptive) < VOLTAGE_GATE
        assert len(adaptive.times) < len(golden.times) / 2


class TestFixedGrid:
    """``max_step = dt``: the one engine with no rung to climb."""

    def test_times_are_the_uniform_base_grid(self):
        t_start, dt, n = 0.1e-9, 2e-12, 600
        res = TransientJob(rc_bundle(3), t_stop=t_start + n * dt, dt=dt,
                           t_start=t_start,
                           options=TransientOptions(max_step=dt)).run()
        np.testing.assert_array_equal(res.times,
                                      t_start + dt * np.arange(n + 1))
        assert res.stats["steps_accepted"] == n
        assert res.stats["lte_rejects"] == 0

    @pytest.mark.parametrize("kind", ["mosfet", "linear"])
    def test_stacked_run_equals_each_variant_alone(self, kind):
        dt = 2e-12
        fixed = TransientOptions(max_step=dt)
        if kind == "mosfet":
            # Distinct alignments and windows: the stack shrinks mid-run.
            jobs = []
            for off, t_stop in ((-0.1e-9, 1.1e-9), (0.0, 0.8e-9),
                                (0.15e-9, 1.1e-9)):
                bench = build_testbench(CONFIG_I, 0.3e-9, (0.3e-9 + off,))
                jobs.append(TransientJob(bench.circuit, t_stop=t_stop, dt=dt,
                                         initial_voltages=bench.initial_voltages,
                                         options=fixed))
        else:
            jobs = [TransientJob(rc_bundle(3, delay), t_stop=t_stop, dt=dt,
                                 options=fixed)
                    for delay, t_stop in ((0.0, 2e-9), (0.2e-9, 1.5e-9))]
        stacked = simulate_transient_many(jobs)
        assert stacked[0].stats["batch_size"] == len(jobs)
        for job, res in zip(jobs, stacked):
            alone = job.run()
            np.testing.assert_array_equal(res.times, alone.times)
            # Not bitwise: stacked BLAS kernels sum in another order, a
            # ~1e-14 V difference well inside the <1e-9 V contract.
            np.testing.assert_allclose(res._x, alone._x, rtol=0, atol=1e-9)


class TestAdaptiveGrids:
    """Non-uniform grid bookkeeping of TransientResult."""

    def test_grid_is_nonuniform_subgrid_of_base(self):
        golden, adaptive = run_both(rc_bundle(3), 8e-9, 2e-12)
        assert golden.uniform_grid
        assert not adaptive.uniform_grid
        assert adaptive.step_sizes().max() > 10 * 2e-12
        # Every accepted time is a base-grid point of the golden axis.
        pos = np.searchsorted(golden.times, adaptive.times)
        np.testing.assert_array_equal(golden.times[pos], adaptive.times)
        # Endpoints land exactly.
        assert adaptive.times[0] == golden.times[0]
        assert adaptive.times[-1] == golden.times[-1]

    def test_final_voltages_and_branch_current_on_nonuniform_grid(self):
        golden, adaptive = run_both(rc_bundle(3), 8e-9, 2e-12)
        for node, v in adaptive.final_voltages().items():
            assert v == pytest.approx(golden.final_voltages()[node],
                                      abs=VOLTAGE_GATE)
        ig = golden.branch_current("V0")
        ia = adaptive.branch_current("V0")
        assert ia.shape == adaptive.times.shape
        # Per-sample capacitor-current ringing (trapezoidal integration
        # is A- but not L-stable) makes raw branch currents step-size
        # dependent in both runs, so pin the grid-aware bookkeeping:
        # bounded magnitude, and the ringing-averaged current — the
        # physical current — decays toward zero in the settled tail.
        assert np.all(np.isfinite(ia))
        assert np.max(np.abs(ia)) <= np.max(np.abs(ig)) * 1.5
        assert abs(0.5 * (ia[-1] + ia[-2])) < 1e-7
        assert abs(0.5 * (ig[-1] + ig[-2])) < 1e-7

    def test_batched_group_advances_in_lockstep(self):
        """Variants share one accepted grid; per-variant windows truncate
        exactly; every variant stays inside the golden gate."""
        benches = [
            build_testbench(CONFIG_I, victim_start=LONG.victim_start,
                            aggressor_starts=[LONG.victim_start + off])
            for off in (-0.2e-9, 0.0, 0.3e-9)
        ]
        t_stops = [LONG.t_stop, LONG.t_stop, LONG.t_stop / 2]
        jobs = [TransientJob(b.circuit, t_stop=ts, dt=LONG.dt,
                             initial_voltages=b.initial_voltages,
                             options=ADAPTIVE)
                for b, ts in zip(benches, t_stops)]
        results = simulate_transient_many(jobs)
        assert results[0].stats["batch_size"] == 3
        # Lockstep: the shorter window's grid is a prefix of the others'.
        np.testing.assert_array_equal(
            results[2].times, results[0].times[: len(results[2].times)])
        assert results[2].times[-1] == pytest.approx(t_stops[2], abs=LONG.dt)
        for b, ts, res in zip(benches, t_stops, results):
            golden = TransientJob(b.circuit, t_stop=ts, dt=LONG.dt,
                                  initial_voltages=b.initial_voltages,
                                  options=TransientOptions(
                                      max_step=LONG.dt)).run()
            assert max_node_deviation(golden, res) < VOLTAGE_GATE
            assert len(res.times) < len(golden.times)


def _sharp_inverter():
    c = Circuit("inv")
    c.vsource("Vdd", "vdd", "0", VDD)
    c.vsource("Vin", "in", "0", RampSource(0.2e-9, 20e-12, 0.0, VDD))
    make_inverter(4).instantiate(c, "u0", "in", "out", "vdd")
    c.capacitor("cl", "out", "0", 20e-15)
    return c


class TestStepMatrixCacheRekey:
    """The quantised-step-value cache (PR 1's spy, adaptive edition)."""

    def _cache(self):
        c = Circuit("rc")
        c.vsource("V", "a", "0", 1.0)
        c.resistor("R", "a", "b", 1e3)
        c.capacitor("C", "b", "0", 1e-15)
        return _StepMatrixCache(MnaSystem(c), 1e-12)

    def test_equal_steps_hit_one_entry(self):
        cache = self._cache()
        for _ in range(5):
            cache.get_h(1e-12 * 4)
            cache.get_h(1e-12 * 0.5)
        assert cache.builds == 2

    def test_ladder_and_halving_share_the_cache(self):
        cache = self._cache()
        # The adaptive ladder (dt·m) and the halving recursion (dt/2**k)
        # both key on the exact step value.
        for m in (1, 2, 4, 8):
            cache.get_h(1e-12 * m)
        for m in (8, 4, 2, 1):
            cache.get_h(1e-12 * m)
        assert cache.builds == 4

    def test_bounded_lru(self):
        cache = self._cache()
        for m in range(1, _STEP_CACHE_ENTRIES + 10):
            cache.get_h(1e-12 * m)
        assert len(cache._entries) == _STEP_CACHE_ENTRIES
        builds = cache.builds
        # The most recent entry is still cached...
        cache.get_h(1e-12 * (_STEP_CACHE_ENTRIES + 9))
        assert cache.builds == builds
        # ...the oldest was evicted and rebuilds.
        cache.get_h(1e-12 * 1)
        assert cache.builds == builds + 1

    def test_adaptive_run_builds_stay_bounded(self):
        """An adaptive run visits many strides (plus Newton halvings) but
        never more matrix builds than distinct quantised step values."""
        opts = TransientOptions(max_newton=4)
        res = TransientJob(_sharp_inverter(), t_stop=4e-9, dt=4e-12,
                           initial_voltages={"in": 0.0, "out": VDD,
                                             "vdd": VDD},
                           options=opts).run()
        strides = {round(float(h) / 4e-12, 6) for h in res.step_sizes()}
        assert len(strides) > 1, "the run must actually have grown strides"
        assert res.stats["matrix_builds"] <= len(strides) + opts.max_halvings + 1
        assert max_node_deviation(
            TransientJob(_sharp_inverter(), t_stop=4e-9, dt=4e-12,
                         initial_voltages={"in": 0.0, "out": VDD,
                                           "vdd": VDD},
                         options=TransientOptions(max_newton=4,
                                                  max_step=4e-12)).run(),
            res) < VOLTAGE_GATE


class TestOptionsAndEnv:
    """Stepping options: validation, max_step/min_step."""

    def test_option_validation(self):
        with pytest.raises(ValueError):
            TransientOptions(lte_atol=0.0)
        with pytest.raises(ValueError):
            TransientOptions(lte_rtol=-1.0)
        with pytest.raises(ValueError):
            TransientOptions(max_step=-1e-12)
        with pytest.raises(ValueError):
            TransientOptions(min_step=-1e-12)

    def test_max_step_below_base_dt_is_rejected(self):
        # A positive max_step below dt cannot bound anything (the base
        # grid is the floor of every step): fail loudly, not silently.
        with pytest.raises(ValueError, match="max_step"):
            TransientJob(rc_bundle(3), t_stop=1e-9, dt=2e-12,
                         options=TransientOptions(max_step=1e-12)).run()
        # A 1 ps RC run capped at 0.5 ps: a whole group is rejected.
        rc = Circuit("rc")
        rc.vsource("V", "a", "0", RampSource(1e-12, 3e-12, 0.0, VDD))
        rc.resistor("R", "a", "b", 1e3)
        rc.capacitor("C", "b", "0", 1e-15)
        jobs = [TransientJob(rc, t_stop=t_stop, dt=1e-12,
                             options=TransientOptions(max_step=0.5e-12))
                for t_stop in (10e-12, 8e-12)]
        with pytest.raises(ValueError, match="max_step"):
            simulate_transient_many(jobs)

    def test_max_step_caps_the_ladder(self):
        cap = 8e-12
        res = TransientJob(rc_bundle(3), t_stop=8e-9, dt=2e-12,
                           options=TransientOptions(max_step=cap)).run()
        assert res.step_sizes().max() <= cap * 1.0001
        free = TransientJob(rc_bundle(3), t_stop=8e-9, dt=2e-12,
                            options=ADAPTIVE).run()
        assert free.step_sizes().max() > cap
