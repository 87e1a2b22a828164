"""Tests for the quiet-victim glitch analysis."""

import pytest

from repro.experiments.glitch import glitch_sweep, measure_glitch, worst_glitch
from repro.experiments.noise_injection import SweepTiming
from repro.experiments.setup import CONFIG_I, CONFIG_II

FAST = SweepTiming(dt=4e-12)


class TestMeasureGlitch:
    @pytest.fixture(scope="class")
    def config1_glitch(self):
        return measure_glitch(CONFIG_I, offsets=(0.0,), timing=FAST)

    def test_victim_stays_near_rail_overall(self, config1_glitch):
        # Quiet victim rests at 0 (rising-victim configuration): it must
        # start and end at the rail even though the glitch moves it.
        w = config1_glitch.v_victim
        assert w.v_initial == pytest.approx(0.0, abs=0.02)
        assert w.v_final == pytest.approx(0.0, abs=0.05)

    def test_glitch_is_substantial_in_this_regime(self, config1_glitch):
        # 100 fF coupling against ~30 fF of line capacitance: the noise
        # pulse is a large fraction of the supply.
        assert config1_glitch.peak_height > 0.1
        assert config1_glitch.width_at_half > 10e-12

    def test_receiver_attenuates_subthreshold_glitch(self, config1_glitch):
        # The Config I glitch peaks just below the device threshold, so a
        # healthy receiver must reject it almost entirely.
        assert config1_glitch.peak_height < 0.35
        assert config1_glitch.output_disturbance < 0.1 * CONFIG_I.vdd
        assert not config1_glitch.propagates(CONFIG_I.vdd)

    def test_propagation_criterion(self, config1_glitch):
        flag = config1_glitch.propagates(CONFIG_I.vdd, fraction=0.5)
        assert flag == (config1_glitch.output_disturbance > 0.6)

    def test_offset_count_validated(self):
        with pytest.raises(ValueError):
            measure_glitch(CONFIG_I, offsets=(0.0, 0.0), timing=FAST)


class TestSweep:
    def test_two_aggressors_inject_more_noise(self):
        one = measure_glitch(CONFIG_I, offsets=(0.0,), timing=FAST)
        two = measure_glitch(CONFIG_II, offsets=(0.0, 0.0), timing=FAST)
        assert two.peak_height > one.peak_height

    def test_sweep_matches_per_offset_measurements(self):
        # One stacked submission against one run per alignment.
        sweep = glitch_sweep(CONFIG_I, 3, timing=FAST)
        assert len(sweep) == 3
        for m in sweep:
            alone = measure_glitch(CONFIG_I, m.offsets, timing=FAST)
            assert m.peak_height == pytest.approx(alone.peak_height, abs=1e-12)
            assert m.output_disturbance == pytest.approx(
                alone.output_disturbance, abs=1e-12)

    def test_worst_glitch_selection(self):
        sweep = glitch_sweep(CONFIG_I, n_cases=2, timing=FAST)
        worst = worst_glitch(sweep)
        assert worst.peak_height == max(m.peak_height for m in sweep)

    def test_worst_glitch_empty_rejected(self):
        with pytest.raises(ValueError):
            worst_glitch([])
