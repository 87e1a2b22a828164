"""Tests for the sensitivity computation (Eq. 1 and SGDP step 2)."""

import numpy as np
import pytest

from repro.core.sensitivity import (
    NonOverlappingTransitionsError,
    _savgol3,
    compute_sensitivity,
)

from tests.helpers import VDD, sigmoid_edge, synthetic_gate_pair


class TestComputeSensitivity:
    def test_rho_negative_for_inverting_gate(self):
        v_in, v_out = synthetic_gate_pair()
        sens = compute_sensitivity(v_in, v_out, VDD)
        assert sens.peak_rho > 0.5
        # Signed ρ is negative through the switching region.
        mid = 0.5 * (sens.region[0] + sens.region[1])
        assert sens.rho_at_time(mid) < 0

    def test_rho_zero_outside_critical_region(self):
        v_in, v_out = synthetic_gate_pair()
        sens = compute_sensitivity(v_in, v_out, VDD)
        assert sens.rho_at_time(sens.region[0] - 1e-9) == 0.0
        assert sens.rho_at_time(sens.region[1] + 1e-9) == 0.0

    def test_region_matches_input_critical_region(self):
        v_in, v_out = synthetic_gate_pair()
        sens = compute_sensitivity(v_in, v_out, VDD)
        assert sens.region == pytest.approx(v_in.critical_region(VDD), rel=1e-6)

    def test_voltage_remap_matches_time_view_on_noiseless(self):
        # For the noiseless waveform itself, looking ρ up by voltage must
        # agree with looking it up by time (same trajectory).
        v_in, v_out = synthetic_gate_pair()
        sens = compute_sensitivity(v_in, v_out, VDD)
        t = np.linspace(sens.region[0] + 5e-12, sens.region[1] - 5e-12, 31)
        by_time = np.asarray(sens.rho_at_time(t))
        by_voltage = np.asarray(sens.rho_at_voltage(np.asarray(v_in(t))))
        assert np.allclose(by_time, by_voltage, atol=0.08 * sens.peak_rho)

    def test_rho_zero_outside_voltage_band(self):
        v_in, v_out = synthetic_gate_pair()
        sens = compute_sensitivity(v_in, v_out, VDD)
        assert sens.rho_at_voltage(0.02 * VDD) == 0.0
        assert sens.rho_at_voltage(0.98 * VDD) == 0.0

    def test_unit_gain_for_identity_gate(self):
        # Output == input ⇒ ρ ≈ +1 throughout.
        v_in = sigmoid_edge(1e-9, 200e-12)
        sens = compute_sensitivity(v_in, v_in, VDD)
        mid = 0.5 * (sens.region[0] + sens.region[1])
        assert sens.rho_at_time(mid) == pytest.approx(1.0, abs=0.05)

    def test_scaled_gate_gain(self):
        # Output = falling edge 3x faster ⇒ |ρ| ≈ 3 where both transition.
        v_in = sigmoid_edge(1e-9, 300e-12, t_start=0.0, t_end=2e-9)
        v_out = sigmoid_edge(1e-9, 100e-12, rising=False, t_start=0.0, t_end=2e-9)
        sens = compute_sensitivity(v_in, v_out, VDD)
        assert sens.rho_at_voltage(0.5 * VDD) == pytest.approx(-3.0, rel=0.15)

    def test_nonoverlap_raises(self):
        v_in = sigmoid_edge(1.0e-9, 100e-12, t_start=0.0, t_end=4e-9)
        v_out = sigmoid_edge(3.0e-9, 100e-12, rising=False, t_start=0.0, t_end=4e-9)
        with pytest.raises(NonOverlappingTransitionsError):
            compute_sensitivity(v_in, v_out, VDD)

    def test_nonoverlap_allowed_when_disabled(self):
        v_in = sigmoid_edge(1.0e-9, 100e-12, t_start=0.0, t_end=4e-9)
        v_out = sigmoid_edge(3.0e-9, 100e-12, rising=False, t_start=0.0, t_end=4e-9)
        sens = compute_sensitivity(v_in, v_out, VDD, require_overlap=False)
        assert sens.region[0] < sens.region[1]

    def test_falling_input_supported(self):
        v_in = sigmoid_edge(1e-9, 200e-12, rising=False, t_start=0.0, t_end=2e-9)
        v_out = sigmoid_edge(1.05e-9, 150e-12, rising=True, t_start=0.0, t_end=2e-9)
        sens = compute_sensitivity(v_in, v_out, VDD)
        assert not sens.input_rising
        assert sens.rho_at_voltage(0.5 * VDD) < 0  # still inverting


class TestCausalHelpers:
    def test_commit_voltage_in_band(self, noiseless_pair):
        v_in, v_out = noiseless_pair
        sens = compute_sensitivity(v_in, v_out, VDD)
        v_commit = sens.commit_input_voltage()
        assert 0.3 * VDD < v_commit < 0.95 * VDD

    def test_settle_duration_positive(self, noiseless_pair):
        v_in, v_out = noiseless_pair
        sens = compute_sensitivity(v_in, v_out, VDD)
        assert 0.0 < sens.settle_duration_after_commit() < 1e-9

    def test_settle_voltage_beyond_commit(self, noiseless_pair):
        v_in, v_out = noiseless_pair
        sens = compute_sensitivity(v_in, v_out, VDD)
        assert sens.settle_input_voltage() >= sens.commit_input_voltage()

    def test_fallbacks_without_out_levels(self):
        v_in, v_out = synthetic_gate_pair()
        sens = compute_sensitivity(v_in, v_out, VDD)
        object.__setattr__(sens, "out_levels", None)
        assert sens.settle_input_voltage() == pytest.approx(0.9 * VDD)
        assert sens.commit_input_voltage() == pytest.approx(0.5 * VDD)
        assert sens.settle_duration_after_commit() > 0


class TestSavitzkyGolay:
    """The NumPy filter behind ρ is pinned to SciPy's reference."""

    @pytest.mark.parametrize("window", range(5, 64, 2))
    def test_matches_scipy_savgol_filter(self, window):
        from scipy.signal import savgol_filter

        rng = np.random.default_rng(window)
        for n in (window, 2 * window, 512):
            t = np.linspace(0.0, 1.0, n)
            smooth = np.tanh(6.0 * (t - 0.4))
            for x in (smooth, smooth + 0.05 * rng.standard_normal(n)):
                ref = savgol_filter(x, window, polyorder=3)
                got = _savgol3(x, window)
                assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_cubic_passes_through_exactly(self):
        t = np.linspace(-1.0, 2.0, 40)
        x = 0.5 * t**3 - t**2 + 0.25 * t + 3.0
        np.testing.assert_allclose(_savgol3(x, 11), x, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("window", [4, 3, 41])
    def test_rejects_bad_windows(self, window):
        with pytest.raises(ValueError):
            _savgol3(np.zeros(40), window)
