"""Integration tests for the experiment harnesses (Figure 1, sweeps,
Table 1 structure, Figure 2 data, runtime measurement).

These exercise the full simulate → technique → evaluate pipeline at
reduced density so they stay tractable in CI; the benchmarks run the
paper-scale versions.
"""

import numpy as np
import pytest

from repro.core.propagation import evaluate_techniques
from repro.core.techniques import PropagationInputs, all_techniques, technique_by_name
from repro.experiments.figure2 import ascii_plot, generate_figure2
from repro.experiments.noise_injection import (
    SweepTiming,
    alignment_offsets,
    run_noise_case,
    run_noise_cases,
    run_noiseless,
)
from repro.experiments.runtime import make_runtime_inputs, measure_runtimes
from repro.experiments.setup import CONFIG_I, CONFIG_II, build_testbench, receiver_fixture
from repro.experiments.table1 import default_case_count, run_table1

VDD = 1.2
FAST = SweepTiming(dt=4e-12)


class TestSetup:
    def test_config_constants_match_paper(self):
        assert CONFIG_I.n_aggressors == 1
        assert CONFIG_I.line_length_um == 1000.0
        assert CONFIG_I.coupling_per_aggressor == pytest.approx(100e-15)
        assert CONFIG_II.n_aggressors == 2
        assert CONFIG_II.line_length_um == 500.0
        assert CONFIG_I.input_slew == pytest.approx(150e-12)

    def test_cells_follow_figure1(self):
        assert CONFIG_I.driver_cell().name == "INVX1"
        assert CONFIG_I.receiver_cell().name == "INVX4"
        assert [c.name for c in CONFIG_I.chain_cells()] == ["INVX16", "INVX64"]

    def test_testbench_structure(self):
        bench = build_testbench(CONFIG_I, victim_start=0.8e-9,
                                aggressor_starts=[0.8e-9])
        nodes = bench.nodes
        assert nodes.victim_far_end == "in_u"
        assert nodes.receiver_out == "out_u"
        assert bench.circuit.has_node("in_u")
        assert bench.circuit.has_node("out_u")
        # 1 victim driver + receiver + 2 chain + 1 agg driver + 1 agg recv
        assert len(bench.circuit.mosfets) == 12
        cm = [c for c in bench.circuit.capacitors if ".cm" in c.name]
        assert sum(c.capacitance for c in cm) == pytest.approx(100e-15)

    def test_testbench_aggressor_count_checked(self):
        with pytest.raises(ValueError):
            build_testbench(CONFIG_II, victim_start=0.8e-9,
                            aggressor_starts=[0.8e-9])

    def test_receiver_fixture_cells(self):
        f = receiver_fixture(CONFIG_I)
        assert f.cell.name == "INVX4"
        assert [c.name for c in f.chain] == ["INVX16", "INVX64"]


class TestSweep:
    def test_alignment_offsets_span_window(self):
        offs = alignment_offsets(5, window=1e-9)
        assert offs[0] == pytest.approx(-0.5e-9)
        assert offs[-1] == pytest.approx(+0.5e-9)
        assert offs.size == 5

    def test_default_case_count_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_CASES", "7")
        assert default_case_count() == 7
        monkeypatch.setenv("REPRO_CASES", "junk")
        assert default_case_count(11) == 11
        monkeypatch.delenv("REPRO_CASES")
        assert default_case_count(13) == 13

    @pytest.fixture(scope="class")
    def noiseless(self):
        return run_noiseless(CONFIG_I, FAST)

    def test_noiseless_reference_sane(self, noiseless):
        assert noiseless.v_in.v_initial == pytest.approx(0.0, abs=0.02)
        assert noiseless.v_in.v_final == pytest.approx(VDD, abs=0.02)
        assert noiseless.v_out.v_final == pytest.approx(0.0, abs=0.02)
        assert noiseless.output_arrival > noiseless.v_in.arrival_time(VDD)

    def test_noise_case_distorts_waveform(self, noiseless):
        case = run_noise_case(CONFIG_I, (-0.05e-9,), FAST)
        diff = case.v_in_noisy.minus(noiseless.v_in)
        assert np.max(np.abs(diff.values)) > 0.1  # visible crosstalk

    def test_full_pipeline_single_case(self, noiseless):
        case = run_noise_case(CONFIG_I, (0.0,), FAST)
        fixture = receiver_fixture(CONFIG_I, dt=4e-12)
        inputs = PropagationInputs(
            v_in_noisy=case.v_in_noisy, vdd=VDD,
            v_in_noiseless=noiseless.v_in, v_out_noiseless=noiseless.v_out)
        golden, results = evaluate_techniques(fixture, inputs, all_techniques())
        assert set(results) == {"P1", "P2", "LSF3", "E4", "WLS5", "SGDP"}
        ok = [r for r in results.values() if not r.failed]
        assert len(ok) >= 5
        for r in ok:
            assert abs(r.delay_error) < 400e-12  # same ballpark as golden
        assert golden.output_arrival == pytest.approx(case.golden_output_arrival,
                                                      abs=10e-12)


def _assert_same_wave(a, b):
    np.testing.assert_array_equal(a.times, b.times)
    np.testing.assert_array_equal(a.values, b.values)


class TestSingleCaseDrivers:
    """The single-case drivers are one-job sweeps: bit-for-bit equal to
    the matching :func:`run_noise_cases` call."""

    TIMING = SweepTiming(dt=4e-12, t_stop=2.2e-9)

    @pytest.mark.parametrize("config", [CONFIG_I, CONFIG_II],
                             ids=lambda c: c.name)
    def test_run_noise_case_is_one_case_sweep(self, config):
        offsets = tuple(-0.1e-9 for _ in range(config.n_aggressors))
        case = run_noise_case(config, offsets, self.TIMING)
        _, (swept,) = run_noise_cases(config, [offsets], self.TIMING)
        assert case.offsets == swept.offsets == offsets
        _assert_same_wave(case.v_in_noisy, swept.v_in_noisy)
        _assert_same_wave(case.v_out_noisy, swept.v_out_noisy)
        assert case.golden_output_arrival == swept.golden_output_arrival

    @pytest.mark.parametrize("config", [CONFIG_I, CONFIG_II],
                             ids=lambda c: c.name)
    def test_run_noiseless_is_reference_only_sweep(self, config):
        ref = run_noiseless(config, self.TIMING)
        swept, cases = run_noise_cases(config, [], self.TIMING,
                                       include_noiseless=True)
        assert cases == []
        _assert_same_wave(ref.v_in, swept.v_in)
        _assert_same_wave(ref.v_out, swept.v_out)
        assert ref.output_arrival == swept.output_arrival


class TestTable1Harness:
    def test_structure_and_format(self):
        res = run_table1(CONFIG_I, n_cases=2, timing=FAST, polarity="opposing",
                         techniques=[technique_by_name("P2"),
                                     technique_by_name("SGDP")])
        assert res.n_cases == 2
        assert [r.technique for r in res.rows] == ["P2", "SGDP"]
        assert res.row("SGDP").delay.count + res.row("SGDP").delay.failures == 2
        text = res.format()
        assert "Configuration I" in text and "SGDP" in text

    def test_polarity_validation(self):
        with pytest.raises(ValueError):
            run_table1(CONFIG_I, n_cases=2, polarity="sideways")

    def test_rows_match_scipy_savgol_filter(self, monkeypatch):
        """ρ's NumPy Savitzky–Golay filter moves no row beyond 1e-18 s."""
        from scipy.signal import savgol_filter

        import repro.core.sensitivity as sensitivity

        ours = run_table1(CONFIG_I, n_cases=2)
        monkeypatch.setattr(sensitivity, "_savgol3",
                            lambda x, window: savgol_filter(x, window, 3))
        reference = run_table1(CONFIG_I, n_cases=2)
        assert [r.technique for r in ours.rows] == \
            [r.technique for r in reference.rows]
        for got, ref in zip(ours.rows, reference.rows):
            for name in ("delay", "arrival"):
                a, b = getattr(got, name), getattr(ref, name)
                assert (a.count, a.failures) == (b.count, b.failures)
                for field in ("max_abs", "mean_abs", "rms", "mean_signed"):
                    assert abs(getattr(a, field) - getattr(b, field)) <= 1e-18, \
                        (got.technique, name, field)


class TestFigure2:
    def test_series_shapes_and_content(self):
        data = generate_figure2(CONFIG_I, offset=-0.1e-9, timing=FAST, n_points=101)
        assert data.times.size == 101
        # Noiseless pair transitions, rho has a bump, gamma is a ramp.
        assert data.v_in_noiseless[-1] == pytest.approx(VDD, abs=0.05)
        assert data.v_out_noiseless[-1] == pytest.approx(0.0, abs=0.05)
        assert np.max(data.rho_noiseless_scaled) > 0.1
        assert np.max(data.rho_eff_scaled) > 0.1
        assert data.gamma_eff.min() >= 0.0 and data.gamma_eff.max() <= VDD
        # v_out_eff approximates the golden noisy output.
        err = np.max(np.abs(data.v_out_eff - data.v_out_noisy))
        assert err < 0.75 * VDD

    def test_csv_export(self):
        data = generate_figure2(CONFIG_I, offset=-0.1e-9, timing=FAST, n_points=41)
        csv = data.to_csv()
        lines = csv.strip().split("\n")
        assert lines[0].startswith("time,")
        assert len(lines) == 42

    def test_ascii_plot_renders(self):
        t = np.linspace(0, 1e-9, 50)
        art = ascii_plot(t, {"sin": np.sin(t * 6e9), "cos": np.cos(t * 6e9)},
                         width=40, height=10)
        assert "s=sin" in art and "c=cos" in art
        assert len(art.split("\n")) == 13


class TestRuntimeHarness:
    def test_measures_all_techniques(self):
        inputs = make_runtime_inputs(CONFIG_I, timing=FAST)
        out = measure_runtimes(inputs, repeat=3, warmup=1)
        assert set(out) == {"P1", "P2", "LSF3", "E4", "WLS5", "SGDP"}
        for m in out.values():
            assert m.seconds_per_call > 0
            assert m.microseconds == pytest.approx(m.seconds_per_call * 1e6)
