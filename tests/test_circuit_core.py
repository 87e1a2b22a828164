"""Tests for circuit netlist construction, sources and the MOSFET model,
and for which parts of SciPy the package pulls in at import time."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.circuit.mosfet import MosfetParams, NMOS_013, PMOS_013, mosfet_eval
from repro.circuit.netlist import Circuit, GROUND
from repro.circuit.sources import (
    Dc,
    Pwl,
    PulseSource,
    RampSource,
    WaveformSource,
    as_source,
)
from repro.core.waveform import Waveform


class TestSources:
    def test_dc(self):
        s = Dc(1.2)
        assert s(0.0) == 1.2
        assert np.allclose(s(np.array([0.0, 1.0])), 1.2)
        assert s.breakpoints == ()

    def test_pwl_interpolates_and_clamps(self):
        s = Pwl([(0.0, 0.0), (1.0, 2.0)])
        assert s(0.5) == pytest.approx(1.0)
        assert s(-1.0) == 0.0
        assert s(2.0) == 2.0

    def test_pwl_rejects_duplicate_times(self):
        with pytest.raises(ValueError):
            Pwl([(0.0, 0.0), (0.0, 1.0)])

    def test_pwl_breakpoints_sorted(self):
        s = Pwl([(1.0, 1.0), (0.0, 0.0)])
        assert s.breakpoints == (0.0, 1.0)

    def test_ramp_source_duration(self):
        s = RampSource(0.0, 80e-12, 0.0, 1.2)
        assert s.duration == pytest.approx(100e-12)
        assert s(50e-12) == pytest.approx(0.6)

    def test_pulse_source_shape(self):
        s = PulseSource(0.0, rise=1e-10, width=2e-10, fall=1e-10,
                        v_base=0.0, v_peak=1.0)
        assert s(1.5e-10) == pytest.approx(1.0)
        assert s(5e-10) == pytest.approx(0.0)

    def test_waveform_source(self):
        w = Waveform([0.0, 1.0], [0.0, 1.0])
        s = WaveformSource(w)
        assert s(0.5) == pytest.approx(0.5)
        assert len(s.breakpoints) == 2

    def test_as_source_dispatch(self):
        assert isinstance(as_source(1.0), Dc)
        assert isinstance(as_source([(0.0, 0.0), (1.0, 1.0)]), Pwl)
        assert isinstance(as_source(Waveform([0.0, 1.0], [0.0, 1.0])), WaveformSource)
        src = Dc(2.0)
        assert as_source(src) is src


class TestCircuitBuilder:
    def test_ground_aliases_fold(self):
        c = Circuit()
        c.resistor("R1", "a", "gnd", 10.0)
        c.resistor("R2", "b", "VSS", 10.0)
        assert c.resistors[0].node_b == GROUND
        assert c.resistors[1].node_b == GROUND
        assert c.nodes == ["a", "b"]

    def test_duplicate_names_rejected(self):
        c = Circuit()
        c.resistor("R1", "a", "0", 10.0)
        with pytest.raises(ValueError, match="duplicate"):
            c.capacitor("R1", "a", "0", 1e-12)

    def test_self_loop_rejected(self):
        c = Circuit()
        with pytest.raises(ValueError):
            c.resistor("R1", "a", "a", 10.0)

    def test_negative_values_rejected(self):
        c = Circuit()
        with pytest.raises(ValueError):
            c.resistor("R1", "a", "0", -1.0)
        with pytest.raises(ValueError):
            c.capacitor("C1", "a", "0", 0.0)

    def test_mosfet_parasitics_added(self):
        c = Circuit()
        c.vsource("Vdd", "vdd", "0", 1.2)
        c.mosfet("M1", "out", "in", "0", NMOS_013, w=1e-6, length=0.13e-6)
        names = {cap.name for cap in c.capacitors}
        assert {"M1.cgs", "M1.cgd", "M1.cdb"} <= names

    def test_mosfet_without_parasitics(self):
        c = Circuit()
        c.mosfet("M1", "out", "in", "0", NMOS_013, w=1e-6, length=0.13e-6,
                 with_parasitics=False)
        assert not c.capacitors

    def test_inverter_composite(self):
        c = Circuit()
        c.vsource("Vdd", "vdd", "0", 1.2)
        c.inverter("inv", "a", "y", "vdd", wn=0.5e-6, wp=1.0e-6)
        assert len(c.mosfets) == 2
        polarities = sorted(m.params.polarity for m in c.mosfets)
        assert polarities == [-1, 1]

    def test_stats(self):
        c = Circuit()
        c.vsource("V1", "a", "0", 1.0)
        c.resistor("R1", "a", "b", 10.0)
        c.capacitor("C1", "b", "0", 1e-12)
        s = c.stats()
        assert (s["nodes"], s["resistors"], s["capacitors"], s["vsources"]) == (2, 1, 1, 1)


class TestMosfetModel:
    def test_params_validation(self):
        with pytest.raises(ValueError):
            MosfetParams(polarity=2, kp=1e-4, vth=0.3, lam=0.0, cox=0.01, cj=1e-9)
        with pytest.raises(ValueError):
            MosfetParams(polarity=1, kp=-1.0, vth=0.3, lam=0.0, cox=0.01, cj=1e-9)

    def test_beta_and_caps_scale_with_width(self):
        b1 = NMOS_013.beta(1e-6, 0.13e-6)
        b2 = NMOS_013.beta(2e-6, 0.13e-6)
        assert b2 == pytest.approx(2 * b1)
        assert NMOS_013.gate_capacitance(2e-6, 0.13e-6) == pytest.approx(
            2 * NMOS_013.gate_capacitance(1e-6, 0.13e-6))

    def _eval_single(self, vd, vg, vs, params):
        ids, dd, dg, ds = mosfet_eval(
            np.array([vd]), np.array([vg]), np.array([vs]),
            np.array([params.polarity]),
            np.array([params.beta(1e-6, 0.13e-6)]),
            np.array([params.vth]), np.array([params.lam]))
        return float(ids[0]), float(dd[0]), float(dg[0]), float(ds[0])

    def test_nmos_cutoff(self):
        ids, *_ = self._eval_single(1.2, 0.0, 0.0, NMOS_013)
        # Smoothed model leaks a little near threshold but stays tiny off.
        assert abs(ids) < 1e-6

    def test_nmos_saturation_positive_current(self):
        ids, dd, dg, ds = self._eval_single(1.2, 1.2, 0.0, NMOS_013)
        assert ids > 1e-4           # strong conduction into the drain
        assert dg > 0               # gm positive
        assert dd > 0               # gds positive (CLM)

    def test_nmos_triode_less_than_saturation(self):
        ids_tri, *_ = self._eval_single(0.05, 1.2, 0.0, NMOS_013)
        ids_sat, *_ = self._eval_single(1.2, 1.2, 0.0, NMOS_013)
        assert 0 < ids_tri < ids_sat

    def test_pmos_mirrors_nmos(self):
        # PMOS with source at vdd conducting when gate low.
        ids, *_ = self._eval_single(0.0, 0.0, 1.2, PMOS_013)
        assert ids < -1e-4          # current flows out of the drain terminal

    def test_drain_source_symmetry(self):
        # Swapping drain and source negates the current.
        f, *_ = self._eval_single(1.0, 1.2, 0.0, NMOS_013)
        r, *_ = self._eval_single(0.0, 1.2, 1.0, NMOS_013)
        assert f == pytest.approx(-r, rel=1e-9)

    def test_derivatives_match_finite_difference(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            vd, vg, vs = rng.uniform(0.0, 1.2, size=3)
            ids, dd, dg, ds = self._eval_single(vd, vg, vs, NMOS_013)
            h = 1e-7
            fd_d = (self._eval_single(vd + h, vg, vs, NMOS_013)[0] - ids) / h
            fd_g = (self._eval_single(vd, vg + h, vs, NMOS_013)[0] - ids) / h
            fd_s = (self._eval_single(vd, vg, vs + h, NMOS_013)[0] - ids) / h
            scale = max(abs(ids) * 10, 1e-5)
            assert dd == pytest.approx(fd_d, abs=scale * 2e-2)
            assert dg == pytest.approx(fd_g, abs=scale * 2e-2)
            assert ds == pytest.approx(fd_s, abs=scale * 2e-2)

    def test_current_continuity_across_vds_zero(self):
        lo, *_ = self._eval_single(-1e-6, 1.0, 0.0, NMOS_013)
        hi, *_ = self._eval_single(+1e-6, 1.0, 0.0, NMOS_013)
        assert lo == pytest.approx(hi, abs=1e-8)


def _device_grid():
    """(vd, vg, vs, pol, beta, vth, lam) covering every model region.

    Cutoff, triode, saturation, the vds == vov boundary, reversed drain
    bias (source/drain swap) and both polarities, near and away from
    the smoothing scale.
    """
    vgs = np.array([-0.3, 0.0, 0.25, 0.31, 0.32, 0.33, 0.6, 1.2])
    vds = np.array([-0.8, -0.05, 0.0, 0.005, 0.28, 0.88, 1.2])
    vg, vd = np.meshgrid(vgs, vds, indexing="ij")
    vg, vd = vg.ravel(), vd.ravel()
    vs = np.zeros_like(vd)
    n = vd.size
    rows = []
    for pol in (1.0, -1.0):
        rows.append((pol * vd, pol * vg, vs,
                     np.full(n, pol), np.full(n, 8e-4),
                     np.full(n, 0.32), np.full(n, 0.06)))
    return [np.concatenate(parts) for parts in zip(*rows)]


class TestFlatPrimitive:
    def test_scalar_is_batch_of_one_bitwise(self):
        vd, vg, vs, pol, beta, vth, lam = _device_grid()
        flat = mosfet_eval(vd, vg, vs, pol, beta, vth, lam)
        batched = mosfet_eval(vd[None, :], vg[None, :], vs[None, :],
                              pol, beta, vth, lam)
        for a, b in zip(flat, batched):
            assert b.shape == (1, vd.size)
            assert np.array_equal(a, b[0])

    def test_currents_change_sign_with_drain_bias(self):
        # The square-law device is symmetric: swapping drain bias sign
        # flips the current — a cheap sanity check that the swap frame
        # in the primitive is live, not dead code.
        ids_f, *_ = mosfet_eval(np.array([0.6]), np.array([1.2]),
                                np.array([0.0]), np.array([1.0]),
                                np.array([8e-4]), np.array([0.32]),
                                np.array([0.0]))
        ids_r, *_ = mosfet_eval(np.array([-0.6]), np.array([0.6]),
                                np.array([0.0]), np.array([1.0]),
                                np.array([8e-4]), np.array([0.32]),
                                np.array([0.0]))
        assert ids_f[0] > 0.0
        # Reverse frame: source and drain swap, gate overdrive differs,
        # but the current must be negative (flowing out of the drain).
        assert ids_r[0] < 0.0


SRC = Path(__file__).resolve().parents[1] / "src"


def _loaded_scipy_modules(code: str) -> list[str]:
    """Run ``code`` in a fresh interpreter; return the ``scipy*`` modules
    it left in ``sys.modules``."""
    probe = textwrap.dedent(code) + textwrap.dedent("""
        import sys
        print(*(m for m in sys.modules if m.split(".")[0] == "scipy"))
    """)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("REPRO_STORE", None)  # a warm store would skip the solves
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    return out.split()


class TestImportHygiene:
    """Parsing and SSTA never load SciPy; nothing loads ``scipy.signal``."""

    def test_sta_and_parsers_load_no_scipy(self):
        loaded = _loaded_scipy_modules("""
            import repro
            import repro.library.liberty
            import repro.sta
            import repro.sta.sdf
        """)
        assert loaded == []

    def test_monte_carlo_ssta_loads_no_scipy(self):
        data = SRC.parent / "tests" / "data"
        loaded = _loaded_scipy_modules(f"""
            from repro.exec import ExecutionConfig
            from repro.library.liberty import parse_liberty
            from repro.sta import InputSpec, read_verilog, run_sta_monte_carlo

            with open({str(data / "c17.v")!r}) as fh:
                net = read_verilog(fh.read())
            with open({str(data / "c17.lib")!r}) as fh:
                lib = parse_liberty(fh.read())
            res = run_sta_monte_carlo(
                net, lib,
                inputs={{n: InputSpec(slew=50e-12)
                         for n in net.primary_inputs}},
                required_times={{n: 100e-12 for n in net.primary_outputs}},
                samples=64, seed=3, journal=False,
                execution=ExecutionConfig(workers=1))
            assert len(res.rows) == 64
        """)
        assert loaded == []

    def test_service_and_table1_skip_scipy_signal(self):
        loaded = _loaded_scipy_modules("""
            import repro.experiments.table1
            import repro.service
        """)
        assert "scipy.signal" not in loaded

    def test_sensitivity_on_a_simulated_inverter_skips_scipy_signal(self):
        loaded = _loaded_scipy_modules("""
            from repro.core.propagation import GateFixture
            from repro.core.ramp import SaturatedRamp
            from repro.core.sensitivity import compute_sensitivity
            from repro.library.cells import make_inverter

            fixture = GateFixture(cell=make_inverter(4), extra_load=5e-15,
                                  dt=2e-12)
            ramp = SaturatedRamp.from_arrival_slew(0.3e-9, 100e-12, 1.2)
            out = fixture.response(ramp, t_window=(0.0, 0.8e-9))
            sens = compute_sensitivity(out.v_in, out.v_out, 1.2)
            assert sens.peak_rho > 0.5
        """)
        assert "scipy.linalg" in loaded  # the transient engine factored
        assert "scipy.signal" not in loaded
