"""Tests for MNA assembly, DC operating point and transient analysis.

The transient engine is validated against closed-form RC responses and an
independent ``scipy`` ODE integration of the same linear network — this is
the evidence that lets the rest of the suite trust simulated waveforms.
"""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from repro.circuit.dc import dc_operating_point
from repro.circuit.mna import MnaSystem
from repro.circuit.netlist import Circuit
from repro.circuit.sources import RampSource
from repro.circuit.transient import TransientJob, TransientOptions

VDD = 1.2


def _divider() -> Circuit:
    c = Circuit("divider")
    c.vsource("Vin", "in", "0", 1.0)
    c.resistor("R1", "in", "mid", 1e3)
    c.resistor("R2", "mid", "0", 3e3)
    return c


class TestMna:
    def test_indexing(self):
        mna = MnaSystem(_divider())
        assert mna.n_nodes == 2 and mna.n_branches == 1
        assert mna.index_of("0") == -1
        assert mna.index_of("in") != mna.index_of("mid")

    def test_divider_dc_solution(self):
        mna = MnaSystem(_divider())
        x = np.linalg.solve(mna.g_lin, mna.source_rhs(0.0))
        assert x[mna.index_of("mid")] == pytest.approx(0.75, rel=1e-6)

    def test_vsource_branch_current(self):
        mna = MnaSystem(_divider())
        x = np.linalg.solve(mna.g_lin, mna.source_rhs(0.0))
        # 1 V across 4 kΩ; positive current flows out of the + terminal,
        # so the branch variable is -0.25 mA by the MNA sign convention.
        assert abs(x[mna.branch_index["Vin"]]) == pytest.approx(2.5e-4, rel=1e-5)

    def test_isource_injection(self):
        c = Circuit()
        c.isource("I1", "0", "n", 1e-3)  # push 1 mA into n
        c.resistor("R1", "n", "0", 1e3)
        mna = MnaSystem(c)
        x = np.linalg.solve(mna.g_lin, mna.source_rhs(0.0))
        assert x[mna.index_of("n")] == pytest.approx(1.0, rel=1e-5)

    def test_source_breakpoints_union(self):
        c = _divider()
        c.vsource("V2", "x", "0", [(0.0, 0.0), (1e-9, 1.0)])
        c.resistor("Rx", "x", "0", 1.0e3)
        mna = MnaSystem(c)
        assert 1e-9 in mna.source_breakpoints().tolist()


class TestDc:
    def test_divider(self):
        res = dc_operating_point(_divider())
        assert res.voltage("mid") == pytest.approx(0.75, rel=1e-6)
        assert "mid" in res.voltages()

    def test_inverter_rails(self):
        c = Circuit()
        c.vsource("Vdd", "vdd", "0", VDD)
        c.vsource("Vin", "in", "0", 0.0)
        c.inverter("inv", "in", "out", "vdd", wn=0.5e-6, wp=1.0e-6)
        res = dc_operating_point(c)
        assert res.voltage("out") == pytest.approx(VDD, abs=0.01)

    def test_inverter_switching_point_near_midrail(self):
        c = Circuit()
        c.vsource("Vdd", "vdd", "0", VDD)
        c.vsource("Vin", "in", "0", VDD / 2)
        c.inverter("inv", "in", "out", "vdd", wn=0.5e-6, wp=1.0e-6)
        res = dc_operating_point(c)
        assert 0.2 * VDD < res.voltage("out") < 0.8 * VDD

    def test_inverter_chain_converges_without_hint(self):
        c = Circuit()
        c.vsource("Vdd", "vdd", "0", VDD)
        c.vsource("Vin", "n0", "0", 0.0)
        for k in range(4):
            c.inverter(f"i{k}", f"n{k}", f"n{k + 1}", "vdd", wn=0.5e-6, wp=1.0e-6)
        res = dc_operating_point(c)
        assert res.voltage("n4") == pytest.approx(0.0, abs=0.02)
        assert res.voltage("n3") == pytest.approx(VDD, abs=0.02)


class TestTransient:
    def test_rc_step_matches_analytic(self):
        c = Circuit()
        c.vsource("Vin", "in", "0", [(0.0, 0.0), (1e-12, 1.0)])
        c.resistor("R", "in", "out", 1e3)
        c.capacitor("C", "out", "0", 1e-12)  # tau = 1 ns
        res = TransientJob(c, t_stop=5e-9, dt=5e-12).run()
        w = res.waveform("out")
        for t in (0.5e-9, 1e-9, 3e-9):
            expect = 1.0 - np.exp(-(t - 1e-12) / 1e-9)
            assert w(t) == pytest.approx(expect, abs=2e-3)

    def test_trapezoidal_second_order_convergence(self):
        # Put the source corner exactly on both step grids so the local
        # corner error does not mask the integrator order.
        c = Circuit()
        c.vsource("Vin", "in", "0", [(0.0, 0.0), (40e-12, 1.0)])
        c.resistor("R", "in", "out", 1e3)
        c.capacitor("C", "out", "0", 1e-12)
        errs = []
        for dt in (20e-12, 10e-12):
            res = TransientJob(c, t_stop=2e-9, dt=dt).run()
            w = res.waveform("out")
            # Analytic response to the finite ramp 0->1 V over [0, T].
            T, tau, t = 40e-12, 1e-9, 2e-9
            expect = 1.0 - (tau / T) * (np.exp(-(t - T) / tau) - np.exp(-t / tau))
            errs.append(abs(w(t) - expect))
        # Halving dt should cut the error by about 4x (second order).
        assert errs[1] < errs[0] / 2.5

    def test_matches_scipy_on_coupled_rc(self):
        # Two RC branches coupled by a capacitor, driven by a ramp; the
        # state-space reference is integrated independently with scipy.
        r1, r2 = 1e3, 2e3
        c1, c2, cm = 0.5e-12, 0.8e-12, 0.3e-12
        ramp = RampSource(0.1e-9, 200e-12, 0.0, 1.0)

        circ = Circuit()
        circ.vsource("Vin", "in", "0", ramp)
        circ.resistor("R1", "in", "a", r1)
        circ.resistor("R2", "in", "b", r2)
        circ.capacitor("C1", "a", "0", c1)
        circ.capacitor("C2", "b", "0", c2)
        circ.capacitor("Cm", "a", "b", cm)
        res = TransientJob(circ, t_stop=2e-9, dt=2e-12).run()

        cmat = np.array([[c1 + cm, -cm], [-cm, c2 + cm]])

        def rhs(t, v):
            u = ramp.value_at(t)
            i = np.array([(u - v[0]) / r1, (u - v[1]) / r2])
            return np.linalg.solve(cmat, i)

        ref = solve_ivp(rhs, (0.0, 2e-9), [0.0, 0.0], rtol=1e-9, atol=1e-12,
                        dense_output=True)
        for t in (0.3e-9, 0.8e-9, 1.5e-9):
            va, vb = ref.sol(t)
            assert res.waveform("a")(t) == pytest.approx(va, abs=2e-3)
            assert res.waveform("b")(t) == pytest.approx(vb, abs=2e-3)

    def test_use_ic_skips_dc(self):
        c = Circuit()
        c.vsource("Vin", "in", "0", 1.0)
        c.resistor("R", "in", "out", 1e3)
        c.capacitor("C", "out", "0", 1e-13)
        res = TransientJob(c, t_stop=3e-9, dt=10e-12, use_ic=True,
                           initial_voltages={"out": 0.0}).run()
        w = res.waveform("out")
        assert w.v_initial == pytest.approx(0.0, abs=1e-9)
        assert w.v_final == pytest.approx(1.0, abs=5e-3)

    def test_inverter_full_swing_and_delay(self):
        c = Circuit()
        c.vsource("Vdd", "vdd", "0", VDD)
        c.vsource("Vin", "in", "0", RampSource(0.2e-9, 150e-12, 0.0, VDD))
        c.inverter("inv", "in", "out", "vdd", wn=0.5e-6, wp=1.0e-6)
        c.capacitor("CL", "out", "0", 10e-15)
        res = TransientJob(c, t_stop=2e-9, dt=2e-12).run()
        vout = res.waveform("out")
        vin = res.waveform("in")
        assert vout.v_initial == pytest.approx(VDD, abs=0.01)
        assert vout.v_final == pytest.approx(0.0, abs=0.01)
        delay = vout.cross_time(VDD / 2) - vin.cross_time(VDD / 2)
        assert 10e-12 < delay < 200e-12

    def test_vdd_current_flows_during_switching(self):
        c = Circuit()
        c.vsource("Vdd", "vdd", "0", VDD)
        c.vsource("Vin", "in", "0", RampSource(0.2e-9, 150e-12, VDD, 0.0))
        c.inverter("inv", "in", "out", "vdd", wn=0.5e-6, wp=1.0e-6)
        c.capacitor("CL", "out", "0", 20e-15)
        res = TransientJob(c, t_stop=1.5e-9, dt=2e-12).run()
        i_vdd = res.branch_current("Vdd")
        assert np.max(np.abs(i_vdd)) > 1e-5  # charging current visible

    def test_final_voltages_helper(self):
        res = TransientJob(_with_cap(), t_stop=1e-9, dt=10e-12).run()
        final = res.final_voltages()
        assert set(final) == {"in", "out"}

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            TransientJob(_with_cap(), t_stop=0.0, dt=1e-12).run()
        with pytest.raises(ValueError):
            TransientJob(_with_cap(), t_stop=1e-9, dt=-1.0).run()

    def test_options_validation_surface(self):
        res = TransientJob(_with_cap(), t_stop=1e-9, dt=10e-12,
                           options=TransientOptions(abstol=1e-7)).run()
        assert res.times[-1] == pytest.approx(1e-9)


def _with_cap() -> Circuit:
    c = Circuit()
    c.vsource("Vin", "in", "0", 1.0)
    c.resistor("R", "in", "out", 1e3)
    c.capacitor("C", "out", "0", 1e-13)
    return c
