"""DC solver: gmin-stepping control flow, result lookup, batched solves.

Pins the restructured :func:`repro.circuit.dc.dc_operating_point`: each
gmin stage solves exactly once on the success path (the seed re-solved
the final gmin=0 system up to two extra times), a failed first stage
raises without pointlessly retrying the already-failed plain solve, and
:class:`DcConvergenceError` names the stage that failed.  Also covers
the cached node lookup of :class:`DcResult`, the unconverged-on-singular
contract of the MOSFET-free ``_newton_dc`` early return, and the
batched-vs-serial equivalence of :func:`dc_operating_point_batch`.
"""

import numpy as np
import pytest

import repro.circuit.dc as dc_mod
import repro.circuit.transient as transient_mod
from repro.circuit.dc import (DcConvergenceError, GMIN_STAGES,
                              dc_operating_point, dc_operating_point_batch)
from repro.circuit.mna import MnaSystem
from repro.circuit.netlist import Circuit
from repro.circuit.sources import RampSource
from repro.circuit.transient import TransientJob, simulate_transient_many
from repro.interconnect.rcline import RcLineSpec, add_rc_line
from repro.library.cells import make_inverter

VDD = 1.2


def _inverter_circuit(vin: float = 0.0) -> Circuit:
    c = Circuit("inv_dc")
    c.vsource("Vdd", "vdd", "0", VDD)
    c.vsource("Vin", "in", "0", vin)
    make_inverter(4).instantiate(c, "u0", "in", "out", "vdd")
    c.capacitor("cl", "out", "0", 20e-15)
    return c


INV_SEED = {"in": 0.0, "out": VDD, "vdd": VDD}


class _NewtonSpy:
    """Counting (and optionally failure-injecting) ``_newton_dc`` wrapper;
    an injected failure reports every variant of the stack unconverged."""

    def __init__(self, fail_when=None):
        self.gmins: list[float] = []
        self._real = dc_mod._newton_dc
        self._fail_when = fail_when or (lambda idx, gmin: False)

    def __call__(self, mna, extra_gmin, rhs, x0, *args):
        idx = len(self.gmins)
        self.gmins.append(extra_gmin)
        if self._fail_when(idx, extra_gmin):
            return x0.copy(), np.zeros(x0.shape[0], dtype=bool)
        return self._real(mna, extra_gmin, rhs, x0, *args)


class TestGminControlFlow:
    def test_plain_newton_success_is_one_solve(self, monkeypatch):
        spy = _NewtonSpy()
        monkeypatch.setattr(dc_mod, "_newton_dc", spy)
        res = dc_operating_point(_inverter_circuit(), initial_voltages=INV_SEED)
        assert spy.gmins == [0.0]
        assert res.voltage("out") == pytest.approx(VDD, abs=0.05)

    def test_success_path_solves_each_stage_exactly_once(self, monkeypatch):
        """Regression for the seed's redundant re-solves: a successful
        gmin-stepping run is 1 failed plain solve + one solve per stage,
        nothing more (the final gmin=0 stage result is returned as-is)."""
        reference = dc_operating_point(_inverter_circuit(),
                                       initial_voltages=INV_SEED)
        spy = _NewtonSpy(fail_when=lambda idx, gmin: idx == 0)
        monkeypatch.setattr(dc_mod, "_newton_dc", spy)
        res = dc_operating_point(_inverter_circuit(), initial_voltages=INV_SEED)
        assert spy.gmins == [0.0, *GMIN_STAGES]
        assert len(spy.gmins) == 1 + len(GMIN_STAGES)
        np.testing.assert_allclose(res.solution, reference.solution, atol=1e-8)

    def test_first_stage_failure_raises_without_plain_retry(self, monkeypatch):
        """The seed retried the already-failed plain solve from the same
        seed before raising; now the failure is immediate and named."""
        spy = _NewtonSpy(fail_when=lambda idx, gmin: idx <= 1)
        monkeypatch.setattr(dc_mod, "_newton_dc", spy)
        with pytest.raises(DcConvergenceError, match=r"first gmin stage 1/8.*0\.01"):
            dc_operating_point(_inverter_circuit(), initial_voltages=INV_SEED)
        assert spy.gmins == [0.0, 1e-2]

    def test_midstage_failure_skips_ahead_to_gmin_zero(self, monkeypatch):
        spy = _NewtonSpy(fail_when=lambda idx, gmin: idx == 0 or gmin == 1e-5)
        monkeypatch.setattr(dc_mod, "_newton_dc", spy)
        res = dc_operating_point(_inverter_circuit(), initial_voltages=INV_SEED)
        # plain, 1e-2..1e-4 good, 1e-5 fails, direct gmin=0 jump succeeds.
        assert spy.gmins == [0.0, 1e-2, 1e-3, 1e-4, 1e-5, 0.0]
        assert res.voltage("out") == pytest.approx(VDD, abs=0.05)

    def test_midstage_failure_with_failed_jump_names_stage(self, monkeypatch):
        spy = _NewtonSpy(
            fail_when=lambda idx, gmin: idx == 0 or gmin in (1e-5, 0.0))
        monkeypatch.setattr(dc_mod, "_newton_dc", spy)
        with pytest.raises(DcConvergenceError,
                           match=r"gmin stage 4/8 \(gmin=1e-05\).*direct gmin=0"):
            dc_operating_point(_inverter_circuit(), initial_voltages=INV_SEED)
        assert spy.gmins == [0.0, 1e-2, 1e-3, 1e-4, 1e-5, 0.0]

    def test_final_stage_failure_names_final_stage(self, monkeypatch):
        spy = _NewtonSpy(fail_when=lambda idx, gmin: gmin == 0.0)
        monkeypatch.setattr(dc_mod, "_newton_dc", spy)
        with pytest.raises(DcConvergenceError, match="final gmin stage 8/8"):
            dc_operating_point(_inverter_circuit(), initial_voltages=INV_SEED)
        assert spy.gmins == [0.0, *GMIN_STAGES]


class TestDcResultLookup:
    @pytest.fixture(scope="class")
    def result(self):
        return dc_operating_point(_inverter_circuit(), initial_voltages=INV_SEED)

    def test_ground_is_zero(self, result):
        assert result.voltage("0") == 0.0

    def test_voltage_matches_voltages_map(self, result):
        for name, v in result.voltages().items():
            assert result.voltage(name) == v

    def test_unknown_node_raises_keyerror_naming_node(self, result):
        with pytest.raises(KeyError, match="no_such_node"):
            result.voltage("no_such_node")

    def test_name_index_is_cached(self, result):
        assert result._name_index is result._name_index


class TestNewtonDcLinear:
    def test_singular_linear_system_is_unconverged_then_clean_error(self):
        # Two ideal voltage sources in parallel: duplicated branch rows
        # make the MNA matrix singular at every gmin stage.  The linear
        # early return must report the variant unconverged (not leak
        # LinAlgError), and dc_operating_point must raise DcConvergenceError.
        c = Circuit("conflict")
        c.vsource("V1", "a", "0", 1.0)
        c.vsource("V2", "a", "0", 2.0)
        mna = MnaSystem(c)
        _, converged = dc_mod._newton_dc(mna, 0.0, mna.source_rhs(0.0)[None],
                                         np.zeros((1, mna.size)))
        assert not converged.any()
        with pytest.raises(DcConvergenceError, match="gmin stage"):
            dc_operating_point(c)

    def test_linear_early_return_honours_extra_gmin(self):
        # 1 Ω from a driven node to a node grounded only through the leak:
        # v_b = g / (g + extra_gmin + built-in gmin).
        c = Circuit("leak")
        c.vsource("Vin", "a", "0", 1.0)
        c.resistor("R", "a", "b", 1.0)
        mna = MnaSystem(c)
        x, converged = dc_mod._newton_dc(mna, 0.1, mna.source_rhs(0.0)[None],
                                         np.zeros((1, mna.size)))
        assert converged.all()
        expected = 1.0 / (1.0 + 0.1 + 1e-9)
        assert x[0, mna.index_of("b")] == pytest.approx(expected, rel=1e-12)


def _rc_bundle(n_lines: int = 3, n_segments: int = 8,
               ramp_starts: tuple[float, ...] | None = None) -> Circuit:
    starts = ramp_starts or tuple(0.1e-9 + 0.05e-9 * k for k in range(n_lines))
    c = Circuit("bundle_dc")
    spec = RcLineSpec(total_r=25.5, total_c=28.8e-15, n_segments=n_segments)
    for k in range(n_lines):
        c.vsource(f"V{k}", f"in{k}", "0",
                  RampSource(starts[k], 100e-12, 0.0, VDD))
        add_rc_line(c, f"l{k}", f"in{k}", f"out{k}", spec)
        c.capacitor(f"cl{k}", f"out{k}", "0", 5e-15)
    return c


class TestBatchedDc:
    def test_mosfet_batch_matches_serial(self):
        vins = [0.0, 0.3, 0.6, 0.9, VDD]
        circuits = [_inverter_circuit(v) for v in vins]
        seeds = [{"in": v, "out": VDD - v, "vdd": VDD} for v in vins]
        serial = [dc_operating_point(c, initial_voltages=s)
                  for c, s in zip(circuits, seeds)]
        batch = dc_operating_point_batch(circuits, initial_voltages=seeds)
        worst = max(float(np.max(np.abs(b.solution - s.solution)))
                    for b, s in zip(batch, serial))
        assert worst < 1e-12, f"batched DC deviates by {worst:.3e} V"

    def test_linear_batch_matches_serial(self):
        circuits = [_rc_bundle(ramp_starts=(t, t + 1e-10, t + 2e-10))
                    for t in (0.5e-9, 0.7e-9, 0.9e-9)]
        serial = [dc_operating_point(c, at_time=2.0e-9) for c in circuits]
        batch = dc_operating_point_batch(circuits, at_time=2.0e-9)
        worst = max(float(np.max(np.abs(b.solution - s.solution)))
                    for b, s in zip(batch, serial))
        assert worst < 1e-12, f"batched linear DC deviates by {worst:.3e} V"

    def test_topology_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shared topology"):
            dc_operating_point_batch([_inverter_circuit(), _rc_bundle()])

    def test_singular_linear_batch_raises_like_serial(self):
        """Regression: scipy's dense LU only *warns* on singularity, so
        the batched linear path used to return all-NaN operating points
        where the scalar path raises DcConvergenceError."""
        def conflict():
            c = Circuit("conflict")
            c.vsource("V1", "a", "0", 1.0)
            c.vsource("V2", "a", "0", 2.0)
            return c
        with pytest.raises(DcConvergenceError):
            dc_operating_point_batch([conflict(), conflict()])

    def test_batched_transient_groups_use_batched_dc(self, monkeypatch):
        """The batched driver's per-variant DC loop is gone: one stacked
        pass solves every initial state of a group."""
        calls = {"scalar": 0, "batch": 0}
        real_batch = transient_mod.dc_operating_point_batch

        def spy_scalar(*a, **k):
            calls["scalar"] += 1
            return dc_operating_point(*a, **k)

        def spy_batch(*a, **k):
            calls["batch"] += 1
            return real_batch(*a, **k)

        monkeypatch.setattr(transient_mod, "dc_operating_point", spy_scalar)
        monkeypatch.setattr(transient_mod, "dc_operating_point_batch", spy_batch)
        jobs = [TransientJob(_inverter_circuit(v), t_stop=0.2e-9, dt=10e-12,
                             initial_voltages={"in": v, "out": VDD - v,
                                               "vdd": VDD})
                for v in (0.0, 0.2, 0.4)]
        results = simulate_transient_many(jobs)
        assert results[0].stats["batch_size"] == 3
        assert calls["batch"] == 1
        assert calls["scalar"] == 0
