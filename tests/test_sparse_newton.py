"""Pattern-frozen sparse Newton for MOSFET circuits: equivalence + plumbing.

The contract of the Newton backends (PR 5) is that the structured
kernels — the frozen-pattern SuperLU refactorization and the
block-bordered banded/Schur kernel — are drop-in replacements for the
dense Newton path: <1e-9 V waveforms on every node for single and
stacked jobs, fixed-grid and adaptive stepping, and DC, over the
Table-1 gate testbenches, the receiver fixtures, and a
gate-driving-deep-interconnect netlist.
Singular structured refactorizations must degrade to dense mid-solve,
and the per-topology analysis (pattern/RCM/partition) must be computed
once per topology signature, not once per compiled system.
"""

import numpy as np
import pytest

from repro.circuit import mna as mna_mod
from repro.circuit.dc import dc_operating_point, dc_operating_point_batch
from repro.circuit.mna import (MnaSystem, SparseNewtonStep,
                               clear_analysis_cache)
from repro.circuit.netlist import Circuit
from repro.circuit.solvers import (BorderedBanded, PatternFrozenLu,
                                   analyze_pattern, select_backend)
from repro.circuit.sources import RampSource
from repro.circuit.transient import (BatchStimulus, TransientOptions,
                                     simulate_transient,
                                     simulate_transient_batch)
from repro.experiments.setup import (CONFIG_I, CONFIG_II, CrosstalkConfig,
                                     build_testbench, receiver_fixture)
from repro.library.cells import make_inverter

from helpers import sigmoid_edge

VOLTAGE_TOL = 1e-9
NEWTON_BACKENDS = ("sparse", "banded")


def _deep_config(n_segments: int) -> CrosstalkConfig:
    """Configuration I with a deeper line discretisation: the gate +
    coupled-RC-interconnect workload the Newton kernels target."""
    return CrosstalkConfig(name=f"deep{n_segments}", n_aggressors=1,
                           line_length_um=1000.0,
                           coupling_per_aggressor=100e-15,
                           n_segments=n_segments)


def _simulate(circuit, initial, backend, t_stop=0.4e-9, dt=2e-12, **kw):
    return simulate_transient(circuit, t_stop=t_stop, dt=dt,
                              initial_voltages=dict(initial),
                              options=TransientOptions(backend=backend, **kw))


def _worst_dv(ref, other):
    return max(float(np.max(np.abs(other.voltages_at(n, ref.times)
                                   - ref.voltage_samples(n))))
               for n in ref.node_names)


class TestScalarEquivalence:
    @pytest.mark.parametrize("config", [CONFIG_I, CONFIG_II],
                             ids=["config_I", "config_II"])
    @pytest.mark.parametrize("backend", NEWTON_BACKENDS)
    def test_table1_testbenches(self, config, backend):
        tb = build_testbench(config, 0.2e-9,
                             tuple([0.25e-9] * config.n_aggressors))
        ref = _simulate(tb.circuit, tb.initial_voltages, "dense",
                        t_stop=1.1e-9)
        res = _simulate(tb.circuit, tb.initial_voltages, backend,
                        t_stop=1.1e-9)
        # Paper-scale testbenches have no viable core/border partition,
        # so both structured names resolve to the sparse kernel.
        assert res.stats["backend"] == "sparse"
        assert res.stats["newton_fallbacks"] == 0
        assert _worst_dv(ref, res) < VOLTAGE_TOL
        # The victim output actually switches — not a vacuous comparison.
        assert abs(ref.voltage_samples("out_u")[-1]
                   - ref.voltage_samples("out_u")[0]) > 0.5

    @pytest.mark.parametrize("backend", NEWTON_BACKENDS)
    def test_gate_drives_192_segment_line(self, backend):
        tb = build_testbench(_deep_config(192), 0.05e-9, (0.06e-9,))
        ref = _simulate(tb.circuit, tb.initial_voltages, "dense",
                        t_stop=0.2e-9, dt=2e-12)
        res = _simulate(tb.circuit, tb.initial_voltages, backend,
                        t_stop=0.2e-9, dt=2e-12)
        assert res.stats["backend"] == backend
        assert _worst_dv(ref, res) < VOLTAGE_TOL

    def test_auto_engages_bordered_kernel_at_depth(self):
        tb = build_testbench(_deep_config(96), 0.05e-9, (0.06e-9,))
        res = _simulate(tb.circuit, tb.initial_voltages, "auto",
                        t_stop=0.1e-9, dt=2e-12)
        assert res.stats["backend"] == "banded"

    def test_auto_keeps_paper_scale_dense(self):
        tb = build_testbench(CONFIG_I, 0.2e-9, (0.25e-9,))
        res = _simulate(tb.circuit, tb.initial_voltages, "auto",
                        t_stop=0.1e-9)
        assert res.stats["backend"] == "dense"


class TestBatchedEquivalence:
    def _stimuli(self, base=0.05e-9):
        return [BatchStimulus(sources={"Vy": RampSource(base + k * 0.01e-9,
                                                        150e-12, 1.2, 0.0)})
                for k in range(3)]

    @pytest.mark.parametrize("backend", NEWTON_BACKENDS)
    def test_batched_matches_dense_batched(self, backend):
        tb = build_testbench(_deep_config(64), 0.05e-9, (0.06e-9,))
        kw = dict(t_stop=0.25e-9, dt=2e-12)
        dense = simulate_transient_batch(
            tb.circuit,
            [BatchStimulus(sources=s.sources,
                           initial_voltages=tb.initial_voltages)
             for s in self._stimuli()],
            options=TransientOptions(backend="dense"), **kw)
        res = simulate_transient_batch(
            tb.circuit,
            [BatchStimulus(sources=s.sources,
                           initial_voltages=tb.initial_voltages)
             for s in self._stimuli()],
            options=TransientOptions(backend=backend), **kw)
        assert res[0].stats["backend"] == backend
        assert res[0].stats["batch_size"] == 3
        for d, r in zip(dense, res):
            assert _worst_dv(d, r) < VOLTAGE_TOL

    @pytest.mark.parametrize("backend", NEWTON_BACKENDS)
    def test_adaptive_matches_dense_adaptive(self, backend):
        tb = build_testbench(_deep_config(64), 0.05e-9, (0.06e-9,))
        kw = dict(t_stop=1.5e-9, dt=2e-12, adaptive=True)
        dense = _simulate(tb.circuit, tb.initial_voltages, "dense", **kw)
        res = _simulate(tb.circuit, tb.initial_voltages, backend, **kw)
        assert res.stats["backend"] == backend
        assert res.stats["adaptive"] is True
        # The controller's accept/reject decisions see only ~1e-12 V
        # solver differences, so the accepted grids coincide and the
        # waveforms agree to the fixed-grid tolerance.
        assert np.array_equal(dense.times, res.times)
        assert _worst_dv(dense, res) < VOLTAGE_TOL
        assert res.stats["steps_accepted"] < 750  # strides actually grew


class TestReceiverFixture:
    @pytest.mark.parametrize("backend", ["sparse"])
    def test_fixture_response_matches_dense(self, backend):
        edge = sigmoid_edge(0.3e-9, 150e-12)
        outs = {}
        for b in ("dense", backend):
            fixture = receiver_fixture(CONFIG_I, dt=2e-12, solver_backend=b,
                                       adaptive=False)
            outs[b] = fixture.response(edge)
        ref, res = outs["dense"], outs[backend]
        dv = np.abs(res.v_out.resampled(times=ref.v_out.times).values
                    - ref.v_out.values)
        assert float(dv.max()) < VOLTAGE_TOL
        assert abs(res.gate_delay - ref.gate_delay) < 1e-13


class TestDcEquivalence:
    @pytest.mark.parametrize("config", [CONFIG_I, CONFIG_II],
                             ids=["config_I", "config_II"])
    def test_scalar_dc(self, config):
        tb = build_testbench(config, 0.2e-9,
                             tuple([0.25e-9] * config.n_aggressors))
        ref = dc_operating_point(tb.circuit,
                                 initial_voltages=dict(tb.initial_voltages),
                                 backend="dense")
        res = dc_operating_point(tb.circuit,
                                 initial_voltages=dict(tb.initial_voltages),
                                 backend="sparse")
        assert float(np.max(np.abs(res.solution - ref.solution))) \
            < VOLTAGE_TOL

    def test_deep_line_dc_all_requests(self):
        tb = build_testbench(_deep_config(192), 0.05e-9, (0.06e-9,))
        ref = dc_operating_point(tb.circuit,
                                 initial_voltages=dict(tb.initial_voltages),
                                 backend="dense")
        for backend in ("sparse", "banded", "auto"):
            res = dc_operating_point(
                tb.circuit, initial_voltages=dict(tb.initial_voltages),
                backend=backend)
            assert float(np.max(np.abs(res.solution - ref.solution))) \
                < VOLTAGE_TOL

    def test_batched_dc_matches_scalar(self):
        tb = build_testbench(_deep_config(48), 0.05e-9, (0.06e-9,))
        circuits = [tb.circuit] * 3
        seeds = [dict(tb.initial_voltages)] * 3
        batch = dc_operating_point_batch(circuits, initial_voltages=seeds,
                                         backend="sparse")
        for res in batch:
            ref = dc_operating_point(tb.circuit,
                                     initial_voltages=dict(
                                         tb.initial_voltages),
                                     backend="dense")
            assert float(np.max(np.abs(res.solution - ref.solution))) \
                < VOLTAGE_TOL


def _inverter() -> Circuit:
    c = Circuit("inv")
    c.vsource("Vdd", "vdd", "0", 1.2)
    c.vsource("Vin", "in", "0", RampSource(0.1e-9, 100e-12, 0.0, 1.2))
    make_inverter(4).instantiate(c, "u0", "in", "out", "vdd")
    c.capacitor("cl", "out", "0", 20e-15)
    return c


INV_INITIAL = {"in": 0.0, "out": 1.2, "vdd": 1.2}


class TestFallbacks:
    def test_singular_refactorization_falls_back_to_dense(self, monkeypatch):
        """A kernel whose refactorization goes singular mid-run must
        degrade to the dense path — bitwise, since the fallback happens
        before any structured solve succeeded."""
        def boom(self, rhs, x, timers=None):
            raise np.linalg.LinAlgError("synthetic singular refactorization")

        ref = _simulate(_inverter(), INV_INITIAL, "dense", t_stop=0.3e-9,
                        dt=5e-12)
        monkeypatch.setattr(SparseNewtonStep, "solve", boom)
        res = _simulate(_inverter(), INV_INITIAL, "sparse", t_stop=0.3e-9,
                        dt=5e-12)
        assert res.stats["newton_fallbacks"] >= 1
        assert _worst_dv(ref, res) == 0.0

    def test_pattern_frozen_lu_raises_on_singular(self):
        # 2x2 with an empty second column: SuperLU's RuntimeError is
        # normalised to the LinAlgError contract every backend honours.
        lu = PatternFrozenLu(2, np.array([0, 1, 1]), np.array([0]))
        with pytest.raises(np.linalg.LinAlgError):
            lu.refactor(np.array([1.0]))

    def test_bordered_banded_raises_on_singular_core(self):
        n = 40
        a = np.zeros((n, n))
        idx = np.arange(n - 2)
        a[idx, idx] = 2.0
        a[idx[:-1], idx[:-1] + 1] = -1.0
        a[idx[:-1] + 1, idx[:-1]] = -1.0
        a[0, 0] = 0.0  # structurally present, numerically empty row
        a[0, 1] = a[1, 0] = 0.0
        border = np.array([n - 2, n - 1])
        core = np.arange(n - 2)
        with pytest.raises(np.linalg.LinAlgError):
            BorderedBanded(a, border, core, analyze_pattern(a[:n-2, :n-2] != 0.0))

    def test_nonconvergence_still_halves_steps(self):
        """The recursive step-halving fallback stays intact under the
        structured kernels (forced by a tiny Newton iteration budget)."""
        tb = build_testbench(_deep_config(48), 0.05e-9, (0.06e-9,))
        res = _simulate(tb.circuit, tb.initial_voltages, "sparse",
                        t_stop=0.15e-9, dt=4e-12, max_newton=2)
        ref = _simulate(tb.circuit, tb.initial_voltages, "dense",
                        t_stop=0.15e-9, dt=4e-12, max_newton=2)
        assert res.stats["halvings"] >= 1
        assert _worst_dv(ref, res) < VOLTAGE_TOL


class TestTopologyAnalysisCache:
    def test_analysis_shared_across_instances(self, monkeypatch):
        """structure()/sparse_maps()/newton_partition() are computed once
        per topology signature, not once per compiled MnaSystem."""
        clear_analysis_cache()
        calls = {"n": 0}
        real = mna_mod.analyze_pattern

        def counting(pattern):
            calls["n"] += 1
            return real(pattern)

        monkeypatch.setattr(mna_mod, "analyze_pattern", counting)
        tb = build_testbench(_deep_config(24), 0.05e-9, (0.06e-9,))
        systems = [MnaSystem(tb.circuit) for _ in range(4)]
        for m in systems:
            m.structure(include_caps=True)
            m.newton_partition()
            m.sparse_maps()
        # One union-pattern analysis + one core-pattern analysis, total,
        # across all four instances.
        assert calls["n"] == 2
        assert systems[0].structure() is systems[1].structure()
        assert systems[0].sparse_maps() is systems[2].sparse_maps()
        assert systems[0].newton_partition() is systems[3].newton_partition()
        clear_analysis_cache()

    def test_partition_contract(self):
        tb = build_testbench(_deep_config(48), 0.05e-9, (0.06e-9,))
        mna = MnaSystem(tb.circuit)
        part = mna.newton_partition()
        assert part is not None
        # Every device terminal lives in the border; border and core
        # partition the index space.
        border = set(part.border.tolist())
        for arr in (mna.mos_d, mna.mos_g, mna.mos_s):
            assert all(int(i) in border for i in arr if i >= 0)
        assert sorted(part.border.tolist() + part.core.tolist()) \
            == list(range(mna.size))
        assert part.core_structure.bandwidth <= 12
        # Selection consumes it: auto resolves to the bordered kernel.
        assert select_backend(mna.structure(), mna.n_mosfets, "auto",
                              partition=part) == "banded"
