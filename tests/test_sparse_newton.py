"""Newton kernels for MOSFET circuits: equivalence + plumbing.

A MOSFET system has two Newton kernels, dense and the block-bordered
banded/Schur kernel.  The contract is that the bordered kernel is a
drop-in replacement for dense Newton: <1e-9 V waveforms on every node
for single and stacked jobs, fixed-grid and adaptive stepping, and DC,
on gate-driving-deep-interconnect netlists.  Every request without a
core/border partition — the Table-1 gate testbenches, the receiver
fixture — and every ``"sparse"`` request runs dense Newton, and DC runs
on the kernel the transient picks.  Singular Schur factorizations must
degrade to dense mid-solve, and the per-topology analysis
(pattern/RCM/partition) must be computed once per topology signature,
not once per compiled system.
"""

import dataclasses

import numpy as np
import pytest

from repro.circuit import mna as mna_mod
from repro.circuit.dc import dc_operating_point, dc_operating_point_batch
from repro.circuit.mna import (BorderedNewtonStep, MnaSystem,
                               clear_analysis_cache)
from repro.circuit.solvers import (BorderedBanded, analyze_pattern,
                                   select_backend)
from repro.circuit.transient import (TransientJob, TransientOptions,
                                     simulate_transient_many)
from repro.experiments.setup import (CONFIG_I, CONFIG_II, CrosstalkConfig,
                                     build_testbench, receiver_fixture)

from helpers import sigmoid_edge

VOLTAGE_TOL = 1e-9


def _deep_config(n_segments: int) -> CrosstalkConfig:
    """Configuration I with a deeper line discretisation: the gate +
    coupled-RC-interconnect workload the Newton kernels target."""
    return CrosstalkConfig(name=f"deep{n_segments}", n_aggressors=1,
                           line_length_um=1000.0,
                           coupling_per_aggressor=100e-15,
                           n_segments=n_segments)


def _simulate(circuit, initial, backend, t_stop=0.4e-9, dt=2e-12, **kw):
    kw.setdefault("max_step", dt)  # the fixed grid unless a test strides
    return TransientJob(circuit, t_stop=t_stop, dt=dt,
                        initial_voltages=dict(initial),
                        options=TransientOptions(backend=backend, **kw)).run()


def _worst_dv(ref, other):
    return max(float(np.max(np.abs(other.voltages_at(n, ref.times)
                                   - ref.voltage_samples(n))))
               for n in ref.node_names)


class TestScalarEquivalence:
    @pytest.mark.parametrize("config", [CONFIG_I, CONFIG_II],
                             ids=["config_I", "config_II"])
    @pytest.mark.parametrize("backend", ("sparse", "banded"))
    def test_table1_testbenches(self, config, backend):
        tb = build_testbench(config, 0.2e-9,
                             tuple([0.25e-9] * config.n_aggressors))
        ref = _simulate(tb.circuit, tb.initial_voltages, "dense",
                        t_stop=1.1e-9)
        res = _simulate(tb.circuit, tb.initial_voltages, backend,
                        t_stop=1.1e-9)
        # Paper-scale testbenches have no viable core/border partition,
        # so both structured names resolve to dense Newton: the very same
        # solve.
        assert res.stats["backend"] == "dense"
        assert res.stats["newton_fallbacks"] == 0
        assert _worst_dv(ref, res) == 0.0
        # The victim output actually switches — not a vacuous comparison.
        assert abs(ref.voltage_samples("out_u")[-1]
                   - ref.voltage_samples("out_u")[0]) > 0.5

    @pytest.mark.parametrize("backend", ["banded"])
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
    def _jobs(self, backend):
        # An aggressor-alignment sweep: the aggressor switches with the
        # victim (speed-up noise), 10 ps apart from variant to variant.
        config = dataclasses.replace(_deep_config(64),
                                     aggressors_opposing=False)
        options = TransientOptions(backend=backend)
        return [TransientJob(tb.circuit, t_stop=0.25e-9, dt=2e-12,
                             initial_voltages=tb.initial_voltages,
                             options=options)
                for tb in (build_testbench(config, 0.05e-9,
                                           (0.05e-9 + k * 0.01e-9,))
                           for k in range(3))]

    @pytest.mark.parametrize("backend", ["banded"])
    def test_batched_matches_dense_batched(self, backend):
        dense = simulate_transient_many(self._jobs("dense"))
        res = simulate_transient_many(self._jobs(backend))
        assert res[0].stats["backend"] == backend
        assert res[0].stats["batch_size"] == 3
        for d, r in zip(dense, res):
            assert _worst_dv(d, r) < VOLTAGE_TOL

    @pytest.mark.parametrize("backend", ["banded"])
    def test_adaptive_matches_dense_adaptive(self, backend):
        tb = build_testbench(_deep_config(64), 0.05e-9, (0.06e-9,))
        kw = dict(t_stop=1.5e-9, dt=2e-12, max_step=0.0)
        dense = _simulate(tb.circuit, tb.initial_voltages, "dense", **kw)
        res = _simulate(tb.circuit, tb.initial_voltages, backend, **kw)
        assert res.stats["backend"] == backend
        # The controller's accept/reject decisions see only ~1e-12 V
        # solver differences, so the accepted grids coincide and the
        # waveforms agree to the fixed-grid tolerance.
        assert np.array_equal(dense.times, res.times)
        assert _worst_dv(dense, res) < VOLTAGE_TOL
        assert res.stats["steps_accepted"] < 750  # strides actually grew


class TestReceiverFixture:
    @pytest.mark.parametrize("backend", ["sparse"])
    def test_fixture_response_matches_dense(self, backend):
        # The receiver fixture has no core/border partition, so a
        # forced structured request runs the dense Newton solve itself.
        edge = sigmoid_edge(0.3e-9, 150e-12)
        outs = {}
        for b in ("dense", backend):
            fixture = receiver_fixture(CONFIG_I, dt=2e-12, solver_backend=b,
                                       adaptive=False)
            outs[b] = fixture.response(edge)
        ref, res = outs["dense"], outs[backend]
        assert np.array_equal(res.v_out.times, ref.v_out.times)
        assert np.array_equal(res.v_out.values, ref.v_out.values)
        assert res.gate_delay == ref.gate_delay


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
        # "sparse" runs dense Newton and "auto" the bordered kernel, so
        # each matches its kernel bit for bit.  The two kernels agree to
        # ~1e-11 V, not better: this DC matrix has a condition number of
        # ~1e10, and both answers satisfy KCL to the rounding floor.
        for n_segments in (96, 192):
            tb = build_testbench(_deep_config(n_segments), 0.05e-9,
                                 (0.06e-9,))
            res = {backend: dc_operating_point(
                       tb.circuit, initial_voltages=dict(tb.initial_voltages),
                       backend=backend).solution
                   for backend in ("dense", "sparse", "banded", "auto")}
            assert np.array_equal(res["sparse"], res["dense"])
            assert np.array_equal(res["auto"], res["banded"])
            assert float(np.max(np.abs(res["banded"] - res["dense"]))) \
                < VOLTAGE_TOL

    def test_auto_dc_runs_the_transient_kernel(self, monkeypatch):
        """DC resolves its Newton kernel like the transient does: on a
        deep line ``auto`` builds one bordered kernel and converges on
        it, with no gmin stage."""
        built = []
        real = MnaSystem.bordered_newton_step

        def spy(self, a_base):
            built.append(real(self, a_base))
            return built[-1]

        monkeypatch.setattr(MnaSystem, "bordered_newton_step", spy)
        for n_segments in (96, 192):
            built.clear()
            tb = build_testbench(_deep_config(n_segments), 0.05e-9,
                                 (0.06e-9,))
            mna = MnaSystem(tb.circuit)
            assert mna.newton_backend("auto") == "banded"
            dc_operating_point(tb.circuit,
                               initial_voltages=dict(tb.initial_voltages),
                               mna=mna)
            assert len(built) == 1
            assert isinstance(built[0], BorderedNewtonStep)

    def test_batched_dc_matches_scalar(self):
        tb = build_testbench(_deep_config(48), 0.05e-9, (0.06e-9,))
        circuits = [tb.circuit] * 3
        seeds = [dict(tb.initial_voltages)] * 3
        batch = dc_operating_point_batch(circuits, initial_voltages=seeds,
                                         backend="banded")
        for res in batch:
            ref = dc_operating_point(tb.circuit,
                                     initial_voltages=dict(
                                         tb.initial_voltages),
                                     backend="dense")
            assert float(np.max(np.abs(res.solution - ref.solution))) \
                < VOLTAGE_TOL


class TestFallbacks:
    def test_singular_refactorization_falls_back_to_dense(self, monkeypatch):
        """A kernel whose Schur factorization goes singular mid-run must
        degrade to the dense path — bitwise, since the fallback happens
        before any structured solve succeeded."""
        def boom(self, rhs, x, timers=None):
            raise np.linalg.LinAlgError("synthetic singular refactorization")

        tb = build_testbench(_deep_config(48), 0.05e-9, (0.06e-9,))
        ref = _simulate(tb.circuit, tb.initial_voltages, "dense",
                        t_stop=0.3e-9, dt=5e-12)
        monkeypatch.setattr(BorderedNewtonStep, "solve", boom)
        res = _simulate(tb.circuit, tb.initial_voltages, "banded",
                        t_stop=0.3e-9, dt=5e-12)
        assert res.stats["backend"] == "banded"
        assert res.stats["newton_fallbacks"] >= 1
        assert _worst_dv(ref, res) == 0.0

    def test_singular_core_runs_dense_newton(self, monkeypatch):
        """A banded core that fails to factor leaves no kernel for that
        base matrix: the DC solve and every step run dense Newton, each
        failed core counts as a fallback, and the stats report the dense
        backend that actually ran."""
        def singular(self, *args):
            raise np.linalg.LinAlgError("synthetic singular core")

        tb = build_testbench(_deep_config(48), 0.05e-9, (0.06e-9,))
        ref = _simulate(tb.circuit, tb.initial_voltages, "dense",
                        t_stop=0.3e-9, dt=5e-12)
        monkeypatch.setattr(BorderedBanded, "__init__", singular)
        res = _simulate(tb.circuit, tb.initial_voltages, "banded",
                        t_stop=0.3e-9, dt=5e-12)
        assert res.stats["backend"] == "dense"
        assert res.stats["newton_fallbacks"] >= 1
        assert _worst_dv(ref, res) == 0.0

    def test_dc_counts_its_schur_fallbacks(self, monkeypatch):
        """DC's own mid-solve fallbacks reach the caller's counter: one
        per bordered Newton pass that drops to dense."""
        def boom(self, rhs, x, timers=None):
            raise np.linalg.LinAlgError("synthetic singular refactorization")

        tb = build_testbench(_deep_config(48), 0.05e-9, (0.06e-9,))
        ref = dc_operating_point(tb.circuit, backend="dense",
                                 initial_voltages=dict(tb.initial_voltages))
        monkeypatch.setattr(BorderedNewtonStep, "solve", boom)
        stats = {"newton_fallbacks": 0}
        res = dc_operating_point_batch(
            [tb.circuit], initial_voltages=[dict(tb.initial_voltages)],
            backend="banded", stats=stats)[0]
        assert stats["newton_fallbacks"] >= 1
        np.testing.assert_array_equal(res.solution, ref.solution)

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
        res = _simulate(tb.circuit, tb.initial_voltages, "banded",
                        t_stop=0.15e-9, dt=4e-12, max_newton=2)
        ref = _simulate(tb.circuit, tb.initial_voltages, "dense",
                        t_stop=0.15e-9, dt=4e-12, max_newton=2)
        assert res.stats["halvings"] >= 1
        assert _worst_dv(ref, res) < VOLTAGE_TOL


class TestTopologyAnalysisCache:
    def test_analysis_shared_across_instances(self, monkeypatch):
        """structure()/newton_partition() are computed once per topology
        signature, not once per compiled MnaSystem."""
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
        # One union-pattern analysis + one core-pattern analysis, total,
        # across all four instances.
        assert calls["n"] == 2
        assert systems[0].structure() is systems[1].structure()
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
