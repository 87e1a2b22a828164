"""Linear-solver backends: selection, factorization, engine equivalence.

The contract of :mod:`repro.circuit.solvers` is that every backend is a
drop-in replacement for the dense stacked LU: identical waveforms (to
<1e-9 V) from the transient engine regardless of the backend, with the
``auto`` selection picking the structured path for the line topologies
emitted by :mod:`repro.interconnect.rcline` and falling back to dense
for small systems.  MOSFET circuits have two Newton kernels, bordered
banded and dense (see ``tests/test_sparse_newton.py`` for their full
equivalence matrix); without a core/border partition every request runs
dense.
"""

import numpy as np
import pytest

from repro.circuit.mna import MnaSystem
from repro.circuit.netlist import Circuit
from repro.circuit.solvers import (BandedThomas, DenseLu, SparseLu,
                                   analyze_pattern, factorize, select_backend)
from repro.circuit.sources import RampSource
from repro.circuit.transient import (TransientJob, TransientOptions,
                                     simulate_transient_many)
from repro.interconnect.coupling import CouplingSpec, add_coupled_lines
from repro.interconnect.rcline import RcLineSpec, add_rc_line
from repro.library.cells import make_inverter

VOLTAGE_TOL = 1e-9


def _rc_line(n_segments: int) -> Circuit:
    c = Circuit(f"line{n_segments}")
    c.vsource("Vin", "in", "0", RampSource(0.1e-9, 100e-12, 0.0, 1.2))
    add_rc_line(c, "l", "in", "out",
                RcLineSpec(total_r=25.5, total_c=28.8e-15,
                           n_segments=n_segments))
    c.capacitor("cl", "out", "0", 5e-15)
    return c


def _bundle(n_segments: int, n_lines: int = 3,
            all_pairs: bool = False, starts=None) -> Circuit:
    """Coupled lines, each driven by a 100 ps ramp; line ``k`` starts at
    ``starts[k]`` (by default 0.1 ns + 20 ps·k)."""
    if starts is None:
        starts = [0.1e-9 + 0.02e-9 * k for k in range(n_lines)]
    c = Circuit(f"bundle{n_lines}x{n_segments}")
    terms, specs = [], []
    for k in range(n_lines):
        c.vsource(f"V{k}", f"in{k}", "0",
                  RampSource(starts[k], 100e-12, 0.0, 1.2))
        c.capacitor(f"cl{k}", f"out{k}", "0", 5e-15)
        terms.append((f"in{k}", f"out{k}"))
        specs.append(RcLineSpec(total_r=25.5, total_c=28.8e-15,
                                n_segments=n_segments))
    if all_pairs:
        coup = [CouplingSpec(i, j, 20e-15)
                for i in range(n_lines) for j in range(i + 1, n_lines)]
    else:
        coup = [CouplingSpec(0, k, 100e-15) for k in range(1, n_lines)]
    add_coupled_lines(c, "b", terms, specs, coup)
    return c


def _inverter() -> Circuit:
    c = Circuit("inv")
    c.vsource("Vdd", "vdd", "0", 1.2)
    c.vsource("Vin", "in", "0", RampSource(0.1e-9, 100e-12, 0.0, 1.2))
    make_inverter(4).instantiate(c, "u0", "in", "out", "vdd")
    c.capacitor("cl", "out", "0", 20e-15)
    return c


INV_INITIAL = {"in": 0.0, "out": 1.2, "vdd": 1.2}


class TestAnalyzePattern:
    def test_tridiagonal_pattern(self):
        n = 12
        pat = np.eye(n, dtype=bool) | np.eye(n, k=1, dtype=bool) \
            | np.eye(n, k=-1, dtype=bool)
        s = analyze_pattern(pat)
        assert s.size == n and s.bandwidth == 1
        assert s.nnz == 3 * n - 2

    def test_rc_line_permutes_to_tridiagonal(self):
        # Voltage-source border rows included, a pure line is tridiagonal
        # after RCM — the classical Thomas case.
        mna = MnaSystem(_rc_line(48))
        s = mna.structure(include_caps=True)
        assert s.bandwidth == 1

    def test_bundle_is_block_tridiagonal(self):
        mna = MnaSystem(_bundle(48))
        s = mna.structure(include_caps=True)
        assert 1 < s.bandwidth <= 12

    def test_structure_is_cached(self):
        mna = MnaSystem(_rc_line(12))
        assert mna.structure() is mna.structure()


class TestFactorize:
    @pytest.fixture(scope="class")
    def system(self):
        rng = np.random.default_rng(7)
        n = 40
        a = np.zeros((n, n))
        for k in range(n):
            a[k, k] = 3.0 + rng.random()
            if k + 1 < n:
                g = rng.random()
                a[k, k + 1] = -g
                a[k + 1, k] = -g
        rhs1 = rng.standard_normal(n)
        rhs2 = rng.standard_normal((5, n))
        return a, rhs1, rhs2

    @pytest.mark.parametrize("backend", ["dense", "sparse", "banded"])
    def test_backends_match_numpy(self, system, backend):
        a, rhs1, rhs2 = system
        solver = factorize(a, backend, analyze_pattern(a != 0.0))
        x1 = solver.solve(rhs1)
        np.testing.assert_allclose(x1, np.linalg.solve(a, rhs1), atol=1e-12)
        x2 = solver.solve(rhs2)
        assert x2.shape == rhs2.shape
        np.testing.assert_allclose(x2, np.linalg.solve(a, rhs2.T).T, atol=1e-12)

    def test_backend_classes(self, system):
        a, _, _ = system
        s = analyze_pattern(a != 0.0)
        assert isinstance(factorize(a, "dense", s), DenseLu)
        assert isinstance(factorize(a, "sparse", s), SparseLu)
        assert isinstance(factorize(a, "banded", s), BandedThomas)

    def test_singular_matrix_raises_linalgerror(self):
        a = np.zeros((6, 6))
        a[np.arange(5), np.arange(5)] = 1.0  # last row/col all zero
        for backend in ("sparse", "banded"):
            with pytest.raises(np.linalg.LinAlgError):
                factorize(a, backend, analyze_pattern(a != 0.0))

    def test_auto_is_rejected(self):
        with pytest.raises(ValueError, match="concrete backend"):
            factorize(np.eye(3), "auto")


class TestSelection:
    def test_line_topology_selects_banded(self):
        mna = MnaSystem(_rc_line(48))
        assert select_backend(mna.structure(), mna.n_mosfets) == "banded"

    def test_wide_bundle_selects_sparse(self):
        # 8 mutually coupled lines: RCM bandwidth exceeds the banded
        # ceiling, low density keeps it off the dense path.
        mna = MnaSystem(_bundle(24, n_lines=8, all_pairs=True))
        s = mna.structure()
        assert s.bandwidth > 12
        assert select_backend(s, mna.n_mosfets) == "sparse"

    def test_small_system_stays_dense(self):
        mna = MnaSystem(_rc_line(3))
        assert select_backend(mna.structure(), mna.n_mosfets) == "dense"

    def test_small_mosfet_circuit_stays_dense(self):
        # Auto keeps paper-scale gate circuits on the historical dense
        # Newton path, and so does every structured *request*: "banded"
        # needs a viable core/border partition, and "sparse" has no
        # Newton kernel of its own.
        mna = MnaSystem(_inverter())
        assert mna.newton_partition() is None
        assert select_backend(mna.structure(), mna.n_mosfets) == "dense"
        assert select_backend(mna.structure(), mna.n_mosfets,
                              requested="sparse") == "dense"
        assert select_backend(mna.structure(), mna.n_mosfets,
                              requested="banded",
                              partition=mna.newton_partition()) == "dense"
        for requested in ("auto", "dense", "sparse", "banded"):
            assert mna.newton_backend(requested) == "dense"

    def test_explicit_request_honoured(self):
        mna = MnaSystem(_rc_line(48))
        assert select_backend(mna.structure(), 0, requested="sparse") == "sparse"
        assert select_backend(mna.structure(), 0, requested="dense") == "dense"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown solver backend"):
            TransientOptions(backend="thomas")


def _worst_dv(a, b):
    return max(float(np.max(np.abs(a.voltage_samples(n) - b.voltage_samples(n))))
               for n in a.node_names)


class TestTransientEquivalence:
    @pytest.mark.parametrize("circuit_fn,probe", [(lambda: _rc_line(48), "out"),
                                                  (lambda: _bundle(48), "out0")],
                             ids=["line48", "bundle3x48"])
    def test_structured_backends_match_dense(self, circuit_fn, probe):
        runs = {}
        for backend in ("dense", "banded", "sparse"):
            runs[backend] = TransientJob(
                circuit_fn(), t_stop=1.0e-9, dt=2e-12,
                options=TransientOptions(backend=backend)).run()
            assert runs[backend].stats["backend"] == backend
        assert _worst_dv(runs["dense"], runs["banded"]) < VOLTAGE_TOL
        assert _worst_dv(runs["dense"], runs["sparse"]) < VOLTAGE_TOL
        # The line actually charges — the comparison is not vacuous.
        assert runs["dense"].voltage_samples(probe)[-1] > 1.0

    def test_auto_selects_structured_path_for_lines(self):
        """Selection spy: a line topology transparently takes the banded
        (Thomas) path under the default options."""
        res = TransientJob(_rc_line(48), t_stop=0.5e-9, dt=2e-12).run()
        assert res.stats["backend"] == "banded"

    def test_small_mosfet_circuit_auto_stays_dense(self):
        ref = TransientJob(_inverter(), t_stop=0.5e-9, dt=5e-12,
                           initial_voltages=INV_INITIAL).run()
        # A "banded" request on a MOSFET circuit with no core/border
        # partition runs dense Newton: the very same solve.
        forced = TransientJob(_inverter(), t_stop=0.5e-9, dt=5e-12,
                              initial_voltages=INV_INITIAL,
                              options=TransientOptions(backend="banded")).run()
        assert ref.stats["backend"] == "dense"
        assert forced.stats["backend"] == "dense"
        assert _worst_dv(ref, forced) == 0.0

    def test_batched_auto_matches_batched_dense(self):
        offsets = (0.0, 0.05e-9, 0.1e-9, 0.2e-9)

        def stack(options=None):
            # Variants differ only in line 1's start.
            return simulate_transient_many([
                TransientJob(_bundle(48, starts=(0.1e-9, 0.1e-9 + off,
                                                 0.14e-9)),
                             t_stop=1.0e-9, dt=2e-12, options=options)
                for off in offsets])

        auto = stack()
        dense = stack(TransientOptions(backend="dense"))
        assert auto[0].stats["backend"] == "banded"
        assert auto[0].stats["batch_size"] == len(offsets)
        assert dense[0].stats["backend"] == "dense"
        for a, d in zip(auto, dense):
            assert _worst_dv(a, d) < VOLTAGE_TOL


class TestWiring:
    def test_gate_fixture_forwards_backend(self):
        from repro.experiments.setup import CONFIG_I, receiver_fixture
        from repro.core.waveform import Waveform
        fixture = receiver_fixture(CONFIG_I, dt=4e-12, solver_backend="dense")
        wave = Waveform([0.0, 0.1e-9, 0.3e-9], [0.0, 0.0, 1.2])
        job = fixture.transient_job(wave)
        assert job.options.backend == "dense"

    def test_noise_cases_forward_backend(self):
        from repro.experiments.noise_injection import _bench_job, SweepTiming
        from repro.experiments.setup import CONFIG_I, build_testbench
        timing = SweepTiming(dt=4e-12)
        bench = build_testbench(CONFIG_I, victim_start=timing.victim_start,
                                aggressor_starts=[timing.victim_start])
        job = _bench_job(bench, timing, solver_backend="sparse")
        assert job.options.backend == "sparse"

    def test_evaluate_techniques_override_replaces_fixture_backend(self):
        from repro.core.propagation import GateFixture
        from dataclasses import replace
        fixture = GateFixture(cell=make_inverter(4))
        assert fixture.solver_backend == "auto"
        assert replace(fixture, solver_backend="banded").solver_backend == "banded"
