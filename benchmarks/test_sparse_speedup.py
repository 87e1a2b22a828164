"""Structured vs dense solves on RC-line bundles of growing depth.

Sweeps the Figure 1 RC-bundle testbench's linear core (three coupled
lines, victim plus two aggressors, driven directly by ramp sources) well
past the paper's 3-π-cell discretisation — n_segments ∈ {3, 12, 48, 96,
192, 384} — through the batched transient engine, once with the solver
backend forced dense (the stacked-LU path) and once with ``auto``
backend selection (banded/Thomas for these line topologies, see
:mod:`repro.circuit.solvers`).

The structured path's speedup comes from solving the same systems with
a cheaper factorization, so the sweep gates on that, deterministically:
``auto`` must select the expected backend at every depth
(:data:`EXPECTED_BACKEND`), both backends must do the same work — one
matrix build for the whole linear sweep, no Newton iterations, no
backend fallbacks — and the structured results must agree with the
dense reference to <1e-9 V on every node of every variant.  Wall-clock
speed is measured by hand, not here.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuit.netlist import Circuit
from repro.circuit.sources import RampSource
from repro.circuit.transient import (BatchStimulus, TransientOptions,
                                     simulate_transient_batch)
from repro.interconnect.coupling import CouplingSpec, add_coupled_lines
from repro.interconnect.rcline import RcLineSpec

VOLTAGE_TOL = 1e-9
SEGMENT_SWEEP = (3, 12, 48, 96, 192, 384)
#: The backend ``auto`` selects per depth: the 3-cell paper scale stays
#: dense, and line topologies past it take a structured solver.
EXPECTED_BACKEND = {3: "dense", 12: "sparse", 48: "banded", 96: "banded",
                    192: "banded", 384: "banded"}
N_LINES = 3
BATCH = 16
T_STOP = 1.0e-9
DT = 1e-12


def _bundle(n_segments: int) -> Circuit:
    """Victim + two aggressors, coupled, MOSFET-free (the linear core of
    Figure 1, so the structured backends engage)."""
    circuit = Circuit(f"rc_bundle_{n_segments}")
    terminals, specs = [], []
    for k in range(N_LINES):
        circuit.vsource(f"V{k}", f"in{k}", "0",
                        RampSource(0.2e-9, 150e-12, 0.0, 1.2))
        circuit.capacitor(f"cl{k}", f"out{k}", "0", 5e-15)
        terminals.append((f"in{k}", f"out{k}"))
        specs.append(RcLineSpec.from_length(1000.0, n_segments=n_segments))
    add_coupled_lines(circuit, "bundle", terminals, specs,
                      [CouplingSpec(0, k, 100e-15) for k in range(1, N_LINES)])
    return circuit


def _stimuli() -> list[BatchStimulus]:
    """One aggressor-alignment sweep: variants differ only in V1's start."""
    return [
        BatchStimulus(sources={
            "V1": RampSource(0.2e-9 + k * 0.01e-9, 150e-12, 1.2, 0.0)})
        for k in range(BATCH)
    ]


def _run(circuit: Circuit, backend: str):
    # The fixed grid (max_step = DT): the work counts assume every step
    # is one base step.
    return simulate_transient_batch(
        circuit, _stimuli(), t_stop=T_STOP, dt=DT,
        options=TransientOptions(backend=backend, max_step=DT))


def test_structured_solves_lift_the_node_count_ceiling():
    """Every depth: expected backend, equal work counts, <1e-9 V."""
    for n_segments in SEGMENT_SWEEP:
        circuit = _bundle(n_segments)
        dense, auto = _run(circuit, "dense"), _run(circuit, "auto")
        assert auto[0].stats["backend"] == EXPECTED_BACKEND[n_segments], (
            f"n_segments={n_segments}: auto selected "
            f"{auto[0].stats['backend']}")
        for res in (dense[0], auto[0]):
            # A linear sweep factors once and never iterates Newton.
            assert res.stats["matrix_builds"] == 1
            assert res.stats["newton_iters"] == 0
            assert res.stats["newton_fallbacks"] == 0
        worst_dv = max(
            float(np.max(np.abs(d.voltage_samples(node)
                                - a.voltage_samples(node))))
            for d, a in zip(dense, auto) for node in d.node_names)
        assert worst_dv < VOLTAGE_TOL, (
            f"n_segments={n_segments}: structured path deviates by "
            f"{worst_dv:.3e} V")


def test_small_figure1_scale_unaffected():
    """The paper's own 3-cell lines stay on the dense path and match."""
    res = _run(_bundle(3), "auto")
    assert res[0].stats["backend"] == "dense"
    assert res[0].stats["batch_size"] == BATCH


@pytest.mark.parametrize("n_segments", [48])
def test_structured_backend_engages_at_depth(n_segments):
    res = _run(_bundle(n_segments), "auto")
    assert res[0].stats["backend"] in ("banded", "sparse")
