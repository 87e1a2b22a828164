"""Bordered-banded Newton vs dense Newton on gate + coupled-RC netlists.

Sweeps the paper's Figure 1 topology — an inverter driving a coupled RC
line bundle into the receiver/fanout chain, one aggressor — with the
line discretisation deepened well past the 3-π-cell paper scale
(n_segments ∈ {12, 36, 72, 144}), through the batched transient engine:
once with the solver backend forced dense (the historical MOSFET Newton
path: per-iteration dense re-stamp + stacked LU) and once with ``auto``
backend selection (the block-bordered banded kernel for these
gate-plus-line topologies — see :mod:`repro.circuit.solvers`).

The structured path's speedup comes from factoring the same Newton
systems more cheaply, so the sweep gates on that, deterministically:
``auto`` must select the expected backend at every depth
(:data:`EXPECTED_BACKEND`), both backends must do the same work — the
same Newton iteration count (:data:`NEWTON_ITERS`), one matrix build,
no backend fallbacks — and the structured results must agree with the
dense reference to <1e-9 V on every node of every variant at *every*
sweep point.  Wall-clock speed is measured by hand, not here.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuit.sources import RampSource
from repro.circuit.transient import (BatchStimulus, TransientOptions,
                                     simulate_transient_batch)
from repro.experiments.setup import CrosstalkConfig, build_testbench

VOLTAGE_TOL = 1e-9
SEGMENT_SWEEP = (12, 36, 72, 144)
#: The backend ``auto`` selects per depth: the 12-segment line stays
#: dense, deeper gate-plus-line netlists take the bordered banded kernel.
EXPECTED_BACKEND = {12: "dense", 36: "banded", 72: "banded", 144: "banded"}
#: Newton iterations of the 500-step sweep: the same on both backends
#: at every depth.
NEWTON_ITERS = 1101
BATCH = 4
T_STOP = 0.5e-9
DT = 1e-12


def _testbench(n_segments: int):
    """Figure 1 (Configuration I) with a deepened line discretisation."""
    config = CrosstalkConfig(name=f"newton{n_segments}", n_aggressors=1,
                             line_length_um=1000.0,
                             coupling_per_aggressor=100e-15,
                             n_segments=n_segments)
    return build_testbench(config, 0.1e-9, (0.12e-9,))


def _stimuli(tb) -> list[BatchStimulus]:
    """One aggressor-alignment sweep: variants differ in Vy's start."""
    return [
        BatchStimulus(
            sources={"Vy": RampSource(0.12e-9 + k * 0.01e-9, 150e-12,
                                      1.2, 0.0)},
            initial_voltages=tb.initial_voltages)
        for k in range(BATCH)
    ]


def _run(tb, backend: str):
    # The fixed grid (max_step = DT): the work counts assume every step
    # is one base step.
    return simulate_transient_batch(
        tb.circuit, _stimuli(tb), t_stop=T_STOP, dt=DT,
        options=TransientOptions(backend=backend, max_step=DT))


def test_sparse_newton_lifts_the_gate_netlist_ceiling():
    """Every depth: expected backend, equal work counts, <1e-9 V."""
    for n_segments in SEGMENT_SWEEP:
        tb = _testbench(n_segments)
        dense, auto = _run(tb, "dense"), _run(tb, "auto")
        assert auto[0].stats["backend"] == EXPECTED_BACKEND[n_segments], (
            f"n_segments={n_segments}: auto selected "
            f"{auto[0].stats['backend']}")
        for res in (dense[0], auto[0]):
            assert res.stats["newton_iters"] == NEWTON_ITERS
            assert res.stats["matrix_builds"] == 1
            assert res.stats["newton_fallbacks"] == 0
        worst_dv = max(
            float(np.max(np.abs(d.voltage_samples(node)
                                - a.voltage_samples(node))))
            for d, a in zip(dense, auto) for node in d.node_names)
        assert worst_dv < VOLTAGE_TOL, (
            f"n_segments={n_segments}: structured Newton deviates by "
            f"{worst_dv:.3e} V")


def test_paper_scale_gate_circuits_stay_dense():
    """The 3-cell Figure 1 netlist keeps the historical dense path."""
    tb = _testbench(3)
    res = _run(tb, "auto")
    assert res[0].stats["backend"] == "dense"
    assert res[0].stats["batch_size"] == BATCH


@pytest.mark.parametrize("n_segments", [72])
def test_structured_newton_engages_at_depth(n_segments):
    res = _run(_testbench(n_segments), "auto")
    assert res[0].stats["backend"] == "banded"
