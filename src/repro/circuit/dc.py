"""DC operating-point analysis.

Solves the nonlinear resistive network (capacitors open) with damped
Newton–Raphson.  Robustness comes from *gmin stepping*: when plain Newton
fails, a large leak conductance to ground is added and progressively
relaxed, each stage warm-starting the next — the standard SPICE fallback,
which handles inverter chains with ill-conditioned intermediate states.
Each stage is solved exactly once; the final stage removes the leak
(``gmin = 0``), so the returned operating point is always that of the
unmodified network.

Every solve is a stack: :func:`dc_operating_point_batch` advances all
variants of one topology (identical structure, different source values)
through the transient engine's stacked Newton loop, and MOSFET-free
stacks collapse to one structured linear solve against ``B`` right-hand
sides using the backend selected from the topology's sparsity pattern
(see :mod:`repro.circuit.solvers`).  :func:`dc_operating_point` is the
stack of one.  Variants the stacked pass cannot converge go through
gmin stepping one at a time, so each failure names its own stage.

MOSFET networks run their Newton iterations on the kernel the transient
engine picks for the same backend request
(:meth:`~repro.circuit.mna.MnaSystem.newton_backend`): the bordered
kernel on gate-plus-interconnect topologies, its banded core factored
once per solve (once per gmin stage), and dense Newton everywhere else.
A singular core or Schur factorization finishes the solve on dense
Newton, counted in the caller's ``stats["newton_fallbacks"]``.

Operating points are not memoised: one costs well under 1% of the
transient solve it seeds, and a warm transient store hit skips DC
altogether.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .._util import require
from .mna import MnaSystem, stacked_newton
from .netlist import Circuit
from .solvers import factorize, select_backend

__all__ = ["DcResult", "dc_operating_point", "dc_operating_point_batch",
           "DcConvergenceError"]

#: gmin-stepping schedule: heavy leak first, relaxed to the exact system.
GMIN_STAGES = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 0.0)


class DcConvergenceError(RuntimeError):
    """Raised when no operating point is found even with gmin stepping."""


@dataclass(frozen=True)
class DcResult:
    """Operating point: the raw MNA solution plus name-based access."""

    solution: np.ndarray
    node_names: tuple[str, ...]

    @cached_property
    def _name_index(self) -> dict[str, int]:
        # Built on first name lookup; repeated voltage() calls are O(1)
        # instead of an O(n) list scan per call.
        return {name: i for i, name in enumerate(self.node_names)}

    def voltage(self, node: str) -> float:
        """Voltage at ``node`` (0 for ground).

        Raises
        ------
        KeyError
            For a node name absent from the solved circuit (the error
            names the offending node).
        """
        if node == "0":
            return 0.0
        try:
            idx = self._name_index[node]
        except KeyError:
            raise KeyError(
                f"unknown node {node!r}; circuit nodes are "
                f"{list(self.node_names)}") from None
        return float(self.solution[idx])

    def voltages(self) -> dict[str, float]:
        """All node voltages as a dict."""
        return {name: float(self.solution[i]) for i, name in enumerate(self.node_names)}


def _newton_dc(
    mna: MnaSystem,
    extra_gmin: float,
    rhs: np.ndarray,
    x0: np.ndarray,
    banded: bool = False,
    counts: dict | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Damped Newton for ``B`` stacked resistive networks; ``(x, converged)``.

    ``rhs`` and ``x0`` are ``(B, size)``.  ``extra_gmin`` adds a leak
    conductance to ground on every node diagonal — the gmin-stepping
    knob.  MOSFET-free networks are linear, so a single (leaked) solve
    is *exact*; a singular matrix marks every variant unconverged.

    MOSFET networks run :func:`~repro.circuit.mna.stacked_newton`;
    ``banded`` routes its iterations through the bordered kernel of the
    leaked system (dense Newton when its core factorization fails; a
    singular Schur factorization falls back to dense mid-solve), both
    counted in ``counts``.  A singular dense solve marks every
    still-active variant unconverged.
    """
    a_base = mna.g_lin.copy()
    nodes = np.arange(mna.n_nodes)
    a_base[nodes, nodes] += extra_gmin
    if mna.n_mosfets == 0:
        try:
            x = np.linalg.solve(a_base, rhs.T).T
        except np.linalg.LinAlgError:
            return x0.copy(), np.zeros(x0.shape[0], dtype=bool)
        return x, np.isfinite(x).all(axis=1)
    kernel = mna.bordered_newton_step(a_base) if banded else None
    if banded and kernel is None and counts is not None:
        counts["newton_fallbacks"] += 1
    return stacked_newton(mna, a_base, rhs, x0, abstol=1e-9, max_iter=200,
                          v_limit=0.4, catch_singular=True, stats=counts,
                          kernel=kernel)


def _gmin_stepping(sys_: MnaSystem, rhs: np.ndarray, x0: np.ndarray,
                   circuit_name: str, banded: bool, counts: dict) -> np.ndarray:
    """Walk the gmin schedule for one variant (``(1, size)`` stacks),
    solving each stage exactly once.

    Every successful stage warm-starts the next; the final ``gmin = 0``
    stage's solution is returned directly (no redundant re-solve).  When
    an intermediate stage fails, one *skip-ahead* solve jumps straight to
    ``gmin = 0`` from the last successful stage — the remaining
    relaxation stages are skipped, never retried.  Failures raise
    :class:`DcConvergenceError` naming the stage that failed.
    """
    def solve(gmin: float, seed: np.ndarray) -> "np.ndarray | None":
        x, converged = _newton_dc(sys_, gmin, rhs, seed, banded, counts)
        return x if converged.all() else None

    n_stages = len(GMIN_STAGES)
    for k, gmin in enumerate(GMIN_STAGES):
        x = solve(gmin, x0)
        if x is not None:
            x0 = x
            continue
        stage = f"gmin stage {k + 1}/{n_stages} (gmin={gmin:g})"
        if k == 0:
            # No leaked solution exists yet and the plain solve already
            # failed from this very seed — retrying it would be a no-op.
            raise DcConvergenceError(
                f"no DC operating point found for circuit {circuit_name!r}: "
                f"plain Newton failed and gmin stepping failed at its first "
                f"{stage}")
        if gmin == 0.0:
            raise DcConvergenceError(
                f"no DC operating point found for circuit {circuit_name!r}: "
                f"gmin stepping failed at its final {stage}")
        x = solve(0.0, x0)
        if x is None:
            raise DcConvergenceError(
                f"no DC operating point found for circuit {circuit_name!r}: "
                f"gmin stepping failed at {stage} and the direct gmin=0 "
                f"solve from the last successful stage also failed")
        return x
    return x0


def dc_operating_point(
    circuit: Circuit,
    at_time: float = 0.0,
    initial_voltages: dict[str, float] | None = None,
    mna: MnaSystem | None = None,
    backend: str = "auto",
) -> DcResult:
    """Find the DC operating point with sources evaluated at ``at_time``.

    The single-circuit form of :func:`dc_operating_point_batch`.

    Parameters
    ----------
    circuit:
        The netlist (capacitors are ignored in DC).
    at_time:
        Time at which time-varying sources are sampled.
    initial_voltages:
        Optional Newton seed, node → volts.  Knowing the logic state of a
        digital circuit makes convergence immediate.
    mna:
        Pre-compiled system (avoids recompilation inside the transient
        driver).
    backend:
        Solver backend request (``"auto"``/``"dense"``/``"sparse"``/
        ``"banded"``): MOSFET networks run their Newton iterations on the
        kernel the transient engine picks for it (see the module
        docstring); every backend computes the same operating point.

    Raises
    ------
    DcConvergenceError
        When Newton fails at every gmin-stepping stage; the message names
        the stage that failed.
    """
    return dc_operating_point_batch(
        [circuit], at_time=at_time, initial_voltages=[initial_voltages],
        mnas=[mna or MnaSystem(circuit)], backend=backend)[0]


def dc_operating_point_batch(
    circuits: Sequence[Circuit],
    at_time: float = 0.0,
    initial_voltages: Sequence[Mapping[str, float] | None] | None = None,
    mnas: Sequence[MnaSystem] | None = None,
    backend: str = "auto",
    stats: dict | None = None,
) -> list[DcResult]:
    """Solve the operating points of ``B`` topology-sharing variants at once.

    The variants of one circuit (noise-case sweeps, technique fixtures)
    share one solve: MOSFET stacks advance through one stacked Newton
    loop; MOSFET-free stacks collapse to a single structured solve of
    ``g_lin`` against all right-hand sides, with the linear-solver
    backend selected from the topology's DC sparsity pattern (shared
    with the transient engine — see :mod:`repro.circuit.solvers`).

    Parameters
    ----------
    circuits:
        The variants; all must share one topology signature (identical
        structure — only source *values* may differ).
    at_time:
        Time at which time-varying sources are sampled.
    initial_voltages:
        Optional per-variant Newton seeds (one mapping or ``None`` per
        circuit).
    mnas:
        Pre-compiled systems, aligned with ``circuits``.
    backend:
        Solver backend request (``"auto"``, ``"dense"``, ``"sparse"``,
        ``"banded"``): selects the structured factorization of
        MOSFET-free stacks, and the Newton kernel of MOSFET stacks
        (:meth:`~repro.circuit.mna.MnaSystem.newton_backend`, shared
        with the transient engine).
    stats:
        Optional counter dict; its ``"newton_fallbacks"`` entry counts
        every failed banded core and Schur factorization (not iterations).

    Returns
    -------
    list[DcResult]
        One operating point per variant, in input order.  Variants the
        stacked pass cannot converge walk the gmin-stepping schedule one
        at a time.

    Raises
    ------
    DcConvergenceError
        When a variant fails at every gmin-stepping stage; the message
        names the circuit and the stage that failed.
    """
    circuits = list(circuits)
    require(len(circuits) >= 1, "need at least one circuit")
    systems = list(mnas) if mnas is not None else [MnaSystem(c) for c in circuits]
    require(len(systems) == len(circuits), "one MnaSystem per circuit")
    mna0 = systems[0]
    signature = mna0.topology_signature()
    require(all(m.topology_signature() == signature for m in systems[1:]),
            "batched DC requires one shared topology")
    seeds = list(initial_voltages) if initial_voltages is not None \
        else [None] * len(circuits)
    require(len(seeds) == len(circuits), "one seed mapping per circuit")

    rhs = np.stack([m.source_rhs(at_time) for m in systems])
    x0 = np.zeros((len(circuits), mna0.size))
    for b, seed in enumerate(seeds):
        mna0.seed_vector(seed, out=x0[b])

    banded = mna0.n_mosfets > 0 and mna0.newton_backend(backend) == "banded"
    counts = {"newton_iters": 0, "newton_fallbacks": 0}
    if mna0.n_mosfets == 0:
        # Linear network: one structured factorization, B exact solves.
        structure = mna0.structure(include_caps=False)
        try:
            solver = factorize(mna0.g_lin,
                               select_backend(structure, 0, backend), structure)
            x = solver.solve(rhs)
            # A singular matrix raises above; the finiteness guard sends
            # any backend that degrades silently to gmin stepping, which
            # names the failure.
            converged = np.isfinite(x).all(axis=1)
        except np.linalg.LinAlgError:
            x = x0
            converged = np.zeros(len(circuits), dtype=bool)
    else:
        x, converged = _newton_dc(mna0, 0.0, rhs, x0, banded, counts)

    node_names = tuple(mna0.node_names)
    results = []
    for b, circuit in enumerate(circuits):
        solution = x[b] if converged[b] else _gmin_stepping(
            systems[b], rhs[b:b + 1], x0[b:b + 1], circuit.name,
            banded, counts)[0]
        results.append(DcResult(solution=solution, node_names=node_names))
    if stats is not None:
        stats["newton_fallbacks"] += counts["newton_fallbacks"]
    return results
