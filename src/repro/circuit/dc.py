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

Large MOSFET networks run their Newton iterations through the
pattern-frozen sparse kernel
(:meth:`~repro.circuit.mna.MnaSystem.sparse_newton_step`): the Jacobian
pattern is frozen per topology, each iteration (and each gmin stage)
updates only the nnz data vector and pays a numeric SuperLU
refactorization.  The bordered-banded transient kernel is deliberately
not used here — gmin stepping would re-factor its banded core once per
stage for no gain at DC's solve counts.

Operating points are memoisable: :func:`set_dc_memo` installs a
process-wide content-keyed memo (the execution layer wires the on-disk
:class:`~repro.exec.store.ResultStore` through it), and
:func:`dc_operating_point` / :func:`dc_operating_point_batch` consult it
before running Newton — warm characterisation and glitch sweeps perform
zero DC Newton solves.
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
           "DcConvergenceError", "set_dc_memo"]

#: gmin-stepping schedule: heavy leak first, relaxed to the exact system.
GMIN_STAGES = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 0.0)

#: Process-wide DC operating-point memo (see :func:`set_dc_memo`).
_DC_MEMO = None


def set_dc_memo(memo):
    """Install a process-wide DC operating-point memoiser; returns the
    previous one (``None`` uninstalls).

    The hook decouples the circuit layer from the execution layer: the
    execution config (:mod:`repro.exec.config`) installs a
    ResultStore-backed memo whenever a store is configured, and the DC
    solvers consult it before running Newton.  The memo contract is
    ``key(circuit, mna, at_time, seed) -> str | None`` (``None`` =
    uncacheable), ``lookup(key, mna) -> np.ndarray | None`` and
    ``store(key, solution)`` (which must swallow persistence failures).
    """
    global _DC_MEMO
    previous = _DC_MEMO
    _DC_MEMO = memo
    return previous


def _sparse_dc(mna: MnaSystem, requested: str) -> bool:
    """Whether a MOSFET DC Newton should use the pattern-frozen kernel.

    Resolved through the shared :func:`select_backend` rules against the
    DC (capacitor-free) pattern; both structured names map to the sparse
    kernel here (see the module docstring).
    """
    if mna.n_mosfets == 0:
        return False
    structure = mna.structure(include_caps=False) \
        if requested == "auto" else None
    return select_backend(structure, mna.n_mosfets, requested) != "dense"


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
    kernel=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Damped Newton for ``B`` stacked resistive networks; ``(x, converged)``.

    ``rhs`` and ``x0`` are ``(B, size)``.  ``extra_gmin`` adds a leak
    conductance to ground on every node diagonal — the gmin-stepping
    knob.  MOSFET-free networks are linear, so a single (leaked) solve
    is *exact*; a singular matrix marks every variant unconverged.

    MOSFET networks run :func:`~repro.circuit.mna.stacked_newton`;
    ``kernel`` optionally routes its iterations through the
    pattern-frozen sparse operator of the same leaked system (the leak
    lands on the frozen diagonal positions, so every gmin stage shares
    one symbolic pattern; a singular structured refactorization falls
    back to the dense path mid-solve).
    A singular dense solve marks every still-active variant unconverged.
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
    return stacked_newton(mna, a_base, rhs, x0, abstol=1e-9, max_iter=200,
                          v_limit=0.4, catch_singular=True, kernel=kernel)


def _gmin_stepping(sys_: MnaSystem, rhs: np.ndarray, x0: np.ndarray,
                   circuit_name: str, sparse: bool = False) -> np.ndarray:
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
        kernel = sys_.sparse_newton_step(extra_gmin=gmin) if sparse else None
        x, converged = _newton_dc(sys_, gmin, rhs, seed, kernel)
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
        ``"banded"``): large MOSFET networks run their Newton iterations
        through the pattern-frozen sparse kernel (see the module
        docstring); never part of the memo key — every backend computes
        the same operating point.

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
        MOSFET-free stacks, and whether MOSFET stacks iterate through
        the pattern-frozen sparse Newton kernel.

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

    batch = len(circuits)
    node_names = tuple(mna0.node_names)
    results: list[DcResult | None] = [None] * batch

    # Linear stacks solve in one factorization — not worth memoising.
    memo = _DC_MEMO if mna0.n_mosfets > 0 else None
    keys: list[str | None] = [None] * batch
    if memo is not None:
        for b in range(batch):
            keys[b] = memo.key(circuits[b], systems[b], at_time, seeds[b])
            if keys[b] is not None:
                cached = memo.lookup(keys[b], systems[b])
                if cached is not None:
                    results[b] = DcResult(solution=cached,
                                          node_names=node_names)
    pending = [b for b in range(batch) if results[b] is None]
    if not pending:
        return results  # type: ignore[return-value]

    rhs = np.stack([systems[b].source_rhs(at_time) for b in pending])
    x0 = np.zeros((len(pending), mna0.size))
    for i, b in enumerate(pending):
        mna0.seed_vector(seeds[b], out=x0[i])

    sparse = _sparse_dc(mna0, backend)
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
            converged = np.zeros(len(pending), dtype=bool)
    else:
        kernel = mna0.sparse_newton_step() if sparse else None
        x, converged = _newton_dc(mna0, 0.0, rhs, x0, kernel)

    for i, b in enumerate(pending):
        solution = x[i] if converged[i] else _gmin_stepping(
            systems[b], rhs[i:i + 1], x0[i:i + 1], circuits[b].name,
            sparse=sparse)[0]
        results[b] = DcResult(solution=solution, node_names=node_names)
        if keys[b] is not None:
            memo.store(keys[b], solution)
    return results  # type: ignore[return-value]
