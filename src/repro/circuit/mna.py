"""Modified nodal analysis (MNA) assembly.

The unknown vector is ``x = [node voltages | voltage-source branch
currents]``.  :class:`MnaSystem` compiles a :class:`~repro.circuit.netlist.Circuit`
into the constant matrices and per-device arrays the analyses need:

* ``g_lin`` — conductances of resistors, voltage-source incidence rows and
  a small ``gmin`` to ground on every node diagonal,
* ``cap_*`` — capacitor terminal indices and values (companion models are
  applied by the transient analysis, which owns the time step),
* MOSFET terminal-index and parameter arrays for vectorised evaluation.

Ground is index ``-1`` throughout; stamping helpers skip it.
"""

from __future__ import annotations

import numpy as np

from collections import OrderedDict
from collections.abc import Mapping
from dataclasses import dataclass, field
from time import perf_counter

from .._util import require
from .mosfet import mosfet_eval
from .netlist import GROUND, Circuit
from .solvers import (BorderedBanded, MatrixStructure,
                      _BANDED_MAX_BANDWIDTH, _MAX_BORDER,
                      _MIN_STRUCTURED_SIZE, analyze_pattern, select_backend)

__all__ = ["MnaSystem", "stacked_newton", "NewtonPartition",
           "BorderedNewtonStep", "clear_analysis_cache"]

#: Conductance to ground added on every node diagonal for matrix robustness.
DEFAULT_GMIN = 1e-9


# ----------------------------------------------------------------------
# Per-topology analysis cache
# ----------------------------------------------------------------------
#: Analysis products that depend only on the topology signature — pattern
#: structures (RCM included) and Newton core/border partitions — shared across :class:`MnaSystem` instances.  Wide
#: experiment fronts compile one system per job; without this cache every
#: instance re-derived its O(n²)-ish pattern analysis inside
#: ``_StepMatrixCache.__init__``, once per job instead of once per
#: topology.  Bounded LRU.
_ANALYSIS_CACHE: "OrderedDict[tuple, _TopologyAnalysis]" = OrderedDict()
_ANALYSIS_CACHE_ENTRIES = 128

#: Sentinel: "not computed yet" (``None`` is a valid partition result).
_UNCOMPUTED = object()


class _TopologyAnalysis:
    """Lazily filled per-topology analysis slot."""

    __slots__ = ("structures", "partition")

    def __init__(self):
        self.structures: dict[bool, MatrixStructure] = {}
        self.partition = _UNCOMPUTED


def _analysis_for(signature: tuple) -> _TopologyAnalysis:
    entry = _ANALYSIS_CACHE.get(signature)
    if entry is None:
        entry = _TopologyAnalysis()
        _ANALYSIS_CACHE[signature] = entry
        while len(_ANALYSIS_CACHE) > _ANALYSIS_CACHE_ENTRIES:
            _ANALYSIS_CACHE.popitem(last=False)
    else:
        _ANALYSIS_CACHE.move_to_end(signature)
    return entry


def clear_analysis_cache() -> None:
    """Drop every cached per-topology analysis (test isolation hook)."""
    _ANALYSIS_CACHE.clear()


@dataclass(frozen=True)
class NewtonPartition:
    """Core/border split of a MOSFET system for the bordered kernel.

    ``border`` holds the MNA indices every MOSFET Jacobian entry can
    touch (device terminal nodes, plus voltage-source branch rows whose
    every non-ground terminal is such a node — leaving them in the core
    would give the core a structurally zero row); ``core`` is the rest,
    with ``core_structure`` its own RCM pattern analysis.
    """

    border: np.ndarray = field(repr=False)
    core: np.ndarray = field(repr=False)
    core_structure: MatrixStructure = field(repr=False)


class MnaSystem:
    """Compiled MNA view of a circuit.

    Parameters
    ----------
    circuit:
        The netlist to compile.
    gmin:
        Leak conductance to ground on every node (default ``1e-9`` S).
    """

    def __init__(self, circuit: Circuit, gmin: float = DEFAULT_GMIN):
        require(gmin >= 0.0, "gmin must be non-negative")
        self.circuit = circuit
        self.gmin = gmin
        self._signature: tuple | None = None
        self._analysis_entry: _TopologyAnalysis | None = None
        self.node_names = list(circuit.nodes)
        self.node_index = {name: i for i, name in enumerate(self.node_names)}
        self.n_nodes = len(self.node_names)
        self.n_branches = len(circuit.vsources)
        self.size = self.n_nodes + self.n_branches
        require(self.size > 0, "empty circuit")
        self.branch_index = {v.name: self.n_nodes + k for k, v in enumerate(circuit.vsources)}

        # --- constant linear conductance matrix -----------------------
        g = np.zeros((self.size, self.size))
        for i in range(self.n_nodes):
            g[i, i] += gmin
        for r in circuit.resistors:
            self._stamp_conductance(g, self.index_of(r.node_a), self.index_of(r.node_b),
                                    r.conductance)
        for k, v in enumerate(circuit.vsources):
            row = self.n_nodes + k
            ip = self.index_of(v.node_pos)
            im = self.index_of(v.node_neg)
            if ip >= 0:
                g[ip, row] += 1.0
                g[row, ip] += 1.0
            if im >= 0:
                g[im, row] -= 1.0
                g[row, im] -= 1.0
        self.g_lin = g

        # --- capacitors (terminal indices + values) -------------------
        self.cap_i = np.array([self.index_of(c.node_a) for c in circuit.capacitors], dtype=int)
        self.cap_j = np.array([self.index_of(c.node_b) for c in circuit.capacitors], dtype=int)
        self.cap_c = np.array([c.capacitance for c in circuit.capacitors], dtype=float)
        self.n_caps = self.cap_c.size
        self._cap_incidence: np.ndarray | None = None

        # --- MOSFET device arrays --------------------------------------
        mos = circuit.mosfets
        self.mos_d = np.array([self.index_of(m.drain) for m in mos], dtype=int)
        self.mos_g = np.array([self.index_of(m.gate) for m in mos], dtype=int)
        self.mos_s = np.array([self.index_of(m.source) for m in mos], dtype=int)
        self.mos_pol = np.array([m.params.polarity for m in mos], dtype=int)
        self.mos_beta = np.array([m.beta for m in mos], dtype=float)
        self.mos_vth = np.array([m.params.vth for m in mos], dtype=float)
        self.mos_lam = np.array([m.params.lam for m in mos], dtype=float)
        self.n_mosfets = len(mos)

        # --- sources ---------------------------------------------------
        self._vsource_fns = [v.source for v in circuit.vsources]
        self._isource_stamps = [
            (self.index_of(i.node_pos), self.index_of(i.node_neg), i.source)
            for i in circuit.isources
        ]

        # --- precomputed scatter operators for vectorised MOSFET stamping
        # Six Jacobian entries per device: rows (d,d,d,s,s,s) against
        # columns (d,g,s,d,g,s) take the partials (∂/∂vd, ∂/∂vg, ∂/∂vs),
        # the source row negated.  Signs, ground terminals and duplicate
        # destinations all fold into one signed scatter matrix per
        # target, so each stamp is a single BLAS call per Newton
        # iteration: ``[∂/∂vd | ∂/∂vg | ∂/∂vs] @ _mos_jac_scatter`` onto
        # the flat positions ``_mos_flat_uniq``, ``ieq @
        # _mos_rhs_scatter`` onto the rows ``_mos_rhs_uniq``.
        if self.n_mosfets:
            n_mos = self.n_mosfets
            rows = np.stack([self.mos_d, self.mos_d, self.mos_d,
                             self.mos_s, self.mos_s, self.mos_s])
            cols = np.stack([self.mos_d, self.mos_g, self.mos_s,
                             self.mos_d, self.mos_g, self.mos_s])
            valid = (rows >= 0) & (cols >= 0)
            self._mos_flat = (rows * self.size + cols)[valid]
            partial = (np.arange(6)[:, None] % 3) * n_mos + np.arange(n_mos)
            sign = np.broadcast_to([[1.0]] * 3 + [[-1.0]] * 3, rows.shape)
            uniq, inv = np.unique(self._mos_flat, return_inverse=True)
            self._mos_flat_uniq = uniq
            self._mos_jac_scatter = np.zeros((3 * n_mos, uniq.size))
            np.add.at(self._mos_jac_scatter, (partial[valid], inv),
                      sign[valid])
            terms = np.stack([self.mos_d, self.mos_s])
            valid = terms >= 0
            uniq_r, inv_r = np.unique(terms[valid], return_inverse=True)
            self._mos_rhs_uniq = uniq_r
            self._mos_rhs_scatter = np.zeros((n_mos, uniq_r.size))
            np.add.at(self._mos_rhs_scatter,
                      (np.broadcast_to(np.arange(n_mos), terms.shape)[valid],
                       inv_r),
                      np.broadcast_to([[1.0], [-1.0]], terms.shape)[valid])

    # ------------------------------------------------------------------
    def index_of(self, node: str) -> int:
        """MNA index of a node name; ``-1`` for ground."""
        if node == GROUND:
            return -1
        return self.node_index[node]

    def seed_vector(self, initial_voltages: "Mapping[str, float] | None" = None,
                    out: np.ndarray | None = None) -> np.ndarray:
        """MNA-sized solution vector with node seeds applied.

        Ground entries are ignored; unknown node names raise ``KeyError``.
        ``out`` fills an existing vector (e.g. one row of a stacked
        batch) in place instead of allocating.
        """
        x = np.zeros(self.size) if out is None else out
        for node, v in (initial_voltages or {}).items():
            idx = self.index_of(node)
            if idx >= 0:
                x[idx] = v
        return x

    @staticmethod
    def _stamp_conductance(a: np.ndarray, i: int, j: int, g: float) -> None:
        """Stamp a two-terminal conductance between indices ``i`` and ``j``."""
        if i >= 0:
            a[i, i] += g
        if j >= 0:
            a[j, j] += g
        if i >= 0 and j >= 0:
            a[i, j] -= g
            a[j, i] -= g

    def source_rhs(self, t: float) -> np.ndarray:
        """Right-hand side from independent sources at time ``t``."""
        rhs = np.zeros(self.size)
        for k, fn in enumerate(self._vsource_fns):
            rhs[self.n_nodes + k] = fn.value_at(t)
        for ip, im, fn in self._isource_stamps:
            cur = fn.value_at(t)
            if ip >= 0:
                rhs[ip] -= cur
            if im >= 0:
                rhs[im] += cur
        return rhs

    def cap_incidence(self) -> np.ndarray:
        """Capacitor → node incidence matrix, shape ``(n_caps, size)``.

        Row ``k`` holds ``+1`` at the capacitor's positive terminal and
        ``-1`` at its negative terminal (ground omitted), so a batch of
        companion currents scatters onto the right-hand side with one
        matmul: ``rhs += i_eq @ cap_incidence()``.
        """
        if self._cap_incidence is None:
            m = np.zeros((self.n_caps, self.size))
            for k in range(self.n_caps):
                i, j = int(self.cap_i[k]), int(self.cap_j[k])
                if i >= 0:
                    m[k, i] += 1.0
                if j >= 0:
                    m[k, j] -= 1.0
            self._cap_incidence = m
        return self._cap_incidence

    def source_rhs_columns(self) -> np.ndarray:
        """MNA rows that receive independent-source contributions (sorted).

        The source right-hand side is structurally sparse: only voltage
        -source branch rows and current-source terminal nodes are ever
        nonzero.  Storing a transient's source series on these columns
        alone keeps the precompute O(T · n_sources) instead of
        O(T · size).
        """
        rows = set(range(self.n_nodes, self.size))
        for ip, im, _ in self._isource_stamps:
            if ip >= 0:
                rows.add(ip)
            if im >= 0:
                rows.add(im)
        return np.array(sorted(rows), dtype=int)

    def source_rhs_series_compact(
        self, times: np.ndarray, cols: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Compact source series: ``(columns, values)`` with values
        shaped ``(T, len(columns))``.

        ``rhs[t][columns] = values[t]`` (all other entries zero)
        reproduces :meth:`source_rhs` at every sample time — branch rows
        hold exactly one voltage source each and current sources
        accumulate in stamp order, so the values are bitwise identical
        to the dense assembly.
        """
        times = np.asarray(times, dtype=np.float64)
        if cols is None:
            cols = self.source_rhs_columns()
        pos = {int(c): k for k, c in enumerate(cols)}
        vals = np.zeros((times.size, cols.size))
        for k, fn in enumerate(self._vsource_fns):
            vals[:, pos[self.n_nodes + k]] = fn(times)
        for ip, im, fn in self._isource_stamps:
            cur = np.asarray(fn(times), dtype=np.float64)
            if ip >= 0:
                vals[:, pos[ip]] -= cur
            if im >= 0:
                vals[:, pos[im]] += cur
        return cols, vals

    def source_breakpoints(self) -> np.ndarray:
        """Union of all source corner times (sorted, unique)."""
        pts: list[float] = []
        for fn in self._vsource_fns:
            pts.extend(fn.breakpoints)
        for _, _, fn in self._isource_stamps:
            pts.extend(fn.breakpoints)
        return np.unique(np.asarray(pts)) if pts else np.empty(0)

    @staticmethod
    def _pad_ground(x: np.ndarray) -> np.ndarray:
        """Append a zero column so ground's ``-1`` index gathers 0 V."""
        return np.concatenate([x, np.zeros((x.shape[0], 1))], axis=1)

    def topology_signature(self) -> tuple:
        """Structural fingerprint of the compiled system, excluding sources.

        Two circuits with equal signatures have byte-identical linear
        matrices, capacitor companions and MOSFET device arrays, so their
        transient analyses can share one stacked Newton loop — only the
        source *values* (evaluated per variant) may differ.  Used by
        :func:`~repro.circuit.transient.simulate_transient_many` to group
        compatible jobs.

        The fingerprint is taken from the element lists and node order
        (which fully determine every compiled matrix, given ``gmin``) —
        not from the matrices themselves, whose serialisation would cost
        O(size²) per variant on large interconnect systems.
        """
        if self._signature is None:
            c = self.circuit
            self._signature = (
                self.size, self.n_nodes, self.n_branches, self.n_caps,
                self.n_mosfets, self.gmin,
                tuple(self.node_names),
                tuple((r.node_a, r.node_b, r.resistance) for r in c.resistors),
                tuple((cp.node_a, cp.node_b, cp.capacitance)
                      for cp in c.capacitors),
                tuple((v.node_pos, v.node_neg) for v in c.vsources),
                tuple((i.node_pos, i.node_neg) for i in c.isources),
                tuple((m.drain, m.gate, m.source, m.params, m.w, m.length)
                      for m in c.mosfets),
            )
        return self._signature

    def system_pattern(self, include_caps: bool = True) -> np.ndarray:
        """Boolean nonzero pattern of the assembled system matrix.

        Covers the constant linear stamps (``g_lin``), optionally the
        capacitor companion-conductance positions (whose *values* depend
        on the time step, but whose positions are fixed per topology),
        and the MOSFET Jacobian fill.  This is the input to the solver
        backend selection in :mod:`repro.circuit.solvers`.
        """
        pat = self.g_lin != 0.0
        if include_caps:
            for k in range(self.n_caps):
                i, j = int(self.cap_i[k]), int(self.cap_j[k])
                if i >= 0:
                    pat[i, i] = True
                if j >= 0:
                    pat[j, j] = True
                if i >= 0 and j >= 0:
                    pat[i, j] = True
                    pat[j, i] = True
        if self.n_mosfets:
            pat.reshape(-1)[self._mos_flat] = True
        return pat

    def _analysis(self) -> _TopologyAnalysis:
        """This topology's shared analysis slot (global, LRU-bounded)."""
        if self._analysis_entry is None:
            self._analysis_entry = _analysis_for(self.topology_signature())
        return self._analysis_entry

    def structure(self, include_caps: bool = True) -> MatrixStructure:
        """Sparsity-pattern signature of the system matrix, cached.

        Computed once per *topology signature* (RCM reordering included)
        and shared by every analysis of every system compiled from that
        topology — wide experiment fronts compile one ``MnaSystem`` per
        job, so the cache is global, not per instance.  The transient
        engine selects its per-step solver from
        ``structure(include_caps=True)``, the DC solver from
        ``structure(include_caps=False)`` (capacitors are open in DC).
        """
        shared = self._analysis()
        cached = shared.structures.get(include_caps)
        if cached is None:
            cached = analyze_pattern(self.system_pattern(include_caps))
            shared.structures[include_caps] = cached
        return cached

    def newton_partition(self) -> "NewtonPartition | None":
        """Core/border split for the bordered Newton kernel, or ``None``.

        ``None`` means no viable partition exists — the circuit is
        MOSFET-free, the border would outgrow its ceiling, the remaining
        core is too small to be worth structuring, or the core does not
        permute to a narrow band.  Cached per topology signature.
        """
        shared = self._analysis()
        if shared.partition is _UNCOMPUTED:
            shared.partition = self._build_newton_partition()
        return shared.partition

    def _build_newton_partition(self) -> "NewtonPartition | None":
        if self.n_mosfets == 0:
            return None
        border_mask = np.zeros(self.size, dtype=bool)
        for idx in (self.mos_d, self.mos_g, self.mos_s):
            border_mask[idx[idx >= 0]] = True
        for k, v in enumerate(self.circuit.vsources):
            terms = [t for t in (self.index_of(v.node_pos),
                                 self.index_of(v.node_neg)) if t >= 0]
            if terms and all(border_mask[t] for t in terms):
                border_mask[self.n_nodes + k] = True
        border = np.nonzero(border_mask)[0]
        core = np.nonzero(~border_mask)[0]
        if (core.size < _MIN_STRUCTURED_SIZE or border.size > _MAX_BORDER
                or border.size >= core.size):
            return None
        pat = self.system_pattern(include_caps=True)
        core_structure = analyze_pattern(pat[np.ix_(core, core)])
        if core_structure.bandwidth > _BANDED_MAX_BANDWIDTH:
            return None
        return NewtonPartition(border=border, core=core,
                               core_structure=core_structure)

    def newton_backend(self, requested: str = "auto") -> str:
        """The Newton kernel a backend request runs on this MOSFET system:
        ``"banded"`` (the bordered kernel) or ``"dense"``.

        The transient engine and the DC solver both resolve through
        here, so an operating point runs on the kernel of the transient
        it seeds.  See :func:`~repro.circuit.solvers.select_backend`.
        """
        partition = self.newton_partition() \
            if requested in ("auto", "banded") else None
        # Without a partition the answer is "dense" whatever the pattern,
        # so its (scipy RCM) analysis is only run where it is read.
        structure = self.structure() \
            if requested == "auto" and partition is not None else None
        return select_backend(structure, self.n_mosfets, requested, partition)

    def bordered_newton_step(
            self, a_base: np.ndarray) -> "BorderedNewtonStep | None":
        """Bordered Newton operator for a base matrix (companion-stamped,
        or the DC form), or ``None`` when its banded core factorization
        fails — the caller then runs dense Newton.

        Raises :class:`ValueError` when no viable partition exists.
        """
        partition = self.newton_partition()
        require(partition is not None,
                "no viable core/border partition for this topology")
        try:
            return BorderedNewtonStep(self, partition, a_base)
        except np.linalg.LinAlgError:
            return None

    def _mos_lin(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Newton linearisation of every MOSFET at operating points ``x``.

        ``x`` is ``(B, size)``.  Returns the drain-current partials
        ``[∂/∂vd | ∂/∂vg | ∂/∂vs]``, shape ``(B, 3·n_mosfets)`` (the
        layout ``_mos_jac_scatter`` stamps), and the equivalent Newton
        currents ``ieq = J·x0 − ids0``, shape ``(B, n_mosfets)`` (stamped
        positive at the drain, negative at the source).
        """
        xp = self._pad_ground(x)
        vd = xp[:, self.mos_d]
        vg = xp[:, self.mos_g]
        vs = xp[:, self.mos_s]
        ids, did_dvd, did_dvg, did_dvs = mosfet_eval(
            vd, vg, vs, self.mos_pol, self.mos_beta, self.mos_vth, self.mos_lam
        )
        ieq = did_dvd * vd + did_dvg * vg + did_dvs * vs - ids
        return np.concatenate((did_dvd, did_dvg, did_dvs), axis=1), ieq

    def _stamp_mos_rhs(self, rhs: np.ndarray, ieq: np.ndarray) -> None:
        """Scatter companion currents ``(B, n_mosfets)`` onto ``(B, size)``."""
        rhs[:, self._mos_rhs_uniq] += ieq @ self._mos_rhs_scatter

    def stamp_mosfets(self, a: np.ndarray, rhs: np.ndarray, x: np.ndarray) -> None:
        """Stamp Newton-linearised MOSFETs at ``B`` operating points.

        Adds the Jacobian of the drain currents to ``a`` and the companion
        current terms to ``rhs`` so that solving ``a · x_new = rhs`` performs
        one Newton step of the nonlinear system.

        Parameters
        ----------
        a:
            Stacked system matrices, shape ``(B, size, size)``; modified in
            place.
        rhs:
            Stacked right-hand sides, shape ``(B, size)``; modified in place.
        x:
            Stacked operating points, shape ``(B, size)``.

        One vectorised :func:`~repro.circuit.mosfet.mosfet_eval` pass covers
        every device of every variant, so the cost of a Newton iteration is
        independent of the batch size at the Python level.
        """
        if self.n_mosfets == 0:
            return
        jac, ieq = self._mos_lin(x)
        a_flat = a.reshape(x.shape[0], -1)
        a_flat[:, self._mos_flat_uniq] += jac @ self._mos_jac_scatter
        self._stamp_mos_rhs(rhs, ieq)


def _lap(timers: "dict | None", key: str, t0: float) -> float:
    """Charge the time since ``t0`` to phase ``key``; returns the new mark.

    The phase-timer primitive of the Newton loops (see
    ``repro.circuit.transient._phase_timers``): a no-op returning ``0.0``
    when timing is disabled (``timers is None``).
    """
    if timers is None:
        return 0.0
    now = perf_counter()
    timers[key] = timers.get(key, 0.0) + (now - t0)
    return now


class BorderedNewtonStep:
    """Block-bordered Newton linear operator (banded core + device border).

    Wraps :class:`~repro.circuit.solvers.BorderedBanded` — core factor,
    coupling solve and constant Schur part are built once per step size —
    with the border-local device scatter: each Newton iteration only
    assembles the ``(nb, nb)`` device delta and refactorises the
    border-sized Schur complement.

    :meth:`solve` takes the caller's optional phase-timer dict and
    charges the device linearisation and stamping to ``device_eval``, the
    Schur factorization and substitutions to ``solve``.  A singular Schur
    complement raises :class:`numpy.linalg.LinAlgError`; the Newton loop
    responds by finishing the solve on the dense path.
    """

    def __init__(self, mna: "MnaSystem", partition: NewtonPartition,
                 a_base: np.ndarray):
        self._mna = mna
        self._bb = BorderedBanded(a_base, partition.border, partition.core,
                                  partition.core_structure)
        nb = int(partition.border.size)
        self._nb = nb
        lookup = np.full(mna.size, -1, dtype=np.int64)
        lookup[partition.border] = np.arange(nb)
        n = mna.size
        # Device fill lands entirely inside the border block, so every
        # lookup is valid by construction of the partition.
        self._flat = (lookup[mna._mos_flat_uniq // n] * nb
                      + lookup[mna._mos_flat_uniq % n])

    def solve(self, rhs: np.ndarray, x: np.ndarray,
              timers: "dict | None" = None) -> np.ndarray:
        """Stacked Newton linear solve at ``x`` ``(B, n)``; ``rhs``
        ``(B, n)`` is owned by this call.

        Fully vectorised across the batch: the border deltas fold
        through the shared one-hot scatter and the Schur complements
        factor through one stacked ``numpy.linalg.solve``.
        """
        t0 = perf_counter() if timers is not None else 0.0
        mna = self._mna
        batch = x.shape[0]
        jac, ieq = mna._mos_lin(x)
        delta = np.zeros((batch, self._nb * self._nb))
        delta[:, self._flat] += jac @ mna._mos_jac_scatter
        mna._stamp_mos_rhs(rhs, ieq)
        t0 = _lap(timers, "device_eval", t0)
        out = self._bb.solve(rhs, delta.reshape(batch, self._nb, self._nb))
        _lap(timers, "solve", t0)
        return out


def stacked_newton(
    mna: MnaSystem,
    a_base: np.ndarray,
    rhs_base: np.ndarray,
    x0: np.ndarray,
    abstol: float,
    max_iter: int,
    v_limit: float,
    require_unlimited: bool = False,
    catch_singular: bool = False,
    stats: dict | None = None,
    kernel: "BorderedNewtonStep | None" = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Damped Newton over ``B ≥ 1`` stacked operating points;
    ``(x, converged)``.

    The one Newton loop of the transient and DC engines: per iteration
    the MOSFETs of every *active* variant are stamped onto broadcast
    copies of ``a_base``/``rhs_base``, solved together, damped to
    ``v_limit`` per variant, and variants whose worst node-voltage update
    drops below ``abstol`` are frozen — so each variant follows its own
    iteration sequence, independent of the batch around it.

    Parameters
    ----------
    a_base, rhs_base:
        Shared system matrix ``(size, size)`` and per-variant right-hand
        sides ``(B, size)`` (MOSFET companion terms are stamped on top).
    x0:
        Stacked Newton seeds ``(B, size)``.
    abstol, max_iter, v_limit:
        Convergence threshold on node-voltage updates, iteration cap and
        per-iteration update clamp.
    require_unlimited:
        Additionally require the accepted update to be unclamped before
        declaring a variant converged (the transient engine's test; a
        no-op whenever ``abstol < v_limit``).
    catch_singular:
        Return the still-unconverged state on a singular stacked solve
        (the DC engine's gmin-stepping contract) instead of propagating
        :class:`numpy.linalg.LinAlgError`.
    stats:
        Optional counter dict whose ``"newton_iters"`` entry is bumped
        per iteration (and ``"newton_fallbacks"`` when a structured
        kernel degrades to dense mid-solve).
    kernel:
        Optional bordered Newton operator replacing the dense
        stamp-and-solve.  A singular Schur factorization drops back to
        the dense path for the remainder of the solve.
    """
    x = x0.copy()
    m = x.shape[0]
    n_nodes = mna.n_nodes
    converged = np.zeros(m, dtype=bool)
    active = np.arange(m)
    # While no variant has converged the active-set gathers and scatters
    # are identities; skip them (the common case, and every iteration of
    # a single-variant solve).
    full = True
    timers = stats.get("phase_seconds") if stats is not None else None
    for _ in range(max_iter):
        sub = x if full else x[active]
        x_new = None
        if kernel is not None:
            try:
                x_new = kernel.solve(rhs_base.copy() if full
                                     else rhs_base[active], sub, timers)
            except np.linalg.LinAlgError:
                if stats is not None:
                    stats["newton_fallbacks"] = \
                        stats.get("newton_fallbacks", 0) + 1
                kernel = None
        if x_new is None:
            t0 = perf_counter() if timers is not None else 0.0
            a = a_base[None].repeat(sub.shape[0], axis=0)
            rhs = rhs_base.copy() if full else rhs_base[active]
            mna.stamp_mosfets(a, rhs, sub)
            t0 = _lap(timers, "device_eval", t0)
            try:
                x_new = np.linalg.solve(a, rhs[..., None])[..., 0]
            except np.linalg.LinAlgError:
                if catch_singular:
                    return x, converged
                raise
            finally:
                _lap(timers, "solve", t0)
        dx = x_new - sub
        dv = dx[:, :n_nodes]
        worst = np.max(np.abs(dv), axis=1) if n_nodes else np.zeros(sub.shape[0])
        limited = worst > v_limit
        if limited.any():
            dx *= np.where(limited, v_limit / np.maximum(worst, 1e-300),
                           1.0)[:, None]
        if full:
            x = sub + dx
        else:
            x[active] = sub + dx
        if stats is not None:
            stats["newton_iters"] += 1
        ok = worst < abstol
        if require_unlimited:
            ok &= ~limited
        if ok.any():
            converged[active[ok]] = True
            active = active[~ok]
            full = False
            if active.size == 0:
                break
    return x, converged
