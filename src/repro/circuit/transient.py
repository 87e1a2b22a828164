"""Nonlinear transient analysis.

Trapezoidal integration with Newton–Raphson at every step, the workhorse
of this reproduction: it plays the role Hspice plays in the paper.
Capacitors use trapezoidal companion models (second-order accurate);
MOSFETs are linearised per Newton iteration via
:meth:`~repro.circuit.mna.MnaSystem.stamp_mosfets`.  Steps are chosen by
local-truncation-error control on the caller's base grid; a base step
that fails to converge is retried with recursive step halving.

The base step ``dt`` is chosen by the caller; the experiments use 1–2
ps, which resolves 150 ps slews and crosstalk pulses comfortably
(validated against analytic RC responses and ``scipy`` reference
integrations in the tests).

Stacked simulation
------------------
There is one engine, and it always advances a *stack* of ``B ≥ 1``
variants of one topology through a single Newton loop over stacked
``(B, n, n)`` matrices (:func:`~repro.circuit.mna.stacked_newton`).  The
experiments run the *same topology* under many stimuli (noise-case
sweeps, one circuit per aggressor alignment; technique evaluation, one
receiver fixture per Γ_eff), and the entry points hand them over
together so the per-step Python cost is paid once per stack:

* :func:`simulate_transient_batch` — B variants of one circuit, given as
  :class:`BatchStimulus` source/initial-state overrides.
* :func:`simulate_transient_many` — a list of independent
  :class:`TransientJob` simulations, grouped by
  :meth:`~repro.circuit.mna.MnaSystem.topology_signature` (plus time grid
  and solver options); each group is one stack.
* :func:`simulate_transient` — one circuit, a stack of one.

The Newton loop freezes converged variants and applies the convergence
and voltage-limiting tests per variant, and the variants whose base step
fails to converge are recovered by recursive step halving as a
sub-stack of their own.  Variants may have different ``t_stop`` values
(sharing ``t_start``/``dt``); each result is truncated to its own
window.

Time stepping
-------------
The solver *lives on* the caller's base grid — every accepted time point
is ``t_start + k·dt`` for an integer ``k`` — and in quiet stretches takes
strides of ``2**level`` base steps at a time.  Acceptance is governed by
a predictor/corrector difference: the trapezoidal solution of each trial
step is compared against the linear extrapolation of the two previous
accepted points, weighted by ``lte_atol + lte_rtol·|v|`` per node.  A
trial stride whose estimate exceeds the tolerance is rejected and
retried shorter (shrink is immediate and proportional); strides grow one
rung at a time only after ``_GROW_AFTER`` consecutive accepted steps
whose estimate stayed below ``_GROW_FRACTION`` of the tolerance — a
PI-flavoured controller: proportional shrink, integrating growth.

``TransientOptions.max_step`` caps the ladder at ``dt·2**rungs`` (see
:attr:`TransientJob.stride_rungs`).  ``max_step = dt`` leaves no rung to
climb: that is the *fixed grid*, the accuracy reference.  It takes every
base step, forms no LTE estimate and keeps no history, so its results
live on ``t_start + dt·arange(n + 1)`` and a variant's result does not
depend on its stack mates (to <1e-9 V).

Base-``dt`` steps are always accepted (a grown run must never be
*worse* than the fixed grid): up to the first grown stride a run is
bit-identical to the fixed grid, and later base-stepped stretches apply
the identical per-step Newton recursion from a state within the LTE
tolerance of the fixed-grid one.  Growth is additionally fenced by
*source barriers* — base-grid indices of every significant stimulus
corner (PWL/ramp corners, the active span of sampled-waveform sources) —
which a stride may never cross: landing on a barrier resets the ladder,
so a late aggressor can never be stepped over and sharp activity onsets
always restart at base resolution.  Between corners the LTE tests alone
govern the stride — a long, gentle slew whose response passes them may
be strided over (still within tolerance) — while the fast transitions of
the experiments hold the engine at base ``dt``, and the grown strides
concentrate in the settled tails that dominate ``t_stop ≫ transition``
windows.

A stack advances in lockstep on the minimum accepted stride (one
variant's rejection shrinks the step for all), which keeps the stacked
solves and the step-matrix cache shared.  Consequence: where strides can
grow, a job's accepted grid depends on its group membership, so the
contract between a job run alone and the same job inside a group is
"both within the LTE tolerance of the fixed grid" (pinned by the
golden-grid harness in ``tests/test_adaptive_stepping.py``) rather than
the fixed grid's <1e-9 V contract.  The shard scheduler keeps groups
whole, which preserves the sharded ≡ serial equivalence bit for bit.

Capacitor history
-----------------
The trapezoidal history is threaded in base-step form ``s = G·v_cap +
i_cap`` (``G = 2C/dt``; ``i_cap = 0`` at DC or UIC).  A stride of ``m``
base steps injects the companion current ``ieq = s − (1 − 1/m)·G·v_cap``
and leaves ``s' = (1 + 1/m)·G·v_cap' − ieq``; a base step is the plain
identity ``s' = 2·G·v_cap' − s`` — one gather and one fused
multiply-add per step.  Linear (MOSFET-free) groups thread it in node
space, ``r' = 2·S·x' − r`` with ``S`` the sparse companion-conductance
matrix, so the whole per-step cost outside the solve is one sparse
matvec, independent of the capacitor count.  Step halving recovers
``i_cap`` from ``s`` and threads it through the half steps.

Matrix caching
--------------
The linear system matrix with capacitor companion conductances is constant
per step size.  It is cached keyed on the *quantised step value*: every
step the engine takes is ``dt·m`` for a small integer or ``dt/2**depth``
from halving — exact binary/ladder scalings of the base step, so equal
steps produce bit-identical keys and repeated halvings (or repeated
strides at one ladder rung) hit the cache deterministically.  The cache
is a bounded LRU (``_STEP_CACHE_ENTRIES``), since the stride ladder
plus barrier-clamped strides can visit more step sizes than the
halving depths.  For MOSFET-free circuits
(RC/interconnect networks) the cached entry also carries a factorisation
that is reused across all steps and variants.

Solver backends
---------------
The per-step linear solves are pluggable (:mod:`repro.circuit.solvers`).
A sparsity-pattern signature of the companion-stamped system matrix —
size, density and reverse-Cuthill–McKee bandwidth, computed once per
topology and cached on :class:`~repro.circuit.mna.MnaSystem` — selects
the backend when ``TransientOptions.backend`` is ``"auto"``:

* ``dense`` — stacked LAPACK LU; small systems (including the
  paper-scale MOSFET testbenches, whose Newton loops beat any
  structured overhead at ~30 unknowns).
* ``banded`` — RCM reordering plus banded LU sweeps: pure RC lines from
  :mod:`repro.interconnect.rcline` permute to tridiagonal form (the
  Thomas recursion), coupled bundles to block-tridiagonal; O(n·b) per
  step instead of O(n²).  This is what lifts the node-count ceiling of
  line-dominated netlists.
* ``sparse`` — SuperLU factor reuse; large low-density systems that do
  not flatten to a narrow band (meshes, many-line bundles).

MOSFET circuits have two Newton kernels
(:meth:`~repro.circuit.mna.MnaSystem.newton_backend`).  ``banded`` is the
block-bordered kernel for gate-plus-interconnect topologies: the banded
interconnect core is factored once per step size and each iteration
refactorises only the border-sized Schur complement of the device block
(:meth:`~repro.circuit.mna.MnaSystem.newton_partition`).  It runs for
``auto`` past ~64 unknowns and for ``banded`` whenever a viable
core/border partition exists; every other request, ``sparse`` included,
runs dense Newton.  A failed core factorization runs the step size on
dense Newton, and a singular Schur complement falls back to dense
mid-solve; both count in ``stats["newton_fallbacks"]`` (DC's included),
and ``stats["backend"]`` names the kernel that ran.  This is what
extends the node-count ceiling to gate-plus-interconnect netlists, not
just passive lines.

DC operating points take the same treatment:
:func:`~repro.circuit.dc.dc_operating_point_batch` solves every
variant's initial state in one stacked pass, on the backend and Newton
kernel this engine selects.
"""

from __future__ import annotations

import copy
import math
from collections import OrderedDict
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from dataclasses import replace as _dc_replace

import numpy as np

from time import perf_counter

from .._knobs import knob
from .._util import require
from ..core.waveform import Waveform
# Both DC entry points stay bound here: perfbench/tracing.py wraps them by attribute.
from .dc import dc_operating_point, dc_operating_point_batch
from .mna import BorderedNewtonStep, MnaSystem, _lap, stacked_newton
from .netlist import Circuit
from .solvers import BACKENDS, factorize, select_backend, sparse_csr
from .sources import as_source

__all__ = [
    "TransientResult",
    "simulate_transient",
    "TransientOptions",
    "ConvergenceError",
    "TransientJob",
    "BatchStimulus",
    "simulate_transient_batch",
    "simulate_transient_many",
    "job_group_key",
]


class ConvergenceError(RuntimeError):
    """Raised when Newton iteration fails even after step halving."""


@dataclass(frozen=True)
class TransientOptions:
    """Knobs of the transient solver.

    Attributes
    ----------
    abstol:
        Newton convergence threshold on voltage updates (volts).
    max_newton:
        Maximum Newton iterations per (sub)step.
    max_halvings:
        Maximum recursive step halvings on non-convergence.
    v_limit:
        Per-iteration clamp on voltage updates (volts); damps overshoot.
    backend:
        Linear-solver backend for the per-step solves: ``"auto"``
        (default — selected from the topology's sparsity pattern, see
        the module docstring), or force ``"dense"`` / ``"sparse"`` /
        ``"banded"``.  On MOSFET circuits ``"banded"`` selects the
        block-bordered Newton kernel where a core/border partition
        exists; every other case, ``"sparse"`` included, runs dense
        Newton.
    lte_rtol, lte_atol:
        Per-node weight of the local-truncation-error test: a trial
        stride is accepted when the predictor/corrector difference stays
        below ``lte_atol + lte_rtol·|v|`` everywhere.  The defaults keep
        grown strides within ~1e-6·Vdd of the fixed grid.
    max_step:
        Upper bound on a grown step (seconds); ``0.0`` (default) means
        ``dt · 2**_DEFAULT_GROWTH_RUNGS``.  ``max_step = dt`` is the
        fixed grid (see the module docstring).  The base ``dt`` is the
        floor of every step, so a positive value below ``dt`` is
        rejected at simulation time.
    min_step:
        Lower bound on Newton-failure step halving (seconds); ``0.0``
        (default) leaves ``max_halvings`` as the only floor.
    """

    abstol: float = 1e-6
    max_newton: int = 60
    max_halvings: int = 10
    v_limit: float = 0.6
    backend: str = "auto"
    lte_rtol: float = 5e-7
    lte_atol: float = 2e-7
    max_step: float = 0.0
    min_step: float = 0.0

    def __post_init__(self) -> None:
        require(self.backend in BACKENDS,
                f"unknown solver backend {self.backend!r}; "
                f"expected one of {BACKENDS}")
        require(self.lte_rtol >= 0.0, "lte_rtol must be non-negative")
        require(self.lte_atol > 0.0, "lte_atol must be positive")
        require(self.max_step >= 0.0, "max_step must be non-negative")
        require(self.min_step >= 0.0, "min_step must be non-negative")


class TransientResult:
    """Simulation output: node voltages (and branch currents) over time.

    Access node waveforms with :meth:`waveform` or dictionary-style with
    :meth:`voltage_samples`.  ``stats`` carries solver diagnostics of the
    stack the result was solved in (``newton_iters``, ``halvings``,
    ``matrix_builds``, ``batch_size``, ``steps_accepted``,
    ``lte_rejects``, ``newton_rejects``).  ``newton_iters`` counts passes of the
    stacked Newton loop — one pass advances every still-active variant of
    the stack — and ``halvings`` counts once per variant per halving.

    The time axis is *not* necessarily uniform: a run whose strides grow
    (any ``TransientOptions.max_step`` but ``dt``) reports the accepted
    non-uniform sub-grid of the base step.  Every accessor is grid-agnostic —
    :meth:`waveform` returns a piecewise-linear record over the actual
    sample times, :meth:`final_voltages` and :meth:`branch_current` read
    rows directly, and :meth:`voltages_at` resamples a node onto any
    axis.  Consumers that assume a constant spacing should consult
    :attr:`uniform_grid` / :meth:`step_sizes` first.
    """

    def __init__(self, mna: MnaSystem, times: np.ndarray, solutions: np.ndarray,
                 stats: dict | None = None):
        self._mna = mna
        self.times = times
        self._x = solutions  # shape (n_steps, size)
        self.stats = dict(stats) if stats else {}

    @property
    def node_names(self) -> list[str]:
        """Names of all non-ground nodes."""
        return list(self._mna.node_names)

    def voltage_samples(self, node: str) -> np.ndarray:
        """Raw sampled voltages at ``node`` (zeros for ground)."""
        idx = self._mna.index_of(node)
        if idx < 0:
            return np.zeros_like(self.times)
        return self._x[:, idx]

    def waveform(self, node: str) -> Waveform:
        """The voltage at ``node`` as a :class:`~repro.core.waveform.Waveform`."""
        return Waveform(self.times, self.voltage_samples(node))

    def branch_current(self, vsource_name: str) -> np.ndarray:
        """Current through a voltage source (positive into its + terminal)."""
        row = self._mna.branch_index[vsource_name]
        return self._x[:, row]

    def final_voltages(self) -> dict[str, float]:
        """Node → final voltage map (useful as the next run's initial state)."""
        return {name: float(self._x[-1, self._mna.node_index[name]])
                for name in self._mna.node_names}

    @property
    def uniform_grid(self) -> bool:
        """True when all sample spacings are (numerically) equal."""
        steps = self.step_sizes()
        if steps.size <= 1:
            return True
        return bool(np.allclose(steps, steps[0], rtol=1e-9, atol=0.0))

    def step_sizes(self) -> np.ndarray:
        """The accepted step sizes (``np.diff`` of the time axis)."""
        return np.diff(self.times)

    def voltages_at(self, node: str, times: np.ndarray) -> np.ndarray:
        """Node voltages linearly resampled onto an arbitrary time axis.

        The common-axis accessor of the golden-grid comparisons: strided
        and fixed-grid results of the same circuit can be differenced on
        any shared grid regardless of their native sampling.
        """
        return np.interp(np.asarray(times, dtype=np.float64),
                         self.times, self.voltage_samples(node))


@dataclass(frozen=True)
class TransientJob:
    """One independent transient simulation, for :func:`simulate_transient_many`.

    Mirrors the parameters of :func:`simulate_transient`; jobs whose
    circuits share a topology (and whose ``t_start``/``dt``/``options``
    agree) are solved together as one stack.
    """

    circuit: Circuit
    t_stop: float
    dt: float
    t_start: float = 0.0
    initial_voltages: Mapping[str, float] | None = None
    use_ic: bool = False
    options: TransientOptions | None = None

    def run(self) -> "TransientResult":
        """Run this job alone: a stack of one through
        :func:`simulate_transient_many`."""
        return simulate_transient_many([self])[0]

    @property
    def stride_rungs(self) -> int:
        """Rungs the stride ladder may climb: strides reach ``dt·2**rungs``.

        A ``max_step`` below ``2·dt`` (``max_step = dt``) leaves none:
        the fixed grid.  Unset, the ladder has ``_DEFAULT_GROWTH_RUNGS``.
        A positive ``max_step`` below ``dt`` cannot bound anything (the
        base grid is the floor of every step) and is rejected.
        """
        max_step = (self.options or TransientOptions()).max_step
        if max_step == 0.0:
            return _DEFAULT_GROWTH_RUNGS
        require(max_step >= self.dt,
                f"max_step ({max_step:.3e}s) below the base step "
                f"({self.dt:.3e}s) cannot bound anything: the base grid is "
                f"the floor of every step")
        return int(math.floor(math.log2(max_step / self.dt)))


@dataclass(frozen=True)
class BatchStimulus:
    """Per-variant overrides for :func:`simulate_transient_batch`.

    Attributes
    ----------
    sources:
        Source-name → stimulus map (anything
        :func:`~repro.circuit.sources.as_source` accepts).  Named voltage
        and current sources of the base circuit are replaced; unnamed ones
        keep their base stimulus.
    initial_voltages:
        Node → volts seed for this variant's DC solve (or exact initial
        state with ``use_ic``).
    use_ic:
        Skip the DC solve and start exactly from ``initial_voltages``.
    t_stop:
        Optional per-variant end time (defaults to the batch ``t_stop``).
        Must share the batch ``t_start`` and ``dt`` grid.
    """

    sources: Mapping[str, object] = field(default_factory=dict)
    initial_voltages: Mapping[str, float] | None = None
    use_ic: bool = False
    t_stop: float | None = None


def _cap_stamp_matrix(mna: MnaSystem, a: np.ndarray, h: float) -> np.ndarray:
    """Add trapezoidal capacitor companion conductances ``2C/h`` to ``a``."""
    geq = 2.0 * mna.cap_c / h
    for k in range(mna.n_caps):
        MnaSystem._stamp_conductance(a, int(mna.cap_i[k]), int(mna.cap_j[k]), float(geq[k]))
    return a


#: Above this many pattern cells (``n_caps × size``) the stacked capacitor
#: gather/scatter goes through a CSR incidence matrix instead of a dense
#: matmul (the dense product costs O(n_caps · size · B) per step and
#: dominates large RC bundles; tiny circuits keep the cheaper dense path).
_SPARSE_CAP_CELLS = 32768


#: Bound on live `_StepMatrixCache` entries.  The fixed grid only ever
#: visits `max_halvings + 1` step sizes; the stride ladder plus
#: barrier-clamped strides can visit more, so entries are LRU-evicted
#: past this count (factorisations for revisited rungs rebuild cheaply).
_STEP_CACHE_ENTRIES = 16

#: The empty row selection: no variant failed its Newton step.
_NO_ROWS = np.empty(0, dtype=np.intp)


def _phase_timers() -> "dict | None":
    """A fresh phase-timer dict, or ``None`` when timing is disabled.

    ``REPRO_PHASE_TIMERS=1`` (declared in :mod:`repro._knobs`) turns it
    on; the engine then publishes ``stats["phase_seconds"]`` with
    ``factor`` (matrix builds and factorizations), ``stamp``
    (companion/rhs assembly), ``device_eval`` (MOSFET linearisation and
    stamping, on every Newton path), ``solve`` (linear solves),
    ``overhead`` (everything else) and ``total``.  Disabled runs pay
    exactly one environment lookup per engine invocation — every timing
    site is guarded by a ``None`` check.
    """
    return {} if knob("REPRO_PHASE_TIMERS") else None


def _phase_close(timers: "dict | None", stats: dict, t_start: float) -> None:
    """Finalise a timer dict into ``stats["phase_seconds"]``."""
    if timers is None:
        return
    total = perf_counter() - t_start
    known = sum(timers.values())
    timers["overhead"] = max(0.0, total - known)
    timers["total"] = total
    stats["phase_seconds"] = timers


class _StepMatrixCache:
    """Companion-stamped matrices keyed on the quantised step value.

    Every step the engine takes is an exact scaling of the base step
    — ``dt·m`` for an integer stride of the ladder, ``dt/2**k`` from
    Newton-failure halving — so equal steps reproduce bit-identical
    ``h`` floats and the float key is deterministic.  Entries are LRU-bounded at
    :data:`_STEP_CACHE_ENTRIES`.  For MOSFET-free circuits each entry
    carries a factorisation — dense, banded or sparse LU, resolved once
    per topology from the sparsity pattern (see the module docstring) —
    reused by every step (and every batch variant) at that step size.
    """

    def __init__(self, mna: MnaSystem, dt: float, backend: str = "auto",
                 timers: "dict | None" = None):
        self.mna = mna
        self._dt = dt
        self.timers = timers
        self._factorize = mna.n_mosfets == 0
        # The pattern/RCM analysis is only consulted where selection (or
        # the banded factorization) needs it — forced dense/sparse runs
        # (e.g. the benchmark baselines) skip it.
        self._structure = mna.structure(include_caps=True) \
            if self._factorize and backend in ("auto", "banded") else None
        self.backend = select_backend(self._structure, 0, backend) \
            if self._factorize else mna.newton_backend(backend)
        self._entries: "OrderedDict[float, tuple[np.ndarray, object | None, float]]" \
            = OrderedDict()
        self._kernels: "OrderedDict[float, BorderedNewtonStep | None]" \
            = OrderedDict()
        self.builds = 0
        self.core_failures = 0  # step sizes whose banded core failed
        self._bordered = False  # any step size got a bordered kernel
        # Padded-gather indices: ground terminals read the zero pad column.
        self._gi = np.where(mna.cap_i >= 0, mna.cap_i, mna.size)
        self._gj = np.where(mna.cap_j >= 0, mna.cap_j, mna.size)
        self._xpad: np.ndarray | None = None
        self._scatter = None
        self._cap_s: object | None = None

    def cap_s_matvec(self, x: np.ndarray) -> np.ndarray:
        """``(B, size) → (B, size)`` product with the full-step companion
        conductance matrix ``S = Incᵀ·diag(2C/dt)·Inc``.

        Linear (MOSFET-free) groups thread their capacitor history
        entirely in node space — ``r' = 2·S·x' − r`` — so the per-step
        cost is one sparse matvec regardless of the capacitor count,
        instead of a gather + scale + scatter over every capacitor.
        """
        if self._cap_s is None:
            mna = self.mna
            geq = 2.0 * mna.cap_c / self._dt
            s = np.zeros((mna.size, mna.size))
            for k in range(mna.n_caps):
                MnaSystem._stamp_conductance(s, int(mna.cap_i[k]),
                                             int(mna.cap_j[k]), float(geq[k]))
            self._cap_s = sparse_csr(s) \
                if mna.n_caps * mna.size >= _SPARSE_CAP_CELLS else s
        if isinstance(self._cap_s, np.ndarray):
            return x @ self._cap_s  # S is symmetric
        return (self._cap_s @ x.T).T

    @property
    def base_dt(self) -> float:
        """The caller's base step (the quantisation unit of the ladder)."""
        return self._dt

    def get_h(self, h: float) -> tuple[np.ndarray, object | None, float]:
        """Return ``(a_base, solver_or_None, h)`` for a step value."""
        entry = self._entries.get(h)
        if entry is None:
            t0 = perf_counter() if self.timers is not None else 0.0
            a = _cap_stamp_matrix(self.mna, self.mna.g_lin.copy(), h)
            solver = factorize(a, self.backend, self._structure) \
                if self._factorize else None
            _lap(self.timers, "factor", t0)
            entry = (a, solver, h)
            self._entries[h] = entry
            self.builds += 1
            while len(self._entries) > _STEP_CACHE_ENTRIES:
                self._entries.popitem(last=False)
        else:
            self._entries.move_to_end(h)
        return entry

    def newton_kernel(self, h: float) -> "BorderedNewtonStep | None":
        """The bordered Newton operator for step value ``h``.

        ``None`` for linear systems, for the dense Newton backend, and
        for a step size whose banded core factorization fails (that step
        size runs dense Newton and counts in :attr:`core_failures`).  The
        per-``h`` operators — each re-factors its banded core — are
        LRU-bounded alongside the matrix entries.
        """
        if self._factorize or self.backend != "banded":
            return None
        if h in self._kernels:
            self._kernels.move_to_end(h)
            return self._kernels[h]
        a_base = self.get_h(h)[0]
        t0 = perf_counter() if self.timers is not None else 0.0
        kernel = self.mna.bordered_newton_step(a_base)
        _lap(self.timers, "factor", t0)
        self.core_failures += kernel is None
        self._bordered = self._bordered or kernel is not None
        self._kernels[h] = kernel
        while len(self._kernels) > _STEP_CACHE_ENTRIES:
            self._kernels.popitem(last=False)
        return kernel

    def close(self, stats: dict) -> None:
        """Fold matrix builds, failed cores and the backend that ran
        (dense when no step size got a bordered kernel) into ``stats``."""
        stats["matrix_builds"] = self.builds
        stats["newton_fallbacks"] += self.core_failures
        stats["backend"] = "dense" if self.backend == "banded" \
            and not self._factorize and not self._bordered else self.backend

    def cap_gather(self, x: np.ndarray) -> np.ndarray:
        """Voltage across every capacitor for stacked solutions ``(B, size)``.

        A padded index gather (``v_i − v_j``) — bitwise identical to the
        incidence matmul (each incidence row holds exactly one +1 and one
        −1), without the O(n_caps · size · B) dense product or per-call
        sparse dispatch.
        """
        size = self.mna.size
        if self._xpad is None or self._xpad.shape[0] != x.shape[0]:
            self._xpad = np.zeros((x.shape[0], size + 1))
        self._xpad[:, :size] = x
        return self._xpad[:, self._gi] - self._xpad[:, self._gj]

    def cap_scatter(self, ieq: np.ndarray) -> np.ndarray:
        """Companion currents ``(B, n_caps)`` scattered onto ``(B, size)``."""
        if self._scatter is None:
            # Built on first use only (linear groups never scatter —
            # it threads node-space state through cap_s_matvec instead).
            # Large RC bundles get a pre-transposed CSR of the incidence,
            # since `.T` per step would rebuild it and the dense matmul
            # costs O(n_caps · size · B).
            inc = self.mna.cap_incidence()
            if inc.size >= _SPARSE_CAP_CELLS:
                inc_t = sparse_csr(inc).T.tocsr()
                self._scatter = lambda v: (inc_t @ v.T).T
            else:
                self._scatter = lambda v: v @ inc
        return self._scatter(ieq)


def _new_stats(**extra) -> dict:
    stats = {"newton_iters": 0, "halvings": 0, "matrix_builds": 0,
             "batch_size": 1, "backend": "dense", "newton_fallbacks": 0}
    stats.update(extra)
    return stats


def simulate_transient(
    circuit: Circuit,
    t_stop: float,
    dt: float,
    t_start: float = 0.0,
    initial_voltages: dict[str, float] | None = None,
    use_ic: bool = False,
    options: TransientOptions | None = None,
) -> TransientResult:
    """Run a transient analysis and return sampled node voltages.

    Parameters
    ----------
    circuit:
        The netlist to simulate.
    t_stop:
        End time (seconds); must exceed ``t_start``.
    dt:
        Base time step: every reported time is ``t_start + k·dt``.  The
        solver strides over several base steps where the LTE test allows
        (``options.max_step`` caps the stride; ``max_step = dt`` reports
        every base step) and subdivides a base step internally when
        Newton struggles.
    t_start:
        Start time of the analysis window.
    initial_voltages:
        Optional node → voltage seed.  By default a DC operating point at
        ``t_start`` (seeded with these values) sets the initial state.
    use_ic:
        When ``True``, skip the DC solve and start *exactly* from
        ``initial_voltages`` (unset nodes start at 0 V) — SPICE's ``UIC``.
    options:
        Solver tolerances; defaults are fine for the experiments.

    Returns
    -------
    TransientResult

    Raises
    ------
    ConvergenceError
        If a time step cannot be converged even after step halving.
    """
    return TransientJob(circuit=circuit, t_stop=t_stop, dt=dt,
                        t_start=t_start, initial_voltages=initial_voltages,
                        use_ic=use_ic, options=options).run()


def _halve(
    mnas: Sequence[MnaSystem],
    cache: _StepMatrixCache,
    x: np.ndarray,
    i_cap: np.ndarray,
    t_prev: float,
    h: float,
    opts: TransientOptions,
    stats: dict,
    halvings_left: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Redo a failed step of size ``h`` from ``t_prev`` as two half steps.

    ``mnas``, ``x`` and ``i_cap`` (capacitor currents at ``t_prev``) are
    the sub-stack of variants whose Newton iteration failed.  Each half
    step builds its source right-hand sides from every variant's own
    system and halves again, recursively, for the variants that fail
    it.  ``halvings_left`` budgets the recursion and ``opts.min_step``
    floors the halved step at every level.  Returns ``(x, i_cap)`` at
    ``t_prev + h``.
    """
    if halvings_left <= 0 or (opts.min_step > 0.0 and h / 2 < opts.min_step):
        raise ConvergenceError(
            f"Newton failed at t={t_prev + h:.4e}s even at dt={h:.2e}s")
    stats["halvings"] += len(mnas)
    mna0 = cache.mna
    a_base, _, h = cache.get_h(h / 2)
    kernel = cache.newton_kernel(h)
    geq = 2.0 * mna0.cap_c / h
    timers = cache.timers
    for t in (t_prev, t_prev + h):
        t0 = perf_counter() if timers is not None else 0.0
        ieq = geq * cache.cap_gather(x) + i_cap
        rhs = np.stack([mna.source_rhs(t + h) for mna in mnas])
        if mna0.n_caps:
            rhs += cache.cap_scatter(ieq)
        _lap(timers, "stamp", t0)
        x_new, ok = stacked_newton(
            mna0, a_base, rhs, x, abstol=opts.abstol, max_iter=opts.max_newton,
            v_limit=opts.v_limit, require_unlimited=True, stats=stats,
            kernel=kernel)
        i_new = geq * cache.cap_gather(x_new) - ieq
        if not ok.all():
            bad = np.flatnonzero(~ok)
            x_new[bad], i_new[bad] = _halve(
                [mnas[k] for k in bad], cache, x[bad], i_cap[bad], t, h,
                opts, stats, halvings_left - 1)
        x, i_cap = x_new, i_new
    return x, i_cap


#: Consecutive calm accepted steps before the stride ladder climbs a rung.
_GROW_AFTER = 2
#: "Calm" growth margins per estimator order: the curvature (sag) term
#: scales ~quadratically with the stride (1/4 → at most the full weight
#: after one doubling), the truncation term ~cubically (1/20 → ~2.5x
#: margin after one doubling).
_GROW_FRACTION_SAG = 0.25
_GROW_FRACTION_LTE = 0.05
#: Ladder cap when ``TransientOptions.max_step`` is unset: dt · 2**8.
_DEFAULT_GROWTH_RUNGS = 8


def _source_barrier_steps(
    jobs: Sequence[TransientJob], t_start: float, dt: float, n_max: int,
    opts: TransientOptions,
) -> set[int]:
    """Base-grid step indices a grown stride may not cross.

    Every corner of every stimulus whose adjacent segment actually moves
    the value (beyond a tolerance *relative to that source's own span*)
    is a barrier: the engine lands on it and resumes at base resolution,
    so a stride can never skip a stimulus edge the LTE estimator — which
    only sees the *solution* history — has not noticed yet.  The
    relative form keeps the test unit-free: a microampere current glitch
    into a high-impedance node is as significant as a volt-scale ramp,
    so both fence off their active span.  Dense sampled-record sources
    (quiet leads, settled tails) compress automatically: their
    sub-tolerance segments mark nothing.
    """
    marks: set[int] = set()
    for job in jobs:
        for elem in list(job.circuit.vsources) + list(job.circuit.isources):
            src = elem.source
            bps = src.breakpoints
            if not bps:
                continue
            t = np.asarray(bps, dtype=np.float64)
            v = np.asarray(src(t), dtype=np.float64)
            span = float(v.max() - v.min())
            if span <= 0.0:
                continue
            tol = (opts.lte_atol + opts.lte_rtol) * span
            moving = np.abs(np.diff(v)) > tol
            keep = np.zeros(t.size, dtype=bool)
            keep[:-1] |= moving
            keep[1:] |= moving
            for tb in t[keep]:
                k = int(round((tb - t_start) / dt))
                if 0 < k <= n_max:
                    marks.add(k)
    return marks


def _simulate_group(jobs: Sequence[TransientJob],
                    mnas: Sequence[MnaSystem]) -> list[TransientResult]:
    """The engine: one stack of ``B ≥ 1`` topology-compatible jobs (shared
    t_start/dt/options).

    Accepted time points are a sub-grid of the base grid ``t_start +
    k·dt``; the whole stack advances in lockstep on the minimum accepted
    stride.  See the module docstring for the controller, the barrier
    rules and the capacitor-history recursion.
    """
    job0 = jobs[0]
    mna0 = mnas[0]
    dt = job0.dt
    t_start = job0.t_start
    opts = job0.options or TransientOptions()
    require(dt > 0.0, "dt must be positive")
    rung_cap = job0.stride_rungs
    batch = len(jobs)
    stats = _new_stats(batch_size=batch, lte_rejects=0, newton_rejects=0)

    n_steps = []
    for job in jobs:
        require(job.t_stop > t_start, "t_stop must exceed t_start")
        n = int(round((job.t_stop - t_start) / dt))
        require(n >= 1, "simulation window shorter than one step")
        n_steps.append(n)
    steps_arr = np.asarray(n_steps)
    n_max = int(steps_arr.max())
    times = t_start + dt * np.arange(n_max + 1)

    # Initial states in one stacked DC pass (or UIC seeds — grouping
    # guarantees a uniform use_ic flag).
    if job0.use_ic:
        x = np.zeros((batch, mna0.size))
        for b, job in enumerate(jobs):
            mna0.seed_vector(job.initial_voltages, out=x[b])
    else:
        dc = dc_operating_point_batch(
            [job.circuit for job in jobs], at_time=t_start,
            initial_voltages=[job.initial_voltages for job in jobs],
            mnas=mnas, backend=opts.backend, stats=stats)
        x = np.stack([r.solution for r in dc])

    # Compact source series for every base step, on the structurally
    # nonzero rhs rows only (the full (B, T, size) series would be
    # O(T · size) mostly-zero memory); a stride reads its end point.
    src_cols = mna0.source_rhs_columns()
    src_vals = np.empty((batch, n_max, src_cols.size))
    for b, mna in enumerate(mnas):
        src_vals[b] = mna.source_rhs_series_compact(times[1:], src_cols)[1]

    timers = _phase_timers()
    t_engine = perf_counter() if timers is not None else 0.0
    cache = _StepMatrixCache(mna0, dt, backend=opts.backend, timers=timers)
    if timers is not None:
        stats["phase_seconds"] = timers

    source_marks = _source_barrier_steps(jobs, t_start, dt, n_max, opts) \
        if rung_cap else set()
    barriers = sorted(source_marks | set(n_steps))

    # Capacitor history in base-step form s = G·v_cap + i_cap (i_cap = 0
    # at DC or UIC); linear groups keep r = Incᵀ·s in node space.
    _, solver, _ = cache.get_h(dt)
    linear = solver is not None
    geq = 2.0 * mna0.cap_c / dt
    state = cache.cap_s_matvec(x) if linear else geq * cache.cap_gather(x)

    def back(x_old: np.ndarray) -> np.ndarray:
        """``G·v_cap`` of ``x_old``, in the state's space."""
        return cache.cap_s_matvec(x_old) if linear \
            else geq * cache.cap_gather(x_old)

    solutions = np.empty((batch, n_max + 1, mna0.size))
    solutions[:, 0] = x
    accepted = [0]
    n_nodes = mna0.n_nodes
    alive = np.arange(batch)
    alive_end = int(steps_arr.min())  # first window end among the alive
    idx = 0          # current base-grid position
    level = 0        # stride ladder rung: stride target is 2**level steps
    calm = 0         # consecutive calm accepted steps (growth integrator)
    # The last two accepted node-voltage increments back the third-order
    # LTE estimate: incs[1] (stride h1) and incs[2] (stride h2) before
    # it; incs[0] takes the trial step's.  n_hist counts the valid ones;
    # the fixed grid (rung_cap 0) keeps none.
    incs = np.empty((3, batch, n_nodes))
    n_hist = 0
    h1 = h2 = 0.0
    bpos = 0

    while idx < n_max:
        if idx >= alive_end:
            alive = alive[steps_arr[alive] > idx]
            alive_end = int(steps_arr[alive].min())
            incs = np.empty((3, alive.size, n_nodes))
            n_hist = 0  # membership changed: history invalid
        while barriers[bpos] <= idx:
            bpos += 1
        nb = barriers[bpos]
        # Without two history points (start, barrier landing, membership
        # change, the fixed grid) there is no LTE estimate: base steps.
        m = 1 if n_hist < 2 else min(1 << level, nb - idx)
        t_prev = float(times[idx])
        full = alive.size == batch
        x_al = x if full else x[alive]
        st_al = state if full else state[alive]
        x0 = x_al[:, :n_nodes]

        while True:
            a_base, solver, h = cache.get_h(dt * m)
            t0 = perf_counter() if timers is not None else 0.0
            # A stride of m base steps injects ieq = s − (1 − 1/m)·G·v_cap.
            ieq = st_al if m == 1 else st_al - (1.0 - 1.0 / m) * back(x_al)
            rhs = np.zeros((alive.size, mna0.size))
            rhs[:, src_cols] = src_vals[:, idx + m - 1] if full \
                else src_vals[alive, idx + m - 1]
            if linear:
                rhs += ieq
            elif mna0.n_caps:
                rhs += cache.cap_scatter(ieq)
            _lap(timers, "stamp", t0)
            if linear:
                t0 = perf_counter() if timers is not None else 0.0
                x_cand = solver.solve(rhs)
                _lap(timers, "solve", t0)
                bad = _NO_ROWS
            else:
                x_cand, ok = stacked_newton(
                    mna0, a_base, rhs, x_al, abstol=opts.abstol,
                    max_iter=opts.max_newton, v_limit=opts.v_limit,
                    require_unlimited=True, stats=stats,
                    kernel=cache.newton_kernel(h))
                bad = _NO_ROWS if ok.all() else np.flatnonzero(~ok)
            if bad.size and m > 1:
                # Newton trouble on a grown stride: shrink it rather than
                # recursing below the base grid.  Counted apart from the
                # LTE rejections — convergence robustness and truncation
                # control are different failure modes to tune for.
                stats["newton_rejects"] += 1
                m = max(1, m >> 1)
                level = min(level, max(m.bit_length() - 1, 0))
                continue
            if bad.size:
                # A failed base step: the failing variants halve it,
                # threading i_cap recovered from the base-form state.
                i_cap = st_al[bad] - geq * cache.cap_gather(x_al[bad])
                x_cand[bad], i_bad = _halve(
                    [mnas[alive[k]] for k in bad], cache, x_al[bad], i_cap,
                    t_prev, h, opts, stats, opts.max_halvings)

            if n_hist < 2:
                e_sag = e_lte = e = math.inf
            else:
                # Two predictor/corrector differences, one per error
                # mechanism.  (a) Truncation: quadratic extrapolation
                # through the last three accepted points deviates from
                # the trapezoidal solution by ~x'''·h(h+h1)(h+h1+h2)/6,
                # which Milne-scales to the trapezoidal truncation error
                # h³·x'''/12 — the SPICE LTE test.  (b) Sag: the *linear*
                # extrapolation difference ~x''·h(h+h1)/2 bounds how far
                # the solution bows away from the chord between accepted
                # samples — what piecewise-linear consumers (waveform
                # resampling, the golden-grid comparison) actually see.
                # Both are linear in the trial increment s and the
                # accepted a, b: sag = s − (h/h1)·a, and the truncation
                # difference subtracts c·(a/h1 − b/h2), c = h(h+h1)/(h1+h2).
                xc = x_cand[:, :n_nodes]
                np.subtract(xc, x0, out=incs[0])
                r = h / h1
                c = h * (h + h1) / (h1 + h2)
                fac = h * h / (2.0 * (h + h1) * (h + h1 + h2))
                diffs = np.array([[1.0, -r, 0.0],
                                  [fac, -fac * (r + c / h1), fac * c / h2]]) \
                    @ incs.reshape(3, -1)
                weight = opts.lte_atol + opts.lte_rtol * np.maximum(
                    np.abs(xc), np.abs(x0))
                e_sag, e_lte = (np.abs(diffs).reshape(2, *weight.shape)
                                / weight).max(axis=(1, 2), initial=0.0).tolist()
                e = max(e_sag, e_lte)
            if m == 1 or e <= 1.0:
                # Base steps are always accepted: the fixed grid is the
                # accuracy reference, the estimate only decides growth.
                break
            stats["lte_rejects"] += 1
            # Proportional shrink: aim the retried stride at e' ≈ 1/2
            # (the binding estimate scales at least quadratically).
            rungs_down = max(1, int(math.ceil(0.5 * math.log2(2.0 * e))))
            m = max(1, m >> rungs_down)
            level = min(level, max(m.bit_length() - 1, 0))

        # ... and leaves s' = (1 + 1/m)·G·v_cap' − ieq: for m = 1 the
        # fixed-grid identity s' = 2·G·v_cap' − s.
        t0 = perf_counter() if timers is not None else 0.0
        state_new = (1.0 + 1.0 / m) * back(x_cand) - ieq
        if bad.size:
            # Halved variants carry the half-step history.
            state_new[bad] = geq * cache.cap_gather(x_cand[bad]) + i_bad
        _lap(timers, "stamp", t0)
        if rung_cap:
            if n_hist < 2:
                np.subtract(x_cand[:, :n_nodes], x0, out=incs[0])
            incs[2] = incs[1]
            incs[1] = incs[0]
            h1, h2 = h, h1
            n_hist = min(n_hist + 1, 2)
        if full:
            x = x_cand
            state = state_new
        else:
            x[alive] = x_cand
            state[alive] = state_new
        idx += m
        solutions[:, len(accepted)] = x
        accepted.append(idx)
        if idx == nb and nb in source_marks:
            # Landed on a stimulus corner: resolve the upcoming activity
            # at base resolution and rebuild the history first.
            level = 0
            calm = 0
            n_hist = 0
        elif e_sag <= _GROW_FRACTION_SAG and e_lte <= _GROW_FRACTION_LTE:
            calm += 1
            if calm >= _GROW_AFTER and level < rung_cap:
                level += 1
                calm = 0
        else:
            calm = 0

    cache.close(stats)
    stats["steps_accepted"] = len(accepted) - 1
    _phase_close(timers, stats, t_engine)
    acc = np.asarray(accepted)
    t_acc = times[acc]
    if acc.size < n_max + 1:
        # Results view this buffer: keep only the accepted rows alive.
        solutions = solutions[:, :acc.size].copy()
    results = []
    for b in range(batch):
        # Every job's window end is a barrier, so it was landed exactly.
        pos = int(np.searchsorted(acc, n_steps[b]))
        results.append(TransientResult(mnas[b], t_acc[:pos + 1],
                                       solutions[b, :pos + 1], stats=stats))
    return results




def job_group_key(job: TransientJob, mna: MnaSystem) -> tuple:
    """Batch-compatibility key of a job: equal keys may share one stacked
    Newton loop.

    Shared by :func:`simulate_transient_many` (in-process grouping) and
    the shard scheduler of :mod:`repro.exec.pool` (process-level
    partitioning), so both layers agree on what "compatible" means.
    """
    return (mna.topology_signature(), job.t_start, job.dt, job.use_ic,
            job.options or TransientOptions())


def simulate_transient_many(
    jobs: Sequence[TransientJob],
    mnas: "Sequence[MnaSystem] | None" = None,
) -> list[TransientResult]:
    """Simulate many independent jobs, batching compatible ones.

    Jobs are grouped by circuit topology
    (:meth:`~repro.circuit.mna.MnaSystem.topology_signature`), start time,
    step and solver options, and each group runs as one stack (a lone
    job is a stack of one).  Results come back in input order; on the
    fixed grid (``max_step = dt``) each is numerically equivalent to
    solving its job alone.

    ``mnas`` optionally supplies the jobs' pre-compiled systems (one per
    job, in order) so callers that already compiled them for their own
    bookkeeping — the execution layer keys its result store off them —
    don't pay the compilation twice.
    """
    jobs = list(jobs)
    if mnas is None:
        mnas = [MnaSystem(job.circuit) for job in jobs]
    else:
        mnas = list(mnas)
        require(len(mnas) == len(jobs), "one pre-compiled system per job")
    groups: dict[tuple, list[int]] = {}
    for k, (job, mna) in enumerate(zip(jobs, mnas)):
        groups.setdefault(job_group_key(job, mna), []).append(k)

    results: list[TransientResult | None] = [None] * len(jobs)
    for idxs in groups.values():
        for k, res in zip(idxs, _simulate_group([jobs[k] for k in idxs],
                                                [mnas[k] for k in idxs])):
            results[k] = res
    return results  # type: ignore[return-value]


def _with_sources(circuit: Circuit, overrides: Mapping[str, object]) -> Circuit:
    """A shallow variant of ``circuit`` with named sources replaced.

    Topology (nodes, element order) is untouched, so every variant
    compiles to the same :meth:`~repro.circuit.mna.MnaSystem.topology_signature`.
    """
    variant = copy.copy(circuit)
    variant.vsources = [
        _dc_replace(v, source=as_source(overrides[v.name])) if v.name in overrides else v
        for v in circuit.vsources
    ]
    variant.isources = [
        _dc_replace(i, source=as_source(overrides[i.name])) if i.name in overrides else i
        for i in circuit.isources
    ]
    return variant


def simulate_transient_batch(
    circuit: Circuit,
    stimuli: Sequence[BatchStimulus],
    t_stop: float,
    dt: float,
    t_start: float = 0.0,
    options: TransientOptions | None = None,
) -> list[TransientResult]:
    """Simulate ``B`` variants of one circuit as one stack.

    Parameters
    ----------
    circuit:
        The shared topology.
    stimuli:
        One :class:`BatchStimulus` per variant: source overrides plus
        initial state.  Every variant shares the ``t_start``/``dt`` grid;
        a variant may end earlier via ``BatchStimulus.t_stop``.
    t_stop, dt, t_start, options:
        As in :func:`simulate_transient`.

    Returns
    -------
    list[TransientResult]
        One result per stimulus, in order; on the fixed grid
        (``max_step = dt``) each is numerically equivalent to running
        :func:`simulate_transient` on its variant alone.
    """
    require(len(stimuli) >= 1, "need at least one stimulus")
    known = {v.name for v in circuit.vsources} | {i.name for i in circuit.isources}
    jobs = []
    for stim in stimuli:
        unknown = set(stim.sources) - known
        require(not unknown, f"unknown source override(s): {sorted(unknown)}")
        jobs.append(TransientJob(
            circuit=_with_sources(circuit, stim.sources),
            t_stop=t_stop if stim.t_stop is None else stim.t_stop,
            dt=dt,
            t_start=t_start,
            initial_voltages=stim.initial_voltages,
            use_ic=stim.use_ic,
            options=options,
        ))
    return simulate_transient_many(jobs)
