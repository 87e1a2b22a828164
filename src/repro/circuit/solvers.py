"""Pluggable linear-solver backends for MNA systems.

The transient and DC analyses repeatedly solve linear systems whose
*matrix* is fixed while the right-hand side varies — per time step, per
batch variant, per Newton stage of a linear (MOSFET-free) network.  Every
backend here therefore follows one factor-once / solve-many contract:
:func:`factorize` turns a dense ``(n, n)`` matrix into a solver object
whose ``solve`` accepts a single right-hand side ``(n,)`` or a stacked
batch ``(B, n)`` and returns the solution in the same shape.

Three backends cover the workloads of this reproduction:

``dense``
    LAPACK LU (``getrf``/``getrs`` via :func:`scipy.linalg.lu_factor`,
    with a plain :func:`numpy.linalg.solve` fallback when SciPy is
    unavailable).  O(n³) factor, O(n²) per solve.  Right for small
    systems and the only choice for MOSFET circuits, whose Newton
    iterations re-stamp dense stacked Jacobians every pass.

``banded``
    The structured path for the RC-line topologies emitted by
    :mod:`repro.interconnect.rcline`.  A reverse Cuthill–McKee reordering
    (computed once per sparsity pattern) permutes a pure line — including
    its voltage-source border rows — to *tridiagonal* form (bandwidth 1:
    the classical Thomas recursion), and a coupled bundle of k lines to
    block-tridiagonal form with k×k blocks (bandwidth ≈ k).  The permuted
    system is factored once with LAPACK's banded LU (``gbtrf``, partial
    pivoting — required because voltage-source branch rows carry zero
    diagonals) and every subsequent solve is a ``gbtrs`` sweep: O(n·b²)
    factor, O(n·b) per solve for bandwidth b.

``sparse``
    SuperLU on the CSC form (:func:`scipy.sparse.linalg.splu`).  Wins on
    large low-density systems whose graph does not flatten to a narrow
    band — star/mesh interconnect, bundles with many mutually coupled
    lines.

MOSFET circuits — whose Jacobian *values* change every Newton iteration
but whose sparsity *pattern* is fixed per topology (linear stamps plus
device fill) — take the pattern-frozen Newton kernels instead of the
factor-once contract:

:class:`PatternFrozenLu`
    The ``"sparse"`` Newton path.  The CSC pattern of the union fill is
    frozen once; every Newton iteration supplies a fresh numeric ``data``
    vector (updated in O(nnz) via the scatter maps on
    :class:`~repro.circuit.mna.MnaSystem`) and pays one numeric SuperLU
    factorization — never a dense O(n²) re-stamp or O(n³) dense LU.

:class:`BorderedBanded`
    The ``"banded"`` Newton path for gate-plus-interconnect topologies:
    the device fill is confined to a small dense *border* while the
    interconnect core permutes to a narrow band.  The banded core is
    factored once per step size; each Newton iteration refactorises only
    the border-sized Schur complement.

Backend selection (:func:`select_backend`) is driven by a structural
analysis of the matrix sparsity pattern (:func:`analyze_pattern`) —
size, density and post-RCM bandwidth — computed once per circuit
topology and cached per topology signature (see
:meth:`~repro.circuit.mna.MnaSystem.structure`); MOSFET circuits
additionally consult the core/border partition
(:meth:`~repro.circuit.mna.MnaSystem.newton_partition`).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .._util import require
from ..faults import maybe_fault

try:  # SciPy is optional; every structured backend degrades to dense LU.
    from scipy.linalg import LinAlgWarning as _LinAlgWarning
    from scipy.linalg import lapack as _lapack
    from scipy.linalg import lu_factor as _lu_factor
    from scipy.linalg import lu_solve as _lu_solve
    from scipy.sparse import csc_matrix as _csc_matrix
    from scipy.sparse import csr_matrix as _csr_matrix
    from scipy.sparse.csgraph import reverse_cuthill_mckee as _rcm
    from scipy.sparse.linalg import splu as _splu

    HAVE_SCIPY = True
except ImportError:  # pragma: no cover - the container ships scipy
    _LinAlgWarning = Warning
    _lapack = None
    _lu_factor = None
    _lu_solve = None
    _csc_matrix = None
    _csr_matrix = None
    _rcm = None
    _splu = None
    HAVE_SCIPY = False

__all__ = [
    "BACKENDS",
    "MatrixStructure",
    "analyze_pattern",
    "select_backend",
    "factorize",
    "sparse_csr",
    "PatternFrozenLu",
    "BorderedBanded",
    "HAVE_SCIPY",
]

#: Accepted backend requests; ``"auto"`` resolves via :func:`select_backend`.
BACKENDS = ("auto", "dense", "sparse", "banded")

#: Systems smaller than this never leave the dense path (per-call overhead
#: of the structured solvers exceeds the dense solve itself).
_MIN_STRUCTURED_SIZE = 24
#: Post-RCM bandwidth above which a system stops being "line-like" and the
#: banded storage/factor loses to sparse LU (a bundle of k coupled lines
#: permutes to bandwidth ≈ 2k; this admits bundles up to ~6 lines).
_BANDED_MAX_BANDWIDTH = 12
#: Density ceiling for the sparse backend.
_SPARSE_MAX_DENSITY = 0.25
#: MOSFET systems below this size keep the dense Newton path: stacked
#: dense LU on a paper-scale testbench (~20–30 unknowns) beats the
#: per-iteration overhead of a structured refactorization, and keeping
#: the paper-scale experiments on the historical path pins their
#: waveforms bit for bit.
_MIN_NEWTON_SIZE = 64
#: Border-size ceiling of the block-bordered Newton kernel: the Schur
#: complement is refactorised dense every Newton iteration, so the
#: border must stay gate-sized while the core carries the interconnect.
_MAX_BORDER = 64


@dataclass(frozen=True)
class MatrixStructure:
    """Structural summary of a sparsity pattern, for backend selection.

    Attributes
    ----------
    size:
        Matrix dimension ``n``.
    nnz:
        Number of structurally nonzero entries.
    density:
        ``nnz / n²``.
    bandwidth:
        Half-bandwidth after applying ``perm`` (``max |i - j|`` over the
        permuted nonzeros); the raw pattern's bandwidth when ``perm`` is
        ``None``.
    perm:
        Reverse Cuthill–McKee ordering that achieves ``bandwidth``, or
        ``None`` when the natural ordering is already at least as narrow
        (or SciPy is unavailable).
    """

    size: int
    nnz: int
    density: float
    bandwidth: int
    perm: np.ndarray | None


def analyze_pattern(pattern: np.ndarray) -> MatrixStructure:
    """Analyze a boolean ``(n, n)`` sparsity pattern.

    Computes the density and the reverse Cuthill–McKee bandwidth (on the
    symmetrised pattern, so structurally unsymmetric inputs are safe).
    The result is what :func:`select_backend` consumes; callers should
    compute it once per topology and reuse it.
    """
    pattern = np.asarray(pattern, dtype=bool)
    require(pattern.ndim == 2 and pattern.shape[0] == pattern.shape[1],
            "pattern must be a square matrix")
    n = pattern.shape[0]
    rows, cols = np.nonzero(pattern)
    nnz = int(rows.size)
    density = nnz / float(n * n) if n else 0.0
    natural_bw = int(np.max(np.abs(rows - cols))) if nnz else 0
    if not HAVE_SCIPY or n == 0 or nnz == 0:
        return MatrixStructure(size=n, nnz=nnz, density=density,
                               bandwidth=natural_bw, perm=None)

    sym = pattern | pattern.T
    perm = np.asarray(_rcm(_csr_matrix(sym), symmetric_mode=True))
    # Post-RCM bandwidth straight from the index lists (O(nnz)) — no
    # need to materialise the permuted dense pattern.
    inv = np.empty(n, dtype=np.intp)
    inv[perm] = np.arange(n)
    si, sj = np.nonzero(sym)
    rcm_bw = int(np.max(np.abs(inv[si] - inv[sj]))) if si.size else 0
    if natural_bw <= rcm_bw:
        # The natural MNA ordering is already as narrow — skip the gather.
        return MatrixStructure(size=n, nnz=nnz, density=density,
                               bandwidth=natural_bw, perm=None)
    return MatrixStructure(size=n, nnz=nnz, density=density,
                           bandwidth=rcm_bw, perm=perm)


def select_backend(structure: MatrixStructure | None, n_mosfets: int = 0,
                   requested: str = "auto", partition=None) -> str:
    """Resolve a backend request to a concrete backend name.

    Parameters
    ----------
    structure:
        Pattern analysis of the system matrix.  ``None`` is accepted
        whenever the resolution does not consult it (non-``"auto"``
        requests, and the no-SciPy degradation).
    n_mosfets:
        With MOSFETs present the names resolve to the *pattern-frozen
        Newton* kernels instead of the factor-once linear solvers:
        ``"sparse"`` is the frozen-pattern SuperLU refactorization
        (:class:`PatternFrozenLu`), ``"banded"`` the block-bordered
        kernel (:class:`BorderedBanded`, needs a viable ``partition``;
        degrades to ``"sparse"`` without one).
    requested:
        One of :data:`BACKENDS`.  Non-``"auto"`` requests are honoured
        verbatim (benchmarks and tests force specific paths), except
        that structured backends degrade to ``"dense"`` without SciPy
        and a ``"banded"`` Newton request without a viable partition
        degrades to ``"sparse"``.
    partition:
        The circuit's core/border split
        (:meth:`~repro.circuit.mna.MnaSystem.newton_partition`), or
        ``None`` when no viable one exists.  Only consulted for MOSFET
        circuits.
    """
    require(requested in BACKENDS,
            f"unknown solver backend {requested!r}; expected one of {BACKENDS}")
    if not HAVE_SCIPY:
        return "dense"
    if n_mosfets > 0:
        if requested == "banded":
            return "banded" if partition is not None else "sparse"
        if requested != "auto":
            return requested
        require(structure is not None,
                "auto backend selection needs a structure")
        if structure.size < _MIN_NEWTON_SIZE:
            return "dense"
        if partition is not None:
            return "banded"
        if structure.density <= _SPARSE_MAX_DENSITY:
            return "sparse"
        return "dense"
    if requested != "auto":
        return requested
    require(structure is not None, "auto backend selection needs a structure")
    n = structure.size
    if n >= _MIN_STRUCTURED_SIZE:
        if (structure.bandwidth <= _BANDED_MAX_BANDWIDTH
                and 4 * (2 * structure.bandwidth + 1) <= n):
            return "banded"
        if structure.density <= _SPARSE_MAX_DENSITY:
            return "sparse"
    return "dense"


def _solve_columns(solve_cols, rhs: np.ndarray) -> np.ndarray:
    """Adapt a columns-of-(n, k) solver to ``(n,)`` / ``(B, n)`` inputs."""
    rhs = np.asarray(rhs, dtype=np.float64)
    if rhs.ndim == 1:
        return solve_cols(rhs[:, None])[:, 0]
    return solve_cols(rhs.T).T


class DenseLu:
    """Dense LAPACK LU with factor reuse (NumPy fallback without SciPy)."""

    name = "dense"

    def __init__(self, a: np.ndarray):
        if _lu_factor is not None:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", _LinAlgWarning)
                self._lu = _lu_factor(a)
            # lu_factor only *warns* on exact singularity (zero U pivot)
            # and would let NaNs cascade through every solve; normalise
            # to the LinAlgError contract numpy.linalg.solve honours.
            if np.any(np.diag(self._lu[0]) == 0.0):
                raise np.linalg.LinAlgError(
                    "dense LU factorization hit an exactly zero pivot "
                    "(singular matrix)")
            self._a = None
        else:  # pragma: no cover - exercised only without scipy
            self._lu = None
            self._a = a.copy()

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        if self._lu is not None:
            return _solve_columns(lambda cols: _lu_solve(self._lu, cols), rhs)
        return _solve_columns(  # pragma: no cover - no-scipy fallback
            lambda cols: np.linalg.solve(self._a, cols), rhs)


class SparseLu:
    """SuperLU factorization of the CSC form; O(nnz)-ish solves."""

    name = "sparse"

    def __init__(self, a: np.ndarray):
        require(HAVE_SCIPY, "sparse backend requires scipy")
        try:
            self._lu = _splu(_csc_matrix(a))
        except RuntimeError as exc:  # SuperLU signals singularity this way.
            raise np.linalg.LinAlgError(str(exc)) from exc

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return _solve_columns(
            lambda cols: self._lu.solve(np.ascontiguousarray(cols)), rhs)


class BandedThomas:
    """(Block-)tridiagonal solve: RCM reordering + banded LU sweeps.

    Bandwidth-1 systems (pure RC lines) reduce to the classical Thomas
    recursion; small-bandwidth systems (coupled line bundles) to its
    block-tridiagonal generalisation.  Both are realised through LAPACK's
    pivoting banded LU (``gbtrf``/``gbtrs``) — partial pivoting is
    mandatory because voltage-source branch rows have zero diagonals, so
    the textbook no-pivot recursion would divide by zero.
    """

    name = "banded"

    def __init__(self, a: np.ndarray, structure: MatrixStructure | None = None):
        require(HAVE_SCIPY, "banded backend requires scipy")
        if structure is None or structure.size != a.shape[0]:
            structure = analyze_pattern(a != 0.0)
        self._perm = structure.perm
        ap = a if self._perm is None else a[np.ix_(self._perm, self._perm)]
        n = ap.shape[0]
        kl = ku = max(1, structure.bandwidth)
        # LAPACK banded storage: row kl+ku+i-j holds entry (i, j); the top
        # kl rows are workspace for the pivoting fill-in.
        ab = np.zeros((2 * kl + ku + 1, n))
        rows, cols = np.nonzero(ap)
        ab[kl + ku + rows - cols, cols] = ap[rows, cols]
        lu, ipiv, info = _lapack.dgbtrf(ab, kl=kl, ku=ku)
        if info != 0:
            raise np.linalg.LinAlgError(
                f"banded LU factorization failed (gbtrf info={info})")
        self._lu, self._ipiv, self._kl, self._ku = lu, ipiv, kl, ku
        self._n = n

    def _sweep(self, cols: np.ndarray, overwrite: bool) -> np.ndarray:
        x, info = _lapack.dgbtrs(self._lu, self._kl, self._ku, cols,
                                 self._ipiv, overwrite_b=overwrite)
        if info != 0:  # pragma: no cover - gbtrs only fails on bad args
            raise np.linalg.LinAlgError(
                f"banded LU solve failed (gbtrs info={info})")
        return x

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        rhs = np.asarray(rhs, dtype=np.float64)
        if rhs.ndim == 1:
            cols = rhs[self._perm, None] if self._perm is not None \
                else rhs[:, None]
            x = self._sweep(cols, overwrite=self._perm is not None)
            if self._perm is None:
                return x[:, 0]
            out = np.empty(self._n)
            out[self._perm] = x[:, 0]
            return out
        if self._perm is not None:
            # Permute on the row side first: the fancy index yields a
            # fresh C-contiguous (B, n) array whose transpose is the
            # F-contiguous view gbtrs wants — one copy total, which the
            # solve is then free to overwrite in place.
            x = self._sweep(rhs[:, self._perm].T, overwrite=True)
            out = np.empty((self._n, rhs.shape[0]))
            out[self._perm] = x
            return out.T
        return self._sweep(rhs.T, overwrite=False).T


def factorize(a: np.ndarray, backend: str,
              structure: MatrixStructure | None = None):
    """Factor ``a`` with a concrete backend; returns a solver object.

    Parameters
    ----------
    a:
        Dense square system matrix.
    backend:
        A concrete name from :func:`select_backend` (``"auto"`` is not
        accepted here — resolve it first).
    structure:
        Pattern analysis (supplies the RCM permutation to the banded
        backend; recomputed from ``a`` when omitted).

    Raises
    ------
    numpy.linalg.LinAlgError
        When the matrix is singular (all backends normalise their
        factorization failures to this type).
    """
    require(backend in BACKENDS and backend != "auto",
            f"factorize needs a concrete backend, got {backend!r}")
    if not HAVE_SCIPY:
        return DenseLu(a)
    if backend == "sparse":
        return SparseLu(a)
    if backend == "banded":
        return BandedThomas(a, structure)
    return DenseLu(a)


def sparse_csr(m: np.ndarray):
    """CSR view of a dense matrix, or ``None`` when SciPy is missing."""
    if not HAVE_SCIPY:
        return None
    return _csr_matrix(m)


class PatternFrozenLu:
    """Numeric refactorisation over a frozen CSC sparsity pattern.

    The linear engine of the sparse-Jacobian Newton path: the symbolic
    pattern — the union of linear MNA stamps, capacitor companion
    positions and MOSFET device fill, fixed per topology — is frozen at
    construction; each :meth:`refactor` call takes only a fresh numeric
    ``data`` vector (the caller updates it in O(nnz) through the scatter
    maps of :class:`~repro.circuit.mna.SparseStampMaps`) and pays one
    numeric SuperLU factorization.  No dense matrix is ever assembled.
    """

    def __init__(self, size: int, indptr: np.ndarray, indices: np.ndarray):
        require(HAVE_SCIPY, "pattern-frozen sparse Newton requires scipy")
        self._shape = (int(size), int(size))
        self._indptr = np.asarray(indptr)
        self._indices = np.asarray(indices)

    def refactor(self, data: np.ndarray):
        """Factor the matrix whose CSC data vector is ``data``.

        Returns a SuperLU object (``.solve(rhs)``); raises
        :class:`numpy.linalg.LinAlgError` on a singular matrix (SuperLU
        signals it as ``RuntimeError``).  The ``solver.refactor``
        injection point forces that singular path, driving the stacked
        Newton engine down its backend ladder exactly as a numerically
        singular iterate would.
        """
        if maybe_fault("solver.refactor") is not None:
            raise np.linalg.LinAlgError("injected singular refactorization")
        a = _csc_matrix((data, self._indices, self._indptr),
                        shape=self._shape)
        try:
            return _splu(a)
        except RuntimeError as exc:
            raise np.linalg.LinAlgError(str(exc)) from exc


class BorderedBanded:
    """Block-bordered solve: banded core plus a small dense device border.

    For gate-plus-interconnect topologies the MOSFET Jacobian fill is
    confined to a small *border* (device terminal rows/columns plus the
    voltage-source branch rows that live entirely among them) while the
    remaining core — the RC interconnect — permutes to a narrow band.
    Writing the permuted system as::

        [B  E] [x1]   [r1]      B: banded core, constant per step size
        [F  C] [x2] = [r2]      C: border block, device entries change
                                   every Newton iteration

    the core factor, the coupling solve ``Y = B⁻¹E`` and the constant
    Schur part ``S₀ = C₀ − F·Y`` are computed once at construction (once
    per step size); every :meth:`solve` only assembles the device delta
    ``ΔC``, factors the border-sized dense ``S₀ + ΔC`` and
    back-substitutes — O(n·b) banded sweeps plus O(n_border³) dense work
    per Newton iteration instead of an O(n³) dense refactorization.

    Raises :class:`numpy.linalg.LinAlgError` at construction when the
    core is singular, and from :meth:`solve` when a Schur complement is.
    """

    def __init__(self, a: np.ndarray, border: np.ndarray, core: np.ndarray,
                 core_structure: MatrixStructure):
        require(HAVE_SCIPY, "bordered-banded Newton requires scipy")
        require(border.size > 0 and core.size > 0,
                "bordered solve needs non-empty border and core")
        self._border = border
        self._core = core
        self._core_solver = BandedThomas(a[np.ix_(core, core)],
                                         core_structure)
        self._f = a[np.ix_(border, core)]
        # Y = B⁻¹E, one multi-rhs banded sweep over the border columns.
        self._y = self._core_solver.solve(a[np.ix_(core, border)].T).T
        self._s0 = a[np.ix_(border, border)] - self._f @ self._y

    @property
    def n_border(self) -> int:
        """Size of the dense border block."""
        return int(self._border.size)

    def solve(self, rhs: np.ndarray, delta_c: np.ndarray) -> np.ndarray:
        """Solve stacked ``(B, n)`` right-hand sides with each variant's
        border block perturbed by its ``(nb, nb)`` slice of ``delta_c``
        ``(B, nb, nb)``; returns ``(B, n)``.
        """
        rhs = np.asarray(rhs, dtype=np.float64)
        w1 = self._core_solver.solve(rhs[:, self._core])
        t = rhs[:, self._border] - w1 @ self._f.T
        z2 = np.linalg.solve(self._s0[None, :, :] + delta_c,
                             t[..., None])[..., 0]
        x = np.empty_like(rhs)
        x[:, self._core] = w1 - z2 @ self._y.T
        x[:, self._border] = z2
        return x
