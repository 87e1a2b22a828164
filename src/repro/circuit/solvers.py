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
    LAPACK LU (``getrf``/``getrs`` via :func:`scipy.linalg.lu_factor`).
    O(n³) factor, O(n²) per solve.  Right for small systems.

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
— have two Newton kernels instead of the factor-once contract: dense
Newton (re-stamp the stacked Jacobians and LU them every pass) and
:class:`BorderedBanded`, the ``"banded"`` kernel for
gate-plus-interconnect topologies.  There the device fill is confined
to a small dense *border* while the interconnect core permutes to a
narrow band; the banded core is factored once per base matrix (per step
size, per DC gmin stage) and each Newton iteration refactorises only the
border-sized Schur complement.

Backend selection (:func:`select_backend`) is driven by a structural
analysis of the matrix sparsity pattern (:func:`analyze_pattern`) —
size, density and post-RCM bandwidth — computed once per circuit
topology and cached per topology signature (see
:meth:`~repro.circuit.mna.MnaSystem.structure`); MOSFET circuits
additionally consult the core/border partition
(:meth:`~repro.circuit.mna.MnaSystem.newton_partition`).

Every backend needs SciPy, imported on the first pattern analysis or
factorization (:func:`_scipy`) rather than with this module.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from .._util import require
from ..faults import maybe_fault

__all__ = [
    "BACKENDS",
    "MatrixStructure",
    "analyze_pattern",
    "select_backend",
    "factorize",
    "sparse_csr",
    "BorderedBanded",
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
#: per-iteration overhead of the bordered kernel, and keeping
#: the paper-scale experiments on the historical path pins their
#: waveforms bit for bit.
_MIN_NEWTON_SIZE = 64
#: Border-size ceiling of the block-bordered Newton kernel: the Schur
#: complement is refactorised dense every Newton iteration, so the
#: border must stay gate-sized while the core carries the interconnect.
_MAX_BORDER = 64


@functools.cache
def _scipy():
    """``scipy`` with ``linalg`` and ``sparse`` loaded (~0.45 s, 33 MB)."""
    import scipy.linalg
    import scipy.sparse.csgraph
    import scipy.sparse.linalg

    return scipy


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
        ``None`` when the natural ordering is already at least as narrow.
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
    if nnz == 0:
        return MatrixStructure(size=n, nnz=nnz, density=density,
                               bandwidth=natural_bw, perm=None)

    sym = pattern | pattern.T
    perm = np.asarray(_scipy().sparse.csgraph.reverse_cuthill_mckee(
        sparse_csr(sym), symmetric_mode=True))
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
        requests).
    n_mosfets:
        With MOSFETs present the result names a Newton kernel instead of
        a factor-once linear solver, and only two exist: ``"banded"``,
        the block-bordered kernel (:class:`BorderedBanded`), wherever a
        viable ``partition`` exists and the request is ``"banded"`` or
        an ``"auto"`` request on at least ``_MIN_NEWTON_SIZE`` unknowns;
        ``"dense"`` in every other case, a ``"sparse"`` request included.
    requested:
        One of :data:`BACKENDS`.  On linear systems non-``"auto"``
        requests are honoured verbatim (benchmarks and tests force
        specific paths).
    partition:
        The circuit's core/border split
        (:meth:`~repro.circuit.mna.MnaSystem.newton_partition`), or
        ``None`` when no viable one exists.  Only consulted for MOSFET
        circuits.
    """
    require(requested in BACKENDS,
            f"unknown solver backend {requested!r}; expected one of {BACKENDS}")
    if n_mosfets > 0:
        if partition is None or requested in ("dense", "sparse"):
            return "dense"
        if requested == "banded":
            return "banded"
        require(structure is not None,
                "auto backend selection needs a structure")
        return "banded" if structure.size >= _MIN_NEWTON_SIZE else "dense"
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
    """Dense LAPACK LU (``scipy.linalg.lu_factor``) with factor reuse."""

    name = "dense"

    def __init__(self, a: np.ndarray):
        linalg = _scipy().linalg
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", linalg.LinAlgWarning)
            self._lu = linalg.lu_factor(a)
        # lu_factor only *warns* on exact singularity (zero U pivot)
        # and would let NaNs cascade through every solve; normalise
        # to the LinAlgError contract numpy.linalg.solve honours.
        if np.any(np.diag(self._lu[0]) == 0.0):
            raise np.linalg.LinAlgError(
                "dense LU factorization hit an exactly zero pivot "
                "(singular matrix)")
        self._lu_solve = linalg.lu_solve

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return _solve_columns(lambda cols: self._lu_solve(self._lu, cols), rhs)


class SparseLu:
    """SuperLU factorization of the CSC form; O(nnz)-ish solves."""

    name = "sparse"

    def __init__(self, a: np.ndarray):
        sparse = _scipy().sparse
        try:
            self._lu = sparse.linalg.splu(sparse.csc_matrix(a))
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
        if structure is None or structure.size != a.shape[0]:
            structure = analyze_pattern(a != 0.0)
        self._perm = structure.perm
        n = a.shape[0]
        kl = ku = max(1, structure.bandwidth)
        # LAPACK banded storage: row kl+ku+i-j holds entry (i, j); the top
        # kl rows are workspace for the pivoting fill-in.  Every position
        # of the band is gathered straight from ``a`` through the
        # permutation — O(n·b), no permuted dense copy to scan.
        rows = np.arange(n) + np.arange(-kl, kl + 1)[:, None]
        cols = np.broadcast_to(np.arange(n), rows.shape)
        inside = (rows >= 0) & (rows < n)
        rows, cols = rows[inside], cols[inside]
        p = np.arange(n) if self._perm is None else self._perm
        ab = np.zeros((2 * kl + ku + 1, n))
        ab[kl + ku + rows - cols, cols] = a[p[rows], p[cols]]
        lapack = _scipy().linalg.lapack
        lu, ipiv, info = lapack.dgbtrf(ab, kl=kl, ku=ku)
        if info != 0:
            raise np.linalg.LinAlgError(
                f"banded LU factorization failed (gbtrf info={info})")
        self._lu, self._ipiv, self._kl, self._ku = lu, ipiv, kl, ku
        self._n = n
        self._dgbtrs = lapack.dgbtrs

    def _sweep(self, cols: np.ndarray, overwrite: bool) -> np.ndarray:
        x, info = self._dgbtrs(self._lu, self._kl, self._ku, cols,
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
    if backend == "sparse":
        return SparseLu(a)
    if backend == "banded":
        return BandedThomas(a, structure)
    return DenseLu(a)


def sparse_csr(m: np.ndarray):
    """CSR copy of a dense matrix (``scipy.sparse.csr_matrix``)."""
    return _scipy().sparse.csr_matrix(m)


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
    The ``solver.refactor`` injection point forces that singular Schur
    path, driving the stacked Newton engine down its backend ladder
    exactly as a numerically singular iterate would.
    """

    def __init__(self, a: np.ndarray, border: np.ndarray, core: np.ndarray,
                 core_structure: MatrixStructure):
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

    def solve(self, rhs: np.ndarray, delta_c: np.ndarray) -> np.ndarray:
        """Solve stacked ``(B, n)`` right-hand sides with each variant's
        border block perturbed by its ``(nb, nb)`` slice of ``delta_c``
        ``(B, nb, nb)``; returns ``(B, n)``.
        """
        rhs = np.asarray(rhs, dtype=np.float64)
        w1 = self._core_solver.solve(rhs[:, self._core])
        t = rhs[:, self._border] - w1 @ self._f.T
        if maybe_fault("solver.refactor") is not None:
            raise np.linalg.LinAlgError("injected singular Schur factorization")
        z2 = np.linalg.solve(self._s0[None, :, :] + delta_c,
                             t[..., None])[..., 0]
        x = np.empty_like(rhs)
        x[:, self._core] = w1 - z2 @ self._y.T
        x[:, self._border] = z2
        return x
