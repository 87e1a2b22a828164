"""Content-keyed on-disk store of transient-simulation results.

The experiments re-simulate identical (circuit, stimulus, grid) jobs
across runs: Table 1 and Figure 2 share noise cases, ablations re-sweep
the same alignments, and ``propagate_path`` re-simulates quiet references
per technique.  The in-memory
:class:`~repro.sta.noise_aware.QuietReferenceCache` showed the pattern;
this module generalises it to *every* :class:`~repro.circuit.transient.TransientJob`
and persists the results on disk, so repeat experiment runs are
near-free.

Keying
------
An entry is addressed by a SHA-256 over the full *content* of a job —
nothing positional or environmental:

* the circuit's :meth:`~repro.circuit.mna.MnaSystem.topology_signature`
  (element lists, node order, ``gmin``),
* a fingerprint of every independent source function
  (:meth:`~repro.circuit.sources.SourceFunction.content_fingerprint` —
  exact for DC/PWL/waveform sources; sources without a fingerprint make
  the job *uncacheable*, never silently mis-keyed),
* the time grid ``(t_start, t_stop, dt)``,
* the initial state (``use_ic`` plus the sorted ``initial_voltages``
  items — the DC *seed* steers the Newton path, so it keys the entry),
* every :class:`~repro.circuit.transient.TransientOptions` field (sorted
  by field name, so construction order is irrelevant) — including
  ``max_step`` and the LTE tolerances, so a strided run and a fixed-grid
  (``max_step = dt``) run of the same job can never alias each other's
  entries (stored strided results replay their accepted non-uniform
  grid), and
* :data:`STORE_VERSION`, bumped whenever the solver's numerics change —
  stale stores invalidate themselves instead of replaying old waveforms.

Changing *any* component changes the key; see the README for the
resulting invalidation rules.

Storage
-------
One ``<key>.npz`` file per entry under the store root, written to a
temporary file and atomically renamed (a crashed writer can never leave a
half-entry under the final name).  Lookups validate shapes against the
job's compiled system; an unreadable or mis-shaped entry is counted in
``corrupt``, deleted, and treated as a miss, so the store self-heals.
Hits touch the file's mtime, and inserts evict least-recently-used
entries until the store fits ``max_bytes``.  ``hits`` / ``misses`` /
``corrupt`` / ``evictions`` counters double as the test spy, reported
by :meth:`ResultStore.stats`.
"""

from __future__ import annotations

import dataclasses
import errno
import hashlib
import io
import os
import re
import struct
import warnings
from collections.abc import Mapping
from pathlib import Path

import numpy as np

from .._knobs import DEFAULT_STORE_MAX_BYTES
from .._util import require
from ..circuit.mna import MnaSystem
from ..circuit.transient import TransientJob, TransientOptions, TransientResult
from ..faults import FaultError, maybe_fault

__all__ = ["STORE_VERSION", "KEYED_FIELDS", "UnkeyableJobError",
           "ResultStore", "job_key", "content_key"]

#: Bump when solver numerics change in a way that should invalidate
#: previously stored waveforms.
#:
#: 2 — adaptive LTE-controlled stepping: results may live on non-uniform
#:     grids and every :class:`TransientOptions` gained stepping fields
#:     (``adaptive``/``lte_rtol``/``lte_atol``/``max_step``/``min_step``)
#:     that participate in the key, so pre-adaptive entries — which were
#:     keyed without a stepping mode — must stop matching.
#: 3 — pattern-frozen sparse Newton for MOSFET circuits: large gate +
#:     interconnect netlists now iterate through structured
#:     refactorizations whose waveforms differ from the dense path at
#:     the ~1e-12 V level.  The DC operating-point entries that arrived
#:     with this version were later removed without a bump: transient
#:     keys did not change, and the orphaned DC files never match again,
#:     so LRU eviction drains them.
#: 4 — one stepping engine: the ``adaptive`` option field is gone, so
#:     every key's options items change, and ``TransientOptions()`` now
#:     grows strides (the fixed grid is ``max_step = dt``), so a default
#:     job's waveforms change too.
STORE_VERSION = 4

#: Default size budget of a store (bytes) unless overridden; the value
#: lives in :mod:`repro._knobs` next to the ``REPRO_STORE_MAX_BYTES``
#: knob that overrides it.
DEFAULT_MAX_BYTES = DEFAULT_STORE_MAX_BYTES

#: :class:`TransientOptions` fields that participate in every transient
#: store key.  This must name *every* dataclass field —
#: :func:`_options_items` enforces it at runtime (so a new field fails
#: loudly at first keying, not via stale cache hits) and reprolint's
#: ``store-key`` rule proves it statically in CI.  Adding an option
#: means adding it here *and* bumping :data:`STORE_VERSION`.
KEYED_FIELDS = frozenset({
    "abstol", "max_newton", "max_halvings", "v_limit", "backend",
    "lte_rtol", "lte_atol", "max_step", "min_step",
})

#: Inserts between full directory rescans of the size counter (bounds
#: the eviction-trigger drift when several processes share one root).
_RESCAN_EVERY = 64

#: Eviction drains the store to this fraction of ``max_bytes``: stopping
#: exactly at the budget would leave the very next insert over it again,
#: re-paying _evict's full directory scan on every store() once full.
_EVICT_WATERMARK = 0.9

#: Pre-hit recency stamps remembered for :meth:`ResultStore.discard_hit`
#: (bounded: discards follow their lookup within one ``run_jobs`` call,
#: so only the most recent hits ever need restoring).
_RECENCY_REMEMBERED = 1024

#: Namespaces are path components of entry filenames; constrain them so
#: a tenant name can never escape the store root or collide with the
#: ``<key>.npz`` entries of the default namespace.
_NAMESPACE_OK = re.compile(r"[A-Za-z0-9._-]{1,64}")


class UnkeyableJobError(TypeError):
    """A job contains content no canonical fingerprint exists for."""


# ----------------------------------------------------------------------
# Canonical hashing
# ----------------------------------------------------------------------
def _update(h, obj) -> None:
    """Feed ``obj`` into hash ``h`` with an unambiguous type-tagged encoding.

    Every supported value hashes the same regardless of container
    insertion order (mappings are sorted by key) or numpy vs builtin
    scalar type; unsupported objects raise :class:`UnkeyableJobError`.
    """
    if obj is None:
        h.update(b"\x00N")
    elif isinstance(obj, (bool, np.bool_)):
        h.update(b"\x00B1" if obj else b"\x00B0")
    elif isinstance(obj, (int, np.integer)):
        enc = str(int(obj)).encode()
        h.update(b"\x00I" + len(enc).to_bytes(4, "big") + enc)
    elif isinstance(obj, (float, np.floating)):
        h.update(b"\x00F" + struct.pack(">d", float(obj)))
    elif isinstance(obj, str):
        enc = obj.encode()
        h.update(b"\x00S" + len(enc).to_bytes(8, "big") + enc)
    elif isinstance(obj, bytes):
        h.update(b"\x00Y" + len(obj).to_bytes(8, "big") + obj)
    elif isinstance(obj, np.ndarray):
        a = np.ascontiguousarray(obj)
        h.update(b"\x00A" + str(a.dtype).encode() + b"|" + str(a.shape).encode() + b"|")
        h.update(a.tobytes())
    elif isinstance(obj, (tuple, list)):
        h.update(b"\x00T" + len(obj).to_bytes(8, "big"))
        for item in obj:
            _update(h, item)
    elif isinstance(obj, Mapping):
        items = sorted(obj.items(), key=lambda kv: str(kv[0]))
        h.update(b"\x00M" + len(items).to_bytes(8, "big"))
        for k, v in items:
            _update(h, k)
            _update(h, v)
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        h.update(b"\x00D" + type(obj).__qualname__.encode())
        for f in sorted(dataclasses.fields(obj), key=lambda f: f.name):
            _update(h, f.name)
            _update(h, getattr(obj, f.name))
    else:
        raise UnkeyableJobError(
            f"no canonical fingerprint for {type(obj).__qualname__!r}")


def _options_items(options: TransientOptions) -> tuple:
    """The *keyed* options as ``(name, value)`` pairs sorted by field name.

    Runtime mirror of reprolint's ``store-key`` rule: every dataclass
    field must be declared in :data:`KEYED_FIELDS`, and every keyed name
    must still be a field.  An undeclared field would otherwise silently
    alias cached waveforms (left out of the key); it fails here, at
    import/test time, instead.
    """
    names = {f.name for f in dataclasses.fields(options)}
    undeclared = names - KEYED_FIELDS
    require(not undeclared,
            f"TransientOptions field(s) {sorted(undeclared)} are not "
            f"declared in KEYED_FIELDS; register them in repro.exec.store "
            f"and bump STORE_VERSION")
    stale = KEYED_FIELDS - names
    require(not stale,
            f"KEYED_FIELDS name(s) {sorted(stale)} are not TransientOptions "
            f"fields; remove the stale declaration")
    return tuple(sorted(
        (name, getattr(options, name)) for name in names & KEYED_FIELDS))


def job_key(job: TransientJob, mna: MnaSystem | None = None) -> str:
    """SHA-256 content key of a transient job (hex digest).

    Parameters
    ----------
    job:
        The job to fingerprint.
    mna:
        Optionally a pre-compiled :class:`~repro.circuit.mna.MnaSystem`
        of ``job.circuit`` (avoids recompiling when the caller already
        holds one).

    Raises
    ------
    UnkeyableJobError
        When a source function (or other job content) has no canonical
        fingerprint; such jobs must not be cached.
    """
    mna = mna if mna is not None else MnaSystem(job.circuit)
    h = hashlib.sha256()
    _update(h, ("repro-transient-job", STORE_VERSION))
    _update(h, mna.topology_signature())
    try:
        # The SourceFunction base raises NotImplementedError for sources
        # without a canonical fingerprint; normalise to the one exception
        # type callers treat as "uncacheable".
        _update(h, tuple(v.source.content_fingerprint()
                         for v in job.circuit.vsources))
        _update(h, tuple(i.source.content_fingerprint()
                         for i in job.circuit.isources))
    except NotImplementedError as exc:
        raise UnkeyableJobError(str(exc)) from exc
    _update(h, (float(job.t_start), float(job.t_stop), float(job.dt)))
    _update(h, bool(job.use_ic))
    _update(h, tuple(sorted(
        (str(node), float(v))
        for node, v in (job.initial_voltages or {}).items()
    )))
    _update(h, _options_items(job.options or TransientOptions()))
    return h.hexdigest()


def content_key(label: str, payload) -> str:
    """SHA-256 content key of an arbitrary canonical-hashable payload.

    The public face of the store's canonical hashing for consumers that
    key something other than a transient job — the run journal
    (:mod:`repro.exec.journal`) keys a whole sweep with it.  Same
    machinery, same :data:`STORE_VERSION` scoping, same
    :class:`UnkeyableJobError` on content without a canonical form.
    """
    h = hashlib.sha256()
    _update(h, (str(label), STORE_VERSION))
    _update(h, payload)
    return h.hexdigest()


def _faulted_write(fault, f, arrays: dict) -> None:
    """Act out an injected ``store.write`` fault on an open temp file.

    ``partial`` writes half the encoded entry then raises (a torn write
    the atomic-rename path must clean up); ``enospc`` raises the real
    ``OSError(ENOSPC)`` a full disk produces.
    """
    if fault.kind == "partial":
        buf = io.BytesIO()
        np.savez(buf, **arrays)
        payload = buf.getvalue()
        f.write(payload[:max(1, len(payload) // 2)])
        raise OSError("injected partial store write")
    if fault.kind == "enospc":
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
    np.savez(f, **arrays)


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------
class ResultStore:
    """Content-keyed on-disk store of :class:`TransientResult` arrays.

    Parameters
    ----------
    root:
        Directory holding the entries (created on first use).
    max_bytes:
        Size budget; inserts evict least-recently-used entries (by file
        mtime, refreshed on every hit) until the store fits.  The entry
        being inserted is never evicted by its own insert.
    namespace:
        Optional tenant prefix on every entry filename
        (``<namespace>--<key>.npz``).  Namespaces sharing one ``root``
        never alias each other's entries — the same job stored by two
        tenants lives twice — while the size budget, rescans and LRU
        eviction stay root-wide (one shared disk).  :meth:`clear`
        deletes only this namespace's entries; :meth:`namespaced`
        derives a tenant view from an existing store.

    Counters (``hits``/``misses``/``corrupt``/``evictions``/``stores``/
    ``uncacheable``) are per-instance and reset by :meth:`clear`;
    ``misses`` counts every failed lookup, including the ``corrupt``
    ones.
    """

    def __init__(self, root: str | os.PathLike, max_bytes: int = DEFAULT_MAX_BYTES,
                 namespace: str = ""):
        require(max_bytes > 0, "store size budget must be positive")
        require(namespace == "" or _NAMESPACE_OK.fullmatch(namespace) is not None,
                f"invalid store namespace {namespace!r}: need 1-64 chars "
                f"from [A-Za-z0-9._-]")
        self.root = Path(root)
        self.max_bytes = int(max_bytes)
        self.namespace = namespace
        # Running on-disk byte total, seeded by one directory scan on
        # first need and maintained incrementally — inserts must not pay
        # an O(entries) rescan each (cold runs store thousands of
        # entries).  ``None`` means "stale, rescan before trusting";
        # periodically invalidated so concurrent writers sharing the
        # root can only drift the eviction trigger by a bounded amount.
        self._total_bytes: int | None = None
        self._stores_since_rescan = 0
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        self.evictions = 0
        self.stores = 0
        self.uncacheable = 0
        self.write_failures = 0
        # Latched by the first failed write: a store that cannot persist
        # keeps *serving* (reads still hit) but stops paying for writes
        # that will fail again — and stops spamming one warning per
        # entry.  clear() resets it (fresh root, fresh chances).
        self.miss_only = False
        # Keys whose corrupt entry could not be unlinked (read-only
        # store root): each is counted in ``corrupt`` exactly once —
        # without the memo every lookup of such a key re-counted it
        # *and* invalidated the incremental byte total, re-paying a
        # full directory rescan per lookup.
        self._undeletable: set[str] = set()
        # key -> (atime, mtime) captured just before a hit's os.utime,
        # so :meth:`discard_hit` can restore the entry's LRU recency.
        self._pre_hit_times: dict[str, tuple[float, float]] = {}

    def namespaced(self, namespace: str) -> "ResultStore":
        """A tenant view of the same root: same size budget, prefixed keys.

        Counters are per-view (fresh on the returned store), matching
        the service's per-tenant accounting; the on-disk budget and LRU
        eviction remain shared across all namespaces of the root.
        """
        return ResultStore(self.root, max_bytes=self.max_bytes,
                           namespace=namespace)

    # -- keys ----------------------------------------------------------
    def key_for(self, job: TransientJob, mna: MnaSystem | None = None) -> str | None:
        """The job's content key, or ``None`` (counted) when uncacheable."""
        try:
            return job_key(job, mna)
        except UnkeyableJobError:
            self.uncacheable += 1
            return None

    def _path(self, key: str) -> Path:
        if self.namespace:
            return self.root / f"{self.namespace}--{key}.npz"
        return self.root / f"{key}.npz"

    # -- lookup / store ------------------------------------------------
    def lookup(self, key: str, job: TransientJob,
               mna: MnaSystem | None = None) -> TransientResult | None:
        """The stored result rebuilt against ``job``'s circuit, or ``None``.

        A present-but-unreadable (or mis-shaped) entry counts as
        ``corrupt``, is deleted — and thereby healed — and reads as a
        miss: the caller re-simulates and re-stores.  A hit refreshes the
        entry's LRU recency (the pre-hit stamp is remembered so
        :meth:`discard_hit` can undo the refresh).  An entry that cannot
        be deleted (read-only store root) is counted as corrupt once,
        remembered, and read as a plain miss from then on — no re-count,
        no byte-total rescan.
        """
        path = self._path(key)
        if not path.is_file() or key in self._undeletable:
            self.misses += 1
            return None
        mna = mna if mna is not None else MnaSystem(job.circuit)
        try:
            if maybe_fault("store.read") is not None:
                raise FaultError("injected corrupt store entry")
            with np.load(path, allow_pickle=False) as data:
                times = np.array(data["times"], dtype=np.float64)
                x = np.array(data["x"], dtype=np.float64)
            require(times.ndim == 1 and times.size >= 2, "bad time axis")
            require(x.shape == (times.size, mna.size),
                    "solution shape mismatch")
        except Exception:
            self.corrupt += 1
            self.misses += 1
            try:
                if maybe_fault("store.unlink") is not None:
                    raise OSError("injected unlink failure")
                path.unlink()
            except OSError:
                # Healing failed (read-only root, concurrent sweeper
                # holding the file …): the entry stays on disk, so the
                # byte total is still right — remember the key instead
                # of re-paying the corrupt count and a directory rescan
                # on every subsequent lookup.
                self._undeletable.add(key)
            else:
                self._total_bytes = None  # entry removed outside _evict
            return None
        try:
            st = path.stat()
            self._remember_recency(key, st.st_atime, st.st_mtime)
            os.utime(path)  # refresh LRU recency
        except OSError:
            pass
        self.hits += 1
        return TransientResult(mna, times, x, stats={"source": "store"})

    def _remember_recency(self, key: str, atime: float, mtime: float) -> None:
        """Stash an entry's pre-hit timestamps (bounded, oldest dropped)."""
        if key not in self._pre_hit_times and \
                len(self._pre_hit_times) >= _RECENCY_REMEMBERED:
            self._pre_hit_times.pop(next(iter(self._pre_hit_times)))
        self._pre_hit_times[key] = (atime, mtime)

    def discard_hit(self, key: str | None = None) -> None:
        """Recount one successful :meth:`lookup` as a miss.

        For callers that fetched an entry and then decided not to use it
        (the execution layer discards the hits of partially-warm groups
        whose strides can grow, so the whole group re-solves together): keeps
        the accounting invariant — effective outcomes, not raw lookups —
        in this module.  ``hits`` never goes negative (a stray discard
        is an accounting bug upstream, not license to report one).

        When ``key`` is given, the entry's pre-hit LRU recency is
        restored too: the discarded lookup's ``os.utime`` refresh would
        otherwise make an entry the caller *didn't use* look hot to
        eviction, aging out genuinely-hot entries in its place.
        """
        self.hits = max(0, self.hits - 1)
        self.misses += 1
        if key is None:
            return
        stamp = self._pre_hit_times.pop(key, None)
        if stamp is not None:
            try:
                os.utime(self._path(key), times=stamp)
            except OSError:
                pass  # entry already evicted/removed: nothing to restore

    def store(self, key: str, result: TransientResult) -> None:
        """Insert a result, degrading on write failure (never raising).

        A store that cannot persist — full disk, revoked permission, a
        vanished mount — must not kill the sweep that just spent hours
        computing ``result``: the failure is counted in
        ``write_failures``, warned about exactly once, and the store
        latches into miss-only mode (lookups keep working; further
        writes are skipped without touching the disk).
        """
        if self.miss_only:
            return
        try:
            self._write_entry(key, times=result.times, x=result._x)
        except Exception:
            self.write_failures += 1
            self._enter_miss_only()
            return
        self.stores += 1

    def _enter_miss_only(self) -> None:
        """Latch the write-failure degradation, warning on the first."""
        if not self.miss_only:
            self.miss_only = True
            warnings.warn(
                f"result store at {self.root} failed to persist an entry; "
                f"continuing in miss-only mode (lookups still served, "
                f"further writes skipped; counted in write_failures)",
                RuntimeWarning, stacklevel=3)

    def _write_entry(self, key: str, **arrays: np.ndarray) -> None:
        """Atomic ``.npz`` insert of one entry's arrays."""
        fault = maybe_fault("store.write")
        if fault is not None and fault.kind == "fail":
            raise FaultError("injected store write failure")
        self.root.mkdir(parents=True, exist_ok=True)
        path = self._path(key)
        existing = 0
        if path.exists():  # overwrite: don't double-count the bytes
            try:
                existing = path.stat().st_size
            except OSError:
                existing = 0
        tmp = path.with_name(f".{key}.{os.getpid()}.tmp")
        try:
            with open(tmp, "wb") as f:
                if fault is not None:
                    _faulted_write(fault, f, arrays)
                else:
                    np.savez(f, **arrays)
            written = tmp.stat().st_size
            os.replace(tmp, path)
        finally:
            if tmp.exists():  # replace failed midway
                try:
                    tmp.unlink()
                except OSError:
                    pass
        # A fresh write under the key supersedes any corrupt entry the
        # store could not delete (and any pre-hit recency stamp).
        self._undeletable.discard(key)
        self._pre_hit_times.pop(key, None)
        self._stores_since_rescan += 1
        if self._stores_since_rescan >= _RESCAN_EVERY:
            self._total_bytes = None  # pick up concurrent writers' bytes
        elif self._total_bytes is not None:
            self._total_bytes += written - existing
        if self.total_bytes() > self.max_bytes:
            self._evict(keep=path)

    def _entries(self, own_only: bool = False) -> list[tuple[float, int, Path]]:
        """Entries as ``(mtime, size, path)``, oldest first.

        Root-wide by default — the size budget and LRU eviction span
        every namespace sharing the root.  ``own_only`` restricts to
        this store's namespace (used by :meth:`clear`, :meth:`stats`
        and ``len()`` so one tenant's view never reports — or deletes —
        another tenant's entries); a store without a namespace owns the
        whole root.
        """
        pattern = f"{self.namespace}--*.npz" \
            if (own_only and self.namespace) else "*.npz"
        out = []
        if self.root.is_dir():
            for p in self.root.glob(pattern):
                try:
                    st = p.stat()
                except OSError:
                    continue
                out.append((st.st_mtime, st.st_size, p))
        out.sort(key=lambda e: (e[0], e[2].name))
        return out

    def total_bytes(self) -> int:
        """Current on-disk size, from the incremental counter (seeded by
        one directory scan when first consulted or after invalidation)."""
        if self._total_bytes is None:
            self._total_bytes = sum(size for _, size, _ in self._entries())
            self._stores_since_rescan = 0
        return self._total_bytes

    def _evict(self, keep: Path | None = None) -> None:
        entries = self._entries()
        total = sum(size for _, size, _ in entries)
        low = _EVICT_WATERMARK * self.max_bytes
        for _, size, path in entries:
            if total <= low:
                break
            if keep is not None and path == keep:
                continue
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            self.evictions += 1
        self._total_bytes = total

    # -- maintenance ---------------------------------------------------
    def reset_counters(self) -> None:
        """Zero the hit/miss/corrupt/eviction counters, keeping entries."""
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        self.evictions = 0
        self.stores = 0
        self.uncacheable = 0
        self.write_failures = 0

    def clear(self) -> None:
        """Delete every on-disk entry of *this namespace* and reset all
        counters (a namespace-less store owns, and clears, the whole
        root)."""
        for _, _, path in self._entries(own_only=True):
            try:
                path.unlink()
            except OSError:
                pass
        # Other namespaces' bytes may remain: rescan on next need.
        self._total_bytes = None
        self._undeletable.clear()
        self._pre_hit_times.clear()
        self.miss_only = False
        self.reset_counters()

    def __len__(self) -> int:
        return len(self._entries(own_only=True))

    def stats(self) -> dict:
        """Counters plus current entry count and on-disk byte size
        (``entries``/``bytes`` cover this namespace; the eviction budget
        itself is root-wide)."""
        entries = self._entries(own_only=True)
        return {
            "hits": self.hits,
            "misses": self.misses,
            "corrupt": self.corrupt,
            "evictions": self.evictions,
            "stores": self.stores,
            "uncacheable": self.uncacheable,
            "write_failures": self.write_failures,
            "miss_only": self.miss_only,
            "entries": len(entries),
            "bytes": sum(size for _, size, _ in entries),
            "root": str(self.root),
            "namespace": self.namespace,
        }

