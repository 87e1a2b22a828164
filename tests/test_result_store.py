"""Result-store tests: accounting, key sensitivity, corruption recovery,
eviction, and the warm-store zero-solve guarantee on ``run_table1``."""

from __future__ import annotations

import dataclasses
import os
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.circuit.netlist import Circuit
from repro.circuit.sources import RampSource
from repro.circuit.transient import (TransientJob, TransientOptions,
                                     simulate_transient_many)
from repro.core.techniques.sgdp import Sgdp
from repro.exec import (ExecutionConfig, ResultStore, job_key, run_jobs,
                        set_default_execution)
from repro.exec import pool as pool_mod
from repro.experiments.noise_injection import (SweepTiming, alignment_offsets,
                                               run_noise_cases)
from repro.experiments.setup import CONFIG_I
from repro.experiments.table1 import run_table1


def rc_job(r_ohm: float = 1e3, start: float = 50e-12, dt: float = 2e-12,
           t_stop: float = 0.5e-9, abstol: float = 1e-6,
           initial: dict | None = None, slew: float = 100e-12) -> TransientJob:
    c = Circuit("rc")
    c.vsource("Vin", "a", "0", RampSource(start, slew, 0.0, 1.2))
    c.resistor("R1", "a", "b", r_ohm)
    c.capacitor("C1", "b", "0", 20e-15)
    return TransientJob(c, t_stop=t_stop, dt=dt,
                        initial_voltages=initial,
                        options=TransientOptions(abstol=abstol))


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "store")


class TestAccounting:
    def test_hit_miss_counters(self, store):
        cfg = ExecutionConfig(store=store)
        jobs = [rc_job(start=10e-12 * k) for k in range(3)]
        cold = run_jobs(jobs, cfg)
        assert (store.misses, store.stores, store.hits) == (3, 3, 0)
        warm = run_jobs(jobs, cfg)
        assert (store.misses, store.stores, store.hits) == (3, 3, 3)
        for c, w in zip(cold, warm):
            np.testing.assert_array_equal(c._x, w._x)
            np.testing.assert_array_equal(c.times, w.times)
            assert w.stats["source"] == "store"
        assert store.stats()["entries"] == 3

    def test_clear_resets_everything(self, store):
        run_jobs([rc_job()], ExecutionConfig(store=store))
        store.clear()
        assert len(store) == 0
        assert store.stats()["hits"] == store.stats()["misses"] == 0

    def test_adaptive_nonuniform_grid_roundtrips_exactly(self, store):
        """A stored adaptive result replays its accepted non-uniform grid
        bit for bit, and never aliases the fixed-grid entry of the same
        job."""
        cfg = ExecutionConfig(store=store)
        adaptive = rc_job(t_stop=4e-9)
        base = dataclasses.replace(adaptive, options=dataclasses.replace(
            adaptive.options, max_step=adaptive.dt))
        cold_f, cold_a = run_jobs([base, adaptive], cfg)
        assert store.stores == 2  # distinct keys: no cross-mode aliasing
        assert not cold_a.uniform_grid
        warm_f, warm_a = run_jobs([base, adaptive], cfg)
        assert store.hits == 2
        np.testing.assert_array_equal(warm_a.times, cold_a.times)
        np.testing.assert_array_equal(warm_a._x, cold_a._x)
        np.testing.assert_array_equal(warm_f.times, cold_f.times)
        assert len(warm_a.times) < len(warm_f.times)

    def test_partially_warm_adaptive_group_resolves_whole(self, store):
        """Where strides can grow (the default options), lockstep grids
        depend on group membership, so a
        partial set of store hits must not shrink the solve group: the
        hits are discarded (recounted as misses) and the whole group
        re-solves, keeping run_jobs bit-identical to the serial
        baseline."""
        cfg = ExecutionConfig(store=store)
        jobs = [rc_job(start=10e-12 * k, t_stop=4e-9) for k in range(3)]
        run_jobs([jobs[0]], cfg)  # warm exactly one member (solo grid)
        store.reset_counters()
        mixed = run_jobs(jobs, cfg)
        baseline = simulate_transient_many(jobs)
        for r, b in zip(mixed, baseline):
            np.testing.assert_array_equal(r.times, b.times)
            np.testing.assert_array_equal(r._x, b._x)
        # The solo entry was looked up but discarded for group coherence.
        assert store.hits == 0 and store.misses == 3 and store.stores == 3
        store.reset_counters()
        warm = run_jobs(jobs, cfg)  # fully warm now: zero solves again
        assert store.hits == 3 and store.stores == 0
        for r, w in zip(mixed, warm):
            np.testing.assert_array_equal(r._x, w._x)

    def test_partially_warm_fixed_grid_group_solves_only_misses(self, store):
        """On the fixed grid (max_step = dt) a job's result does not depend
        on its stack mates, so the hit is kept and only the misses solve."""
        cfg = ExecutionConfig(store=store)
        fixed = TransientOptions(max_step=2e-12)
        jobs = [dataclasses.replace(rc_job(start=10e-12 * k), options=fixed)
                for k in range(3)]
        solo = run_jobs([jobs[0]], cfg)[0]
        store.reset_counters()
        diag = {}
        mixed = run_jobs(jobs, cfg, diag=diag)
        assert store.hits == 1 and store.misses == 2 and store.stores == 2
        assert (diag["store_hits"], diag["store_misses"]) == (1, 2)
        np.testing.assert_array_equal(mixed[0]._x, solo._x)
        assert mixed[1].stats["batch_size"] == 2
        for r, b in zip(mixed, simulate_transient_many(jobs)):
            np.testing.assert_array_equal(r.times, b.times)
            np.testing.assert_allclose(r._x, b._x, rtol=0, atol=1e-9)


class TestKeySensitivity:
    def test_every_component_keys_the_entry(self):
        base = job_key(rc_job())
        changed = {
            "topology": rc_job(r_ohm=2e3),
            "source": rc_job(start=60e-12),
            "source-shape": rc_job(slew=120e-12),
            "grid-dt": rc_job(dt=1e-12),
            "grid-stop": rc_job(t_stop=0.6e-9),
            "options": rc_job(abstol=1e-7),
            "initial-voltages": rc_job(initial={"b": 0.1}),
        }
        for label, job in changed.items():
            assert job_key(job) != base, f"{label} change must change the key"

    def test_use_ic_changes_key(self):
        job = rc_job()
        assert job_key(dataclasses.replace(job, use_ic=True)) != job_key(job)

    def test_initial_voltage_dict_order_is_irrelevant(self):
        a = rc_job(initial={"a": 0.0, "b": 0.1})
        b = rc_job(initial={"b": 0.1, "a": 0.0})
        assert job_key(a) == job_key(b)

    def test_equal_jobs_share_a_key(self):
        assert job_key(rc_job()) == job_key(rc_job())

    def test_unfingerprintable_source_is_uncacheable_not_fatal(self, store):
        """A source without content_fingerprint must make the job skip
        the store (counted), never crash or mis-key the run."""
        from repro.circuit.sources import SourceFunction

        class Sine(SourceFunction):
            def __call__(self, t):
                return 0.5 + 0.5 * np.sin(2e9 * np.asarray(t))

        c = Circuit("sine-rc")
        c.vsource("Vin", "a", "0", Sine())
        c.resistor("R1", "a", "b", 1e3)
        c.capacitor("C1", "b", "0", 20e-15)
        job = TransientJob(c, t_stop=0.2e-9, dt=2e-12)

        assert store.key_for(job) is None
        assert store.uncacheable == 1
        cfg = ExecutionConfig(store=store)
        first = run_jobs([job], cfg)[0]
        again = run_jobs([job], cfg)[0]
        np.testing.assert_array_equal(first._x, again._x)
        assert store.stores == 0 and len(store) == 0


class TestCorruptionRecovery:
    def test_corrupt_entry_is_evicted_and_resimulated(self, store):
        cfg = ExecutionConfig(store=store)
        job = rc_job()
        clean = run_jobs([job], cfg)[0]
        key = store.key_for(job)
        path = store._path(key)
        path.write_bytes(b"this is not an npz file")

        recovered = run_jobs([job], cfg)[0]
        assert store.corrupt == 1
        np.testing.assert_array_equal(clean._x, recovered._x)
        # The rewritten entry is healthy again.
        assert run_jobs([job], cfg)[0].stats["source"] == "store"
        assert store.corrupt == 1

    def test_store_write_failure_does_not_discard_results(self, store, monkeypatch):
        """Persistence is an optimisation: a failing disk degrades to an
        uncached (miss-only) run instead of aborting after the solves
        succeeded."""
        def full_disk(key, result):
            raise OSError("no space left on device")
        monkeypatch.setattr(store, "_write_entry", full_disk)
        job = rc_job()
        with pytest.warns(RuntimeWarning, match="miss-only"):
            results = run_jobs([job], ExecutionConfig(store=store))
        assert len(results) == 1 and store.write_failures == 1
        assert store.miss_only and store.stores == 0 and len(store) == 0
        np.testing.assert_array_equal(results[0]._x, job.run()._x)

    def test_miss_only_mode_latches_and_warns_once(self, store, monkeypatch):
        def full_disk(key, result):
            raise OSError("no space left on device")
        monkeypatch.setattr(store, "_write_entry", full_disk)
        cfg = ExecutionConfig(store=store)
        with pytest.warns(RuntimeWarning, match="miss-only"):
            run_jobs([rc_job()], cfg)
        # Latched: further stores return early — no second failure, no
        # second warning, results still correct.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            results = run_jobs([rc_job(start=5e-12)], cfg)
        assert len(results) == 1
        assert store.write_failures == 1 and store.stores == 0
        assert store.stats()["miss_only"] is True
        # clear() resets the degradation along with the entries.
        store.clear()
        assert not store.miss_only and store.write_failures == 0

    def test_miss_only_store_still_serves_reads(self, store, monkeypatch):
        cfg = ExecutionConfig(store=store)
        job = rc_job()
        run_jobs([job], cfg)  # healthy write while the disk is fine
        assert store.stores == 1
        def full_disk(key, result):
            raise OSError("no space left on device")
        monkeypatch.setattr(store, "_write_entry", full_disk)
        with pytest.warns(RuntimeWarning, match="miss-only"):
            run_jobs([rc_job(start=5e-12)], cfg)
        assert store.miss_only
        # The warm entry written before the failure still serves hits.
        assert run_jobs([job], cfg)[0].stats["source"] == "store"

    def test_shape_mismatch_counts_as_corrupt(self, store):
        cfg = ExecutionConfig(store=store)
        job = rc_job()
        run_jobs([job], cfg)
        key = store.key_for(job)
        with open(store._path(key), "wb") as f:
            np.savez(f, times=np.arange(5.0), x=np.zeros((4, 99)))
        assert store.lookup(key, job) is None
        assert store.corrupt == 1
        assert not store._path(key).exists()


class TestEviction:
    def test_lru_eviction_under_size_budget(self, tmp_path):
        probe = ResultStore(tmp_path / "probe")
        jobs = [rc_job(start=10e-12 * k) for k in range(3)]
        run_jobs([jobs[0]], ExecutionConfig(store=probe))
        entry_bytes = probe.stats()["bytes"]

        store = ResultStore(tmp_path / "store", max_bytes=int(2.5 * entry_bytes))
        cfg = ExecutionConfig(store=store)
        run_jobs([jobs[0]], cfg)
        time.sleep(0.02)
        run_jobs([jobs[1]], cfg)
        time.sleep(0.02)
        # Touch job 0 (hit) so job 1 is now the least recently used.
        run_jobs([jobs[0]], cfg)
        time.sleep(0.02)
        run_jobs([jobs[2]], cfg)  # over budget: evicts job 1

        assert store.evictions == 1
        assert len(store) == 2
        hits_before = store.hits
        run_jobs([jobs[0], jobs[2]], cfg)
        assert store.hits == hits_before + 2  # survivors
        run_jobs([jobs[1]], cfg)
        assert store.stores == 4  # job 1 was re-simulated and re-stored


def _counting(monkeypatch):
    calls = {"jobs": 0}
    real = simulate_transient_many

    def counted(jobs, *args, **kwargs):
        calls["jobs"] += len(jobs)
        return real(jobs, *args, **kwargs)

    monkeypatch.setattr(pool_mod, "simulate_transient_many", counted)
    return calls


class TestWarmTable1:
    def test_warm_rerun_performs_zero_transient_solves(self, store, monkeypatch):
        calls = _counting(monkeypatch)
        cfg = ExecutionConfig(store=store)
        timing = SweepTiming(victim_start=0.4e-9, window=0.4e-9,
                             t_stop=1.4e-9, dt=4e-12)
        kwargs = dict(n_cases=2, timing=timing, techniques=[Sgdp()],
                      execution=cfg)

        cold = run_table1(CONFIG_I, **kwargs)
        cold_solves = calls["jobs"]
        assert cold_solves > 0
        assert store.hits == 0 and store.stores == cold_solves

        calls["jobs"] = 0
        warm = run_table1(CONFIG_I, **kwargs)
        assert calls["jobs"] == 0, "warm store must satisfy every simulation"
        assert store.hits == cold_solves

        # Exact — not approximate — agreement with the cold run.
        assert warm == cold

    def test_run_noise_cases_honours_shared_execution(self, store,
                                                      monkeypatch):
        """The sweep must run through the shared ExecutionConfig, not a
        private default — a warm store feeds it for free."""
        calls = _counting(monkeypatch)
        cfg = ExecutionConfig(store=store)
        timing = SweepTiming(victim_start=0.4e-9, window=0.4e-9,
                             t_stop=1.2e-9, dt=4e-12)
        offsets = [(base,) * CONFIG_I.n_aggressors
                   for base in alignment_offsets(2, timing.window)]
        _, first = run_noise_cases(CONFIG_I, offsets, timing, execution=cfg)
        assert calls["jobs"] == 2 and store.stores == 2
        calls["jobs"] = 0
        _, again = run_noise_cases(CONFIG_I, offsets, timing, execution=cfg)
        assert calls["jobs"] == 0 and store.hits == 2
        for a, b in zip(first, again):
            assert a.offsets == b.offsets
            assert a.golden_output_arrival == b.golden_output_arrival


class TestUndeletableCorruptEntry:
    """A corrupt entry the store cannot unlink (read-only root, a
    concurrent sweeper holding the file) must be counted once and then
    read as a plain miss — not re-counted, and not invalidating the
    incremental byte total, on every subsequent lookup."""

    def _corrupt_undeletable(self, store, job, monkeypatch):
        cfg = ExecutionConfig(store=store)
        run_jobs([job], cfg)
        key = store.key_for(job)
        store._path(key).write_bytes(b"this is not an npz file")
        real_unlink = Path.unlink

        def refuse(self, *args, **kwargs):
            if self.suffix == ".npz":
                raise OSError("read-only file system")
            return real_unlink(self, *args, **kwargs)

        monkeypatch.setattr(Path, "unlink", refuse)
        return cfg, key

    def test_corrupt_counted_once_not_per_lookup(self, store, monkeypatch):
        job = rc_job()
        cfg, key = self._corrupt_undeletable(store, job, monkeypatch)
        for _ in range(3):
            assert store.lookup(key, job) is None
        assert store.corrupt == 1, "one broken entry, one corrupt count"
        assert store._path(key).exists()  # unlink refused: still on disk

    def test_byte_total_not_rescanned_per_lookup(self, store, monkeypatch):
        job = rc_job()
        cfg, key = self._corrupt_undeletable(store, job, monkeypatch)
        store.total_bytes()  # seed the incremental counter
        store.lookup(key, job)  # first lookup: corrupt, unlink refused
        assert store._total_bytes is not None, \
            "entry still on disk: the byte total is still correct"
        store.lookup(key, job)
        assert store._total_bytes is not None

    def test_fresh_write_supersedes_undeletable_entry(self, store, monkeypatch):
        job = rc_job()
        cfg, key = self._corrupt_undeletable(store, job, monkeypatch)
        recovered = run_jobs([job], cfg)[0]  # miss → re-solve → re-store
        assert store.corrupt == 1
        np.testing.assert_array_equal(recovered._x, job.run()._x)
        # The rewrite cleared the memo: the key is readable again.
        assert run_jobs([job], cfg)[0].stats["source"] == "store"
        assert store.corrupt == 1


class TestDiscardRecency:
    def test_discarded_hit_restores_lru_recency(self, store):
        """A lookup that run_jobs later discards (partially-warm adaptive
        group) must not leave the entry's mtime refreshed: the discarded
        entry would look hot to LRU eviction and age out genuinely-hot
        entries in its place."""
        cfg = ExecutionConfig(store=store)
        job = rc_job()
        run_jobs([job], cfg)
        key = store.key_for(job)
        path = store._path(key)
        old = (1_000_000_000.0, 1_000_000_000.0)  # unmistakably ancient
        os.utime(path, times=old)
        store.reset_counters()

        assert store.lookup(key, job) is not None  # refreshes mtime
        assert path.stat().st_mtime > old[1]
        store.discard_hit(key)
        assert path.stat().st_mtime == pytest.approx(old[1], abs=1.0)
        assert (store.hits, store.misses) == (0, 1)

    def test_partially_warm_adaptive_group_keeps_entry_cold(self, store):
        """End to end: the solo-warmed adaptive entry discarded for group
        coherence keeps its pre-lookup recency."""
        cfg = ExecutionConfig(store=store)
        jobs = [rc_job(start=10e-12 * k, t_stop=4e-9) for k in range(3)]
        run_jobs([jobs[0]], cfg)  # warm exactly one member
        key = store.key_for(jobs[0])
        path = store._path(key)
        old = (1_000_000_000.0, 1_000_000_000.0)
        os.utime(path, times=old)
        run_jobs(jobs, cfg)  # hit on jobs[0] is discarded for coherence
        # The group re-solve overwrote the entry (fresh write = fresh
        # mtime) — what must NOT happen is a refreshed mtime *without*
        # a rewrite; spy on the pre-rewrite stamp via the memo instead.
        assert key not in store._pre_hit_times

    def test_hits_never_go_negative(self, store):
        store.discard_hit()
        assert store.hits == 0 and store.misses == 1
        store.hits = 1
        store.discard_hit()
        store.discard_hit()
        store.discard_hit()
        assert store.hits == 0 and store.misses == 4

    def test_discard_of_evicted_entry_is_harmless(self, store):
        cfg = ExecutionConfig(store=store)
        job = rc_job()
        run_jobs([job], cfg)
        key = store.key_for(job)
        assert store.lookup(key, job) is not None
        store._path(key).unlink()  # entry vanished between hit and discard
        store.discard_hit(key)  # must not raise
        assert store.hits == 0


class TestNamespaces:
    def test_namespaces_do_not_alias(self, tmp_path):
        """The same job stored by two tenants lives twice; neither tenant
        sees the other's entry."""
        root = tmp_path / "store"
        a = ResultStore(root, namespace="tenant-a")
        b = a.namespaced("tenant-b")
        job = rc_job()
        run_jobs([job], ExecutionConfig(store=a))
        assert (a.misses, a.stores) == (1, 1)
        run_jobs([job], ExecutionConfig(store=b))
        assert (b.hits, b.misses, b.stores) == (0, 1, 1), \
            "tenant-b must not hit tenant-a's entry"
        assert len(a) == 1 and len(b) == 1
        # Warm within a namespace still works.
        run_jobs([job], ExecutionConfig(store=a))
        assert a.hits == 1

    def test_clear_is_namespace_scoped(self, tmp_path):
        root = tmp_path / "store"
        a = ResultStore(root, namespace="tenant-a")
        b = a.namespaced("tenant-b")
        job = rc_job()
        run_jobs([job], ExecutionConfig(store=a))
        run_jobs([job], ExecutionConfig(store=b))
        a.clear()
        assert len(a) == 0 and len(b) == 1
        assert run_jobs([job], ExecutionConfig(store=b))[0] \
            .stats["source"] == "store"

    def test_rootless_store_owns_the_whole_root(self, tmp_path):
        root = tmp_path / "store"
        plain = ResultStore(root)
        a = plain.namespaced("tenant-a")
        run_jobs([rc_job()], ExecutionConfig(store=a))
        run_jobs([rc_job(start=70e-12)], ExecutionConfig(store=plain))
        assert len(a) == 1
        assert len(plain) == 2, "namespace-less view spans the root"
        plain.clear()
        assert len(a) == 0

    def test_eviction_budget_is_root_wide(self, tmp_path):
        probe = ResultStore(tmp_path / "probe")
        run_jobs([rc_job()], ExecutionConfig(store=probe))
        entry_bytes = probe.stats()["bytes"]
        root = tmp_path / "store"
        a = ResultStore(root, max_bytes=int(2.5 * entry_bytes),
                        namespace="tenant-a")
        b = a.namespaced("tenant-b")
        run_jobs([rc_job()], ExecutionConfig(store=a))
        time.sleep(0.02)
        run_jobs([rc_job()], ExecutionConfig(store=b))
        time.sleep(0.02)
        run_jobs([rc_job(start=70e-12)], ExecutionConfig(store=b))
        # Three entries over a 2.5-entry budget: the oldest (tenant-a's)
        # is evicted even though tenant-b did the inserting.
        assert b.evictions == 1
        assert len(a) == 0 and len(b) == 2

    def test_bad_namespace_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ResultStore(tmp_path, namespace="../escape")
        with pytest.raises(ValueError):
            ResultStore(tmp_path, namespace="a/b")
        with pytest.raises(ValueError):
            ResultStore(tmp_path, namespace="x" * 65)

    def test_stats_report_namespace(self, tmp_path):
        store = ResultStore(tmp_path, namespace="svc")
        assert store.stats()["namespace"] == "svc"

    def test_tenant_run_under_default_store_writes_only_its_namespace(
            self, tmp_path):
        """A tenant's run writes nothing outside its namespace, even when
        the process default config holds the un-namespaced root store (the
        daemon under ``REPRO_STORE``): every file in the root carries the
        tenant prefix, and the tenant's ``clear()`` empties the root."""
        base = ResultStore(tmp_path / "store")
        alice = base.namespaced("alice")
        timing = SweepTiming(victim_start=0.4e-9, window=0.4e-9,
                             t_stop=1.4e-9, dt=4e-12)
        previous = set_default_execution(ExecutionConfig(store=base))
        try:
            run_table1(CONFIG_I, n_cases=2, timing=timing,
                       techniques=[Sgdp()],
                       execution=ExecutionConfig(store=alice))
        finally:
            set_default_execution(previous)
        names = sorted(p.name for p in base.root.iterdir())
        assert alice.stores > 0 and len(names) == alice.stores
        assert all(n.startswith("alice--") for n in names), names
        alice.clear()
        assert list(base.root.iterdir()) == []
