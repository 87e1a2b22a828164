"""Execution-layer pool tests: sharded vs serial bit-exactness, whole-group
shard plans, determinism, and the worker-crash fallback path."""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuit.mna import MnaSystem
from repro.circuit.netlist import Circuit
from repro.circuit.sources import RampSource
from repro.circuit.transient import (TransientJob, TransientOptions,
                                     job_group_key, simulate_transient_many)
from repro.core.waveform import Waveform
from repro.exec import ExecutionConfig, run_jobs
from repro.exec import pool as pool_mod
from repro.exec.pool import make_shards
from repro.library.cells import standard_cell
from repro.core.propagation import GateFixture

ADAPTIVE = TransientOptions(adaptive=True)


def rc_job(r_ohm: float, start: float, n_stages: int = 3,
           t_stop: float = 0.8e-9,
           options: "TransientOptions | None" = None) -> TransientJob:
    """A MOSFET-free RC ladder driven by a ramp."""
    c = Circuit("ladder")
    c.vsource("Vin", "n0", "0", RampSource(start, 100e-12, 0.0, 1.2))
    for k in range(n_stages):
        c.resistor(f"R{k}", f"n{k}", f"n{k + 1}", r_ohm)
        c.capacitor(f"C{k}", f"n{k + 1}", "0", 20e-15)
    return TransientJob(c, t_stop=t_stop, dt=2e-12, options=options)


def inverter_job(slew: float, t_stop: float = 0.6e-9,
                 adaptive: bool = False) -> TransientJob:
    """A MOSFET (nonlinear) job: an inverter fixture driven by a ramp."""
    fixture = GateFixture(cell=standard_cell(1), extra_load=10e-15, dt=2e-12,
                          adaptive=adaptive)
    wave = Waveform.ramp(t_start=50e-12, slew=slew, vdd=fixture.cell.vdd)
    return fixture.transient_job(wave, t_window=(0.0, t_stop))


def job_mix() -> list[TransientJob]:
    """Interleaved MOSFET and MOSFET-free jobs across several topologies."""
    jobs = []
    for k in range(4):
        jobs.append(rc_job(1e3, 50e-12 * (k + 1)))
        jobs.append(inverter_job(80e-12 + 20e-12 * k))
    jobs.append(rc_job(2e3, 100e-12, n_stages=5))  # singleton topology
    return jobs


def two_group_rc_jobs(n: int) -> list[TransientJob]:
    """``n`` RC ladders alternating between two resistor values: two groups."""
    return [rc_job(1e3 if k % 2 == 0 else 2e3, 30e-12 * k) for k in range(n)]


def assert_equivalent(serial, sharded):
    """Shards hold whole groups, so every stack solves with the serial
    membership: results must match bit for bit."""
    assert len(serial) == len(sharded)
    for s, b in zip(serial, sharded):
        # Identical ordering: each result must describe the same job.
        assert s.node_names == b.node_names
        np.testing.assert_array_equal(s.times, b.times)
        np.testing.assert_array_equal(s._x, b._x)


class TestShardedEquivalence:
    def test_mixed_jobs_two_workers(self):
        jobs = job_mix()
        serial = simulate_transient_many(jobs)
        sharded = run_jobs(jobs, ExecutionConfig(workers=2))
        assert_equivalent(serial, sharded)

    def test_mosfet_free_only(self):
        jobs = two_group_rc_jobs(6)
        serial = simulate_transient_many(jobs)
        diag = {}
        sharded = run_jobs(jobs, ExecutionConfig(workers=3), diag=diag)
        assert diag["mode"] == "sharded" and diag["shards"] >= 2
        assert diag["fallback_shards"] == 0
        assert_equivalent(serial, sharded)

    def test_mosfet_only(self):
        jobs = [inverter_job(60e-12 + 30e-12 * k) for k in range(4)]
        serial = simulate_transient_many(jobs)
        sharded = run_jobs(jobs, ExecutionConfig(workers=2))
        assert_equivalent(serial, sharded)

    def test_workers_one_is_the_serial_engine(self):
        jobs = job_mix()[:3]
        diag = {}
        results = run_jobs(jobs, ExecutionConfig(workers=1), diag=diag)
        assert diag["mode"] == "serial" and diag["shards"] == 0
        assert_equivalent(simulate_transient_many(jobs), results)

    def test_varied_windows_truncate_per_job(self):
        jobs = [rc_job(1e3, 20e-12, t_stop=0.4e-9 + 0.2e-9 * k)
                for k in range(4)]
        sharded = run_jobs(jobs, ExecutionConfig(workers=2))
        for job, res in zip(jobs, sharded):
            assert res.times[-1] == pytest.approx(job.t_stop, abs=job.dt)


class TestShardScheduler:
    def _mnas(self, jobs):
        return [MnaSystem(j.circuit) for j in jobs]

    def test_deterministic_and_complete(self):
        jobs = job_mix()
        mnas = self._mnas(jobs)
        indices = list(range(len(jobs)))
        a = make_shards(indices, jobs, mnas, 3)
        b = make_shards(indices, jobs, mnas, 3)
        assert a == b
        flat = sorted(k for shard in a for k in shard)
        assert flat == indices
        assert len(a) <= 3

    def test_large_group_stays_whole(self):
        jobs = [rc_job(1e3, 10e-12 * k) for k in range(8)]
        shards = make_shards(list(range(8)), jobs, self._mnas(jobs), 2)
        assert shards == [list(range(8))]

    def test_every_group_lands_in_exactly_one_shard(self):
        jobs = job_mix() + two_group_rc_jobs(6)
        mnas = self._mnas(jobs)
        shards = make_shards(list(range(len(jobs))), jobs, mnas, 2)
        assert len(shards) == 2
        where = {}
        for s_idx, shard in enumerate(shards):
            for k in shard:
                key = job_group_key(jobs[k], mnas[k])
                assert where.setdefault(key, s_idx) == s_idx
        # Members keep their submission order inside a shard.
        for shard in shards:
            for key in set(where):
                members = [k for k in shard
                           if job_group_key(jobs[k], mnas[k]) == key]
                assert members == sorted(members)

    def test_single_shard_plan_forks_no_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a one-group plan must not fork")
        monkeypatch.setattr(pool_mod, "ProcessPoolExecutor", no_pool)
        jobs = [rc_job(1e3, 10e-12 * k) for k in range(8)]
        diag = {}
        results = run_jobs(jobs, ExecutionConfig(workers=2), diag=diag)
        assert diag["mode"] == "serial" and diag["shards"] == 0
        assert diag["fallback_shards"] == 0
        assert_equivalent(simulate_transient_many(jobs), results)


def adaptive_job_mix() -> list[TransientJob]:
    """Long-window adaptive jobs across MOSFET and MOSFET-free topologies."""
    jobs = []
    for k in range(4):
        jobs.append(rc_job(1e3, 50e-12 * (k + 1), t_stop=4e-9,
                           options=ADAPTIVE))
        jobs.append(inverter_job(80e-12 + 20e-12 * k, t_stop=3e-9,
                                 adaptive=True))
    jobs.append(rc_job(2e3, 100e-12, n_stages=5, t_stop=4e-9,
                       options=ADAPTIVE))
    return jobs


class TestAdaptiveSharding:
    """Sharded ≡ serial with LTE-controlled stepping enabled.

    Adaptive groups advance in lockstep, so their accepted grid depends
    on the group membership; the scheduler keeps every group whole, so
    the sharded run is *bit-identical* to the serial one.
    """

    def test_adaptive_sharded_matches_serial(self):
        jobs = adaptive_job_mix()
        serial = simulate_transient_many(jobs)
        diag = {}
        sharded = run_jobs(jobs, ExecutionConfig(workers=2), diag=diag)
        assert diag["mode"] == "sharded"
        assert sharded[0].stats.get("adaptive") is True
        assert not sharded[0].uniform_grid
        assert_equivalent(serial, sharded)

    def test_adaptive_groups_are_never_split(self):
        jobs = [rc_job(1e3, 10e-12 * k, t_stop=4e-9, options=ADAPTIVE)
                for k in range(8)]
        mnas = [MnaSystem(j.circuit) for j in jobs]
        shards = make_shards(list(range(8)), jobs, mnas, 2)
        # One topology-sharing adaptive group: all 8 jobs in one shard.
        assert len(shards) == 1 and sorted(shards[0]) == list(range(8))

    def test_adaptive_worker_crash_falls_back_to_serial(self, monkeypatch):
        jobs = adaptive_job_mix()
        serial = simulate_transient_many(jobs)
        monkeypatch.setattr(pool_mod, "_simulate_shard", _crashing_shard)
        diag = {}
        results = run_jobs(jobs, ExecutionConfig(workers=2), diag=diag)
        assert diag["fallback_shards"] == diag["shards"] >= 2
        assert_equivalent(serial, results)


def _crashing_shard(jobs):  # module-level: picklable into the workers
    raise RuntimeError("worker died")


class TestWorkerCrashFallback:
    def test_crashing_worker_falls_back_to_serial(self, monkeypatch):
        jobs = job_mix()
        serial = simulate_transient_many(jobs)
        monkeypatch.setattr(pool_mod, "_simulate_shard", _crashing_shard)
        diag = {}
        results = run_jobs(jobs, ExecutionConfig(workers=2), diag=diag)
        assert diag["fallback_shards"] == diag["shards"] >= 2
        assert_equivalent(serial, results)

    def test_pool_creation_failure_falls_back(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise OSError("no processes for you")
        monkeypatch.setattr(pool_mod, "ProcessPoolExecutor", no_pool)
        jobs = two_group_rc_jobs(4)
        diag = {}
        results = run_jobs(jobs, ExecutionConfig(workers=2), diag=diag)
        assert diag["mode"] == "serial" and diag["fallback_shards"] >= 1
        assert_equivalent(simulate_transient_many(jobs), results)


class TestCostBalancedShards:
    """make_shards places whole groups, costliest first by summed job
    cost (steps × size² × (1 + n_mosfets)), on the least-loaded shard."""

    def test_cost_model_orders_jobs_sensibly(self):
        small = rc_job(1e3, 10e-12)
        deep = rc_job(1e3, 10e-12, n_stages=30)
        assert pool_mod.job_cost(deep, MnaSystem(deep.circuit)) \
            > 10 * pool_mod.job_cost(small, MnaSystem(small.circuit))
        # Same topology, longer window → proportionally costlier.
        long = rc_job(1e3, 10e-12, t_stop=1.6e-9)
        assert pool_mod.job_cost(long, MnaSystem(long.circuit)) \
            == pytest.approx(2 * pool_mod.job_cost(
                rc_job(1e3, 10e-12, t_stop=0.8e-9),
                MnaSystem(small.circuit)))
        # MOSFETs multiply the per-step cost (Newton iterations).
        mosfet = inverter_job(80e-12)
        mna = MnaSystem(mosfet.circuit)
        n_steps = round((mosfet.t_stop - mosfet.t_start) / mosfet.dt)
        assert pool_mod.job_cost(mosfet, mna) == pytest.approx(
            n_steps * mna.size ** 2 * (1 + mna.n_mosfets))

    def test_costliest_group_gets_its_own_shard(self):
        big = [rc_job(1e3, 10e-12 * k, n_stages=30) for k in range(2)]
        small = [rc_job(r, 10e-12 * k) for r in (1e3, 2e3, 3e3)
                 for k in range(2)]
        jobs = small + big
        mnas = [MnaSystem(j.circuit) for j in jobs]
        shards = make_shards(list(range(len(jobs))), jobs, mnas, 2)
        # The deep group outweighs the three shallow ones together: it
        # goes first, alone; the shallow groups fill the other shard.
        assert shards == [[6, 7], [0, 1, 2, 3, 4, 5]]

    def test_equal_cost_groups_spread_evenly(self):
        jobs = [rc_job(r, 10e-12 * k) for r in (1e3, 2e3, 3e3, 4e3)
                for k in range(2)]
        mnas = [MnaSystem(j.circuit) for j in jobs]
        shards = make_shards(list(range(8)), jobs, mnas, 2)
        # Equal costs keep their build order: groups alternate shards.
        assert shards == [[0, 1, 4, 5], [2, 3, 6, 7]]

    def test_cost_balanced_run_matches_serial(self):
        jobs = [rc_job(1e3, 10e-12 * k, n_stages=30) for k in range(2)] \
            + [inverter_job(60e-12 + 20e-12 * k) for k in range(3)] \
            + [rc_job(1e3, 10e-12 * k) for k in range(4)]
        serial = simulate_transient_many(jobs)
        sharded = run_jobs(jobs, ExecutionConfig(workers=2))
        assert_equivalent(serial, sharded)


def _wedged_shard(jobs, fault_token=None):  # module-level: picklable
    import time
    time.sleep(60.0)  # far past any test deadline; abandoned, not joined
    raise AssertionError("unreachable: the deadline should abandon us")


class TestWedgedWorkerDeadline:
    """shard_timeout turns a wedged (hung, non-crashing) worker into the
    same inline re-solve the crash path already gets — run_jobs must
    never block on a worker that will not return."""

    def test_wedged_worker_times_out_and_resolves_inline(self, monkeypatch):
        jobs = job_mix()
        serial = simulate_transient_many(jobs)
        monkeypatch.setattr(pool_mod, "_simulate_shard", _wedged_shard)
        diag = {}
        results = run_jobs(jobs,
                           ExecutionConfig(workers=2, shard_timeout=0.25),
                           diag=diag)
        # Every shard wedged: all counted as timeouts AND as fallbacks.
        assert diag["timeout_shards"] == diag["shards"] >= 2
        assert diag["fallback_shards"] == diag["shards"]
        assert_equivalent(serial, results)

    def test_adaptive_wedged_worker_times_out(self, monkeypatch):
        jobs = adaptive_job_mix()
        serial = simulate_transient_many(jobs)
        monkeypatch.setattr(pool_mod, "_simulate_shard", _wedged_shard)
        diag = {}
        results = run_jobs(jobs,
                           ExecutionConfig(workers=2, shard_timeout=0.25),
                           diag=diag)
        assert diag["timeout_shards"] == diag["shards"] >= 2
        assert_equivalent(serial, results)

    def test_generous_deadline_never_fires(self):
        jobs = two_group_rc_jobs(6)
        diag = {}
        results = run_jobs(jobs,
                           ExecutionConfig(workers=2, shard_timeout=120.0),
                           diag=diag)
        assert diag["mode"] == "sharded"
        assert diag["timeout_shards"] == 0
        assert diag["fallback_shards"] == 0
        assert_equivalent(simulate_transient_many(jobs), results)

    def test_crash_is_not_counted_as_timeout(self, monkeypatch):
        jobs = two_group_rc_jobs(6)
        monkeypatch.setattr(pool_mod, "_simulate_shard", _crashing_shard)
        diag = {}
        results = run_jobs(jobs,
                           ExecutionConfig(workers=2, shard_timeout=120.0),
                           diag=diag)
        assert diag["fallback_shards"] == diag["shards"] >= 2
        assert diag["timeout_shards"] == 0
        assert_equivalent(simulate_transient_many(jobs), results)

    def test_deadlines_scale_with_shard_cost(self):
        big = [rc_job(1e3, 10e-12 * k, n_stages=30) for k in range(2)]
        small = [rc_job(1e3, 10e-12 * k) for k in range(6)]
        jobs = big + small
        mnas = [MnaSystem(j.circuit) for j in jobs]
        shards = make_shards(list(range(len(jobs))), jobs, mnas, 2)
        budgets = pool_mod._shard_deadlines(shards, jobs, mnas, 2.0)
        assert len(budgets) == len(shards)
        # The base knob is a floor: no shard gets less than the average
        # shard's budget.
        assert all(b >= 2.0 for b in budgets)
        costs = [sum(pool_mod.job_cost(jobs[k], mnas[k]) for k in shard)
                 for shard in shards]
        assert budgets[costs.index(max(costs))] == max(budgets)
        # 0 (the default) disables deadlines entirely.
        assert pool_mod._shard_deadlines(shards, jobs, mnas, 0.0) \
            == [None] * len(shards)

    def test_shard_timeout_comes_from_the_environment(self):
        cfg = ExecutionConfig.from_env({"REPRO_SHARD_TIMEOUT": "7.5",
                                        "REPRO_WORKERS": "2"})
        assert cfg.shard_timeout == 7.5 and cfg.workers == 2
        # Garbage degrades to the default (off), like every other knob.
        assert ExecutionConfig.from_env(
            {"REPRO_SHARD_TIMEOUT": "-3"}).shard_timeout == 0.0
        with pytest.raises(ValueError):
            ExecutionConfig(workers=2, shard_timeout=-1.0)


class TestFleetStats:
    def test_serial_accumulation_and_reset(self):
        from repro.exec import fleet_stats, reset_fleet_stats
        from repro.experiments.setup import CONFIG_I, build_testbench
        from repro.sta import quiet_cache_stats

        tb = build_testbench(CONFIG_I, victim_start=0.2e-9,
                             aggressor_starts=[0.25e-9])
        jobs = [TransientJob(tb.circuit, t_stop=0.4e-9, dt=4e-12,
                             initial_voltages=tb.initial_voltages)
                for _ in range(3)]
        reset_fleet_stats()
        run_jobs(jobs, ExecutionConfig(workers=1))
        fleet = fleet_stats()
        assert fleet["runs"] == 1
        assert fleet["jobs"] == 3
        assert fleet["newton_iters"] > 0
        assert isinstance(fleet["newton_iters"], int)
        assert fleet["matrix_builds"] >= 1
        assert quiet_cache_stats()["fleet"]["newton_iters"] \
            == fleet["newton_iters"]
        reset_fleet_stats()
        assert fleet_stats() == {}
