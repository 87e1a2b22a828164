"""Execution-layer pool tests: sharded vs serial equivalence, determinism,
and the worker-crash fallback path."""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuit.mna import MnaSystem
from repro.circuit.netlist import Circuit
from repro.circuit.sources import RampSource
from repro.circuit.transient import (TransientJob, TransientOptions,
                                     simulate_transient_many)
from repro.core.waveform import Waveform
from repro.exec import ExecutionConfig, run_jobs
from repro.exec import pool as pool_mod
from repro.exec.pool import make_shards
from repro.library.cells import standard_cell
from repro.core.propagation import GateFixture

VOLTAGE_TOL = 1e-9
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


def assert_equivalent(serial, sharded):
    assert len(serial) == len(sharded)
    worst = 0.0
    for s, b in zip(serial, sharded):
        # Identical ordering: each result must describe the same job.
        assert s.node_names == b.node_names
        assert s.times.shape == b.times.shape
        np.testing.assert_array_equal(s.times, b.times)
        for node in s.node_names:
            worst = max(worst, float(np.max(np.abs(
                s.voltage_samples(node) - b.voltage_samples(node)))))
    assert worst < VOLTAGE_TOL, f"worst node deviation {worst:.3e} V"


class TestShardedEquivalence:
    def test_mixed_jobs_two_workers(self):
        jobs = job_mix()
        serial = simulate_transient_many(jobs)
        sharded = run_jobs(jobs, ExecutionConfig(workers=2))
        assert_equivalent(serial, sharded)

    def test_mosfet_free_only(self):
        jobs = [rc_job(1e3, 30e-12 * k) for k in range(6)]
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

    def test_large_group_is_split(self):
        jobs = [rc_job(1e3, 10e-12 * k) for k in range(8)]
        mnas = self._mnas(jobs)
        shards = make_shards(list(range(8)), jobs, mnas, 2)
        assert len(shards) == 2
        assert sorted(len(s) for s in shards) == [4, 4]


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
    on the group membership; the scheduler keeps them whole, making the
    sharded run *bit-identical* to the serial one (`assert_equivalent`
    also requires matching time axes).
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
        # One topology-sharing adaptive group: all 8 jobs in one shard
        # (a fixed-grid list of the same shape splits 4/4).
        assert len(shards) == 1 and sorted(shards[0]) == list(range(8))
        fixed = [rc_job(1e3, 10e-12 * k) for k in range(8)]
        fixed_shards = make_shards(list(range(8)), fixed,
                                   [MnaSystem(j.circuit) for j in fixed], 2)
        assert sorted(len(s) for s in fixed_shards) == [4, 4]

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
        jobs = [rc_job(1e3, 30e-12 * k) for k in range(4)]
        diag = {}
        results = run_jobs(jobs, ExecutionConfig(workers=2), diag=diag)
        assert diag["mode"] == "serial" and diag["fallback_shards"] >= 1
        assert_equivalent(simulate_transient_many(jobs), results)


class TestCostBalancedShards:
    """make_shards balances by estimated job cost (steps × size² ×
    (1 + n_mosfets)), not raw job count — heterogeneous Table-1 +
    interconnect mixes would otherwise skew wall-clock."""

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

    def test_heterogeneous_mix_splits_expensive_group(self):
        big = [rc_job(1e3, 10e-12 * k, n_stages=30) for k in range(2)]
        small = [rc_job(1e3, 10e-12 * k) for k in range(6)]
        jobs = big + small
        mnas = [MnaSystem(j.circuit) for j in jobs]
        costs = [pool_mod.job_cost(j, m) for j, m in zip(jobs, mnas)]
        shards = make_shards(list(range(len(jobs))), jobs, mnas, 2)
        assert len(shards) == 2
        # The two expensive jobs must not share a shard (count-based
        # chunking kept their group whole and skewed one worker).
        locate = {k: i for i, s in enumerate(shards) for k in s}
        assert locate[0] != locate[1]
        loads = [sum(costs[k] for k in s) for s in shards]
        assert max(loads) <= 0.7 * sum(costs)

    def test_equal_costs_still_split_evenly(self):
        jobs = [rc_job(1e3, 10e-12 * k) for k in range(8)]
        mnas = [MnaSystem(j.circuit) for j in jobs]
        shards = make_shards(list(range(8)), jobs, mnas, 2)
        assert sorted(len(s) for s in shards) == [4, 4]

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
        jobs = [rc_job(1e3, 30e-12 * k) for k in range(6)]
        diag = {}
        results = run_jobs(jobs,
                           ExecutionConfig(workers=2, shard_timeout=120.0),
                           diag=diag)
        assert diag["mode"] == "sharded"
        assert diag["timeout_shards"] == 0
        assert diag["fallback_shards"] == 0
        assert_equivalent(simulate_transient_many(jobs), results)

    def test_crash_is_not_counted_as_timeout(self, monkeypatch):
        jobs = [rc_job(1e3, 30e-12 * k) for k in range(6)]
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
