"""The in-process workloads: set-up, one request per pool entry, checks.

Each workload is a :class:`Workload` with

* ``build()`` — the design or configuration the requests share (parsed
  corpus, stage list, ...), timed as ``setup.build_s``;
* ``warm_up()`` — one small request of the same shape, timed as
  ``setup.warmup_s``, so lazy imports and per-topology analysis caches
  are filled before the measured window;
* ``request(entry)`` — one measured request on pool entry ``entry``;
  returns ``(units of work, output)``;
* ``check(entry, output, reference)`` — ``None`` when the output matches
  the committed reference, else a one-line reason.

The program sees only the inputs built here from the pool entry.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict

from common import C17_DIR, close

#: Time-valued outputs are compared at 1 fs.  The engines promise
#: <1e-9 V between equivalent paths; at the >=1e9 V/s slopes of these
#: transitions that moves a 50% crossing by <1e-18 s, so 1e-15 s leaves
#: three decades for the technique fits to amplify it.
TIME_TOL = 1e-15
#: Static-timing arithmetic on the c17 corpus (no waveforms): relative.
STA_REL_TOL = 1e-9


class Workload:
    name = "abstract"
    unit = "units"
    #: Modules a user of this workload imports (timed as setup.import_s).
    MODULES: "tuple[str, ...]" = ()

    def build(self) -> None:
        """Parse / construct what every request shares."""

    def warm_up(self) -> None:
        raise NotImplementedError

    def request(self, entry: int) -> "tuple[int, object]":
        raise NotImplementedError

    def check(self, entry: int, output, reference) -> "str | None":
        raise NotImplementedError


# ----------------------------------------------------------------------
# table1: the paper's Table-1 sweep, both configurations
# ----------------------------------------------------------------------
def table1_window(entry: int) -> float:
    """Alignment-window width of pool entry ``entry`` (0.85-1.15 ns)."""
    frac = (entry * 0.6180339887498949) % 1.0
    return 1.0e-9 * (0.85 + 0.30 * frac)


class Table1(Workload):
    name = "table1"
    unit = "noise cases scored"
    MODULES = ("repro.experiments.table1",)
    N_CASES = 8

    def build(self) -> None:
        from repro.exec import ExecutionConfig
        from repro.experiments.setup import CONFIG_I, CONFIG_II
        self.configs = [CONFIG_I, CONFIG_II]
        self.execution = ExecutionConfig(workers=1, store=None)

    def _run(self, timing, n_cases):
        from repro.experiments.table1 import run_table1_many
        return run_table1_many(self.configs, n_cases=n_cases,
                               polarity="both", timing=timing,
                               adaptive=False, execution=self.execution,
                               journal=False)

    def warm_up(self) -> None:
        from repro.experiments.noise_injection import SweepTiming
        self._run(SweepTiming(dt=10e-12), 2)

    def request(self, entry: int):
        from repro.experiments.noise_injection import SweepTiming
        tables = self._run(SweepTiming(window=table1_window(entry)),
                           self.N_CASES)
        output = {f"{t.config_name}/{row.technique}":
                  {"delay": asdict(row.delay), "arrival": asdict(row.arrival)}
                  for t in tables for row in t.rows}
        return len(tables) * self.N_CASES, output

    def check(self, entry, output, reference):
        if set(output) != set(reference):
            return f"rows {sorted(output)} != reference {sorted(reference)}"
        for row, want in reference.items():
            for kind in ("delay", "arrival"):
                got = output[row][kind]
                for field, value in want[kind].items():
                    if field in ("count", "failures"):
                        ok = got[field] == value
                    else:
                        ok = close(got[field], value, TIME_TOL)
                    if not ok:
                        return (f"{row} {kind}.{field}: {got[field]!r} "
                                f"!= reference {value!r}")
        return None


# ----------------------------------------------------------------------
# noise_path: Monte-Carlo noise-aware propagation over a deep-line path
# ----------------------------------------------------------------------
class NoisePath(Workload):
    name = "noise_path"
    unit = "path stages propagated"
    MODULES = ("repro.sta.statistical", "repro.sta.noise_aware")
    SAMPLES = 2
    N_STAGES = 3

    def build(self) -> None:
        from repro.core.ramp import SaturatedRamp
        from repro.exec import ExecutionConfig
        from repro.interconnect.rcline import RcLineSpec
        from repro.library.cells import make_inverter
        from repro.sta.noise_aware import AggressorSpec, NoisyStage
        line = RcLineSpec(total_r=800.0, total_c=60e-15, n_segments=96)
        aggressor = AggressorSpec(coupling=40e-15, transition_start=0.45e-9,
                                  rising=True, slew=80e-12,
                                  driver=make_inverter(8))
        stage = NoisyStage(driver=make_inverter(4), line=line,
                           receiver=make_inverter(4),
                           aggressors=(aggressor,))
        self.stages = [stage] * self.N_STAGES
        self.ramp = SaturatedRamp.from_arrival_slew(0.3e-9, 100e-12, 1.2,
                                                    rising=False)
        self.execution = ExecutionConfig(workers=1, store=None)

    def _run(self, seed, samples, dt=2e-12):
        from repro.sta.statistical import run_noise_monte_carlo
        return run_noise_monte_carlo(self.stages, self.ramp, samples=samples,
                                     seed=seed, dt=dt,
                                     execution=self.execution, journal=False)

    def warm_up(self) -> None:
        self._run(seed=0, samples=1, dt=10e-12)

    def request(self, entry: int):
        result = self._run(seed=1000 + entry, samples=self.SAMPLES)
        arrivals = [row["arrival"]["out"] for row in result.rows]
        return self.SAMPLES * self.N_STAGES, arrivals

    def check(self, entry, output, reference):
        if len(output) != len(reference):
            return f"{len(output)} samples != reference {len(reference)}"
        for i, (got, want) in enumerate(zip(output, reference)):
            if not close(got, want, TIME_TOL):
                return f"sample {i} arrival {got!r} != reference {want!r}"
        return None


# ----------------------------------------------------------------------
# ssta_c17: Monte-Carlo statistical STA over the c17 corpus, 2 workers
# ----------------------------------------------------------------------
class SstaC17(Workload):
    name = "ssta_c17"
    unit = "MC samples"
    MODULES = ("repro.sta", "repro.library.liberty")
    SAMPLES = 500

    def build(self) -> None:
        from repro.exec import ExecutionConfig
        from repro.library.liberty import parse_liberty
        from repro.sta import InputSpec, read_verilog
        with open(os.path.join(C17_DIR, "c17.v")) as fh:
            self.netlist = read_verilog(fh.read())
        with open(os.path.join(C17_DIR, "c17.lib")) as fh:
            self.library = parse_liberty(fh.read())
        with open(os.path.join(C17_DIR, "golden.json")) as fh:
            self.golden = json.load(fh)
        self.inputs = {net: InputSpec(slew=50e-12)
                       for net in self.netlist.primary_inputs}
        self.required = {net: self.golden["required_time"]
                         for net in self.netlist.primary_outputs}
        self.execution = ExecutionConfig(workers=2)
        self.serial = ExecutionConfig(workers=1)
        problem = self.golden_problem()
        if problem is not None:
            raise RuntimeError(f"c17 golden check failed: {problem}")

    def golden_problem(self) -> "str | None":
        """The corpus's hand-computed NLDM arrivals and slacks."""
        from repro.sta import StaEngine
        result = StaEngine(self.library).analyze(
            self.netlist, inputs=self.inputs, required_times=self.required)
        want = self.golden["nldm"]
        got_sets = (("arrival_rise", lambda n: result.rise[n].arrival),
                    ("arrival_fall", lambda n: result.fall[n].arrival),
                    ("slack", result.slack))
        for key, getter in got_sets:
            for net, value in want[key].items():
                if not close(getter(net), value, 1e-18, STA_REL_TOL):
                    return f"{key}[{net}] = {getter(net)!r}, golden {value!r}"
        if result.critical_path("N22") != want["critical_path_N22"]:
            return f"critical path to N22 {result.critical_path('N22')}"
        return None

    def run(self, seed, samples, execution):
        from repro.sta.statistical import run_sta_monte_carlo
        return run_sta_monte_carlo(self.netlist, self.library,
                                   inputs=self.inputs,
                                   required_times=self.required,
                                   samples=samples, seed=seed,
                                   execution=execution, journal=False)

    def warm_up(self) -> None:
        self.run(seed=0, samples=64, execution=self.execution)

    def request(self, entry: int):
        result = self.run(1000 + entry, self.SAMPLES, self.execution)
        return self.SAMPLES, result.quantiles

    def check(self, entry, output, reference):
        def walk(got, want, path):
            if isinstance(want, dict):
                if set(got) != set(want):
                    return f"{path}: keys {sorted(got)} != {sorted(want)}"
                for key in want:
                    problem = walk(got[key], want[key], f"{path}/{key}")
                    if problem:
                        return problem
                return None
            if not close(got, want, 1e-18, STA_REL_TOL):
                return f"{path}: {got!r} != reference {want!r}"
            return None
        return walk(output, reference, "quantiles")


WORKLOADS = {cls.name: cls for cls in (Table1, NoisePath, SstaC17)}
