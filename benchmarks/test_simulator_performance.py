"""Substrate benchmark — transient-simulator throughput.

Not a paper artifact, but the cost driver of every experiment: all golden
references and technique evaluations run through
:mod:`repro.circuit.transient`.  Tracks steps/second on the Figure 1
Configuration I netlist and on a plain inverter stage so performance
regressions in the MNA/Newton loop are visible.
"""

from __future__ import annotations

from repro.circuit.netlist import Circuit
from repro.circuit.sources import RampSource
from repro.circuit.transient import TransientJob
from repro.experiments.setup import CONFIG_I, build_testbench

VDD = 1.2


def test_inverter_stage_transient(benchmark):
    def run():
        c = Circuit("inv")
        c.vsource("Vdd", "vdd", "0", VDD)
        c.vsource("Vin", "in", "0", RampSource(0.2e-9, 150e-12, 0.0, VDD))
        c.inverter("inv1", "in", "out", "vdd", wn=0.5e-6, wp=1.0e-6)
        c.capacitor("CL", "out", "0", 10e-15)
        return TransientJob(c, t_stop=1.5e-9, dt=2e-12).run()

    result = benchmark(run)
    assert result.waveform("out").v_final < 0.05


def test_config1_testbench_transient(benchmark):
    bench = build_testbench(CONFIG_I, victim_start=0.8e-9, aggressor_starts=[0.75e-9])

    def run():
        return TransientJob(bench.circuit, t_stop=2.4e-9, dt=2e-12,
                            initial_voltages=bench.initial_voltages).run()

    result = benchmark(run)
    assert result.waveform("in_u").v_final > VDD - 0.05
