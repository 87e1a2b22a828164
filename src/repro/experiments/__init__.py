"""Experiment harnesses: the Figure 1 testbench and one module per
paper artifact (Table 1, §4.2 run-times, Figure 2) plus ablations."""

from .ablation import (
    SamplingAblationRow,
    alignment_ablation,
    causal_mask_ablation,
    sampling_ablation,
)
from .figure2 import Figure2Data, ascii_plot, generate_figure2
from .glitch import GlitchMeasurement, glitch_sweep, measure_glitch, worst_glitch
from .noise_injection import (
    NoiseCase,
    NoiselessReference,
    SweepTiming,
    alignment_offsets,
    iter_noise_cases,
    run_noise_case,
    run_noise_cases,
    run_noiseless,
)
from .runtime import (
    PAPER_RUNTIMES_US,
    RuntimeMeasurement,
    make_runtime_inputs,
    measure_runtimes,
)
from .setup import (
    CONFIG_I,
    CONFIG_II,
    CrosstalkConfig,
    Testbench,
    TestbenchNodes,
    build_testbench,
    receiver_fixture,
)
from .table1 import (
    PAPER_TABLE1,
    Table1Result,
    Table1Row,
    default_case_count,
    run_table1,
    run_table1_many,
)

__all__ = [
    "CrosstalkConfig",
    "CONFIG_I",
    "CONFIG_II",
    "Testbench",
    "TestbenchNodes",
    "build_testbench",
    "receiver_fixture",
    "SweepTiming",
    "NoiseCase",
    "NoiselessReference",
    "alignment_offsets",
    "run_noiseless",
    "run_noise_case",
    "run_noise_cases",
    "iter_noise_cases",
    "Table1Row",
    "Table1Result",
    "run_table1",
    "run_table1_many",
    "default_case_count",
    "PAPER_TABLE1",
    "RuntimeMeasurement",
    "measure_runtimes",
    "make_runtime_inputs",
    "PAPER_RUNTIMES_US",
    "Figure2Data",
    "generate_figure2",
    "ascii_plot",
    "SamplingAblationRow",
    "sampling_ablation",
    "causal_mask_ablation",
    "alignment_ablation",
    "GlitchMeasurement",
    "measure_glitch",
    "glitch_sweep",
    "worst_glitch",
]
