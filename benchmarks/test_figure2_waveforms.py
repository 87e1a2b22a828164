"""Figure 2 reproduction — the waveforms SGDP builds internally.

Panel (a): noiseless input/output with 0.2·ρ_noiseless.
Panel (b): noisy input, golden noisy output, 0.2·ρ_eff, Γ_eff, v_out_eff.

The benchmark regenerates every series for a representative Config I
noise alignment, renders both panels as ASCII plots into the captured
output, writes ``figure2.csv`` to a temporary directory (the tracked
``benchmarks/figure2.csv`` holds the fixed-grid series; a test run must
not rewrite it), and asserts the qualitative features visible in the
paper's figure.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.figure2 import ascii_plot, generate_figure2
from repro.experiments.setup import CONFIG_I

VDD = 1.2


def test_figure2(benchmark, sweep_timing, tmp_path):
    data = benchmark.pedantic(
        generate_figure2,
        kwargs={"config": CONFIG_I, "offset": -0.1e-9, "timing": sweep_timing},
        rounds=1, iterations=1,
    )

    print("\nFigure 2(a): noiseless pair and 0.2*rho_noiseless")
    print(ascii_plot(data.times, {
        "in_noiseless": data.v_in_noiseless,
        "out_noiseless": data.v_out_noiseless,
        "rho x0.2": data.rho_noiseless_scaled,
    }, v_min=-0.1, v_max=1.4))
    print("\nFigure 2(b): noisy pair, 0.2*rho_eff, gamma_eff, v_out_eff")
    print(ascii_plot(data.times, {
        "noisy_in": data.v_in_noisy,
        "hspice_out": data.v_out_noisy,
        "rho_eff x0.2": data.rho_eff_scaled,
        "gamma_eff": data.gamma_eff,
        "proposed_out": data.v_out_eff,
    }, v_min=-0.1, v_max=1.4))

    out = tmp_path / "figure2.csv"
    out.write_text(data.to_csv())
    print(f"series written to {out}")

    # Qualitative features of the paper's figure:
    # (a) ρ_noiseless is a localized bump peaking within the transition.
    peak = float(np.max(data.rho_noiseless_scaled))
    assert 0.2 < peak < 3.0          # |rho| peak of a few (x0.2 scale)
    assert data.rho_noiseless_scaled[0] == 0.0
    assert data.rho_noiseless_scaled[-1] == 0.0
    # (b) Γ_eff is a full-swing ramp whose 50% point lies inside the
    # noisy critical region.
    g = data.gamma_eff
    assert g[0] == 0.0 and abs(g[-1] - VDD) < 1e-6
    # (b) the SGDP-predicted output tracks the golden output closely at
    # the timing threshold: compare 0.5*Vdd crossings.
    from repro.core.waveform import Waveform
    w_gold = Waveform(data.times, data.v_out_noisy)
    w_eff = Waveform(data.times, data.v_out_eff)
    t_gold = w_gold.cross_time(0.5 * VDD, "last")
    t_eff = w_eff.cross_time(0.5 * VDD, "last")
    assert abs(t_eff - t_gold) < 60e-12
