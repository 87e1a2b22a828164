"""Ablations of this reproduction's documented design choices.

* **Causal ρ_eff mask** (README "Deviations from the paper"): SGDP with
  the output-activity weight versus the paper-literal quasi-static
  remap.  In the strong-glitch regime of this testbench the literal
  remap lets post-switch crosstalk sags dominate Eq. 3; the ablation
  quantifies how much the mask buys.
* **Alignment granularity**: how dense the aggressor-alignment sweep must
  be before the worst-case delay push-out stops growing — the
  experimental-design question behind the paper's "200 cases in 1 ns".
"""

from __future__ import annotations

from repro.experiments.ablation import alignment_ablation, causal_mask_ablation
from repro.experiments.setup import CONFIG_I


def test_causal_mask_ablation(benchmark, sweep_timing):
    stats = benchmark.pedantic(
        causal_mask_ablation,
        kwargs={"config": CONFIG_I, "n_cases": 7, "timing": sweep_timing},
        rounds=1, iterations=1,
    )
    print()
    for label, s in stats.items():
        print(f"  {label:14s} max {s.max_ps:7.1f} ps   avg {s.avg_ps:6.1f} ps   "
              f"fail {s.failures}")
    masked = stats["causal-mask"]
    literal = stats["paper-literal"]
    assert masked.failures == 0
    # The mask must not hurt the average; in the glitchy alignments it is
    # the difference between usable and broken fits.
    assert masked.mean_abs <= literal.mean_abs * 1.05


def test_alignment_granularity(benchmark, sweep_timing):
    worst = benchmark.pedantic(
        alignment_ablation,
        kwargs={"granularities": (3, 5, 9, 17), "config": CONFIG_I,
                "timing": sweep_timing},
        rounds=1, iterations=1,
    )
    print()
    for n, pushout in worst.items():
        print(f"  {n:3d} alignments  worst push-out {pushout * 1e12:7.1f} ps")
    # Denser sweeps can only find a worse (or equal) worst case.
    values = [worst[n] for n in sorted(worst)]
    for a, b in zip(values, values[1:]):
        assert b >= a - 1e-15
    # Too-coarse sweeps miss real push-out: the finest grid should exceed
    # the coarsest by a visible margin in this testbench.
    assert values[-1] >= values[0]
