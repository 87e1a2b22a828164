"""Table 1 reproduction — accuracy comparison of all six techniques.

Regenerates the paper's Table 1 for Configuration I and Configuration II:
max and average gate-delay error of P1, P2, LSF3, E4, WLS5 and SGDP
against the golden transient simulation, over an aggressor-alignment
sweep (``REPRO_CASES`` cases, default 10; the paper uses 200).

The assertions check a *shape*, SGDP against WLS5, LSF3 and E4 with
slack, not the paper's full ordering:

* SGDP answers every case (no failures);
* SGDP's average error is below 1.25× WLS5's, unless WLS5 fails on some
  case;
* SGDP's average error is below 1.3× LSF3's and 1.3× E4's;
* on Configuration II, WLS5 fails on some case or its average error is
  above half of SGDP's.

The paper's headline, SGDP more accurate than every other technique,
does not reproduce here: P1 has a lower average error than SGDP on both
configurations (ROADMAP item 12; README "Deviations from the paper").
"""

from __future__ import annotations

import pytest

from repro.experiments.setup import CONFIG_I, CONFIG_II
from repro.experiments.table1 import Table1Result, run_table1


def _print_result(result: Table1Result) -> None:
    print()
    print(result.format())


@pytest.mark.parametrize("config", [CONFIG_I, CONFIG_II], ids=["config_I", "config_II"])
def test_table1(benchmark, config, sweep_timing, bench_cases):
    result = benchmark.pedantic(
        run_table1,
        kwargs={"config": config, "n_cases": bench_cases, "timing": sweep_timing},
        rounds=1, iterations=1,
    )
    _print_result(result)

    sgdp = result.row("SGDP").delay
    wls5 = result.row("WLS5").delay
    lsf3 = result.row("LSF3").delay
    e4 = result.row("E4").delay

    # Headline: SGDP beats the best conventional technique (WLS5) on
    # average error; WLS5's failures count against it as non-answers.
    assert sgdp.failures == 0, "SGDP must be applicable to every case"
    wls5_effective_avg = wls5.mean_abs if wls5.failures == 0 else float("inf")
    assert sgdp.mean_abs < max(wls5.mean_abs * 1.25, 1e-15) or \
        wls5.failures > 0, "SGDP should not trail WLS5 meaningfully"
    assert sgdp.mean_abs < lsf3.mean_abs * 1.3
    assert sgdp.mean_abs < e4.mean_abs * 1.3
    if config.name == "II":
        # The paper: WLS5 degrades as aggressor count grows; in this
        # reproduction it fails outright on a fraction of the cases.
        assert wls5.failures > 0 or wls5.mean_abs > sgdp.mean_abs * 0.5
    # Keep the (otherwise unused) strict-comparison value visible in logs.
    print(f"SGDP avg {sgdp.avg_ps:.1f} ps vs WLS5 effective avg "
          f"{wls5_effective_avg if wls5_effective_avg != float('inf') else float('nan'):.1f} ps "
          f"({wls5.failures} WLS5 failures)")
