"""Figure 2 reproduction: the waveforms SGDP builds internally.

Figure 2(a) shows the noiseless input/output pair with 0.2·ρ_noiseless;
Figure 2(b) shows the noisy input, the golden (Hspice) noisy output,
0.2·ρ_eff, the equivalent waveform Γ_eff, and the output produced by
Γ_eff (``v_out_eff``).  This module generates all series on a common time
grid for a representative Configuration I noise case, and can render them
as CSV or a quick ASCII plot.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.propagation import GateFixture
from ..core.techniques import PropagationInputs
from ..core.techniques.sgdp import Sgdp
from ..core.waveform import Waveform
from ..exec import ExecutionConfig, run_jobs
from .noise_injection import SweepTiming, run_noise_cases
from .setup import CONFIG_I, CrosstalkConfig, receiver_fixture

__all__ = ["Figure2Data", "generate_figure2", "ascii_plot"]

#: Scale factor the paper applies to ρ so it fits the voltage axis.
RHO_PLOT_SCALE = 0.2


@dataclass(frozen=True)
class Figure2Data:
    """All series of Figure 2, sampled on ``times``.

    Panel (a): ``v_in_noiseless``, ``v_out_noiseless``, ``rho_noiseless``
    (pre-scaled by 0.2, magnitude).  Panel (b): ``v_in_noisy``,
    ``v_out_noisy`` (golden), ``rho_eff`` (scaled), ``gamma_eff``,
    ``v_out_eff``.
    """

    times: np.ndarray
    v_in_noiseless: np.ndarray
    v_out_noiseless: np.ndarray
    rho_noiseless_scaled: np.ndarray
    v_in_noisy: np.ndarray
    v_out_noisy: np.ndarray
    rho_eff_scaled: np.ndarray
    gamma_eff: np.ndarray
    v_out_eff: np.ndarray

    def to_csv(self) -> str:
        """Render every series as CSV (times in seconds, volts)."""
        header = ("time,v_in_noiseless,v_out_noiseless,rho_noiseless_x0.2,"
                  "v_in_noisy,v_out_noisy,rho_eff_x0.2,gamma_eff,v_out_eff")
        rows = [header]
        for k in range(self.times.size):
            rows.append(",".join(
                f"{x:.6e}" for x in (
                    self.times[k], self.v_in_noiseless[k], self.v_out_noiseless[k],
                    self.rho_noiseless_scaled[k], self.v_in_noisy[k],
                    self.v_out_noisy[k], self.rho_eff_scaled[k],
                    self.gamma_eff[k], self.v_out_eff[k],
                )
            ))
        return "\n".join(rows) + "\n"


def generate_figure2(
    config: CrosstalkConfig = CONFIG_I,
    offset: float = -0.1e-9,
    timing: SweepTiming | None = None,
    n_points: int = 241,
    fixture: GateFixture | None = None,
    solver_backend: str = "auto",
    adaptive: bool = True,
    execution: ExecutionConfig | None = None,
) -> Figure2Data:
    """Produce the Figure 2 series for one noise alignment.

    The default offset places the aggressor glitch mid-transition, the
    situation panel (b) of the paper illustrates.  ``solver_backend``
    is the linear-solver backend request forwarded to every simulation
    (``adaptive=False`` runs them on the fixed grid, ``max_step = dt``);
    ``execution`` routes all three simulations (noiseless reference,
    noise case, Γ_eff re-simulation) through the shared execution layer,
    so a warm result store regenerates the figure without solving.
    """
    timing = timing or SweepTiming()
    # The noiseless reference and the noise case share a topology: one batch.
    ref, cases = run_noise_cases(
        config, [tuple(offset for _ in range(config.n_aggressors))],
        timing, include_noiseless=True, solver_backend=solver_backend,
        adaptive=adaptive, execution=execution)
    case = cases[0]
    inputs = PropagationInputs(
        v_in_noisy=case.v_in_noisy, vdd=config.vdd,
        v_in_noiseless=ref.v_in, v_out_noiseless=ref.v_out,
    )
    sens = inputs.sensitivity()
    sgdp = Sgdp()
    gamma = sgdp.equivalent_waveform(inputs)
    fixture = fixture or receiver_fixture(config, dt=timing.dt,
                                          solver_backend=solver_backend,
                                          adaptive=adaptive)
    eff_job = fixture.transient_job(
        gamma, t_window=(case.v_in_noisy.t_start,
                         case.v_in_noisy.t_end + fixture.settle_margin))
    eff_out = fixture.measure(run_jobs([eff_job], execution)[0])

    # Common plotting grid: span both critical regions with margin.
    t_lo = min(sens.region[0], inputs.noisy_critical_region()[0]) - 0.2e-9
    t_hi = max(sens.region[1], inputs.noisy_critical_region()[1]) + 0.4e-9
    times = np.linspace(t_lo, t_hi, n_points)

    # ρ_eff on the grid, reproducing SGDP step 2 (with the causal weight).
    v_noisy = np.asarray(case.v_in_noisy(times))
    rho_eff = np.asarray(sens.rho_at_voltage(v_noisy))
    rho_eff = rho_eff * sgdp._output_activity_weight(inputs, sens, times)

    return Figure2Data(
        times=times,
        v_in_noiseless=np.asarray(ref.v_in(times)),
        v_out_noiseless=np.asarray(ref.v_out(times)),
        rho_noiseless_scaled=RHO_PLOT_SCALE * np.abs(np.asarray(sens.rho_at_time(times))),
        v_in_noisy=v_noisy,
        v_out_noisy=np.asarray(case.v_out_noisy(times)),
        rho_eff_scaled=RHO_PLOT_SCALE * np.abs(rho_eff),
        gamma_eff=np.asarray(gamma(times)),
        v_out_eff=np.asarray(eff_out.v_out(times)),
    )


def ascii_plot(times: np.ndarray, series: dict[str, np.ndarray],
               width: int = 78, height: int = 22,
               v_min: float | None = None, v_max: float | None = None) -> str:
    """Tiny dependency-free line plot for terminals and logs.

    Each series gets the first character of its label as the marker;
    later series overwrite earlier ones where they collide.
    """
    lo = min(float(np.min(v)) for v in series.values()) if v_min is None else v_min
    hi = max(float(np.max(v)) for v in series.values()) if v_max is None else v_max
    if hi <= lo:
        hi = lo + 1.0
    grid = [[" "] * width for _ in range(height)]
    t0, t1 = float(times[0]), float(times[-1])
    for label, values in series.items():
        marker = label[0]
        for t, v in zip(times, values):
            x = int((t - t0) / (t1 - t0) * (width - 1))
            y = int((v - lo) / (hi - lo) * (height - 1))
            y = min(max(y, 0), height - 1)
            grid[height - 1 - y][x] = marker
    legend = "  ".join(f"{label[0]}={label}" for label in series)
    rows = ["".join(r) for r in grid]
    rows.append("-" * width)
    rows.append(f"t: [{t0 * 1e9:.2f}, {t1 * 1e9:.2f}] ns   v: [{lo:.2f}, {hi:.2f}] V")
    rows.append(legend)
    return "\n".join(rows)
