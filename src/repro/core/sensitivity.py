"""Output-to-input sensitivity ρ — Equation 1 and SGDP step 2 of the paper.

``ρ(t) = ∂v_out/∂v_in`` evaluated along the *noiseless* transition equals
the ratio of output to input time-derivatives (Eq. 1).  It is non-zero
only inside the noiseless critical region (first 0.1·Vdd to last 0.9·Vdd
crossing of the noiseless input).

SGDP's key step re-indexes this sensitivity *by input voltage level*: for
each sample of the noisy waveform, ρ_eff takes the value ρ_noiseless had
when the noiseless input sat at the same voltage.  That makes the weight
follow the noise wherever it moves in time — the fix for WLS5's blindness
to distortion outside the noiseless critical region.

:class:`SensitivityMap` stores both views (by time and by voltage) plus
``dρ/dv``, which SGDP's second-order objective (Eq. 3) needs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._util import require
from .waveform import TransitionPolarity, Waveform

__all__ = ["SensitivityMap", "compute_sensitivity", "NonOverlappingTransitionsError"]


class NonOverlappingTransitionsError(ValueError):
    """Input and output transitions do not overlap, so ρ is undefined.

    The paper notes WLS5 "cannot be applied to gates with large intrinsic
    delay ... where the input and output transitions may not overlap";
    SGDP handles this case by δ-shifting (see
    :class:`repro.core.techniques.sgdp.Sgdp`).
    """


@dataclass(frozen=True)
class SensitivityMap:
    """Sampled sensitivity of a gate along its noiseless transition.

    Attributes
    ----------
    times:
        Sample times spanning the noiseless critical region.
    rho:
        ρ(t) at those times (signed: negative for an inverting gate).
    voltages:
        Noiseless *input* voltage at those times (monotone).
    region:
        The noiseless critical region ``(t_first, t_last)``.
    vdd:
        Supply voltage.
    input_rising:
        Direction of the noiseless input transition.
    """

    times: np.ndarray
    rho: np.ndarray
    voltages: np.ndarray
    region: tuple[float, float]
    vdd: float
    input_rising: bool
    out_levels: np.ndarray | None = None

    def __post_init__(self) -> None:
        require(self.times.size == self.rho.size == self.voltages.size,
                "inconsistent sensitivity sample arrays")
        require(self.times.size >= 4, "sensitivity needs at least 4 samples")
        if self.out_levels is not None:
            require(self.out_levels.size == self.times.size,
                    "out_levels must match the sample count")

    # -- by-time view (what WLS5 uses) ---------------------------------
    def rho_at_time(self, t: float | np.ndarray) -> float | np.ndarray:
        """ρ(t): interpolated inside the critical region, zero outside."""
        out = np.interp(t, self.times, self.rho, left=0.0, right=0.0)
        if np.isscalar(t):
            return float(out)
        return out

    # -- by-voltage view (what SGDP uses) ------------------------------
    def _voltage_grid(self) -> tuple[np.ndarray, np.ndarray]:
        """Monotonically increasing (voltage, rho) arrays for interpolation."""
        if self.input_rising:
            return self.voltages, self.rho
        return self.voltages[::-1], self.rho[::-1]

    def rho_at_voltage(self, v: float | np.ndarray) -> float | np.ndarray:
        """ρ re-indexed by input voltage; zero outside the noiseless band.

        This is SGDP step 2: ``ρ_eff(t_i) = ρ_noiseless(t_j)`` where the
        noiseless input at ``t_j`` equals the noisy input at ``t_i``.
        """
        vg, rg = self._voltage_grid()
        out = np.interp(v, vg, rg, left=0.0, right=0.0)
        if np.isscalar(v):
            return float(out)
        return out

    def drho_dv_at_voltage(self, v: float | np.ndarray) -> float | np.ndarray:
        """``dρ/dv_in`` at input voltage ``v`` (zero outside the band)."""
        vg, rg = self._voltage_grid()
        drho = np.gradient(rg, vg)
        out = np.interp(v, vg, drho, left=0.0, right=0.0)
        if np.isscalar(v):
            return float(out)
        return out

    @property
    def peak_rho(self) -> float:
        """Largest |ρ| — a measure of the gate's switching gain."""
        return float(np.max(np.abs(self.rho)))

    def settle_input_voltage(self, tolerance: float = 0.05) -> float:
        """Input voltage at which the noiseless *output* completes its swing.

        Walking the noiseless trajectory in transition order, this is the
        first input level at which the output is within ``tolerance`` of
        its final rail.  Falls back to the 0.9·Vdd (rising) / 0.1·Vdd
        (falling) input level when output samples were not recorded.
        """
        if self.out_levels is None:
            return (0.9 if self.input_rising else 0.1) * self.vdd
        final = float(self.out_levels[-1])
        tol = tolerance * self.vdd
        done = np.abs(self.out_levels - final) <= tol
        idx = int(np.argmax(done)) if bool(done.any()) else len(done) - 1
        return float(self.voltages[idx])

    def commit_input_voltage(self) -> float:
        """Input level at which the noiseless output crosses 0.5·Vdd.

        Once the input passes this level the gate output is *committed*:
        it will complete its swing even if the input then stalls, as long
        as the input does not fall back through the switching threshold.
        SGDP's causal mask uses this together with
        :meth:`settle_duration_after_commit`.
        """
        if self.out_levels is None:
            return 0.5 * self.vdd
        half = 0.5 * self.vdd
        crossed = (self.out_levels <= half) if self.out_levels[0] > half else (
            self.out_levels >= half)
        idx = int(np.argmax(crossed)) if bool(crossed.any()) else len(crossed) - 1
        return float(self.voltages[idx])

    def settle_duration_after_commit(self, tolerance: float = 0.05) -> float:
        """Noiseless time from the output's 0.5·Vdd crossing to settling.

        The causal mask declares the output settled this long after the
        commit instant.  Returns the tail of the critical region when
        output samples were not recorded.
        """
        if self.out_levels is None:
            return 0.5 * (self.region[1] - self.region[0])
        half = 0.5 * self.vdd
        final = float(self.out_levels[-1])
        crossed = (self.out_levels <= half) if self.out_levels[0] > half else (
            self.out_levels >= half)
        i_commit = int(np.argmax(crossed)) if bool(crossed.any()) else len(crossed) - 1
        done = np.abs(self.out_levels - final) <= tolerance * self.vdd
        done[: i_commit + 1] = False
        i_done = int(np.argmax(done)) if bool(done.any()) else len(done) - 1
        return float(self.times[i_done] - self.times[i_commit])


def _savgol3(x: np.ndarray, window: int) -> np.ndarray:
    """SciPy's ``savgol_filter(x, window, 3)`` in NumPy: least-squares cubic
    smoothing, and cubics fitted to the first/last window at the edges."""
    x = np.asarray(x, dtype=np.float64)
    n, half = x.size, window // 2
    require(window % 2 == 1 and 5 <= window <= n,
            "Savitzky–Golay window must be odd, at least 5 and at most len(x)")
    offsets = np.arange(-half, half + 1, dtype=np.float64)
    coeffs = np.linalg.pinv(offsets[:, None] ** np.arange(4))[0]
    y = np.convolve(x, coeffs[::-1], mode="same")
    k = np.arange(window, dtype=np.float64)
    y[:half] = np.polyval(np.polyfit(k, x[:window], 3), k[:half])
    y[n - half:] = np.polyval(np.polyfit(k, x[n - window:], 3), k[window - half:])
    return y


def compute_sensitivity(
    v_in_noiseless: Waveform,
    v_out_noiseless: Waveform,
    vdd: float,
    n_samples: int = 512,
    require_overlap: bool = True,
) -> SensitivityMap:
    """Equation 1: ρ(t) = (dv_out/dt) / (dv_in/dt) on the noiseless pair.

    Parameters
    ----------
    v_in_noiseless, v_out_noiseless:
        The gate's noiseless input and the resulting output, on a common
        absolute time axis.
    vdd:
        Supply voltage (defines the 0.1/0.9 critical region).
    n_samples:
        Resolution of the internal uniform sampling of the critical region.
    require_overlap:
        When ``True`` (default), raise
        :class:`NonOverlappingTransitionsError` if the transitions do not
        overlap — mirroring the validity condition the paper states for
        WLS5.  SGDP's δ-shift path sets this ``False`` after aligning.

    Returns
    -------
    SensitivityMap
    """
    require(vdd > 0, "vdd must be positive")
    pol = v_in_noiseless.polarity()
    require(pol != TransitionPolarity.FLAT, "noiseless input does not transition")
    if require_overlap and not v_in_noiseless.overlaps(v_out_noiseless, vdd):
        raise NonOverlappingTransitionsError(
            "noiseless input and output transitions do not overlap; "
            "apply the SGDP δ-shift or use a technique that does not need ρ"
        )

    t0, t1 = v_in_noiseless.critical_region(vdd)
    times = np.linspace(t0, t1, n_samples)
    vin = np.asarray(v_in_noiseless(times))
    vout = np.asarray(v_out_noiseless(times))
    # Savitzky–Golay smoothing before differentiating: the waveforms come
    # from a discrete-step simulator, and ρ is a ratio of derivatives, so
    # raw finite differences make dρ/dv (needed by SGDP's second-order
    # term) uselessly noisy.  The filter is NumPy, so ρ loads no SciPy.
    window = max(5, (n_samples // 16) | 1)
    vin_s = _savgol3(vin, window)
    vout_s = _savgol3(vout, window)
    din = np.gradient(vin_s, times)
    dout = np.gradient(vout_s, times)

    # Guard the denominator: inside the critical region of a real
    # (simulated) ramp the input derivative can only approach zero near
    # the edges; floor it at 0.1% of its peak to keep ρ bounded.
    peak = float(np.max(np.abs(din)))
    require(peak > 0, "noiseless input is flat inside its critical region")
    floor = 1e-3 * peak
    din_safe = np.where(np.abs(din) < floor, np.sign(din) * floor + (din == 0) * floor, din)
    rho = _savgol3(dout / din_safe, window)

    # Enforce a strictly monotone voltage grid for the by-voltage view
    # (simulation noise can leave micro-wiggles).
    if pol == TransitionPolarity.RISING:
        v_monotone = np.maximum.accumulate(vin)
        input_rising = True
    else:
        v_monotone = np.minimum.accumulate(vin)
        input_rising = False
    # Break exact ties so np.interp sees strictly increasing abscissae.
    tie_break = np.arange(n_samples) * (1e-12 * vdd)
    v_monotone = v_monotone + (tie_break if input_rising else -tie_break)

    return SensitivityMap(
        times=times,
        rho=rho,
        voltages=v_monotone,
        region=(t0, t1),
        vdd=vdd,
        input_rising=input_rising,
        out_levels=vout,
    )
