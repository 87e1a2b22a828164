"""SGDP — Sensitivity-based Gate Delay Propagation (paper §3).

The proposed technique.  Three steps:

1. **ρ_noiseless** (same as WLS5, Eq. 1): the derivative of the gate output
   with respect to its input along the noiseless transition.
2. **ρ_eff** — remap ρ to the *noisy* waveform **by voltage level**: at
   every sampling instant in the noisy critical region, ρ_eff takes the
   value ρ_noiseless had at the same input voltage.  Distortion is
   weighted wherever it occurs, not only inside the noiseless time window.
3. **Γ_eff** — minimise an estimate of the *output* error (Eq. 3, the
   first two Taylor terms of Δv_out in Δv_in)::

       Σ_k [ ρ_eff(t_k)·e_k  +  ½ · (∂ρ_eff/∂v_in)(t_k) · e_k² ]²,
       e_k = v_in_noisy(t_k) − a·t_k − b

   solved here by Levenberg-damped Gauss–Newton, warm-started from the
   ρ_eff²-weighted linear fit (i.e. the problem with the second-order term
   dropped).

For gates whose noiseless input and output transitions do not overlap
(large intrinsic delay, heavy fanout — where WLS5 is undefined), SGDP
first shifts the output back by δ so the two 0.5·Vdd crossings coincide,
runs steps 1–3, and finally shifts the equivalent waveform forward by δ
(``nonoverlap_mode="paper"``).  A literal forward shift makes Γ_eff late
by δ if it is then re-simulated through the *real* gate, so
``nonoverlap_mode="input-frame"`` (the default) omits the final shift;
see README "Deviations from the paper".
"""

from __future__ import annotations

import numpy as np

from ..._util import require
from ..ramp import SaturatedRamp
from ..sensitivity import NonOverlappingTransitionsError, SensitivityMap, compute_sensitivity
from .base import (
    DegenerateFitError,
    PropagationInputs,
    Technique,
    fit_line_weighted,
    register_technique,
)

__all__ = ["Sgdp"]

_NONOVERLAP_MODES = ("input-frame", "paper")


@register_technique
class Sgdp(Technique):
    """Sensitivity-based gate delay propagation (the proposed technique).

    Parameters
    ----------
    nonoverlap_mode:
        ``"input-frame"`` (default) or ``"paper"`` — see the module
        docstring.
    max_iterations:
        Gauss–Newton iteration cap for the Eq. 3 minimisation.
    """

    name = "SGDP"

    def __init__(self, nonoverlap_mode: str = "input-frame", max_iterations: int = 40,
                 causal_mask: bool = True):
        require(nonoverlap_mode in _NONOVERLAP_MODES,
                f"nonoverlap_mode must be one of {_NONOVERLAP_MODES}")
        require(max_iterations >= 1, "need at least one iteration")
        self.nonoverlap_mode = nonoverlap_mode
        self.max_iterations = max_iterations
        self.causal_mask = causal_mask

    # ------------------------------------------------------------------
    def equivalent_waveform(self, inputs: PropagationInputs) -> SaturatedRamp:
        """Run SGDP steps 1–3 (with the δ-shift pre/post step if needed)."""
        sens, delta = self._sensitivity_with_shift(inputs)

        # Step 2: sample the noisy critical region; remap ρ by voltage.
        t = inputs.sample_times()
        v = np.asarray(inputs.v_in_noisy(t))
        rho_eff = np.asarray(sens.rho_at_voltage(v))
        drho_dv = np.asarray(sens.drho_dv_at_voltage(v))
        if self.causal_mask:
            weight = self._output_activity_weight(inputs, sens, t)
            rho_eff = rho_eff * weight
            drho_dv = drho_dv * weight

        # Step 3: minimise Eq. 3.
        a, b = self._minimise_output_error(t, v, rho_eff, drho_dv, inputs)

        ramp = SaturatedRamp(a=a, b=b, vdd=inputs.vdd)
        if delta != 0.0 and self.nonoverlap_mode == "paper":
            ramp = ramp.shifted(delta)
        return ramp

    # ------------------------------------------------------------------
    def _output_activity_weight(self, inputs: PropagationInputs, sens: SensitivityMap,
                                t_query: np.ndarray) -> np.ndarray:
        """Causal validity weight for the quasi-static ρ remap.

        The by-voltage remap of step 2 assumes the gate output is still in
        transition.  Physically, the output *commits* once the input
        passes the level at which the noiseless output crosses 0.5·Vdd,
        and then completes its swing over the noiseless commit→settle
        duration Δ_cs — regardless of whether the input stalls at a
        mid-band voltage.  As the remaining output swing shrinks, so does
        the true sensitivity, which the voltage-indexed ρ_eff cannot see:
        crosstalk that sags the input back to the max-|ρ| band *after*
        commit would otherwise dominate Eq. 3 and pin Γ_eff to a
        near-horizontal line.

        The weight therefore decays exponentially with time after commit
        (first-order gate dynamics, time constant Δ_cs) and the fit is
        re-armed from scratch when the input falls back through 0.5·Vdd —
        a genuine re-switch, where only the final episode determines the
        latest crossings that gate delay is measured between.

        Disable via ``Sgdp(causal_mask=False)`` for the paper-literal
        remap; the ``abl-causal`` benchmark quantifies the difference.
        """
        wave = inputs.v_in_noisy
        rising = inputs.rising
        v_commit = sens.commit_input_voltage()
        tau = max(sens.settle_duration_after_commit(), 1e-12)
        half = 0.5 * inputs.vdd
        times = wave.times
        values = wave.values
        t_commit: float | None = None
        weight = np.ones(values.size)
        for i in range(values.size):
            v = float(values[i])
            t = float(times[i])
            if t_commit is None:
                committed_now = (v >= v_commit) if rising else (v <= v_commit)
                if committed_now:
                    t_commit = t
            else:
                w = float(np.exp(-(t - t_commit) / tau))
                if w < 0.02 and ((v < half) if rising else (v > half)):
                    # Settled output, input back through the threshold:
                    # the gate re-switches and only this final episode
                    # matters for the latest crossings.
                    weight[:i] = 0.0
                    t_commit = None
                    w = 1.0
                weight[i] = w
        return np.interp(t_query, times, weight)

    # ------------------------------------------------------------------
    def _sensitivity_with_shift(
        self, inputs: PropagationInputs
    ) -> tuple[SensitivityMap, float]:
        """Step 1, with the additional δ-shift for non-overlapping pairs.

        Returns the sensitivity map and the applied shift δ (0 when the
        transitions overlap).
        """
        v_in, v_out = inputs.require_noiseless(self.name)
        try:
            return inputs.sensitivity(), 0.0
        except NonOverlappingTransitionsError:
            pass
        delta = (v_out.arrival_time(inputs.vdd, which="last")
                 - v_in.arrival_time(inputs.vdd, which="last"))
        shifted_out = v_out.shifted(-delta)
        sens = compute_sensitivity(v_in, shifted_out, inputs.vdd, require_overlap=False)
        return sens, delta

    # ------------------------------------------------------------------
    def _minimise_output_error(
        self,
        t: np.ndarray,
        v: np.ndarray,
        rho: np.ndarray,
        drho: np.ndarray,
        inputs: PropagationInputs,
    ) -> tuple[float, float]:
        """Levenberg-damped Gauss–Newton on Eq. 3; returns (a, b)."""
        # Warm start: drop the second-order term → ρ²-weighted linear LS.
        weights = rho * rho
        try:
            a0, b0 = fit_line_weighted(t, v, weights)
        except DegenerateFitError:
            a0, b0 = fit_line_weighted(t, v)  # fall back to unweighted

        # Work in centred/scaled time for conditioning.
        tc = float(np.mean(t))
        ts = max(float(t[-1] - t[0]), 1e-30)
        tau = (t - tc) / ts
        alpha = a0 * ts
        beta = b0 + a0 * tc

        # Trust region: Eq. 3 is a *local* (two-term Taylor) model of the
        # output error, so candidates whose 0.5·Vdd crossing drifts out of
        # the sampling neighbourhood, or whose slope flips sign, are
        # spurious minima of the surrogate — reject those steps outright.
        half_v = 0.5 * inputs.vdd
        tau_lo, tau_hi = float(tau[0]) - 0.5, float(tau[-1]) + 0.5
        rising = inputs.rising

        def admissible(al: float, be: float) -> bool:
            if al == 0.0 or (al > 0) != rising:
                return False
            tau_cross = (half_v - be) / al
            return tau_lo <= tau_cross <= tau_hi

        # Effective gain of Eq. 3's residual r = e·(ρ + ½·(dρ/dv)·e).  The
        # Taylor expansion is only trustworthy for small e; at large e the
        # quadratic term can cancel the linear one pointwise, opening a
        # spurious basin where a near-flat line zeroes the surrogate while
        # matching nothing.  Clamping the correction to ±50 % of ρ keeps
        # Eq. 3 exact in its validity region and sign-safe outside it.
        def effective_gain(e: np.ndarray) -> np.ndarray:
            safe_rho = np.where(rho == 0.0, 1.0, rho)
            factor = np.clip(1.0 + 0.5 * drho * e / safe_rho, 0.5, 1.5)
            return np.where(rho == 0.0, 0.0, rho * factor)

        def cost(al: float, be: float) -> float:
            e = v - al * tau - be
            r = effective_gain(e) * e
            return float(r @ r)

        if not admissible(alpha, beta):
            # The weighted warm start degenerated (heavy re-crossing noise
            # can pull the ρ²-weighted line almost flat).  Cascade to
            # better-behaved initialisers inside the admissible basin: the
            # unweighted fit, then the anchored construction (latest
            # 0.5·Vdd crossing with the noisy-extent slew, i.e. P2's ramp).
            candidates: list[tuple[float, float]] = []
            try:
                candidates.append(fit_line_weighted(t, v))
            except DegenerateFitError:
                pass
            anchor = inputs.anchor_time()
            slew = inputs.v_in_noisy.slew(inputs.vdd, mode="noisy")
            slope = (0.8 * inputs.vdd / slew) * (1.0 if rising else -1.0)
            candidates.append((slope, half_v - slope * anchor))
            for a_c, b_c in candidates:
                alpha_c = a_c * ts
                beta_c = b_c + a_c * tc
                if admissible(alpha_c, beta_c):
                    alpha, beta = alpha_c, beta_c
                    break
            else:
                raise DegenerateFitError(
                    f"{self.name}: no admissible initial ramp for this waveform"
                )

        lam = 1e-6
        current = cost(alpha, beta)
        for _ in range(self.max_iterations):
            e = v - alpha * tau - beta
            g = effective_gain(e)       # d r / d e with the gain frozen
            # Jacobian: dr/dalpha = -tau * g ; dr/dbeta = -g
            j_a = -tau * g
            j_b = -g
            r = g * e
            jtj = np.array([[j_a @ j_a, j_a @ j_b], [j_a @ j_b, j_b @ j_b]])
            jtr = np.array([j_a @ r, j_b @ r])
            step = None
            for _try in range(8):
                try:
                    step = np.linalg.solve(jtj + lam * np.eye(2) * max(np.trace(jtj), 1e-30),
                                           -jtr)
                except np.linalg.LinAlgError:
                    lam *= 10.0
                    continue
                cand = (alpha + float(step[0]), beta + float(step[1]))
                if admissible(*cand) and cost(*cand) <= current:
                    alpha, beta = cand
                    current = cost(alpha, beta)
                    lam = max(lam / 4.0, 1e-12)
                    break
                lam *= 10.0
            else:
                break  # no productive step found
            if step is not None and float(np.max(np.abs(step))) < 1e-12:
                break

        a = alpha / ts
        b = beta - alpha * tc / ts
        if (a > 0) != rising or a == 0.0:
            raise DegenerateFitError(
                f"{self.name}: fitted slope {a:.3e} V/s contradicts the transition"
            )
        return a, b
