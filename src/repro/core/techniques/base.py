"""Shared machinery of the equivalent-waveform techniques.

Every technique consumes the same inputs — the noisy waveform at the gate
input plus (for the sensitivity-aware ones) the gate's *noiseless*
input/output pair — and produces a
:class:`~repro.core.ramp.SaturatedRamp` Γ_eff.  This module defines that
interface, the shared sampling conventions (the paper's ``P`` sampling
points), the weighted line-fit primitive, and the technique registry.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from ..._util import require
from ..ramp import SaturatedRamp
from ..sensitivity import SensitivityMap, compute_sensitivity
from ..waveform import TransitionPolarity, Waveform

__all__ = [
    "PropagationInputs",
    "Technique",
    "TechniqueError",
    "DegenerateFitError",
    "TechniqueNotApplicableError",
    "fit_line_weighted",
    "register_technique",
    "technique_by_name",
    "registered_technique_names",
    "DEFAULT_SAMPLE_COUNT",
]

#: The paper's default number of sampling points (P = 35, §4.2).
DEFAULT_SAMPLE_COUNT = 35


class TechniqueError(RuntimeError):
    """Base class for technique failures."""


class DegenerateFitError(TechniqueError):
    """The fit produced no usable ramp (zero weights, wrong-signed slope…)."""


class TechniqueNotApplicableError(TechniqueError):
    """The technique's validity conditions are not met (e.g. WLS5 on
    non-overlapping input/output transitions)."""


@dataclass
class PropagationInputs:
    """Everything a technique may look at when building Γ_eff.

    Attributes
    ----------
    v_in_noisy:
        The noisy waveform arriving at the gate input (far end of the
        interconnect), on an absolute time axis.
    vdd:
        Supply voltage.
    v_in_noiseless, v_out_noiseless:
        The gate's noiseless input and resulting output on the same time
        axis — available from conventional library characterisation, as
        the paper emphasises.  Required by P1, WLS5 and SGDP.
    n_samples:
        The number of sampling points P.
    """

    v_in_noisy: Waveform
    vdd: float
    v_in_noiseless: Waveform | None = None
    v_out_noiseless: Waveform | None = None
    n_samples: int = DEFAULT_SAMPLE_COUNT
    _sensitivity: SensitivityMap | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        require(self.vdd > 0, "vdd must be positive")
        require(self.n_samples >= 4, "need at least 4 sampling points")

    # ------------------------------------------------------------------
    @property
    def rising(self) -> bool:
        """Direction of the noisy transition."""
        pol = self.v_in_noisy.polarity()
        require(pol != TransitionPolarity.FLAT, "noisy input does not transition")
        return pol == TransitionPolarity.RISING

    def require_noiseless(self, technique: str) -> tuple[Waveform, Waveform]:
        """Return the noiseless pair or raise a helpful error."""
        if self.v_in_noiseless is None or self.v_out_noiseless is None:
            raise TechniqueNotApplicableError(
                f"{technique} needs the noiseless input/output waveforms"
            )
        return self.v_in_noiseless, self.v_out_noiseless

    def sensitivity(self) -> SensitivityMap:
        """The noiseless sensitivity map (cached)."""
        if self._sensitivity is None:
            v_in, v_out = self.require_noiseless("sensitivity")
            self._sensitivity = compute_sensitivity(v_in, v_out, self.vdd)
        return self._sensitivity

    # ------------------------------------------------------------------
    def noisy_critical_region(self) -> tuple[float, float]:
        """Sampling window over the noisy waveform's principal transition.

        The paper defines the noisy critical region as first 0.1·Vdd to
        *last* 0.9·Vdd crossing; this implementation clips the end to the
        first 0.9·Vdd crossing after the arrival anchor so post-settling
        crosstalk dips do not drown the transition samples (see
        :meth:`repro.core.waveform.Waveform.principal_critical_region`
        and README "Deviations from the paper").
        """
        return self.v_in_noisy.principal_critical_region(self.vdd)

    def sample_times(self, window: tuple[float, float] | None = None) -> np.ndarray:
        """P uniform sampling instants over ``window`` (default: noisy
        critical region)."""
        t0, t1 = window if window is not None else self.noisy_critical_region()
        require(t1 > t0, "empty sampling window")
        return np.linspace(t0, t1, self.n_samples)

    def anchor_time(self) -> float:
        """Latest 0.5·Vdd crossing of the noisy waveform — the arrival-time
        anchor shared by the point-based and energy-based techniques."""
        return self.v_in_noisy.arrival_time(self.vdd, which="last")


class Technique(ABC):
    """An equivalent-waveform (gate delay propagation) technique."""

    #: Short name as used in the paper's Table 1 (e.g. ``"SGDP"``).
    name: str = "?"

    @abstractmethod
    def equivalent_waveform(self, inputs: PropagationInputs) -> SaturatedRamp:
        """Compute Γ_eff for the given noisy waveform.

        Raises
        ------
        TechniqueError
            When the technique cannot produce a ramp for these inputs.
        """

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<technique {self.name}>"


def fit_line_weighted(
    times: np.ndarray,
    values: np.ndarray,
    weights: np.ndarray | None = None,
) -> tuple[float, float]:
    """Weighted least-squares line fit ``v ≈ a·t + b``.

    Times are centred and scaled internally so the normal equations stay
    well conditioned for nanosecond-scale abscissae.

    Returns
    -------
    (a, b):
        Slope (V/s) and intercept (V, at t = 0).

    Raises
    ------
    DegenerateFitError
        If the weights carry (numerically) no information.
    """
    t = np.asarray(times, dtype=np.float64)
    v = np.asarray(values, dtype=np.float64)
    w = np.ones_like(t) if weights is None else np.asarray(weights, dtype=np.float64)
    require(t.size == v.size == w.size, "inconsistent fit arrays")
    w_sum = float(np.sum(w))
    w_peak = float(np.max(np.abs(w))) if w.size else 0.0
    if not np.isfinite(w_sum) or w_peak <= 0.0 or w_sum < 1e-12 * w_peak:
        raise DegenerateFitError("all fit weights are (numerically) zero")

    t_center = float(np.average(t, weights=None))
    t_scale = max(float(t[-1] - t[0]), 1e-30)
    tau = (t - t_center) / t_scale

    s0 = np.sum(w)
    s1 = np.sum(w * tau)
    s2 = np.sum(w * tau * tau)
    r0 = np.sum(w * v)
    r1 = np.sum(w * tau * v)
    det = s0 * s2 - s1 * s1
    if abs(det) < 1e-14 * max(abs(s0 * s2), 1e-30):
        raise DegenerateFitError("singular normal equations (weights too concentrated)")
    alpha = (s0 * r1 - s1 * r0) / det
    beta = (s2 * r0 - s1 * r1) / det
    a = alpha / t_scale
    b = beta - alpha * t_center / t_scale
    return float(a), float(b)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_REGISTRY: dict[str, type[Technique]] = {}


def register_technique(cls: type[Technique]) -> type[Technique]:
    """Class decorator adding a technique to the global registry."""
    require(cls.name != "?", "technique must define a name")
    require(cls.name not in _REGISTRY, f"duplicate technique {cls.name!r}")
    _REGISTRY[cls.name] = cls
    return cls


def technique_by_name(name: str, **kwargs) -> Technique:
    """Instantiate a registered technique by its paper name."""
    if name not in _REGISTRY:
        raise KeyError(f"unknown technique {name!r}; have {sorted(_REGISTRY)}")
    return _REGISTRY[name](**kwargs)


def registered_technique_names() -> list[str]:
    """All registered technique names, in registration order."""
    return list(_REGISTRY)
