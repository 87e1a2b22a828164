"""A smoothed level-1 (Shichman–Hodges) MOSFET model with analytic derivatives.

The golden reference in the paper is Hspice with a foundry 0.13 µm library;
here the device physics only needs to provide the *qualitative* nonlinear
switching behaviour of CMOS gates (threshold, triode/saturation, drive
strength scaling with W/L).  The classic square-law model with
channel-length modulation does that, and a C∞ smoothing of the
``max(vgs - vth, 0)`` overdrive keeps Newton–Raphson happy.

All evaluation is vectorised over devices so the transient loop costs one
NumPy pass per Newton iteration regardless of device count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._util import require

__all__ = ["MosfetParams", "NMOS_013", "PMOS_013", "SMOOTH_EPS",
           "mosfet_eval", "square_law"]

#: Overdrive smoothing width in volts; small enough not to disturb the
#: strong-inversion region, large enough for smooth Newton convergence.
SMOOTH_EPS = 0.02


@dataclass(frozen=True)
class MosfetParams:
    """Electrical parameters of a square-law MOSFET.

    Attributes
    ----------
    polarity:
        ``+1`` for NMOS, ``-1`` for PMOS.
    kp:
        Process transconductance ``µ·Cox`` in A/V².
    vth:
        Threshold voltage *magnitude* in volts.
    lam:
        Channel-length modulation coefficient in 1/V.
    cox:
        Gate-oxide capacitance per area, F/m² (used for gate capacitance).
    cj:
        Junction capacitance per drain width, F/m (used for drain loading).
    """

    polarity: int
    kp: float
    vth: float
    lam: float
    cox: float
    cj: float

    def __post_init__(self) -> None:
        require(self.polarity in (1, -1), "polarity must be +1 (NMOS) or -1 (PMOS)")
        require(self.kp > 0.0, "kp must be positive")
        require(self.vth > 0.0, "vth magnitude must be positive")
        require(self.lam >= 0.0, "lambda must be non-negative")

    def beta(self, w: float, length: float) -> float:
        """Device transconductance factor ``kp · W / L``."""
        require(w > 0 and length > 0, "W and L must be positive")
        return self.kp * w / length

    def gate_capacitance(self, w: float, length: float) -> float:
        """Total (simplified) gate capacitance ``Cox · W · L``."""
        return self.cox * w * length

    def drain_capacitance(self, w: float) -> float:
        """Drain junction capacitance ``cj · W``."""
        return self.cj * w


#: 0.13 µm-class NMOS parameters (substitute for the TSMC library device).
NMOS_013 = MosfetParams(polarity=1, kp=400e-6, vth=0.32, lam=0.06, cox=0.012, cj=0.8e-9)

#: 0.13 µm-class PMOS parameters; kp is half the NMOS value so a 2:1 Wp/Wn
#: inverter has a balanced switching threshold near Vdd/2.
PMOS_013 = MosfetParams(polarity=-1, kp=200e-6, vth=0.32, lam=0.06, cox=0.012, cj=0.8e-9)


def square_law(vgs: np.ndarray, vds: np.ndarray, beta: np.ndarray,
               vth: np.ndarray, lam: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Square-law drain current for ``vds >= 0`` with smooth overdrive.

    Returns
    -------
    (ids, d_ids/d_vgs, d_ids/d_vds) arrays.
    """
    vgst = vgs - vth
    root = np.sqrt(vgst * vgst + 4.0 * SMOOTH_EPS * SMOOTH_EPS)
    vov = 0.5 * (vgst + root)          # smooth max(vgst, 0)
    dvov = 0.5 * (1.0 + vgst / root)   # its derivative w.r.t. vgs

    triode = vds < vov
    # Triode region current and partials w.r.t. (vov, vds).
    id_tri = beta * (vov * vds - 0.5 * vds * vds)
    did_tri_dvov = beta * vds
    did_tri_dvds = beta * (vov - vds)
    # Saturation region.
    id_sat = 0.5 * beta * vov * vov
    did_sat_dvov = beta * vov
    did_sat_dvds = np.zeros_like(vds)

    id0 = np.where(triode, id_tri, id_sat)
    did_dvov = np.where(triode, did_tri_dvov, did_sat_dvov)
    did_dvds0 = np.where(triode, did_tri_dvds, did_sat_dvds)

    clm = 1.0 + lam * vds
    ids = id0 * clm
    gm = did_dvov * dvov * clm
    gds = did_dvds0 * clm + id0 * lam
    return ids, gm, gds


def mosfet_eval(
    vd: np.ndarray,
    vg: np.ndarray,
    vs: np.ndarray,
    polarity: np.ndarray,
    beta: np.ndarray,
    vth: np.ndarray,
    lam: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorised drain current and partial derivatives for a device array.

    Broadcasts over any leading shape — a ``(n_dev,)`` scalar operating
    point and a stacked ``(B, n_dev)`` batch take the identical code
    path (the scalar *is* a batch of one), which is what pins the
    scalar and batched engines to bit-equal device physics.  Handles
    both polarities (PMOS via voltage mirroring) and both drain bias
    signs (``vds < 0`` via source/drain swap — the square-law device is
    symmetric).

    Parameters
    ----------
    vd, vg, vs:
        Terminal voltages per device.
    polarity:
        ``+1`` / ``-1`` per device.
    beta, vth, lam:
        Model parameters per device (``vth`` is the magnitude).

    Returns
    -------
    (ids, d_ids/d_vd, d_ids/d_vg, d_ids/d_vs)
        ``ids`` is the current flowing *into* the drain terminal and out
        of the source terminal.  Derivatives are with respect to the
        original (un-mirrored) node voltages, ready for Jacobian
        stamping.
    """
    pol = polarity.astype(np.float64)
    # Mirror PMOS into the NMOS frame: all voltages negated.
    vdp = pol * vd
    vgp = pol * vg
    vsp = pol * vs

    vds = vdp - vsp
    swap = vds < 0.0
    # In the swapped frame the physical source is the drain terminal.
    vgs_n = np.where(swap, vgp - vdp, vgp - vsp)
    vds_n = np.abs(vds)

    ids_n, gm_n, gds_n = square_law(vgs_n, vds_n, beta, vth, lam)

    # Partials w.r.t. the primed (mirrored) terminal voltages.
    # Normal frame:  d/dvg = gm, d/dvd = gds, d/dvs = -(gm + gds).
    # Swapped frame: current reverses and roles of d/s exchange.
    did_dvd = np.where(swap, gm_n + gds_n, gds_n)
    did_dvg = np.where(swap, -gm_n, gm_n)
    did_dvs = np.where(swap, -gds_n, -(gm_n + gds_n))
    ids = np.where(swap, -ids_n, ids_n)

    # Un-mirror: ids_actual = pol * ids(primed); d/dv = pol * d/dv' * pol = d/dv'.
    return pol * ids, did_dvd, did_dvg, did_dvs
