"""A from-scratch nonlinear circuit simulator (the paper's Hspice stand-in).

Public surface:

* :class:`~repro.circuit.netlist.Circuit` — netlist builder
* :class:`~repro.circuit.transient.TransientJob` — one trapezoidal/Newton
  transient analysis (:meth:`~repro.circuit.transient.TransientJob.run`)
* :func:`~repro.circuit.transient.simulate_transient_many` — batched
  transient analysis over stacked matrices: a list of
  :class:`~repro.circuit.transient.TransientJob` (many stimuli, one
  Newton loop per topology)
* :func:`~repro.circuit.dc.dc_operating_point` /
  :func:`~repro.circuit.dc.dc_operating_point_batch` — DC solves with gmin
  stepping (stacked over topology-sharing variants in the batch form)
* Pluggable linear-solver backends (:mod:`repro.circuit.solvers`):
  dense LU, banded/(block-)tridiagonal Thomas, sparse LU — selected per
  topology from the MNA sparsity pattern; MOSFET circuits run dense
  Newton or, on gate-plus-interconnect topologies, the block-bordered
  banded Schur kernel
* Source functions (:class:`Dc`, :class:`Pwl`, :class:`RampSource`, …)
* MOSFET parameter sets (:data:`NMOS_013`, :data:`PMOS_013`) and the one
  vectorised device evaluator :func:`mosfet_eval` (a scalar operating
  point is a batch of one)
"""

from .dc import (DcConvergenceError, DcResult, dc_operating_point,
                 dc_operating_point_batch)
from .elements import Capacitor, CurrentSource, Mosfet, Resistor, VoltageSource
from .mna import MnaSystem
from .mosfet import MosfetParams, NMOS_013, PMOS_013, mosfet_eval
from .netlist import Circuit, GROUND
from .solvers import BACKENDS, MatrixStructure, analyze_pattern, select_backend
from .sources import Dc, Pwl, PulseSource, RampSource, SourceFunction, WaveformSource
from .transient import (
    ConvergenceError,
    TransientJob,
    TransientOptions,
    TransientResult,
    simulate_transient_many,
)

__all__ = [
    "Circuit",
    "GROUND",
    "MnaSystem",
    "MosfetParams",
    "NMOS_013",
    "PMOS_013",
    "mosfet_eval",
    "Resistor",
    "Capacitor",
    "VoltageSource",
    "CurrentSource",
    "Mosfet",
    "Dc",
    "Pwl",
    "RampSource",
    "PulseSource",
    "WaveformSource",
    "SourceFunction",
    "simulate_transient_many",
    "TransientJob",
    "TransientResult",
    "TransientOptions",
    "ConvergenceError",
    "dc_operating_point",
    "dc_operating_point_batch",
    "DcResult",
    "DcConvergenceError",
    "BACKENDS",
    "MatrixStructure",
    "analyze_pattern",
    "select_backend",
]
