"""repro — reproduction of "Modeling and Propagation of Noisy Waveforms in
Static Timing Analysis" (Nazarian, Pedram, Tuncer, Lin, Ajami; DATE 2005).

The package implements the paper's SGDP technique together with every
substrate it depends on, all from scratch (each subpackage is imported on
first access, so ``import repro`` alone is cheap):

* :mod:`repro.core` — waveforms, sensitivity (Eq. 1/2/3), the six
  equivalent-waveform techniques (P1, P2, LSF3, E4, WLS5, SGDP), and the
  gate-delay-propagation evaluation harness;
* :mod:`repro.circuit` — a nonlinear MNA transient simulator (the Hspice
  stand-in);
* :mod:`repro.interconnect` — distributed RC lines, capacitive coupling,
  Elmore delays;
* :mod:`repro.library` — CMOS inverter cells, NLDM characterisation by
  simulation, Liberty I/O;
* :mod:`repro.sta` — a gate-level STA engine with a noise-aware
  equivalent-waveform propagation mode;
* :mod:`repro.experiments` — the Figure 1 testbench and one harness per
  paper artifact (Table 1, §4.2 run-times, Figure 2) plus ablations;
* :mod:`repro.exec` (alias ``repro.exec_``) — the execution layer:
  process-pool sharding of independent simulations and a content-keyed
  on-disk result store (``REPRO_WORKERS`` / ``REPRO_STORE`` knobs).

Quickstart::

    from repro.experiments import CONFIG_I, run_table1
    print(run_table1(CONFIG_I, n_cases=10).format())
"""

import importlib

__version__ = "1.1.0"

__all__ = ["core", "circuit", "interconnect", "library", "sta", "experiments",
           "exec_", "__version__"]
_SUBPACKAGES = (*__all__[:-1], "exec")  # all but __version__


def __getattr__(name: str):
    """Import a subpackage on first access (PEP 562)."""
    if name not in _SUBPACKAGES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module("." + name.rstrip("_"), __name__)
    globals()[name] = module
    return module
