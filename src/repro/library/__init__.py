"""Standard-cell substrate: inverter cells, NLDM characterisation by
simulation (gate-fixture jobs through :func:`repro.exec.run_jobs`), and
Liberty import/export."""

from .cells import (
    InverterCell,
    STANDARD_DRIVES,
    VDD_DEFAULT,
    make_inverter,
    standard_cell,
    standard_cells,
)
from .characterize import (
    CharacterizedCell,
    characterize_cell,
    default_load_grid,
    default_slew_grid,
)
from .liberty import LibertyGroup, LibertyParseError, parse_liberty, write_liberty
from .nldm import NldmTable, TimingArc

__all__ = [
    "InverterCell",
    "VDD_DEFAULT",
    "STANDARD_DRIVES",
    "make_inverter",
    "standard_cell",
    "standard_cells",
    "characterize_cell",
    "CharacterizedCell",
    "default_slew_grid",
    "default_load_grid",
    "NldmTable",
    "TimingArc",
    "write_liberty",
    "parse_liberty",
    "LibertyGroup",
    "LibertyParseError",
]
