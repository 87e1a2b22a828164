"""Non-linear delay model (NLDM) lookup tables.

Conventional STA — the baseline the paper improves on — characterises each
timing arc as 2-D tables of delay and output transition indexed by (input
slew, output load).  This module provides the table type with the bilinear
interpolation / linear extrapolation semantics commercial tools use, plus
the grouping of tables into timing arcs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._util import as_float_array, is_strictly_increasing, require

__all__ = ["NldmTable", "TimingArc"]


def _bracket(grid: np.ndarray, x):
    """Index ``i`` and fraction ``f`` such that ``x ≈ grid[i]·(1-f) + grid[i+1]·f``.

    Out-of-range ``x`` extrapolates linearly from the boundary cell, the
    standard NLDM convention.  A scalar ``x`` gives ``(int, float)``; an
    array gives elementwise index and fraction arrays of its shape.
    """
    if grid.size == 1:
        return 0, 0.0
    i = np.clip(np.searchsorted(grid, x) - 1, 0, grid.size - 2)
    f = (x - grid[i]) / (grid[i + 1] - grid[i])
    if np.ndim(f) == 0:
        return int(i), float(f)
    return i, f


def interpolate(input_slews: np.ndarray, loads: np.ndarray,
                values: np.ndarray, input_slew, load, scale=1.0, rows=0):
    """:meth:`NldmTable.lookup` on tables ``values[rows]`` of one grid.

    ``values`` stacks tables ``(k, slews, loads)``; ``rows`` picks the
    table of each lookup (an index, or index arrays that broadcast
    against the bracketed slews and loads).  Every entry is multiplied by
    ``scale`` before it is interpolated.
    """
    i, fi = _bracket(input_slews, input_slew)
    j, fj = _bracket(loads, load)
    v, r = values, rows
    if input_slews.size == 1 and loads.size == 1:
        return v[r, 0, 0] * scale
    if input_slews.size == 1:
        return v[r, 0, j] * scale * (1 - fj) + v[r, 0, j + 1] * scale * fj
    if loads.size == 1:
        return v[r, i, 0] * scale * (1 - fi) + v[r, i + 1, 0] * scale * fi
    gi, gj = 1 - fi, 1 - fj
    return (v[r, i, j] * scale * gi * gj + v[r, i + 1, j] * scale * fi * gj
            + v[r, i, j + 1] * scale * gi * fj
            + v[r, i + 1, j + 1] * scale * fi * fj)


@dataclass(frozen=True)
class NldmTable:
    """A 2-D characterisation table ``values[slew_index, load_index]``.

    Attributes
    ----------
    input_slews:
        Strictly increasing index-1 grid (seconds).
    loads:
        Strictly increasing index-2 grid (farads).
    values:
        Table payload (seconds), shape ``(len(input_slews), len(loads))``.
    """

    input_slews: np.ndarray
    loads: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "input_slews", as_float_array(self.input_slews, "input_slews"))
        object.__setattr__(self, "loads", as_float_array(self.loads, "loads"))
        vals = np.asarray(self.values, dtype=np.float64)
        require(vals.shape == (self.input_slews.size, self.loads.size),
                f"values shape {vals.shape} does not match grids "
                f"({self.input_slews.size}, {self.loads.size})")
        require(is_strictly_increasing(self.input_slews), "input_slews must increase")
        require(is_strictly_increasing(self.loads), "loads must increase")
        require(bool(np.all(np.isfinite(vals))), "table values must be finite")
        object.__setattr__(self, "values", vals)

    def lookup(self, input_slew, load, scale=1.0):
        """Bilinear interpolation (linear extrapolation outside the grid).

        ``scale`` multiplies the table entries before they are
        interpolated, so ``lookup(s, l, f)`` is bit-for-bit
        ``map_values(lambda v: v * f).lookup(s, l)`` without building the
        scaled table.  Broadcasts: ``input_slew``, ``load`` and ``scale``
        may be arrays of one shape (one lookup per element, e.g. per
        Monte-Carlo sample); all-scalar arguments return a ``float``.
        """
        out = interpolate(self.input_slews, self.loads, self.values[None],
                          input_slew, load, scale)
        return float(out) if np.ndim(out) == 0 else out

    def map_values(self, func) -> "NldmTable":
        """Return a new table with ``func`` applied elementwise to values."""
        return NldmTable(self.input_slews, self.loads, func(self.values.copy()))


@dataclass(frozen=True)
class TimingArc:
    """A characterised input→output arc of a cell.

    For an inverting arc, ``cell_rise`` is the delay from the *falling*
    input to the rising output (Liberty convention: tables are named after
    the output transition).

    Attributes
    ----------
    related_pin / output_pin:
        Pin names of the arc.
    inverting:
        ``True`` for a negative-unate arc (an inverter).
    cell_rise, cell_fall:
        Delay tables (input 50% to output 50%).
    rise_transition, fall_transition:
        Output slew tables (10–90%).
    """

    related_pin: str
    output_pin: str
    inverting: bool
    cell_rise: NldmTable
    cell_fall: NldmTable
    rise_transition: NldmTable
    fall_transition: NldmTable

    def delay_and_slew(self, input_slew, load, input_rising: bool,
                       scale=1.0) -> tuple:
        """Propagate (slew, load) through the arc.

        ``scale`` is the delay-and-slew factor of :meth:`scaled`, applied
        per lookup (see :meth:`NldmTable.lookup`); slew, load and scale
        broadcast as arrays.

        Returns
        -------
        (delay, output_slew, output_rising)
        """
        output_rising = (not input_rising) if self.inverting else input_rising
        if output_rising:
            return (self.cell_rise.lookup(input_slew, load, scale),
                    self.rise_transition.lookup(input_slew, load, scale),
                    True)
        return (self.cell_fall.lookup(input_slew, load, scale),
                self.fall_transition.lookup(input_slew, load, scale),
                False)

    def scaled(self, delay_factor: float,
               slew_factor: float | None = None) -> "TimingArc":
        """A new arc with delays (and slews) multiplied by a factor.

        This is the process-variation hook: Monte-Carlo statistical STA
        draws a per-sample ``delay_factor`` and rebuilds every table via
        :meth:`NldmTable.map_values`.  ``slew_factor`` defaults to
        ``delay_factor`` (slews stretch with the same device slowdown).
        """
        require(delay_factor > 0, "delay_factor must be positive")
        sf = delay_factor if slew_factor is None else slew_factor
        require(sf > 0, "slew_factor must be positive")
        return TimingArc(
            related_pin=self.related_pin,
            output_pin=self.output_pin,
            inverting=self.inverting,
            cell_rise=self.cell_rise.map_values(lambda v: v * delay_factor),
            cell_fall=self.cell_fall.map_values(lambda v: v * delay_factor),
            rise_transition=self.rise_transition.map_values(lambda v: v * sf),
            fall_transition=self.fall_transition.map_values(lambda v: v * sf),
        )
