"""Synthetic-waveform builders, golden-grid comparison utilities, the
characterisation-point response and the Monte-Carlo block seam shared
across the test suite."""

from __future__ import annotations

import random

import numpy as np

import repro.sta.statistical as statistical
from repro.core.propagation import GateFixture
from repro.core.waveform import Waveform
from repro.library.characterize import _input_ramp, _settle_window

VDD = 1.2


def max_node_deviation(golden, other, nodes=None) -> float:
    """Worst |ΔV| between two transient results on a common axis.

    Resamples ``other`` onto the golden result's time axis (linear
    interpolation, the semantics both results' waveforms carry), so
    adaptive non-uniform grids compare directly against fixed golden
    grids.  ``nodes`` restricts the comparison (default: every node).
    """
    worst = 0.0
    for node in (nodes if nodes is not None else golden.node_names):
        dv = np.abs(other.voltages_at(node, golden.times)
                    - golden.voltage_samples(node))
        worst = max(worst, float(dv.max()))
    return worst


def characterisation_response(cell, slew: float, load: float,
                              input_rising: bool, dt: float):
    """:class:`GateFixture` response of one characterisation point: the
    ramp and settle window :func:`characterize_cell` simulates."""
    t_ramp, t_stop = _settle_window(cell, slew, load)
    return GateFixture(cell, extra_load=load, dt=dt).response(
        _input_ramp(cell, slew, t_ramp, input_rising), (0.0, t_stop))


def sigmoid_edge(t50: float, slew: float, vdd: float = VDD, rising: bool = True,
                 t_start: float | None = None, t_end: float | None = None,
                 n: int = 801) -> Waveform:
    """A smooth tanh edge with given 50% crossing and 10-90% slew.

    tanh hits +/-0.8 (the 10/90 levels) at +/-1.0986 normalised units,
    which fixes the time scale exactly, so ``slew`` is met analytically.
    """
    scale = slew / (2.0 * np.arctanh(0.8))
    lo = t50 - 6.0 * scale if t_start is None else t_start
    hi = t50 + 6.0 * scale if t_end is None else t_end
    t = np.linspace(lo, hi, n)
    v = 0.5 * vdd * (1.0 + np.tanh((t - t50) / scale))
    if not rising:
        v = vdd - v
    return Waveform(t, v)


def bumped_edge(t50: float, slew: float, bump_at: float, bump_height: float,
                bump_width: float, vdd: float = VDD, n: int = 1601,
                t_start: float | None = None, t_end: float | None = None) -> Waveform:
    """A rising tanh edge with a Gaussian crosstalk bump added."""
    base = sigmoid_edge(t50, slew, vdd, True,
                        t_start=t_start if t_start is not None else t50 - 8 * slew,
                        t_end=t_end if t_end is not None else t50 + 8 * slew, n=n)
    t = base.times
    bump = bump_height * np.exp(-0.5 * ((t - bump_at) / bump_width) ** 2)
    return Waveform(t, np.clip(base.values + bump, -0.3 * vdd, 1.3 * vdd))


def synthetic_gate_pair(t50: float = 1.0e-9, slew: float = 200e-12,
                        delay: float = 60e-12, vdd: float = VDD
                        ) -> tuple[Waveform, Waveform]:
    """An analytic (input, output) pair for an inverting gate.

    Output is a falling edge, slightly faster, delayed by ``delay`` -- it
    overlaps the input, so the sensitivity is well defined.
    """
    v_in = sigmoid_edge(t50, slew, vdd, rising=True,
                        t_start=t50 - 5 * slew, t_end=t50 + 5 * slew)
    v_out = sigmoid_edge(t50 + delay, 0.8 * slew, vdd, rising=False,
                         t_start=t50 - 5 * slew, t_end=t50 + 5 * slew)
    return v_in, v_out


def seeded_mutations(text: str, seed: int, punct: str, count: int = 2000):
    """Yield ``count`` seeded byte-level mutants of ``text``.

    Each applies one to three edits: a span deletion (1-8 characters),
    one inserted character from ``punct``, or a spliced copy of another
    span (1-40 characters).  A parser fed these must either accept the
    text or raise its declared error.
    """
    rng = random.Random(seed)

    def mutate(s: str) -> str:
        i = rng.randrange(len(s) + 1)
        kind = rng.randrange(3)
        if kind == 0:
            return s[:i] + s[i + rng.randint(1, 8):]
        if kind == 1:
            return s[:i] + rng.choice(punct) + s[i:]
        j = rng.randrange(len(s))
        return s[:i] + s[j:j + rng.randint(1, 40)] + s[i:]

    for _ in range(count):
        mutant = text
        for _ in range(rng.randint(1, 3)):
            mutant = mutate(mutant)
        yield mutant


def pin_block(monkeypatch, size: int) -> None:
    """Cut Monte-Carlo SSTA sweeps into blocks of ``size`` samples for the
    rest of the test: with a zero byte budget the ``_BLOCK`` floor is
    every block's size, whatever the design."""
    monkeypatch.setattr(statistical, "_BLOCK_BYTES", 0)
    monkeypatch.setattr(statistical, "_BLOCK", size)
