"""SDF (Standard Delay Format) back-annotation.

:func:`read_sdf` parses the SDF subset that gate-level timing consumes —
``DELAYFILE`` header, ``TIMESCALE``, per-cell ``IOPATH`` arcs and
top-level ``INTERCONNECT`` wire delays, all with ``min:typ:max`` triples
— into an :class:`SdfDelays` index.  :class:`SdfEngine` then runs the
full per-arc STA machinery of :class:`~repro.sta.analysis.StaEngine`
(arrivals, per-edge required times, critical paths) with every delay
taken from the annotation instead of NLDM table lookups:

* the ``IOPATH`` delay is selected by the *output* edge (SDF convention:
  first triple = output rise, second = output fall),
* the ``INTERCONNECT`` delay from the driver's output port to the
  consuming input pin is selected by the *input* edge travelling the
  wire and added on the input side of the arc,
* slews pass through unchanged (SDF carries no transition times).

Unknown constructs inside ``DELAY (ABSOLUTE ...)`` are skipped;
structural problems — missing annotation for an arc the netlist needs,
malformed triples — raise :class:`SdfError`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .._util import require
from ..library.characterize import CharacterizedCell
from .analysis import StaEngine
from .graph import TimingGraph
from .netlist import GateInstance

__all__ = ["SdfTriple", "SdfDelays", "SdfError", "read_sdf", "SdfEngine"]

_CORNERS = ("min", "typ", "max")


class SdfError(ValueError):
    """Raised on malformed SDF input or missing annotation."""


@dataclass(frozen=True)
class SdfTriple:
    """A ``min:typ:max`` delay triple (seconds)."""

    min: float
    typ: float
    max: float

    def pick(self, corner: str) -> float:
        """The value at ``corner`` (``"min"``/``"typ"``/``"max"``)."""
        require(corner in _CORNERS, f"bad corner {corner!r} (use {_CORNERS})")
        return getattr(self, corner)


@dataclass
class SdfDelays:
    """Parsed SDF annotation.

    ``iopaths`` maps ``(instance, in_pin, out_pin)`` to the
    ``(output-rise, output-fall)`` triples; ``interconnects`` maps
    ``(from_port, to_port)`` — ports written ``inst/PIN`` — to the
    ``(rising-edge, falling-edge)`` wire-delay triples.
    """

    design: str = ""
    timescale: float = 1e-9
    iopaths: dict[tuple[str, str, str], tuple[SdfTriple, SdfTriple]] = \
        field(default_factory=dict)
    interconnects: dict[tuple[str, str], tuple[SdfTriple, SdfTriple]] = \
        field(default_factory=dict)

    def iopath(self, instance: str, in_pin: str, out_pin: str) \
            -> tuple[SdfTriple, SdfTriple]:
        """The (rise, fall) triples of one cell arc.

        Raises
        ------
        SdfError
            When the arc is not annotated — silently timing an
            unannotated arc as zero would corrupt every downstream slack.
        """
        key = (instance, in_pin, out_pin)
        if key not in self.iopaths:
            raise SdfError(
                f"no IOPATH annotation for {instance}/{in_pin}->{out_pin} "
                f"(have {sorted(self.iopaths)})")
        return self.iopaths[key]


# ----------------------------------------------------------------------
# S-expression reader
# ----------------------------------------------------------------------
_SDF_TOKEN_RE = re.compile(
    r"""
    \s+                       # whitespace (skipped)
    | //[^\n]*                # line comment (skipped)
    | (?P<string>"[^"]*")
    | (?P<paren>[()])
    | (?P<atom>[^\s()"]+)
    """,
    re.VERBOSE,
)


def _sdf_tokens(text: str) -> list[str]:
    tokens: list[str] = []
    pos = 0
    while pos < len(text):
        m = _SDF_TOKEN_RE.match(text, pos)
        if m is None:
            raise SdfError(f"unexpected character at offset {pos}: {text[pos]!r}")
        pos = m.end()
        if m.lastgroup is not None:
            tokens.append(m.group())
    return tokens


#: Deepest parenthesis nesting :func:`read_sdf` accepts.  The subset it
#: reads nests six levels (DELAYFILE > CELL > DELAY > ABSOLUTE > IOPATH >
#: triple); the bound keeps a hostile input from exhausting the stack.
_MAX_NESTING = 64


def _read_sexpr(tokens: list[str], i: int, depth: int = 1) -> tuple[list, int]:
    """Parse one parenthesised expression starting at ``tokens[i] == '('``."""
    if tokens[i] != "(":
        raise SdfError(f"expected '(', got {tokens[i]!r}")
    if depth > _MAX_NESTING:
        raise SdfError(f"parentheses nest deeper than {_MAX_NESTING} levels")
    i += 1
    items: list = []
    while i < len(tokens):
        tok = tokens[i]
        if tok == ")":
            return items, i + 1
        if tok == "(":
            sub, i = _read_sexpr(tokens, i, depth + 1)
            items.append(sub)
        else:
            items.append(tok[1:-1] if tok.startswith('"') else tok)
            i += 1
    raise SdfError("unbalanced parentheses")


_TIMESCALE_UNITS = {"s": 1.0, "ms": 1e-3, "us": 1e-6, "ns": 1e-9,
                    "ps": 1e-12, "fs": 1e-15}


def _parse_timescale(items: list) -> float:
    """``(TIMESCALE 1ns)`` or ``(TIMESCALE 100 ps)`` → seconds."""
    text = "".join(str(x) for x in items[1:])
    m = re.fullmatch(r"([\d.]+)\s*([a-z]+)", text)
    if m is None or m.group(2) not in _TIMESCALE_UNITS:
        raise SdfError(f"cannot parse TIMESCALE {text!r}")
    return float(m.group(1)) * _TIMESCALE_UNITS[m.group(2)]


def _parse_triple(expr, timescale: float, context: str) -> SdfTriple:
    """``(a:b:c)`` or ``(v)`` → :class:`SdfTriple` in seconds."""
    if not isinstance(expr, list) or len(expr) != 1:
        raise SdfError(f"{context}: expected a (min:typ:max) triple, got {expr!r}")
    parts = str(expr[0]).split(":")
    try:
        if len(parts) == 1:
            v = float(parts[0]) * timescale
            return SdfTriple(v, v, v)
        if len(parts) == 3:
            lo, ty, hi = (float(p) * timescale for p in parts)
            return SdfTriple(lo, ty, hi)
    except ValueError:
        pass
    raise SdfError(f"{context}: malformed delay triple {expr[0]!r}")


def _edge_pair(values: list, timescale: float,
               context: str) -> tuple[SdfTriple, SdfTriple]:
    """One or two triples → (first-edge, second-edge); one serves both."""
    if len(values) == 1:
        t = _parse_triple(values[0], timescale, context)
        return t, t
    if len(values) == 2:
        return (_parse_triple(values[0], timescale, context),
                _parse_triple(values[1], timescale, context))
    raise SdfError(f"{context}: expected 1 or 2 delay triples, got {len(values)}")


def read_sdf(text: str) -> SdfDelays:
    """Parse SDF text into an :class:`SdfDelays` annotation index."""
    tokens = _sdf_tokens(text)
    if not tokens:
        raise SdfError("empty SDF input")
    top, end = _read_sexpr(tokens, 0)
    if end != len(tokens):
        raise SdfError("trailing tokens after DELAYFILE")
    if not top or top[0] != "DELAYFILE":
        raise SdfError("expected a (DELAYFILE ...) top-level form")

    delays = SdfDelays()
    for item in top[1:]:
        if not isinstance(item, list) or not item:
            continue
        head = item[0]
        if head == "DESIGN" and len(item) > 1:
            delays.design = str(item[1])
        elif head == "TIMESCALE":
            delays.timescale = _parse_timescale(item)
        elif head == "CELL":
            _read_cell(item, delays)
    return delays


def _read_cell(cell: list, delays: SdfDelays) -> None:
    instance = ""
    for item in cell[1:]:
        if isinstance(item, list) and item and item[0] == "INSTANCE":
            instance = str(item[1]) if len(item) > 1 else ""
    for item in cell[1:]:
        if not (isinstance(item, list) and item and item[0] == "DELAY"):
            continue
        for absolute in item[1:]:
            if not (isinstance(absolute, list) and absolute
                    and absolute[0] == "ABSOLUTE"):
                continue
            for entry in absolute[1:]:
                if not (isinstance(entry, list) and entry):
                    continue
                if entry[0] == "IOPATH":
                    if len(entry) < 4:
                        raise SdfError(f"malformed IOPATH entry {entry!r}")
                    in_pin, out_pin = str(entry[1]), str(entry[2])
                    context = f"IOPATH {instance}/{in_pin}->{out_pin}"
                    delays.iopaths[(instance, in_pin, out_pin)] = _edge_pair(
                        entry[3:], delays.timescale, context)
                elif entry[0] == "INTERCONNECT":
                    if len(entry) < 4:
                        raise SdfError(f"malformed INTERCONNECT entry {entry!r}")
                    src, dst = str(entry[1]), str(entry[2])
                    context = f"INTERCONNECT {src}->{dst}"
                    delays.interconnects[(src, dst)] = _edge_pair(
                        entry[3:], delays.timescale, context)
                # other constructs (PORT, DEVICE, ...) are outside the
                # subset and skipped; they never alias IOPATH semantics.


# ----------------------------------------------------------------------
# Back-annotated engine
# ----------------------------------------------------------------------
class SdfEngine(StaEngine):
    """STA driven entirely by SDF annotation.

    Parameters
    ----------
    delays:
        Parsed annotation (:func:`read_sdf`).
    corner:
        Which of the ``min:typ:max`` triple to time (default ``"typ"``).
    library:
        Optional cell library used only to resolve each arc's unateness
        (``TimingArc.inverting``); cells absent from it fall back to
        ``inverting_default``.
    inverting_default:
        Unateness assumed for unknown cells (``True``: negative-unate,
        the correct sense for INV/NAND/NOR-style cells).
    input_slew:
        Slew carried through the design (SDF has no transition data).
    """

    def __init__(self, delays: SdfDelays, corner: str = "typ",
                 library: dict[str, CharacterizedCell] | None = None,
                 inverting_default: bool = True,
                 input_slew: float = 50e-12):
        require(corner in _CORNERS, f"bad corner {corner!r} (use {_CORNERS})")
        require(input_slew > 0, "input_slew must be positive")
        self.delays = delays
        self.corner = corner
        self.library = dict(library or {})
        self.wire_specs = {}
        self.inverting_default = inverting_default
        self.input_slew = input_slew

    def net_load(self, graph: TimingGraph, net: str) -> float:
        """Loads are irrelevant — delays come from the annotation."""
        return 0.0

    def _wire_arc(self, net: str, load_cap: float) -> tuple[float, float]:
        """Wire delay is carried per-pin by INTERCONNECT, not per-net."""
        return (0.0, 0.0)

    def _inverting(self, cell: str, pin: str) -> bool:
        entry = self.library.get(cell)
        if entry is not None:
            try:
                return entry.arc_for(pin).inverting
            except KeyError:
                pass  # library lacks this arc; fall through to the default
        return self.inverting_default

    def _arc_delay(self, graph: TimingGraph, inst: GateInstance, pin: str,
                   in_net: str, input_rising: bool, in_slew: float,
                   load: float) -> tuple[float, float, bool]:
        output_rising = ((not input_rising)
                         if self._inverting(inst.cell, pin) else input_rising)
        rise, fall = self.delays.iopath(inst.name, pin, inst.output_pin)
        delay = (rise if output_rising else fall).pick(self.corner)
        driver = graph.fanin.get(in_net)
        if driver is not None:
            key = (f"{driver.name}/{driver.output_pin}", f"{inst.name}/{pin}")
            wire = self.interconnect_for(key)
            if wire is not None:
                delay += (wire[0] if input_rising else wire[1]).pick(self.corner)
        return delay, in_slew, output_rising

    def interconnect_for(self, key: tuple[str, str]) \
            -> tuple[SdfTriple, SdfTriple] | None:
        """The annotated wire delay for ``(from_port, to_port)``, if any."""
        return self.delays.interconnects.get(key)
