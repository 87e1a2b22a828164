"""Liberty (.lib) writer and parser for the characterised library.

Implements the subset of the Liberty format that NLDM timing needs:
``library`` / ``cell`` / ``pin`` / ``timing`` groups, scalar attributes,
``index_1`` / ``index_2`` / ``values`` tables.  The writer emits files in
conventional units (ns, pF); the parser reads them back into
:class:`~repro.library.nldm.TimingArc` objects, and round-trips are tested
to table precision.

The parser is a small recursive-descent over a generic group grammar::

    group_name (args) { attribute : value ; ...  nested_group (...) { ... } }

so it tolerates (and ignores) attributes this library does not model.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from .._util import require
from .cells import InverterCell, make_inverter
from .characterize import CharacterizedCell
from .nldm import NldmTable, TimingArc

__all__ = ["write_liberty", "parse_liberty", "LibertyGroup", "LibertyParseError"]

_TIME_UNIT = 1e-9   # ns
_CAP_UNIT = 1e-12   # pF


class LibertyParseError(ValueError):
    """Raised on malformed Liberty input — the only exception
    :func:`parse_liberty` raises for bad text."""


# ----------------------------------------------------------------------
# Generic group model
# ----------------------------------------------------------------------
@dataclass
class LibertyGroup:
    """A parsed Liberty group: ``name (args) { attributes; subgroups }``."""

    name: str
    args: list[str] = field(default_factory=list)
    attributes: dict[str, str] = field(default_factory=dict)
    # Complex attributes such as index_1 ("...") keep their argument lists.
    complex_attributes: dict[str, list[list[str]]] = field(default_factory=dict)
    subgroups: list["LibertyGroup"] = field(default_factory=list)

    def first(self, name: str) -> "LibertyGroup | None":
        """First subgroup called ``name`` (or None)."""
        for g in self.subgroups:
            if g.name == name:
                return g
        return None

    def all(self, name: str) -> list["LibertyGroup"]:
        """All subgroups called ``name``."""
        return [g for g in self.subgroups if g.name == name]


# ----------------------------------------------------------------------
# Writer
# ----------------------------------------------------------------------
def _fmt_row(values: np.ndarray, scale: float) -> str:
    return ", ".join(f"{v / scale:.6g}" for v in values)


def _write_table(out: list[str], kind: str, table: NldmTable, indent: str) -> None:
    out.append(f"{indent}{kind} (delay_template) {{")
    out.append(f'{indent}  index_1 ("{_fmt_row(table.input_slews, _TIME_UNIT)}");')
    out.append(f'{indent}  index_2 ("{_fmt_row(table.loads, _CAP_UNIT)}");')
    rows = ", \\\n".join(
        f'{indent}    "{_fmt_row(row, _TIME_UNIT)}"' for row in table.values
    )
    out.append(f"{indent}  values ( \\\n{rows});")
    out.append(f"{indent}}}")


def write_liberty(cells: list[CharacterizedCell], library_name: str = "repro013",
                  vdd: float | None = None) -> str:
    """Serialise characterised cells into Liberty text."""
    require(len(cells) > 0, "need at least one cell")
    nom_v = vdd if vdd is not None else cells[0].cell.vdd
    out: list[str] = []
    out.append(f"library ({library_name}) {{")
    out.append('  delay_model : table_lookup;')
    out.append('  time_unit : "1ns";')
    out.append("  capacitive_load_unit (1, pf);")
    out.append('  voltage_unit : "1V";')
    out.append(f"  nom_voltage : {nom_v:g};")
    out.append("  lu_table_template (delay_template) {")
    out.append("    variable_1 : input_net_transition;")
    out.append("    variable_2 : total_output_net_capacitance;")
    out.append("  }")
    for entry in cells:
        cell, arcs = entry.cell, entry.timing_arcs
        out.append(f"  cell ({cell.name}) {{")
        out.append(f"    area : {cell.drive:g};")
        for pin in dict.fromkeys(a.related_pin for a in arcs):
            out.append(f"    pin ({pin}) {{")
            out.append("      direction : input;")
            out.append(f"      capacitance : {entry.input_capacitance / _CAP_UNIT:.6g};")
            out.append("    }")
        out.append(f"    pin ({arcs[0].output_pin}) {{")
        out.append("      direction : output;")
        if len(arcs) == 1 and arcs[0].inverting:
            out.append(f'      function : "(!{arcs[0].related_pin})";')
        for arc in arcs:
            sense = "negative_unate" if arc.inverting else "positive_unate"
            out.append("      timing () {")
            out.append(f'        related_pin : "{arc.related_pin}";')
            out.append(f"        timing_sense : {sense};")
            for kind, table in (("cell_rise", arc.cell_rise),
                                ("rise_transition", arc.rise_transition),
                                ("cell_fall", arc.cell_fall),
                                ("fall_transition", arc.fall_transition)):
                _write_table(out, kind, table, "        ")
            out.append("      }")
        out.append("    }")
        out.append("  }")
    out.append("}")
    return "\n".join(out) + "\n"


# ----------------------------------------------------------------------
# Tokeniser / parser
# ----------------------------------------------------------------------
_TOKEN_RE = re.compile(
    r"""
    \s+                      # whitespace (skipped)
    | /\*.*?\*/              # block comment (skipped)
    | //[^\n]*               # line comment (skipped)
    | \\\n                   # line continuation (skipped)
    | (?P<string>"[^"]*")
    | (?P<punct>[(){};:,])
    | (?P<word>[^\s(){};:,"]+)
    """,
    re.VERBOSE | re.DOTALL,
)


def _tokenize(text: str) -> list[str]:
    tokens: list[str] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise LibertyParseError(f"unexpected character at offset {pos}: {text[pos]!r}")
        pos = m.end()
        if m.lastgroup in ("string", "punct", "word"):
            tokens.append(m.group())
    return tokens


class _TokenStream:
    def __init__(self, tokens: list[str]):
        self._tokens = tokens
        self._i = 0

    def peek(self) -> str | None:
        return self._tokens[self._i] if self._i < len(self._tokens) else None

    def next(self) -> str:
        tok = self.peek()
        if tok is None:
            raise LibertyParseError("unexpected end of input")
        self._i += 1
        return tok

    def expect(self, token: str) -> None:
        tok = self.next()
        if tok != token:
            raise LibertyParseError(f"expected {token!r}, got {tok!r}")


def _unquote(tok: str) -> str:
    return tok[1:-1] if tok.startswith('"') and tok.endswith('"') else tok


def _parse_group(stream: _TokenStream) -> LibertyGroup:
    name = stream.next()
    stream.expect("(")
    args: list[str] = []
    while stream.peek() != ")":
        tok = stream.next()
        if tok != ",":
            args.append(_unquote(tok))
    stream.expect(")")
    group = LibertyGroup(name=name, args=args)
    if stream.peek() != "{":
        # Statement-style group without body (unused in our subset).
        if stream.peek() == ";":
            stream.next()
        return group
    stream.expect("{")
    while stream.peek() != "}":
        _parse_statement(stream, group)
    stream.expect("}")
    return group


def _parse_statement(stream: _TokenStream, parent: LibertyGroup) -> None:
    name = stream.next()
    tok = stream.peek()
    if tok == ":":
        stream.next()
        value_parts: list[str] = []
        while stream.peek() not in (";", "}", None):
            value_parts.append(_unquote(stream.next()))
        if stream.peek() == ";":
            stream.next()
        parent.attributes[name] = " ".join(value_parts)
        return
    if tok == "(":
        # Either a complex attribute or a nested group; decide by what
        # follows the closing paren.
        stream.next()
        args: list[str] = []
        while stream.peek() != ")":
            t = stream.next()
            if t != ",":
                args.append(_unquote(t))
        stream.expect(")")
        if stream.peek() == "{":
            group = LibertyGroup(name=name, args=args)
            stream.expect("{")
            while stream.peek() != "}":
                _parse_statement(stream, group)
            stream.expect("}")
            parent.subgroups.append(group)
        else:
            if stream.peek() == ";":
                stream.next()
            parent.complex_attributes.setdefault(name, []).append(args)
        return
    raise LibertyParseError(f"cannot parse statement starting with {name!r}")


def _number(text: str, what: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise LibertyParseError(f"bad number {text!r} in {what}") from None


def _numbers(args: list[str], what: str) -> np.ndarray:
    """Flatten Liberty number-list arguments into a float array."""
    values: list[float] = []
    for arg in args:
        for piece in arg.replace(",", " ").split():
            values.append(_number(piece, what))
    return np.asarray(values)


def _name(group: LibertyGroup) -> str:
    if not group.args:
        raise LibertyParseError(f"{group.name} group has no name")
    return group.args[0]


def _table_from_group(group: LibertyGroup) -> NldmTable:
    def numbers(name: str) -> np.ndarray:
        if name not in group.complex_attributes:
            raise LibertyParseError(f"{group.name} table has no {name}")
        return _numbers(group.complex_attributes[name][0],
                        f"{group.name} {name}")

    idx1 = numbers("index_1") * _TIME_UNIT
    idx2 = numbers("index_2") * _CAP_UNIT
    flat = numbers("values") * _TIME_UNIT
    if flat.size != idx1.size * idx2.size:
        raise LibertyParseError(
            f"{group.name} values count {flat.size} != "
            f"{idx1.size}x{idx2.size}")
    try:
        return NldmTable(idx1, idx2, flat.reshape(idx1.size, idx2.size))
    except ValueError as exc:  # the table's own invariants
        raise LibertyParseError(f"bad {group.name} table: {exc}") from exc


def _arc_from_timing_group(cell_name: str, out_pin: LibertyGroup,
                           tg: LibertyGroup) -> TimingArc:
    tables = {}
    for kind in ("cell_rise", "cell_fall", "rise_transition", "fall_transition"):
        sub = tg.first(kind)
        if sub is None:
            raise LibertyParseError(f"cell {cell_name!r} missing {kind}")
        tables[kind] = _table_from_group(sub)
    return TimingArc(
        related_pin=tg.attributes.get("related_pin", "A"),
        output_pin=_name(out_pin),
        inverting=tg.attributes.get("timing_sense", "negative_unate") == "negative_unate",
        **tables,
    )


def parse_liberty(text: str) -> dict[str, CharacterizedCell]:
    """Parse Liberty text into characterised cells keyed by cell name.

    Transistor geometry is reconstructed from the ``INVX<drive>`` naming
    convention of this library (the .lib format does not carry device
    sizes).  Other cell names — multi-input gates of an external library
    such as the test corpus — get a placeholder unit-inverter geometry
    whose input capacitance is *overridden* by the input-pin
    ``capacitance`` attribute, which then must be present.  Multiple
    ``timing`` groups on the output pin become one arc per related pin.
    """
    stream = _TokenStream(_tokenize(text))
    top = _parse_group(stream)
    if top.name != "library":
        raise LibertyParseError(f"expected a library group, got {top.name!r}")
    nom_v = _number(top.attributes.get("nom_voltage", "1.2"), "nom_voltage")

    cells: dict[str, CharacterizedCell] = {}
    for cg in top.all("cell"):
        cell_name = _name(cg)
        out_pin = None
        pin_cap: float | None = None
        for pg in cg.all("pin"):
            if pg.attributes.get("direction") == "output":
                out_pin = pg
            elif "capacitance" in pg.attributes and pin_cap is None:
                pin_cap = _number(pg.attributes["capacitance"],
                                  f"cell {cell_name!r} capacitance") * _CAP_UNIT
        m = re.fullmatch(r"INVX(\d+)", cell_name)
        if m is not None:
            drive, input_cap = m.group(1), None  # device-derived, exact
        elif pin_cap is not None:
            drive, input_cap = "1", pin_cap
        else:
            raise LibertyParseError(
                f"cannot reconstruct geometry for cell {cell_name!r}: not an "
                f"INVX<drive> name and no input-pin capacitance to fall back on"
            )
        try:
            inv: InverterCell = make_inverter(int(drive), vdd=nom_v)
        except ValueError as exc:  # drive 0, non-positive nom_voltage
            raise LibertyParseError(f"cell {cell_name!r}: {exc}") from exc
        if out_pin is None:
            raise LibertyParseError(f"cell {cell_name!r} has no output pin")
        timing_groups = out_pin.all("timing")
        if not timing_groups:
            raise LibertyParseError(f"cell {cell_name!r} has no timing group")
        arcs = tuple(_arc_from_timing_group(cell_name, out_pin, tg)
                     for tg in timing_groups)
        related = [a.related_pin for a in arcs]
        if len(set(related)) != len(related):
            raise LibertyParseError(
                f"cell {cell_name!r} has duplicate timing arcs for pins {related}")
        cells[cell_name] = CharacterizedCell(
            cell=inv, arc=arcs[0],
            input_slews=arcs[0].cell_rise.input_slews,
            loads=arcs[0].cell_rise.loads,
            arcs=arcs if len(arcs) > 1 else (),
            input_cap=input_cap,
        )
    return cells
