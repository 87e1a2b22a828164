"""Structural-Verilog reader for gate-level designs.

This is the front door for real netlists: a tokenizer + recursive-descent
parser over the structural subset that timing engines consume —

* one ``module`` with a port list (plain or ANSI-style ``input a``
  entries),
* ``input`` / ``output`` / ``wire`` declarations (comma-separated),
* cell instantiations with *named* port connections
  (``NAND2X1 u1 (.A(n1), .B(n2), .Y(n3));``), any number of ports,
* ``//`` and ``/* */`` comments.

Everything outside the subset is rejected loudly with a
:class:`~repro.sta.netlist.NetlistError` naming the offending construct:
vector declarations (``input [3:0] a;``), escaped identifiers
(``\\foo[1]``), positional port connections, parameter overrides
(``#(...)``), ``assign`` statements, and any statement the grammar does
not recognise.  A timing run over a silently-misparsed netlist is worse
than no run at all — garbage nets must never enter the timing graph.

Which port of an instance is its *output* is decided by name:
``output_pins`` (default ``("Y", "Z", "OUT", "Q")``) — or explicitly per
cell via ``output_pin_of``.  Exactly one output port per instance is
required; the remaining connections become the instance's named input
pins in declaration order.
"""

from __future__ import annotations

import re

from .netlist import GateNetlist, NetlistError

__all__ = ["read_verilog", "DEFAULT_OUTPUT_PINS"]

#: Port names recognised as cell outputs, in lookup order.
DEFAULT_OUTPUT_PINS = ("Y", "Z", "OUT", "Q")

_TOKEN_RE = re.compile(
    r"""
    \s+                          # whitespace (skipped)
    | //[^\n]*                   # line comment (skipped)
    | /\*.*?\*/                  # block comment (skipped)
    | (?P<escaped>\\[^\s]+)      # escaped identifier (rejected later)
    | (?P<word>[A-Za-z_$][\w$]*)
    | (?P<number>\d[\w'.]*)      # numeric literal, incl. 4'b0 forms
    | (?P<punct>[()\[\],;.:=\#*@])
    """,
    re.VERBOSE | re.DOTALL,
)

_UNSUPPORTED = frozenset((
    "assign", "inout", "parameter", "localparam", "reg", "always",
    "initial", "generate", "supply0", "supply1", "tri", "specify",
))


def _tokenize(text: str) -> list[str]:
    tokens: list[str] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise NetlistError(
                f"unexpected character at offset {pos}: {text[pos]!r}")
        pos = m.end()
        if m.lastgroup is not None:
            tokens.append(m.group())
    return tokens


class _Stream:
    def __init__(self, tokens: list[str]):
        self._tokens = tokens
        self._i = 0

    def peek(self) -> str | None:
        return self._tokens[self._i] if self._i < len(self._tokens) else None

    def next(self) -> str:
        tok = self.peek()
        if tok is None:
            raise NetlistError("unexpected end of input")
        self._i += 1
        return tok

    def expect(self, token: str, context: str) -> None:
        tok = self.next()
        if tok != token:
            raise NetlistError(f"{context}: expected {token!r}, got {tok!r}")


def _identifier(tok: str, context: str) -> str:
    """Validate a token as a plain (non-escaped, non-vector) identifier."""
    if tok.startswith("\\"):
        raise NetlistError(
            f"{context}: escaped identifier {tok!r} is not supported")
    if not re.fullmatch(r"[A-Za-z_$][\w$]*", tok):
        raise NetlistError(f"{context}: expected an identifier, got {tok!r}")
    return tok


def _reject_vector(stream: _Stream, context: str) -> None:
    if stream.peek() == "[":
        raise NetlistError(
            f"{context}: vector/bus declarations ('[msb:lsb]') are not "
            f"supported; flatten the bus into scalar nets")


def _parse_decl(stream: _Stream, kind: str, netlist: GateNetlist,
                declared_wires: set[str]) -> None:
    """``input|output|wire name, name, ... ;``"""
    context = f"{kind} declaration"
    _reject_vector(stream, context)
    while True:
        name = _identifier(stream.next(), context)
        _reject_vector(stream, context)
        if kind == "input":
            netlist.add_input(name)
        elif kind == "output":
            netlist.add_output(name)
        else:
            declared_wires.add(name)
        tok = stream.next()
        if tok == ";":
            return
        if tok != ",":
            raise NetlistError(f"{context}: expected ',' or ';', got {tok!r}")


def _parse_header(stream: _Stream, netlist: GateNetlist) -> list[str]:
    """``module name (ports);`` — returns the header port names."""
    stream.expect("module", "module header")
    netlist.name = _identifier(stream.next(), "module name")
    ports: list[str] = []
    tok = stream.next()
    if tok == ";":
        return ports
    if tok != "(":
        raise NetlistError(f"module header: expected '(' or ';', got {tok!r}")
    if stream.peek() == ")":
        stream.next()
        stream.expect(";", "module header")
        return ports
    while True:
        tok = stream.next()
        # ANSI-style header entries carry their direction inline.
        if tok in ("input", "output"):
            _reject_vector(stream, f"module port ({tok})")
            name = _identifier(stream.next(), "module port")
            (netlist.add_input if tok == "input" else netlist.add_output)(name)
        elif tok == "inout":
            raise NetlistError("module port: 'inout' ports are not supported")
        else:
            name = _identifier(tok, "module port")
        ports.append(name)
        tok = stream.next()
        if tok == ")":
            break
        if tok != ",":
            raise NetlistError(
                f"module header: expected ',' or ')', got {tok!r}")
    stream.expect(";", "module header")
    return ports


def _parse_instance(stream: _Stream, cell: str) -> tuple[str, list[tuple[str, str]]]:
    """``CELL inst (.PIN(net), ...);`` — returns (inst name, connections)."""
    inst_name = _identifier(stream.next(), f"{cell} instantiation")
    context = f"instance {inst_name!r}"
    tok = stream.next()
    if tok == "#":
        raise NetlistError(
            f"{context}: parameter overrides ('#(...)') are not supported")
    if tok != "(":
        raise NetlistError(f"{context}: expected '(', got {tok!r}")
    conns: list[tuple[str, str]] = []
    if stream.peek() == ")":
        raise NetlistError(f"{context}: empty port connection list")
    while True:
        tok = stream.next()
        if tok != ".":
            raise NetlistError(
                f"{context}: need named ports '.PIN(net)'; positional or "
                f"malformed connection starting at {tok!r}")
        pin = _identifier(stream.next(), f"{context} port name")
        stream.expect("(", f"{context} port {pin!r}")
        net_tok = stream.next()
        if re.match(r"\d", net_tok):
            raise NetlistError(
                f"{context}: constant connection {net_tok!r} on port "
                f"{pin!r} is not supported")
        net = _identifier(net_tok, f"{context} port {pin!r} net")
        _reject_vector(stream, f"{context} port {pin!r}")
        stream.expect(")", f"{context} port {pin!r}")
        conns.append((pin, net))
        tok = stream.next()
        if tok == ")":
            break
        if tok != ",":
            raise NetlistError(
                f"{context}: expected ',' or ')', got {tok!r}")
    stream.expect(";", context)
    return inst_name, conns


def read_verilog(
    text: str,
    output_pins: tuple[str, ...] = DEFAULT_OUTPUT_PINS,
    output_pin_of: dict[str, str] | None = None,
) -> GateNetlist:
    """Parse structural Verilog into a validated :class:`GateNetlist`.

    Parameters
    ----------
    text:
        Verilog source (one module).
    output_pins:
        Port names treated as cell outputs when ``output_pin_of`` does
        not name the cell.  Each instance must connect exactly one.
    output_pin_of:
        Optional explicit cell → output-pin-name map, for libraries
        whose output pins fall outside ``output_pins``.

    Raises
    ------
    NetlistError
        On anything outside the structural subset — vector declarations,
        escaped identifiers, positional connections, unknown statements —
        and on structurally invalid results (multiply-driven nets,
        undriven inputs; see :meth:`GateNetlist.validate`).
    """
    stream = _Stream(_tokenize(text))
    netlist = GateNetlist()
    declared_wires: set[str] = set()
    header_ports = _parse_header(stream, netlist)

    saw_end = False
    while True:
        tok = stream.peek()
        if tok is None:
            break
        stream.next()
        if tok == "endmodule":
            saw_end = True
            break
        if tok in ("input", "output", "wire"):
            _parse_decl(stream, tok, netlist, declared_wires)
            continue
        if tok in _UNSUPPORTED:
            raise NetlistError(
                f"unsupported statement {tok!r}: only input/output/wire "
                f"declarations and named-port instantiations are accepted")
        cell = _identifier(tok, "statement")
        inst_name, conns = _parse_instance(stream, cell)
        wanted = None if output_pin_of is None else output_pin_of.get(cell)
        outs = [(p, n) for p, n in conns
                if (p == wanted if wanted is not None else p in output_pins)]
        if len(outs) != 1:
            raise NetlistError(
                f"instance {inst_name!r} ({cell}): need exactly one output "
                f"port ({wanted or '/'.join(output_pins)}), got "
                f"{[p for p, _ in outs] or [p for p, _ in conns]}")
        out_pin, out_net = outs[0]
        inputs = [(p, n) for p, n in conns if p != out_pin]
        if not inputs:
            raise NetlistError(
                f"instance {inst_name!r} ({cell}): no input connections")
        netlist.add_instance(inst_name, cell, inputs, out_net,
                             output_pin=out_pin)
    if not saw_end:
        raise NetlistError("missing endmodule")

    for port in header_ports:
        if port not in netlist.primary_inputs \
                and port not in netlist.primary_outputs:
            raise NetlistError(
                f"module port {port!r} has no input/output declaration")
    netlist.validate()
    return netlist
