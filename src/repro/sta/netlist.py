"""Gate-level netlists for the STA engine.

A :class:`GateNetlist` is a flat graph of cell instances connected by
named nets, with designated primary inputs and outputs.  Instances carry
*named input pins* — ``(pin, net)`` pairs in declaration order — so
multi-input cells (NAND2, AOI …) are first-class citizens of the timing
model: every (related input pin → output) pair is a separate timing arc,
and the engine propagates per arc rather than assuming one fanin.

Netlists are built programmatically (:meth:`GateNetlist.add_instance`)
or read from text with :func:`repro.sta.verilog.read_verilog`, which
accepts the structural-Verilog subset and rejects vector and escaped
identifiers with clear :class:`NetlistError`\\ s instead of registering
garbage nets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .._util import require

__all__ = ["GateInstance", "GateNetlist", "NetlistError"]


class NetlistError(ValueError):
    """Raised on malformed netlists."""


def _normalize_inputs(inputs) -> tuple[tuple[str, str], ...]:
    """Canonicalise an input-connection spec into ``((pin, net), ...)``.

    Accepts a single net name (connected to pin ``A``, the single-input
    convention of this library), a mapping ``{pin: net}``, or an
    iterable of ``(pin, net)`` pairs.
    """
    if isinstance(inputs, str):
        return (("A", inputs),)
    if isinstance(inputs, dict):
        pairs = tuple((str(p), str(n)) for p, n in inputs.items())
    else:
        pairs = tuple((str(p), str(n)) for p, n in inputs)
    if not pairs:
        raise NetlistError("instance needs at least one input connection")
    pins = [p for p, _ in pairs]
    if len(set(pins)) != len(pins):
        raise NetlistError(f"duplicate input pin in {pins}")
    return pairs


@dataclass(frozen=True)
class GateInstance:
    """One placed cell.

    Attributes
    ----------
    name:
        Instance name (unique).
    cell:
        Library cell name, e.g. ``"INVX4"`` or ``"NAND2X1"``.
    inputs:
        ``(pin, net)`` pairs in declaration order; one entry per input
        pin of the cell.
    output_net:
        Net driven by the output pin.
    output_pin:
        Name of the output pin (``"Y"`` by convention).
    """

    name: str
    cell: str
    inputs: tuple[tuple[str, str], ...]
    output_net: str
    output_pin: str = "Y"

    @property
    def input_nets(self) -> tuple[str, ...]:
        """Connected input nets, in pin declaration order."""
        return tuple(net for _, net in self.inputs)



@dataclass
class GateNetlist:
    """A combinational gate-level netlist.

    Use :meth:`add_instance` to build programmatically, or
    :func:`repro.sta.verilog.read_verilog` to read the text form.
    """

    name: str = "top"
    primary_inputs: list[str] = field(default_factory=list)
    primary_outputs: list[str] = field(default_factory=list)
    instances: list[GateInstance] = field(default_factory=list)

    def add_instance(self, name: str, cell: str, inputs, output_net: str,
                     output_pin: str = "Y") -> GateInstance:
        """Add a gate instance and return it.

        ``inputs`` is a net name (single-input cells, pin ``A``), a
        ``{pin: net}`` mapping, or ``(pin, net)`` pairs.
        """
        if any(i.name == name for i in self.instances):
            raise NetlistError(f"duplicate instance name {name!r}")
        inst = GateInstance(name=name, cell=cell,
                            inputs=_normalize_inputs(inputs),
                            output_net=output_net, output_pin=output_pin)
        self.instances.append(inst)
        return inst

    def add_input(self, net: str) -> None:
        """Declare a primary input net."""
        if net not in self.primary_inputs:
            self.primary_inputs.append(net)

    def add_output(self, net: str) -> None:
        """Declare a primary output net."""
        if net not in self.primary_outputs:
            self.primary_outputs.append(net)

    # ------------------------------------------------------------------
    @property
    def nets(self) -> list[str]:
        """All net names in first-use order."""
        seen: list[str] = []
        seen_set: set[str] = set()
        for net in self.primary_inputs:
            if net not in seen_set:
                seen.append(net)
                seen_set.add(net)
        for inst in self.instances:
            for net in (*inst.input_nets, inst.output_net):
                if net not in seen_set:
                    seen.append(net)
                    seen_set.add(net)
        return seen

    def driver_of(self, net: str) -> GateInstance | None:
        """The instance driving ``net`` (None for primary inputs)."""
        for inst in self.instances:
            if inst.output_net == net:
                return inst
        return None

    def loads_of(self, net: str) -> list[GateInstance]:
        """Instances with an input on ``net`` (once per connected pin)."""
        return [inst for inst, _ in self.load_pins(net)]

    def load_pins(self, net: str) -> list[tuple[GateInstance, str]]:
        """``(instance, pin)`` pairs of every gate input on ``net``."""
        pairs: list[tuple[GateInstance, str]] = []
        for inst in self.instances:
            for pin, in_net in inst.inputs:
                if in_net == net:
                    pairs.append((inst, pin))
        return pairs

    def fanout_count(self, net: str) -> int:
        """Number of gate input pins on ``net``."""
        return len(self.load_pins(net))

    def validate(self) -> None:
        """Check structural sanity.

        Raises
        ------
        NetlistError
            On multiply-driven nets, undriven internal nets, or outputs
            that no instance drives.
        """
        drivers: dict[str, list[str]] = {}
        for inst in self.instances:
            drivers.setdefault(inst.output_net, []).append(inst.name)
        for net, who in drivers.items():
            if len(who) > 1:
                raise NetlistError(f"net {net!r} driven by multiple instances: {who}")
            if net in self.primary_inputs:
                raise NetlistError(f"primary input {net!r} is also driven by {who[0]}")
        for inst in self.instances:
            for pin, in_net in inst.inputs:
                if in_net not in self.primary_inputs and in_net not in drivers:
                    raise NetlistError(
                        f"instance {inst.name!r} input {pin}({in_net!r}) is undriven"
                    )
        for net in self.primary_outputs:
            if net not in drivers and net not in self.primary_inputs:
                raise NetlistError(f"primary output {net!r} is undriven")

    @classmethod
    def inverter_chain(cls, drives: list[int], name: str = "chain") -> "GateNetlist":
        """Convenience constructor: a chain of inverters of given drives."""
        require(len(drives) >= 1, "need at least one stage")
        net = cls(name=name)
        net.add_input("n0")
        for k, drive in enumerate(drives):
            net.add_instance(f"u{k}", f"INVX{drive}", f"n{k}", f"n{k + 1}")
        net.add_output(f"n{len(drives)}")
        return net
