"""Timing graph construction and levelisation.

The STA engine works on a DAG whose vertices are *timing points* (net,
pin) and whose edges are either cell arcs (gate input pin → gate output)
or net arcs (driver output → load input, carrying wire delay).  A
multi-input cell contributes one cell arc per input pin; nets fan out to
any number of load pins.

:meth:`TimingGraph.build` is the one compile step of a netlist: it
validates the netlist, indexes every net's driver and load pins, and
levelises the nets once (Kahn's algorithm, O(nets + pins); cycles raise
at build time, since combinational timing graphs must be acyclic).
Every STA pass — :meth:`~repro.sta.analysis.StaEngine.analyze`, its SDF
subclass and each Monte-Carlo block — reads connectivity and order from
the compiled graph, so a sweep compiles its design once and shares the
graph across all of its blocks.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .netlist import GateInstance, GateNetlist

__all__ = ["TimingGraph", "TimingGraphError"]


class TimingGraphError(ValueError):
    """Raised on cyclic timing graphs."""


@dataclass(frozen=True)
class TimingGraph:
    """Net-level timing DAG of a gate netlist, compiled by :meth:`build`.

    Vertices are net names.  ``fanin[net]`` is the driving instance
    (primary inputs have none); ``fanout[net]`` lists ``(instance, pin)``
    pairs the net feeds in instance-then-pin order — one entry per
    connected input pin, so a cell listening on two pins of the same net
    appears twice.  ``order`` holds every net in topological order.
    """

    netlist: GateNetlist
    fanin: dict[str, GateInstance]
    fanout: dict[str, list[tuple[GateInstance, str]]]
    order: tuple[str, ...]

    @classmethod
    def build(cls, netlist: GateNetlist) -> "TimingGraph":
        """Validate, index and levelise ``netlist``.

        Raises
        ------
        NetlistError
            On multiply-driven or undriven nets
            (:meth:`GateNetlist.validate`).
        TimingGraphError
            If the graph contains a combinational cycle.
        """
        netlist.validate()
        fanin: dict[str, GateInstance] = {}
        fanout: dict[str, list[tuple[GateInstance, str]]] = {}
        for inst in netlist.instances:
            fanin[inst.output_net] = inst
            for pin, in_net in inst.inputs:
                fanout.setdefault(in_net, []).append((inst, pin))
        # A driven net becomes ready once ALL of its driver's input nets
        # are ordered; count distinct predecessor nets, not pins.
        indeg = {net: len(set(fanin[net].input_nets)) if net in fanin else 0
                 for net in netlist.nets}
        queue = deque(net for net, d in indeg.items() if d == 0)
        order: list[str] = []
        while queue:
            net = queue.popleft()
            order.append(net)
            released: set[str] = set()
            for inst, _pin in fanout.get(net, ()):
                if inst.output_net in released:
                    continue  # same net on several pins: release once
                released.add(inst.output_net)
                indeg[inst.output_net] -= 1
                if indeg[inst.output_net] == 0:
                    queue.append(inst.output_net)
        if len(order) != len(indeg):
            missing = sorted(set(indeg) - set(order))
            raise TimingGraphError(f"combinational cycle involving nets {missing}")
        return cls(netlist=netlist, fanin=fanin, fanout=fanout,
                   order=tuple(order))

    def levels(self) -> tuple[str, ...]:
        """Nets in topological order (primary inputs first), as compiled."""
        return self.order
