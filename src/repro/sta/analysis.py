"""Conventional static timing analysis on NLDM tables.

This is the baseline engine the paper's techniques plug into: arrival
times and slews propagate through gate arcs (table lookup, one arc per
related input pin of multi-input cells) and wire arcs (Elmore delay with
the standard PERI slew degradation), both transition edges are tracked,
required times propagate backward *per edge* along the same arcs the
forward pass used, and the critical path is traced through the recorded
causal (net, edge) predecessors.

The noise-aware flow (:mod:`repro.sta.noise_aware`) replaces the summary
(arrival, slew) at coupled nets with an equivalent waveform computed by a
technique from :mod:`repro.core.techniques`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .._util import require
from ..interconnect.rcline import RcLineSpec
from ..interconnect.elmore import elmore_delays_line
from ..library.characterize import CharacterizedCell
from .graph import TimingGraph
from .netlist import GateInstance, GateNetlist

__all__ = ["EdgeTiming", "InputSpec", "StaResult", "StaEngine", "ArcRecord"]

#: ln(9) — converts an RC time constant into a 10–90% transition time.
_LN9 = math.log(9.0)


@dataclass(frozen=True)
class EdgeTiming:
    """Timing of one transition edge at a net.

    Attributes
    ----------
    arrival:
        Latest arrival time of this edge (seconds).
    slew:
        10–90% transition time accompanying that arrival.
    from_net:
        Predecessor net on the worst path (None at primary inputs).
    from_edge:
        The *causal* input edge (``"rise"``/``"fall"``) at ``from_net``
        that produced this output edge — recorded, not re-derived, so
        path tracing and required-time propagation stay correct for
        non-inverting arcs.
    from_pin:
        Input pin of the driving instance the worst path enters through.
    """

    arrival: float
    slew: float
    from_net: str | None = None
    from_edge: str | None = None
    from_pin: str | None = None

    def later_of(self, other: "EdgeTiming | None") -> "EdgeTiming":
        """Worst-case merge of two candidate edge timings."""
        if other is None or self.arrival >= other.arrival:
            return self
        return other


@dataclass(frozen=True)
class ArcRecord:
    """One evaluated timing arc: input (net, edge) → output edge with delay.

    The forward pass records every arc it evaluates; the backward pass
    replays them, so required times subtract exactly the delay that
    produced each arrival candidate (no re-lookup, no edge guessing).
    """

    in_net: str
    in_pin: str
    in_edge: str
    out_edge: str
    delay: float


@dataclass(frozen=True)
class InputSpec:
    """Primary-input stimulus: arrival and slew for both edges."""

    arrival: float = 0.0
    slew: float = 50e-12

    def __post_init__(self) -> None:
        require(self.slew > 0, "input slew must be positive")


@dataclass
class StaResult:
    """Arrival/required/slack data for every net.

    ``rise[net]`` / ``fall[net]`` are :class:`EdgeTiming`.
    ``required_rise`` / ``required_fall`` are per-edge required times
    (propagated backward from primary outputs along the recorded arcs);
    ``required`` keeps the per-net summary (min over edges) for
    compatibility.
    """

    rise: dict[str, EdgeTiming] = field(default_factory=dict)
    fall: dict[str, EdgeTiming] = field(default_factory=dict)
    required: dict[str, float] = field(default_factory=dict)
    required_rise: dict[str, float] = field(default_factory=dict)
    required_fall: dict[str, float] = field(default_factory=dict)
    arcs: dict[str, tuple[ArcRecord, ...]] = field(default_factory=dict)

    def edge(self, net: str, edge: str) -> EdgeTiming:
        """The :class:`EdgeTiming` of ``edge`` (``"rise"``/``"fall"``)."""
        require(edge in ("rise", "fall"), f"bad edge {edge!r}")
        return (self.rise if edge == "rise" else self.fall)[net]

    def worst_edge(self, net: str) -> tuple[str, EdgeTiming]:
        """(edge-name, timing) of the later edge at ``net``."""
        r, f = self.rise[net], self.fall[net]
        return ("rise", r) if r.arrival >= f.arrival else ("fall", f)

    def arrival(self, net: str) -> float:
        """Latest arrival at ``net`` across both edges."""
        return self.worst_edge(net)[1].arrival

    def slack_edge(self, net: str, edge: str) -> float:
        """Required minus arrival for one edge at ``net``."""
        req = self.required_rise if edge == "rise" else self.required_fall
        require(net in req, f"no {edge} required time at net {net!r}")
        return req[net] - self.edge(net, edge).arrival

    def slack(self, net: str) -> float:
        """Worst (minimum) slack over the edges constrained at ``net``."""
        slacks = [self.slack_edge(net, e)
                  for e, req in (("rise", self.required_rise),
                                 ("fall", self.required_fall))
                  if net in req]
        require(bool(slacks), f"no required time at net {net!r}")
        return min(slacks)

    def worst_slack(self) -> float:
        """Minimum slack over all constrained nets."""
        require(bool(self.required), "no required times set")
        return min(self.slack(net) for net in self.required)

    def critical_path(self, end_net: str, edge: str | None = None) -> list[str]:
        """Trace the worst path ending at ``end_net`` back to its input.

        Follows the recorded causal ``from_edge`` at every stage (correct
        for inverting and non-inverting arcs alike).  ``edge`` selects
        which output edge to trace; default is the later one.
        """
        timing = self.edge(end_net, edge) if edge else self.worst_edge(end_net)[1]
        path = [end_net]
        while timing.from_net is not None:
            path.append(timing.from_net)
            require(timing.from_edge is not None,
                    f"missing causal edge on path at {path[-1]!r}")
            timing = self.edge(timing.from_net, timing.from_edge)
        path.reverse()
        return path


class StaEngine:
    """NLDM-based STA over a characterised cell library.

    Parameters
    ----------
    library:
        Cell name → :class:`~repro.library.characterize.CharacterizedCell`.
        Multi-input cells carry one timing arc per related input pin.
    wire_specs:
        Optional net name → :class:`~repro.interconnect.rcline.RcLineSpec`
        for nets with significant interconnect; other nets are ideal.
    """

    def __init__(self, library: dict[str, CharacterizedCell],
                 wire_specs: dict[str, RcLineSpec] | None = None):
        require(len(library) > 0, "empty cell library")
        self.library = library
        self.wire_specs = dict(wire_specs or {})

    # ------------------------------------------------------------------
    def _cell(self, name: str) -> CharacterizedCell:
        if name not in self.library:
            raise KeyError(f"cell {name!r} not in library (have {sorted(self.library)})")
        return self.library[name]

    def net_load(self, graph: TimingGraph, net: str) -> float:
        """Capacitive load on ``net``: fanout pin caps plus wire capacitance."""
        load = sum(self._cell(inst.cell).input_capacitance
                   for inst, _pin in graph.fanout.get(net, ()))
        if net in self.wire_specs:
            load += self.wire_specs[net].total_c
        return load

    def _wire_arc(self, net: str, load_cap: float) -> tuple[float, float]:
        """(delay, slew-degradation time constant) of the net's wire."""
        if net not in self.wire_specs:
            return (0.0, 0.0)
        spec = self.wire_specs[net]
        delay = elmore_delays_line(spec.total_r, spec.total_c, spec.n_segments,
                                   load_c=load_cap)
        return (delay, delay)

    def _arc_delay(self, graph: TimingGraph, inst: GateInstance, pin: str,
                   in_net: str, input_rising: bool, in_slew: float,
                   load: float) -> tuple[float, float, bool]:
        """Evaluate one cell arc: ``(delay, output_slew, output_rising)``.

        The single overridable seam of the engine — subclasses (e.g. the
        SDF back-annotated engine) replace the NLDM lookup while keeping
        the per-arc propagation, required-time and tracing machinery.
        """
        arc = self._cell(inst.cell).arc_for(pin)
        return arc.delay_and_slew(in_slew, load, input_rising=input_rising)

    def check(self, graph: TimingGraph) -> None:
        """Raise what :meth:`analyze` would raise on ``graph``'s cells and
        pins, without timing anything.

        Visits the nets in :meth:`analyze`'s order — each driven net's
        load cells, then its driver's cell and the arc of every input
        pin — so a bad design raises the same first error: ``KeyError``
        for a cell missing from the library or a pin with no arc.
        """
        for net in graph.levels():
            inst = graph.fanin.get(net)
            if inst is None:
                continue
            for load, _pin in graph.fanout.get(net, ()):
                self._cell(load.cell)
            cell = self._cell(inst.cell)
            for pin, _in_net in inst.inputs:
                cell.arc_for(pin)

    # ------------------------------------------------------------------
    def analyze(
        self,
        netlist: GateNetlist,
        inputs: dict[str, InputSpec] | None = None,
        required_times: dict[str, float] | None = None,
    ) -> StaResult:
        """Propagate arrivals (and optionally required times) through the design.

        Parameters
        ----------
        netlist:
            The gate-level design, compiled (and validated) into its
            :class:`~repro.sta.graph.TimingGraph` once per call.
        inputs:
            Primary input specs; unspecified inputs get ``InputSpec()``.
        required_times:
            Net → required time (applied to both edges at that net);
            defaults to none (slacks unavailable).

        Returns
        -------
        StaResult
        """
        graph = TimingGraph.build(netlist)
        inputs = inputs or {}
        result = StaResult()

        for net in graph.levels():
            inst = graph.fanin.get(net)
            if inst is None:  # a validated netlist's undriven nets are its inputs
                spec = inputs.get(net, InputSpec())
                result.rise[net] = EdgeTiming(spec.arrival, spec.slew)
                result.fall[net] = EdgeTiming(spec.arrival, spec.slew)
                continue
            load = self.net_load(graph, net)
            wire_delay, wire_tau = self._wire_arc(net, load)

            candidates: dict[str, EdgeTiming] = {}
            records: list[ArcRecord] = []
            for pin, in_net in inst.inputs:
                for in_edge_name in ("rise", "fall"):
                    in_edge = result.edge(in_net, in_edge_name)
                    delay, out_slew, out_rising = self._arc_delay(
                        graph, inst, pin, in_net,
                        input_rising=(in_edge_name == "rise"),
                        in_slew=in_edge.slew, load=load)
                    total_delay = delay + wire_delay
                    arrival = in_edge.arrival + total_delay
                    slew = math.hypot(out_slew, _LN9 * wire_tau)
                    out_edge = "rise" if out_rising else "fall"
                    timing = EdgeTiming(arrival=arrival, slew=slew,
                                        from_net=in_net,
                                        from_edge=in_edge_name,
                                        from_pin=pin)
                    candidates[out_edge] = timing.later_of(candidates.get(out_edge))
                    records.append(ArcRecord(in_net=in_net, in_pin=pin,
                                             in_edge=in_edge_name,
                                             out_edge=out_edge,
                                             delay=total_delay))
            require("rise" in candidates and "fall" in candidates,
                    f"net {net!r}: arcs of {inst.cell!r} never produce both "
                    f"output edges")
            result.rise[net] = candidates["rise"]
            result.fall[net] = candidates["fall"]
            result.arcs[net] = tuple(records)

        if required_times:
            self._propagate_required(graph, result, required_times)
        return result

    # ------------------------------------------------------------------
    def _propagate_required(self, graph: TimingGraph, result: StaResult,
                            required_times: dict[str, float]) -> None:
        """Backward-propagate required times, per edge, along recorded arcs.

        For every arc (in_net, in_edge) → (net, out_edge) with delay *d*,
        the input edge must satisfy ``req_in ≤ req_out − d``; each input
        (net, edge) takes the minimum over all arcs that consume it.
        Subtracting the *causal* edge's arc delay — rather than the gap
        between output arrival and the max input arrival — is what keeps
        slacks exact when rise/fall arrivals are asymmetric.
        """
        req = {"rise": dict(required_times), "fall": dict(required_times)}
        for net in reversed(graph.levels()):
            for rec in result.arcs.get(net, ()):
                out_req = req[rec.out_edge].get(net)
                if out_req is None:
                    continue
                cand = out_req - rec.delay
                cur = req[rec.in_edge].get(rec.in_net, math.inf)
                if cand < cur:
                    req[rec.in_edge][rec.in_net] = cand
        result.required_rise.update(req["rise"])
        result.required_fall.update(req["fall"])
        for net in set(req["rise"]) | set(req["fall"]):
            result.required[net] = min(
                req["rise"].get(net, math.inf), req["fall"].get(net, math.inf))
