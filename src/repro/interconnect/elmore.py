"""Elmore delay and first moments of RC trees.

The paper's E4 technique is "inspired by the Elmore delay idea [2]"; this
module provides the classic first-moment delay both as an independent
reference for testing the circuit simulator on RC networks and as the wire
model of the conventional STA engine.

The implementation works on any RC *tree*: resistances form a tree rooted
at the driver, every node may carry grounded capacitance.  (Coupling
capacitors are handled by the noise-aware flow, not by Elmore.)
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .._util import require

__all__ = ["RcTree", "elmore_delay", "elmore_delays_line"]


@dataclass
class RcTree:
    """An RC tree rooted at ``root``.

    Build with :meth:`add_resistor` (parent → child) and
    :meth:`add_capacitance` (node → ground).  The structure must stay a
    tree: every node except the root has exactly one resistive parent.
    """

    root: str
    _parent: dict[str, tuple[str, float]] = field(default_factory=dict)
    _cap: dict[str, float] = field(default_factory=dict)
    _children: dict[str, list[str]] = field(default_factory=dict)

    def add_resistor(self, parent: str, child: str, resistance: float) -> None:
        """Attach ``child`` below ``parent`` through ``resistance`` ohms."""
        require(resistance >= 0.0, "resistance must be non-negative")
        require(child != self.root, "cannot re-parent the root")
        require(child not in self._parent, f"node {child!r} already has a parent")
        self._parent[child] = (parent, resistance)
        self._children.setdefault(parent, []).append(child)

    def add_capacitance(self, node: str, capacitance: float) -> None:
        """Add grounded capacitance at ``node`` (accumulates)."""
        require(capacitance >= 0.0, "capacitance must be non-negative")
        self._cap[node] = self._cap.get(node, 0.0) + capacitance

    @property
    def nodes(self) -> list[str]:
        """All nodes, root first, in insertion (topological) order."""
        seen = [self.root]
        stack = [self.root]
        while stack:
            for child in self._children.get(stack.pop(0), []):
                seen.append(child)
                stack.append(child)
        return seen

    def capacitance(self, node: str) -> float:
        """Grounded capacitance at ``node``."""
        return self._cap.get(node, 0.0)

    def path_to_root(self, node: str) -> list[tuple[str, float]]:
        """Resistor chain from ``node`` up to the root: ``(parent, R)`` hops."""
        path = []
        current = node
        while current != self.root:
            require(current in self._parent, f"node {current!r} is not in the tree")
            parent, r = self._parent[current]
            path.append((parent, r))
            current = parent
        return path

    def downstream_capacitance(self, node: str) -> float:
        """Total capacitance at and below ``node``."""
        total = self.capacitance(node)
        for child in self._children.get(node, []):
            total += self.downstream_capacitance(child)
        return total


def elmore_delay(tree: RcTree, sink: str) -> float:
    """First-moment (Elmore) delay from the tree root to ``sink``.

    ``T_D(sink) = Σ_k  C_k · R(path(root→sink) ∩ path(root→k))`` — the
    classic shared-path-resistance formulation.
    """
    # Resistance from root to each node on the sink path, cumulative.
    sink_path = list(reversed(tree.path_to_root(sink)))  # root-side first
    # Map: node -> cumulative resistance from root, for nodes on sink path.
    cum_r: dict[str, float] = {tree.root: 0.0}
    node = tree.root
    running = 0.0
    # Reconstruct downward order of the sink path.
    down_nodes = [tree.root]
    current = sink
    chain = [sink]
    while current != tree.root:
        parent, _ = tree._parent[current]
        chain.append(parent)
        current = parent
    chain.reverse()  # root ... sink
    for i in range(1, len(chain)):
        _, r = tree._parent[chain[i]]
        running += r
        cum_r[chain[i]] = running
        down_nodes.append(chain[i])

    on_path = set(chain)
    delay = 0.0
    for k in tree.nodes:
        # Shared resistance = cumulative R at the deepest sink-path ancestor.
        current = k
        while current not in on_path:
            current, _ = tree._parent[current]
        delay += tree.capacitance(k) * cum_r[current]
    return delay


def elmore_delays_line(total_r, total_c, n_segments: int, load_c=0.0):
    """Elmore delay of a uniform π-segmented line with far-end load.

    Matches the discretisation of :func:`repro.interconnect.rcline.add_rc_line`
    exactly, so it can cross-validate the circuit simulator on the same
    structure.  This is :func:`elmore_delay` on that line's tree, summed
    node by node in the same order (bit-for-bit), written out so that
    ``total_r``, ``total_c`` and ``load_c`` broadcast as arrays — one
    delay per Monte-Carlo sample.
    """
    require(n_segments >= 1, "need at least one segment")
    r_seg = total_r / n_segments
    c_half = total_c / n_segments / 2.0
    # The root node n0 sits at zero resistance and adds nothing.
    cum_r = 0.0
    delay = 0.0
    for k in range(1, n_segments + 1):
        cum_r = cum_r + r_seg
        c_here = c_half + load_c if k == n_segments else 2 * c_half
        delay = delay + c_here * cum_r
    return delay
