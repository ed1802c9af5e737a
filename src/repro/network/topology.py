"""Network topology substrate: nodes, unidirectional links, builders.

The CAC analysis needs very little from a topology: which nodes are
switches (their output ports are queueing points), which are terminals
(their access links are source-rate-controlled, hence *not* queueing
points), how links connect them, and the advertised per-priority delay
bounds of each switch output port.

Links are unidirectional; a full-duplex cable is two links.  Capacities
are normalized (1.0 == the reference link rate of the unit system); the
paper's analysis is stated for uniform-rate networks like RTnet and we
keep that assumption, validating it at build time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

from ..exceptions import TopologyError

__all__ = [
    "Node",
    "Link",
    "Network",
    "line_network",
    "ring_network",
    "star_network",
]

SWITCH = "switch"
TERMINAL = "terminal"


@dataclass(frozen=True)
class Node:
    """A network element.

    ``kind`` is ``"switch"`` (queues and forwards cells; its output
    ports run the CAC check) or ``"terminal"`` (an end system whose
    traffic is rate-controlled at the source).
    """

    name: str
    kind: str = SWITCH

    def __post_init__(self) -> None:
        if self.kind not in (SWITCH, TERMINAL):
            raise TopologyError(
                f"node kind must be 'switch' or 'terminal', got {self.kind!r}"
            )

    @property
    def is_switch(self) -> bool:
        return self.kind == SWITCH

    @property
    def is_terminal(self) -> bool:
        return self.kind == TERMINAL


@dataclass(frozen=True)
class Link:
    """A unidirectional link from ``src`` to ``dst``.

    Attributes
    ----------
    name:
        Unique identifier, defaulting to ``"src->dst"``.
    capacity:
        Normalized bandwidth; the analysis assumes the uniform unit rate.
    bounds:
        Advertised per-priority queueing delay bounds ``D(j, p)`` of the
        output port driving this link (only meaningful when ``src`` is a
        switch).  In RTnet this is the FIFO queue size in cells.
    """

    name: str
    src: str
    dst: str
    capacity: float = 1.0
    bounds: Mapping[int, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise TopologyError(
                f"link {self.name!r} capacity must be positive, got "
                f"{self.capacity}"
            )


class Network:
    """A directed network of switches, terminals and links.

    Examples
    --------
    >>> net = Network()
    >>> _ = net.add_terminal("t0")
    >>> _ = net.add_switch("s0")
    >>> net.add_link("t0", "s0").name
    't0->s0'
    """

    def __init__(self) -> None:
        self._nodes: Dict[str, Node] = {}
        self._links: Dict[str, Link] = {}
        self._out: Dict[str, List[str]] = {}   # node -> outgoing link names
        self._in: Dict[str, List[str]] = {}    # node -> incoming link names
        #: alternate_paths results by (src, dst, k, avoid); every
        #: mutator clears it (see repro.network.routing).
        self._path_memo: Dict[tuple, list] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_node(self, name: str, kind: str = SWITCH) -> Node:
        """Add a node; rejects duplicates."""
        if name in self._nodes:
            raise TopologyError(f"duplicate node {name!r}")
        node = Node(name, kind)
        self._path_memo.clear()
        self._nodes[name] = node
        self._out[name] = []
        self._in[name] = []
        return node

    def add_switch(self, name: str) -> Node:
        """Add a switching node."""
        return self.add_node(name, SWITCH)

    def add_terminal(self, name: str) -> Node:
        """Add an end-system node."""
        return self.add_node(name, TERMINAL)

    def add_link(self, src: str, dst: str, name: Optional[str] = None,
                 capacity: float = 1.0,
                 bounds: Optional[Mapping[int, float]] = None) -> Link:
        """Add a unidirectional link; both endpoints must already exist."""
        for endpoint in (src, dst):
            if endpoint not in self._nodes:
                raise TopologyError(f"unknown node {endpoint!r}")
        if src == dst:
            raise TopologyError(f"self-loop on {src!r} is not allowed")
        link_name = name if name is not None else f"{src}->{dst}"
        if link_name in self._links:
            raise TopologyError(f"duplicate link {link_name!r}")
        link = Link(link_name, src, dst, capacity, dict(bounds or {}))
        self._path_memo.clear()
        self._links[link_name] = link
        self._out[src].append(link_name)
        self._in[dst].append(link_name)
        return link

    def add_duplex(self, a: str, b: str, capacity: float = 1.0,
                   bounds: Optional[Mapping[int, float]] = None
                   ) -> Tuple[Link, Link]:
        """Add both directions of a full-duplex cable."""
        forward = self.add_link(a, b, capacity=capacity, bounds=bounds)
        backward = self.add_link(b, a, capacity=capacity, bounds=bounds)
        return forward, backward

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def node(self, name: str) -> Node:
        """Look up a node by name."""
        try:
            return self._nodes[name]
        except KeyError:
            raise TopologyError(f"unknown node {name!r}") from None

    def link(self, name: str) -> Link:
        """Look up a link by name."""
        try:
            return self._links[name]
        except KeyError:
            raise TopologyError(f"unknown link {name!r}") from None

    def nodes(self, kind: Optional[str] = None) -> Iterator[Node]:
        """All nodes, optionally restricted to one kind."""
        for node in self._nodes.values():
            if kind is None or node.kind == kind:
                yield node

    def switches(self) -> Iterator[Node]:
        """All switching nodes."""
        return self.nodes(SWITCH)

    def terminals(self) -> Iterator[Node]:
        """All end systems."""
        return self.nodes(TERMINAL)

    def links(self) -> Iterator[Link]:
        """All links."""
        return iter(self._links.values())

    def out_links(self, node: str) -> List[Link]:
        """Links leaving ``node``."""
        self.node(node)
        return [self._links[name] for name in self._out[node]]

    def in_links(self, node: str) -> List[Link]:
        """Links entering ``node``."""
        self.node(node)
        return [self._links[name] for name in self._in[node]]

    def find_link(self, src: str, dst: str) -> Link:
        """The (first) link from ``src`` to ``dst``."""
        for name in self._out.get(src, []):
            if self._links[name].dst == dst:
                return self._links[name]
        raise TopologyError(f"no link from {src!r} to {dst!r}")

    def __contains__(self, name: str) -> bool:
        return name in self._nodes or name in self._links

    def __repr__(self) -> str:
        switches = sum(1 for _ in self.switches())
        terminals = sum(1 for _ in self.terminals())
        return (
            f"Network(switches={switches}, terminals={terminals}, "
            f"links={len(self._links)})"
        )


# ----------------------------------------------------------------------
# Builders
# ----------------------------------------------------------------------


def line_network(num_switches: int, bounds: Mapping[int, float],
                 terminals_per_switch: int = 1) -> Network:
    """A chain ``s0 -> s1 -> ... `` with terminals hanging off each switch.

    Switch-to-switch links are duplex; each terminal ``t{i}.{k}`` gets a
    duplex access link to its switch.  All switch output ports advertise
    the given ``bounds``.
    """
    if num_switches < 1:
        raise TopologyError("need at least one switch")
    net = Network()
    for index in range(num_switches):
        net.add_switch(f"s{index}")
    for index in range(num_switches - 1):
        net.add_duplex(f"s{index}", f"s{index + 1}", bounds=bounds)
    _attach_terminals(net, num_switches, terminals_per_switch, bounds)
    return net


def ring_network(num_switches: int, bounds: Mapping[int, float],
                 terminals_per_switch: int = 1) -> Network:
    """A unidirectional ring ``s0 -> s1 -> ... -> s0`` with terminals.

    This is the primary-direction RTnet ring (the secondary ring exists
    for failure wrap-around and carries no traffic in normal operation,
    so the analysis models one direction).
    """
    if num_switches < 2:
        raise TopologyError("a ring needs at least two switches")
    net = Network()
    for index in range(num_switches):
        net.add_switch(f"s{index}")
    for index in range(num_switches):
        nxt = (index + 1) % num_switches
        net.add_link(f"s{index}", f"s{nxt}", bounds=bounds)
    _attach_terminals(net, num_switches, terminals_per_switch, bounds)
    return net


def star_network(num_terminals: int, bounds: Mapping[int, float],
                 hub: str = "hub") -> Network:
    """A single switch with ``num_terminals`` terminals attached."""
    if num_terminals < 1:
        raise TopologyError("need at least one terminal")
    net = Network()
    net.add_switch(hub)
    for index in range(num_terminals):
        term = f"t{index}"
        net.add_terminal(term)
        net.add_link(term, hub, bounds={})
        net.add_link(hub, term, bounds=bounds)
    return net


def _attach_terminals(net: Network, num_switches: int,
                      terminals_per_switch: int,
                      bounds: Mapping[int, float]) -> None:
    for index in range(num_switches):
        for slot in range(terminals_per_switch):
            term = f"t{index}.{slot}"
            net.add_terminal(term)
            net.add_link(term, f"s{index}", bounds={})
            net.add_link(f"s{index}", term, bounds=bounds)
