"""Routes over a :class:`~repro.network.topology.Network`.

A route is the ordered list of links a connection's cells traverse from
the source end system to the destination.  The CAC only performs its
check at *queueing points* -- output ports of switches -- so a route
distinguishes the source-controlled access link (no queueing: the source
itself spaces cells per its traffic contract) from the switch hops.

The paper assumes a *preselected* route carried by the SETUP message
(Section 4.1); this module provides explicit route construction plus the
two selection helpers the examples and the RTnet model need: BFS
shortest path and ring walks.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import (
    AbstractSet,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..exceptions import RoutingError
from .topology import Link, Network

__all__ = ["Hop", "Route", "shortest_path", "alternate_paths", "ring_walk"]


@dataclass(frozen=True)
class Hop:
    """One queueing point on a route.

    Attributes
    ----------
    switch:
        The switching node whose output port queues the cells.
    in_link:
        The link the cells arrive by.
    out_link:
        The link the cells leave by (the queueing point is this link's
        output port).
    """

    switch: str
    in_link: str
    out_link: str


class Route:
    """An ordered, validated path of links from a source to a destination.

    Parameters
    ----------
    network:
        The topology the route lives in.
    link_names:
        The links in traversal order.  Consecutive links must share the
        intermediate node, the first link must leave the source end
        system, and every intermediate node must be a switch.
    """

    def __init__(self, network: Network, link_names: Sequence[str]):
        if not link_names:
            raise RoutingError("a route needs at least one link")
        links = self._links = [network.link(name) for name in link_names]
        hops: List[Hop] = []
        if network.node(links[0].src).is_switch:
            # The first link is itself a switch output port.
            hops.append(Hop(links[0].src, "@source", links[0].name))
        for earlier, later in zip(links, links[1:]):
            if earlier.dst != later.src:
                raise RoutingError(
                    f"links {earlier.name!r} and {later.name!r} do not "
                    f"connect: {earlier.dst!r} != {later.src!r}"
                )
            if not network.node(earlier.dst).is_switch:
                raise RoutingError(
                    f"intermediate node {earlier.dst!r} is not a switch"
                )
            hops.append(Hop(earlier.dst, earlier.name, later.name))
        #: The queueing points, built once: they depend on the links alone.
        self._hops: Tuple[Hop, ...] = tuple(hops)

    @property
    def source(self) -> str:
        """The node the route starts at."""
        return self._links[0].src

    @property
    def destination(self) -> str:
        """The node the route ends at."""
        return self._links[-1].dst

    @property
    def links(self) -> Tuple[Link, ...]:
        """All links in traversal order."""
        return tuple(self._links)

    @property
    def link_names(self) -> Tuple[str, ...]:
        """Names of all links in traversal order."""
        return tuple(link.name for link in self._links)

    def hops(self) -> List[Hop]:
        """The queueing points: one per switch output port traversed.

        The access link out of a terminal source is rate-controlled at
        the source and contributes no queueing, so it appears only as
        the ``in_link`` of the first hop.  A route that starts directly
        at a switch treats a synthetic ``"@source"`` port as its first
        incoming link.

        Every call returns a fresh list of the same :class:`Hop`
        objects, which the route builds once.
        """
        return list(self._hops)

    def __len__(self) -> int:
        return len(self._links)

    def __iter__(self) -> Iterator[Link]:
        return iter(self._links)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Route):
            return NotImplemented
        return self.link_names == other.link_names

    def __hash__(self) -> int:
        return hash(self.link_names)

    def __repr__(self) -> str:
        path = " -> ".join([self.source] + [link.dst for link in self._links])
        return f"Route({path})"


def shortest_path(network: Network, src: str, dst: str,
                  avoid: AbstractSet[str] = frozenset()) -> Route:
    """BFS shortest path (fewest links) from ``src`` to ``dst``.

    Terminals cannot forward: paths never traverse *through* an end
    system, though they may start or end at one.

    ``avoid`` names links and/or intermediate nodes the path must not
    use, e.g. to route around a failed link or a crashed switch.  Avoided
    names are matched against both link and node names; ``src`` and
    ``dst`` themselves cannot be avoided.
    """
    network.node(src)
    network.node(dst)
    if src == dst:
        raise RoutingError(f"source and destination are both {src!r}")
    parent: Dict[str, Link] = {}
    seen = {src}
    frontier = deque([src])
    while frontier:
        here = frontier.popleft()
        for link in network.out_links(here):
            nxt = link.dst
            if link.name in avoid or (nxt != dst and nxt in avoid):
                continue
            if nxt in seen:
                continue
            parent[nxt] = link
            if nxt == dst:
                chain: List[str] = []
                node = dst
                while node != src:
                    chain.append(parent[node].name)
                    node = parent[node].src
                return Route(network, list(reversed(chain)))
            if network.node(nxt).is_switch:
                seen.add(nxt)
                frontier.append(nxt)
            else:
                seen.add(nxt)  # terminal: reachable but not traversable
    detour = f" avoiding {sorted(avoid)}" if avoid else ""
    raise RoutingError(f"no route from {src!r} to {dst!r}{detour}")


def alternate_paths(network: Network, src: str, dst: str, k: int,
                    avoid: AbstractSet[str] = frozenset()) -> List[Route]:
    """The ``k`` best loopless routes from ``src`` to ``dst``, in order.

    Candidate routes are enumerated best-first by ``(hop count,
    link-name sequence)``: fewer links always wins, and equal-length
    paths are ordered lexicographically by their link names -- a stable,
    topology-intrinsic tie-break, so the returned list is deterministic
    across runs, processes and insertion orders.  The alternate-path
    admission policies of :mod:`repro.workload.policies` lean on exactly
    this determinism for bit-identical churn replays.

    Routes are *loopless* (no node revisited) and, like
    :func:`shortest_path`, never traverse *through* a terminal.
    ``avoid`` names links and/or intermediate nodes no returned route
    may use (``src``/``dst`` themselves cannot be avoided).

    Returns fewer than ``k`` routes -- possibly none -- when the
    topology does not offer that many distinct loopless paths; callers
    treat an empty list as "unroutable" rather than an error, which is
    what lets a retry policy degrade gracefully on a partitioned
    network.

    The routes depend on the topology alone, so each network memoizes
    them per ``(src, dst, k, avoid)`` until its next ``add_node`` or
    ``add_link``; every call returns a fresh list.
    """
    key = (src, dst, k, frozenset(avoid))
    memo = network._path_memo
    found = memo.get(key)
    if found is None:
        found = memo[key] = _k_best(network, src, dst, k, avoid)
    return list(found)


def _k_best(network: Network, src: str, dst: str, k: int,
            avoid: AbstractSet[str]) -> List[Route]:
    """:func:`alternate_paths` without the memo."""
    network.node(src)
    network.node(dst)
    if src == dst:
        raise RoutingError(f"source and destination are both {src!r}")
    if k < 1:
        raise RoutingError(f"need k >= 1 alternate paths, got {k}")
    found: List[Route] = []
    # (hop count, link names, current node, nodes on the path).  The
    # (count, names) prefix is unique per partial path, so heapq never
    # falls through to comparing the frozenset.
    frontier: List[Tuple[int, Tuple[str, ...], str, FrozenSet[str]]] = [
        (0, (), src, frozenset((src,)))
    ]
    while frontier and len(found) < k:
        length, names, here, visited = heapq.heappop(frontier)
        if here == dst:
            found.append(Route(network, list(names)))
            continue
        for link in sorted(network.out_links(here), key=lambda l: l.name):
            nxt = link.dst
            if link.name in avoid or nxt in visited:
                continue
            if nxt != dst:
                if nxt in avoid:
                    continue
                if not network.node(nxt).is_switch:
                    continue  # terminals cannot forward
            heapq.heappush(frontier, (
                length + 1, names + (link.name,), nxt, visited | {nxt},
            ))
    return found


def ring_walk(network: Network, start_switch: str, hops: int,
              access_from: Optional[str] = None) -> Route:
    """A route walking ``hops`` steps around a unidirectional ring.

    Follows, at every switch, its single outgoing switch-to-switch link
    (the ring link).  When ``access_from`` names a terminal, its access
    link is prepended -- the usual shape of an RTnet broadcast that
    starts at a terminal and circles the ring.
    """
    if hops < 1:
        raise RoutingError(f"need at least one hop, got {hops}")
    names: List[str] = []
    if access_from is not None:
        names.append(network.find_link(access_from, start_switch).name)
    here = start_switch
    for _ in range(hops):
        ring_links = [
            link for link in network.out_links(here)
            if network.node(link.dst).is_switch
        ]
        if len(ring_links) != 1:
            raise RoutingError(
                f"node {here!r} has {len(ring_links)} switch-to-switch "
                f"links; a ring walk needs exactly one"
            )
        names.append(ring_links[0].name)
        here = ring_links[0].dst
    return Route(network, names)
