"""The RTnet star-ring topology (Figure 9).

Ring nodes are connected in a ring by 155 Mbps links (the dual/secondary
ring exists for hardware failure wrap-around and carries no traffic in
normal operation, so the model builds the primary direction); each ring
node hosts ``N`` terminals on star access links.  Cyclic traffic gets
the highest-priority 32-cell FIFO at every ring-node output port.
"""

from __future__ import annotations

from typing import Mapping, Optional

from ..exceptions import TopologyError
from ..network.routing import Route, ring_walk
from ..network.topology import Network
from .constants import CYCLIC_QUEUE_CELLS, CYCLIC_PRIORITY, RING_NODES

__all__ = ["build_rtnet", "broadcast_route", "ring_node", "terminal_name"]


def ring_node(index: int) -> str:
    """Name of ring node ``index``."""
    return f"ring{index}"


def terminal_name(node_index: int, slot: int) -> str:
    """Name of terminal ``slot`` on ring node ``node_index``."""
    return f"term{node_index}.{slot}"


def build_rtnet(ring_nodes: int = RING_NODES,
                terminals_per_node: int = 1,
                bounds: Optional[Mapping[int, float]] = None,
                dual_ring: bool = False) -> Network:
    """Build an RTnet: a ring of switches with star-attached terminals.

    Parameters
    ----------
    ring_nodes:
        Number of ring nodes (the reference RTnet has 16).
    terminals_per_node:
        Terminals attached to every ring node (up to 16 in RTnet).
    bounds:
        Advertised per-priority delay bounds of every ring-node output
        port; defaults to the single cyclic priority with the 32-cell
        queue (``{0: 32}``).
    dual_ring:
        Also build the secondary (counter-rotating) ring links.  The
        healthy-ring analyses keep the default ``False`` -- the
        secondary ring carries no traffic in normal operation -- but
        churn workloads route over both directions (k-alternate
        crankback uses the reverse ring).  Note a dual-ring network has two
        switch-to-switch out-links per ring node, so
        :func:`~repro.network.routing.ring_walk` (and therefore
        :func:`broadcast_route`) cannot be used on it; route
        point-to-point with
        :func:`~repro.network.routing.shortest_path` instead.
    """
    if ring_nodes < 2:
        raise TopologyError("an RTnet ring needs at least two ring nodes")
    if terminals_per_node < 1:
        raise TopologyError("each ring node needs at least one terminal")
    port_bounds = dict(bounds) if bounds is not None else {
        CYCLIC_PRIORITY: CYCLIC_QUEUE_CELLS,
    }
    net = Network()
    for index in range(ring_nodes):
        net.add_switch(ring_node(index))
    for index in range(ring_nodes):
        nxt = (index + 1) % ring_nodes
        net.add_link(ring_node(index), ring_node(nxt), bounds=port_bounds)
    if dual_ring:
        for index in range(ring_nodes):
            nxt = (index + 1) % ring_nodes
            net.add_link(ring_node(nxt), ring_node(index),
                         bounds=port_bounds)
    for index in range(ring_nodes):
        for slot in range(terminals_per_node):
            term = terminal_name(index, slot)
            net.add_terminal(term)
            net.add_link(term, ring_node(index))
            net.add_link(ring_node(index), term, bounds=port_bounds)
    return net


def broadcast_route(net: Network, node_index: int, slot: int) -> Route:
    """The route of one terminal's cyclic broadcast.

    The broadcast enters at the terminal's ring node and circles the
    ring through all ``ring_nodes - 1`` downstream ring links, reaching
    every other ring node (each node copies the cells to its local
    terminals; local delivery ports are not on the ring's critical path
    and are not modelled as hops of the broadcast).
    """
    ring_size = sum(1 for _ in net.switches())
    return ring_walk(
        net, ring_node(node_index), hops=ring_size - 1,
        access_from=terminal_name(node_index, slot),
    )
