"""Ring wrap-around after a single link/node failure (Figure 9).

RTnet's star-ring "can tolerate any single link/node failure by using a
hardware ring wrap-around technology similar to that used in FDDI
networks": the dual counter-rotating rings heal into one longer logical
ring.  The paper claims the fault tolerance; this module quantifies its
*real-time cost* -- the wrapped ring has roughly twice the hops, so CDV
accumulates twice as deep and both per-link bounds and end-to-end
deadlines tighten.

Model: after a wrap, a ring of ``R`` nodes becomes a logical cycle of
``2R - 2`` queueing points (each surviving node contributes its primary
and its secondary output port; the two wrap nodes contribute one each).
Terminals still inject at their physical node's primary position -- the
remaining positions carry transit traffic only.  A cyclic broadcast
must circle the whole wrapped cycle to reach every physical node, so
its route grows from ``R - 1`` to ``2R - 3`` hops.

:class:`RingAnalysis` handles transit-only positions natively (they
just have no workload entries), so the wrapped study reuses the exact
same worst-case machinery as the healthy-ring figures.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from ..analysis.capacity import max_feasible_load
from ..core.bitstream import Number
from ..exceptions import TopologyError, TrafficModelError

if TYPE_CHECKING:  # pragma: no cover - type-only import, avoids a cycle
    from ..core.admission import NetworkCAC
    from ..network.connection import ConnectionRequest
from .constants import (
    CYCLIC_PRIORITY,
    HIGH_SPEED_DELAY_CELLS,
    NODE_DELAY_BOUND,
    RING_NODES,
)
from .evaluation import RingAnalysis
from .workloads import TrafficAssignment, symmetric_workload

__all__ = [
    "wrapped_ring_size",
    "wrapped_workload",
    "wrapped_analysis",
    "failover_capacity",
    "failover_capacity_curve",
    "evacuate_switch",
]


def evacuate_switch(cac: "NetworkCAC",
                    switch_name: str) -> List["ConnectionRequest"]:
    """Crash one switch and tear down every connection crossing it.

    The moment the wrap-around of Figure 9 must handle: a node dies and
    the connections routed through it lose their guarantees.  The dead
    switch's volatile CAC state is gone (its journal survives), so the
    teardown leans on the robustness machinery -- per-hop release is
    idempotent and the crashed hop is skipped; calling
    :meth:`~repro.core.admission.NetworkCAC.recover_switch` afterwards
    replays the journal and reconciles away the orphaned legs.

    Returns the affected requests, in establishment order, so the
    caller can re-admit them over wrapped routes and measure the
    real-time cost of the healed ring with
    :func:`wrapped_analysis`/:func:`failover_capacity`.
    """
    cac.switch(switch_name).crash()
    affected = [
        connection.request for connection in cac.established.values()
        if any(hop.switch == switch_name for hop in connection.hops)
    ]
    for request in affected:
        cac.teardown(request.name)
    return affected


def wrapped_ring_size(ring_nodes: int) -> int:
    """Queueing points on the healed logical ring after one failure."""
    if ring_nodes < 3:
        raise TopologyError(
            f"a wrappable ring needs at least 3 nodes, got {ring_nodes}"
        )
    return 2 * ring_nodes - 2


def wrapped_workload(workload: TrafficAssignment,
                     ring_nodes: int) -> TrafficAssignment:
    """Re-key a healthy-ring workload onto the wrapped cycle.

    Physical node ``i`` keeps its terminals at wrapped position ``i``
    (its primary output port); positions ``ring_nodes .. 2R-3`` are the
    secondary ports and carry transit traffic only.
    """
    for (node, _slot) in workload:
        if node >= ring_nodes:
            raise TrafficModelError(
                f"workload references node {node} outside the "
                f"{ring_nodes}-node ring"
            )
    return dict(workload)


def wrapped_analysis(workload: TrafficAssignment,
                     ring_nodes: int = RING_NODES,
                     node_bound: Number = NODE_DELAY_BOUND,
                     cdv_policy: str = "hard") -> RingAnalysis:
    """The worst-case analysis of the post-failure wrapped ring."""
    return RingAnalysis(
        wrapped_workload(workload, ring_nodes),
        ring_nodes=wrapped_ring_size(ring_nodes),
        node_bound=node_bound,
        cdv_policy=cdv_policy,
    )


def failover_capacity(terminals_per_node: int,
                      ring_nodes: int = RING_NODES,
                      node_bound: Number = NODE_DELAY_BOUND,
                      e2e_requirement: Optional[Number] = None,
                      cdv_policy: str = "hard",
                      tolerance: float = 1 / 128,
                      ) -> Tuple[float, float]:
    """Max symmetric cyclic load before and after a single failure.

    Returns ``(healthy_max_load, wrapped_max_load)`` under the same
    per-link queue bound and end-to-end deadline.  The wrapped value is
    what a plant designer must provision for if hard guarantees are to
    *survive* a failure rather than merely recover eventually.
    """
    if e2e_requirement is None:
        e2e_requirement = HIGH_SPEED_DELAY_CELLS

    def healthy_feasible(load: float) -> bool:
        workload = symmetric_workload(load, ring_nodes, terminals_per_node)
        analysis = RingAnalysis(workload, ring_nodes, node_bound,
                                cdv_policy)
        return analysis.feasible(
            e2e_requirements={CYCLIC_PRIORITY: e2e_requirement})

    def wrapped_feasible(load: float) -> bool:
        workload = symmetric_workload(load, ring_nodes, terminals_per_node)
        analysis = wrapped_analysis(workload, ring_nodes, node_bound,
                                    cdv_policy)
        return analysis.feasible(
            e2e_requirements={CYCLIC_PRIORITY: e2e_requirement})

    healthy = max_feasible_load(healthy_feasible, tolerance=tolerance)
    wrapped = max_feasible_load(wrapped_feasible, tolerance=tolerance)
    return healthy, wrapped


def failover_capacity_curve(terminal_counts: Sequence[int],
                            ring_nodes: int = RING_NODES,
                            tolerance: float = 1 / 128,
                            ) -> List[Tuple[int, float, float]]:
    """``(N, healthy, wrapped)`` rows across terminal counts."""
    return [(count, *failover_capacity(count, ring_nodes,
                                       tolerance=tolerance))
            for count in terminal_counts]
