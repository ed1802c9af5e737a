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

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..analysis.capacity import max_feasible_load
from ..core.bitstream import Number
from ..exceptions import AdmissionError, TopologyError, TrafficModelError

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
    "MigrationStudy",
    "failover_migration_study",
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


@dataclass
class MigrationStudy:
    """What one live-migration chaos run did, end to end.

    Produced by :func:`failover_migration_study`: a Table-1-class
    point-to-point workload on a dual-ring RTnet, one ring link failed
    mid-service, the failure *detected* by probing (not revealed), the
    victims migrated make-before-break, and the breaker walked through
    open -> half-open -> closed after the repair.
    """

    ring_nodes: int
    terminals: int
    established: int
    refused: int
    link: str
    policy: str
    #: probes it took the health monitor to declare the link down
    probes_to_detect: int
    #: failure-instant-to-declaration gap in simulated time units
    detection_latency: Optional[float]
    migrated: Tuple[str, ...]
    dropped: Tuple[str, ...]
    kept: Tuple[str, ...]
    #: breaker targets open right after the migration pass
    open_hops: Tuple[str, ...]
    #: did the breaker close again after link repair + probe?
    breaker_reclosed: bool
    #: no-double-booking invariant after the whole exercise
    booking_safe: bool
    #: selected registry counters captured at the end of the run
    metrics: Dict[str, float] = field(default_factory=dict)

    @property
    def survived(self) -> int:
        return len(self.migrated)

    def __repr__(self) -> str:
        return (
            f"MigrationStudy(link={self.link!r}, policy={self.policy!r}, "
            f"migrated={len(self.migrated)}, dropped={len(self.dropped)}, "
            f"kept={len(self.kept)}, "
            f"detection_latency={self.detection_latency})"
        )


def failover_migration_study(ring_nodes: int = 8,
                             sets_per_node: int = 1,
                             link: Optional[str] = None,
                             policy: str = "migrate-or-drop",
                             hop_timeout: float = 8.0,
                             suspicion_threshold: int = 3,
                             breaker_reset_timeout: float = 64.0,
                             max_probe_rounds: int = 10,
                             seed: int = 0,
                             ) -> MigrationStudy:
    """Fail one ring link mid-service and migrate around it, live.

    The software counterpart of the hardware wrap-around study: instead
    of re-admitting evacuated connections over a wrapped ring
    (:func:`evacuate_switch` + :func:`wrapped_analysis`), the network
    *keeps* the victims up by migrating them over the secondary-ring
    detour while their old legs are still booked.

    The exercise, step by step:

    1. build a dual-ring RTnet and admit one Table-1-class
       point-to-point connection per terminal (each terminal talks to
       its diametrically opposite peer, so half the connections cross
       any given ring link);
    2. fail ``link`` (default: the first primary ring link) in the
       fault injector -- the ground truth the health monitor must
       *detect*, never read;
    3. probe the dead hop until the monitor declares it down
       (``suspicion_threshold`` lost probes), measuring the detection
       latency;
    4. run :meth:`NetworkCAC.handle_link_failure` under ``policy`` --
       make-before-break migration over the reverse ring;
    5. repair the link, advance past the breaker's reset timeout and
       probe once more: the half-open probe reconciles the switch and
       closes the breaker.

    Returns the full :class:`MigrationStudy`, including the
    no-double-booking verdict and a snapshot of the survivability
    counters.  ``seed`` seeds the CAC's retry-jitter RNG, so a study is
    reproducible end to end (``repro-eval chaos --seed N``).
    """
    import random

    from ..core.admission import NetworkCAC
    from ..network.connection import ConnectionRequest
    from ..network.routing import shortest_path
    from ..obs import metrics as _om
    from ..robustness.faults import FaultInjector, FaultPlan
    from ..robustness.migration import no_double_booking
    from .topology import build_rtnet, ring_node, terminal_name
    from .workloads import plant_mix_workload

    terminals_per_node = 3 * sets_per_node
    net = build_rtnet(ring_nodes, terminals_per_node, dual_ring=True)
    workload = plant_mix_workload(ring_nodes, sets_per_node)
    injector = FaultInjector(FaultPlan([]))
    cac = NetworkCAC(
        net, fault_injector=injector, hop_timeout=hop_timeout,
        suspicion_threshold=suspicion_threshold,
        breaker_reset_timeout=breaker_reset_timeout,
        rng=random.Random(seed),
    )

    established = 0
    refused = 0
    half = ring_nodes // 2
    for (node, slot) in sorted(workload):
        traffic, priority = workload[(node, slot)]
        peer = terminal_name((node + half) % ring_nodes, slot)
        request = ConnectionRequest(
            f"vc{node}.{slot}", traffic,
            shortest_path(net, terminal_name(node, slot), peer),
            priority=priority,
        )
        try:
            cac.setup(request)
        except AdmissionError:
            refused += 1
        else:
            established += 1

    if link is None:
        link = f"{ring_node(0)}->{ring_node(1)}"
    target_switch = net.link(link).dst
    injector.fail_link(link)

    probes = 0
    while probes < max_probe_rounds and not cac.health.is_down(link):
        cac.probe(hops=[(target_switch, link)])
        probes += 1
    detection_latency = cac.health.detection_latency(link)

    report = cac.handle_link_failure(link, policy=policy)
    open_hops = tuple(cac.breakers.open_hops())

    injector.restore_link(link)
    # strictly past the timeout: float accumulation must not leave the
    # elapsed time an ulp short of the threshold
    cac.clock.advance(breaker_reset_timeout + 1.0)
    cac.probe(hops=[(target_switch, link)])
    breaker = cac.breakers.breaker(target_switch, link)

    registry = _om.get_registry()
    metrics: Dict[str, float] = {}
    if registry.enabled:
        snap = registry.snapshot()
        for name in ("cac_migrations_total",
                     "cac_breaker_fast_fails_total",
                     "cac_failure_detections_total",
                     "signaling_fast_fails_total"):
            for label, value in snap.get(name, {}).items():
                key = f"{name}{{{label}}}" if label else name
                if isinstance(value, (int, float)):
                    metrics[key] = float(value)

    return MigrationStudy(
        ring_nodes=ring_nodes,
        terminals=ring_nodes * terminals_per_node,
        established=established,
        refused=refused,
        link=link,
        policy=policy,
        probes_to_detect=probes,
        detection_latency=detection_latency,
        migrated=report.migrated,
        dropped=report.dropped,
        kept=report.kept,
        open_hops=open_hops,
        breaker_reclosed=breaker.state == "closed",
        booking_safe=no_double_booking(cac),
        metrics=metrics,
    )
