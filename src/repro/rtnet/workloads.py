"""Cyclic-traffic workload generators for the Section 5 evaluation.

A workload assigns every terminal of an RTnet a traffic descriptor and
a priority:

* the **symmetric** pattern of Figure 10 -- the cyclic shared memory is
  divided equally, every terminal broadcasts at ``PCR = B / (R * N)``;
* the **asymmetric** pattern of Figures 11-13 -- one hot terminal
  generates a fraction ``p`` of the total load ``B`` and the remaining
  ``R * N - 1`` terminals split the rest equally.

Workloads are plain mappings ``(node, slot) -> (VBRParameters,
priority)`` so both evaluation paths -- the direct ring analysis and the
full incremental CAC -- consume the same object.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..core.traffic import VBRParameters, cbr
from ..exceptions import TrafficModelError
from .constants import CYCLIC_PRIORITY

__all__ = [
    "TrafficAssignment",
    "symmetric_workload",
    "asymmetric_workload",
    "plant_mix_workload",
]

#: (node index, terminal slot) -> (traffic descriptor, priority)
TrafficAssignment = Dict[Tuple[int, int], Tuple[VBRParameters, int]]


def check_ring_load(total_load: float, ring_nodes: int,
                    terminals_per_node: int) -> None:
    """Refuse a total load outside (0, 1] or a ring without terminals."""
    if not 0 < total_load <= 1:
        raise TrafficModelError(
            f"total load must be in (0, 1], got {total_load}"
        )
    if ring_nodes < 1 or terminals_per_node < 1:
        raise TrafficModelError(
            f"need at least one ring node and one terminal per node, got "
            f"{ring_nodes} nodes x {terminals_per_node} terminals"
        )


def symmetric_workload(total_load: float, ring_nodes: int,
                       terminals_per_node: int,
                       priority: int = CYCLIC_PRIORITY) -> TrafficAssignment:
    """Every terminal broadcasts an equal share of the total load.

    ``total_load`` is the aggregate normalized bandwidth ``B``; each of
    the ``ring_nodes * terminals_per_node`` terminals gets a CBR
    connection with ``PCR = B / (ring_nodes * terminals_per_node)``.
    """
    check_ring_load(total_load, ring_nodes, terminals_per_node)
    share = total_load / (ring_nodes * terminals_per_node)
    return {
        (node, slot): (cbr(share), priority)
        for node in range(ring_nodes)
        for slot in range(terminals_per_node)
    }


def plant_mix_workload(ring_nodes: int,
                       sets_per_node: int = 1,
                       priorities: Tuple[int, int, int] = (0, 0, 0),
                       ) -> TrafficAssignment:
    """The full Table 1 traffic mix: all three cyclic classes at once.

    Every ring node hosts ``sets_per_node`` sets of three terminals, one
    per cyclic class (high / medium / low speed); each class's
    network-wide bandwidth is the Table 1 figure (with cell overhead,
    since that is what rides the wire), divided equally over the class's
    terminals.  ``priorities`` assigns a static priority to each class,
    in Table 1 order -- ``(0, 0, 0)`` is the single-priority operation
    the paper says suffices for small configurations.

    Terminal slots: slot ``3*s + c`` is set ``s``'s class-``c`` terminal.
    """
    from ..units import RTNET_LINK
    from .cyclic import HIGH_SPEED, LOW_SPEED, MEDIUM_SPEED
    if sets_per_node < 1:
        raise TrafficModelError(
            f"need at least one class set per node, got {sets_per_node}"
        )
    classes = (HIGH_SPEED, MEDIUM_SPEED, LOW_SPEED)
    workload: TrafficAssignment = {}
    for node in range(ring_nodes):
        for set_index in range(sets_per_node):
            for class_index, cls in enumerate(classes):
                rate = RTNET_LINK.normalized_rate(
                    cls.required_bandwidth_bps()
                ) / (ring_nodes * sets_per_node)
                slot = 3 * set_index + class_index
                workload[(node, slot)] = (
                    cbr(rate), priorities[class_index])
    return workload


def asymmetric_workload(total_load: float, hot_fraction: float,
                        ring_nodes: int, terminals_per_node: int,
                        hot_priority: int = CYCLIC_PRIORITY,
                        other_priority: int = CYCLIC_PRIORITY,
                        hot_node: int = 0,
                        hot_slot: int = 0) -> TrafficAssignment:
    """One hot terminal generates ``hot_fraction`` of the total load.

    The remaining terminals split ``(1 - hot_fraction) * total_load``
    equally.  ``hot_fraction`` of 0 degenerates to (almost) the
    symmetric pattern; 1 concentrates everything on the hot terminal.
    Raises :class:`TrafficModelError` for a load outside (0, 1], a
    fraction outside [0, 1], an empty ring, or a hot terminal that is
    not on the ring.
    """
    check_ring_load(total_load, ring_nodes, terminals_per_node)
    if not 0 <= hot_fraction <= 1:
        raise TrafficModelError(
            f"hot fraction must be in [0, 1], got {hot_fraction}"
        )
    if not (0 <= hot_node < ring_nodes and 0 <= hot_slot < terminals_per_node):
        raise TrafficModelError(
            f"hot terminal ({hot_node}, {hot_slot}) is off the ring: "
            f"need node < {ring_nodes} and slot < {terminals_per_node}"
        )
    count = ring_nodes * terminals_per_node
    hot_rate = total_load * hot_fraction
    if count > 1:
        other_rate = total_load * (1 - hot_fraction) / (count - 1)
    else:
        other_rate = 0.0
        hot_rate = total_load
    workload: TrafficAssignment = {}
    for node in range(ring_nodes):
        for slot in range(terminals_per_node):
            if (node, slot) == (hot_node, hot_slot):
                if hot_rate <= 0:
                    continue  # a zero-rate hot terminal sends nothing
                workload[(node, slot)] = (cbr(hot_rate), hot_priority)
            else:
                if other_rate <= 0:
                    continue
                workload[(node, slot)] = (cbr(other_rate), other_priority)
    return workload
