"""RTnet: the ATM-based plant-control network of Section 5.

Star-ring topology builder, cyclic-transmission traffic classes
(Table 1), symmetric/asymmetric workload generators, and the evaluation
drivers that regenerate Figures 10-13.
"""

from .constants import (
    CYCLIC_PRIORITY,
    CYCLIC_QUEUE_CELLS,
    HIGH_SPEED_DELAY_CELLS,
    MAX_TERMINALS_PER_NODE,
    NODE_DELAY_BOUND,
    NODE_DELAY_MICROSECONDS,
    RING_NODES,
)
from .cyclic import (
    HIGH_SPEED,
    LOW_SPEED,
    MEDIUM_SPEED,
    TABLE_1,
    CyclicClass,
    required_bandwidth_mbps,
)
from .evaluation import (
    RingAnalysis,
    asymmetric_capacity_curve,
    establish_workload,
    priority_capacity_curve,
    soft_hard_capacity_curve,
    symmetric_delay_curve,
    vbr_capacity_curve,
    vbr_workload,
)
from .failover import (
    evacuate_switch,
    failover_capacity,
    failover_capacity_curve,
    wrapped_analysis,
    wrapped_ring_size,
    wrapped_workload,
)
from .simulate import (
    BoundComparison,
    RingSimulation,
    simulate_ring_workload,
)
from .topology import broadcast_route, build_rtnet, ring_node, terminal_name
from .workloads import (
    TrafficAssignment,
    asymmetric_workload,
    plant_mix_workload,
    symmetric_workload,
)

__all__ = [
    "RING_NODES",
    "MAX_TERMINALS_PER_NODE",
    "CYCLIC_QUEUE_CELLS",
    "CYCLIC_PRIORITY",
    "NODE_DELAY_BOUND",
    "NODE_DELAY_MICROSECONDS",
    "HIGH_SPEED_DELAY_CELLS",
    "CyclicClass",
    "HIGH_SPEED",
    "MEDIUM_SPEED",
    "LOW_SPEED",
    "TABLE_1",
    "required_bandwidth_mbps",
    "build_rtnet",
    "broadcast_route",
    "ring_node",
    "terminal_name",
    "TrafficAssignment",
    "symmetric_workload",
    "asymmetric_workload",
    "RingAnalysis",
    "establish_workload",
    "symmetric_delay_curve",
    "asymmetric_capacity_curve",
    "priority_capacity_curve",
    "soft_hard_capacity_curve",
    "vbr_workload",
    "vbr_capacity_curve",
    "wrapped_ring_size",
    "wrapped_workload",
    "wrapped_analysis",
    "evacuate_switch",
    "failover_capacity",
    "failover_capacity_curve",
    "plant_mix_workload",
    "RingSimulation",
    "BoundComparison",
    "simulate_ring_workload",
]
