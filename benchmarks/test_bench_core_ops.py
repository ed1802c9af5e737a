"""Micro-benchmarks of the bit-stream algebra primitives.

Admission-check latency is dominated by these four operations; their
costs set how fast switched real-time VCs can be established (Section
4.3 discussion 2 worries exactly about this).  The aggregate sums 64
three-breakpoint VBR streams into 66 breakpoints, already more than any
stream of the end-to-end benchmark workloads, whose largest has 30.
"""

import pytest

from repro.core import NetworkCAC, SwitchCAC, aggregate, delay_bound
from repro.core.traffic import VBRParameters
from repro.network.connection import ConnectionRequest
from repro.rtnet.topology import broadcast_route, build_rtnet, terminal_name
from repro.rtnet.workloads import plant_mix_workload

PARAMS = VBRParameters(pcr=0.5, scr=0.002, mbs=5)

STREAMS = [
    PARAMS.worst_case_stream().delayed(13.0 * index)
    for index in range(64)
]
AGGREGATE = aggregate(STREAMS)
FILTERED = AGGREGATE.filtered()
HALF = aggregate(STREAMS[:32])

def _loaded_switch():
    """A port already carrying 48 connections across 3 inputs."""
    switch = SwitchCAC("bench")
    switch.configure_link("out", {0: 10_000.0, 1: 10_000.0})
    for index in range(48):
        switch.admit(
            f"vc{index}", f"in{index % 3}", "out", index % 2,
            PARAMS.worst_case_stream().delayed(13.0 * index),
        )
    return switch


def test_bench_aggregate(benchmark):
    result = benchmark(lambda: aggregate(STREAMS))
    assert len(result) > 64


def test_bench_multiplex_pair(benchmark):
    result = benchmark(lambda: AGGREGATE + HALF)
    assert result.long_run_rate == AGGREGATE.long_run_rate + HALF.long_run_rate


def test_bench_filter(benchmark):
    result = benchmark(AGGREGATE.filtered)
    assert result.peak_rate <= 1


def test_bench_delay(benchmark):
    stream = PARAMS.worst_case_stream()
    result = benchmark(lambda: stream.delayed(96.0))
    assert result.peak_rate == 1


def test_bench_delay_bound(benchmark):
    result = benchmark(lambda: delay_bound(AGGREGATE, FILTERED))
    assert result > 0


def test_bench_switch_check(benchmark):
    """A full admission check on a loaded port (Steps 2-6).

    Exercises the incremental path end to end: cached ``Soa`` delta,
    memoized ``ServiceCurve``, and the lower-priority re-checks.
    """
    switch = _loaded_switch()
    candidate = PARAMS.worst_case_stream().delayed(5.0)
    result = benchmark(lambda: switch.check("in0", "out", 0, candidate))
    assert result.admitted


# ----------------------------------------------------------------------
# Sequential setup of the Table 1 plant mix
# ----------------------------------------------------------------------

#: The full Table 1 plant mix on an 8-node ring, three terminals per
#: node.
PLANT_MIX_WORKLOAD = {
    "workload": "plant_mix_workload",
    "ring_nodes": 8,
    "terminals_per_node": 3,
    "requests": 24,
}


def _plant_mix_scenario():
    """Fresh ring + the plant-mix broadcast requests (setup untimed)."""
    net = build_rtnet(PLANT_MIX_WORKLOAD["ring_nodes"],
                      PLANT_MIX_WORKLOAD["terminals_per_node"],
                      bounds={0: 3000.0})
    cac = NetworkCAC(net)
    requests = [
        ConnectionRequest(
            name=f"bcast-{terminal_name(node, slot)}",
            traffic=params,
            route=broadcast_route(net, node, slot),
            priority=priority,
        )
        for (node, slot), (params, priority) in
        sorted(plant_mix_workload(PLANT_MIX_WORKLOAD["ring_nodes"]).items())
    ]
    assert len(requests) == PLANT_MIX_WORKLOAD["requests"]
    return (cac, requests), {}


def test_bench_setup_sequential(benchmark):
    """The reference: one full route walk per plant-mix broadcast."""
    def run(cac, requests):
        return [cac.setup(request) for request in requests]

    established = benchmark.pedantic(run, setup=_plant_mix_scenario,
                                     rounds=5, iterations=1)
    assert len(established) == PLANT_MIX_WORKLOAD["requests"]
