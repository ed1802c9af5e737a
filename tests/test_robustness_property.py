"""The acceptance-criteria property: faults never corrupt CAC state.

For every seeded random schedule (drops, delays, duplicates, switch
crashes, link failures) the post-fault network state must equal a
fault-free replay of only the committed connections, every switch's
incremental caches must verify against a from-scratch rebuild, no
switch may book a leg the network does not account for, and a crashed
switch restored via ``recover()`` must be identical to its pre-crash
committed state.

The schedule count scales with the ``FAULT_SCHEDULES`` environment
variable (the CI stress job sets 500); the local default keeps the
suite quick.
"""

import os
from fractions import Fraction as F

import pytest

from repro.core.admission import NetworkCAC
from repro.core.traffic import cbr
from repro.network.connection import ConnectionRequest
from repro.network.routing import ring_walk, shortest_path
from repro.network.topology import Network, line_network, ring_network
from repro.robustness.harness import (
    committed_states_equal,
    random_fault_plan,
    run_schedule,
)

SCHEDULES = int(os.environ.get("FAULT_SCHEDULES", "60"))
#: The ring corpora are smaller: same property, different topology shape.
RING_SCHEDULES = max(10, SCHEDULES // 4)


def line_factory():
    return line_network(4, bounds={0: 64}, terminals_per_switch=2)


def line_requests(network):
    rates = [F(1, 10), F(1, 12), F(1, 9), F(1, 14), F(1, 11)]
    spans = [("t0.0", "t3.0"), ("t0.1", "t2.0"), ("t1.0", "t3.1"),
             ("t0.0", "t1.1"), ("t2.1", "t3.0")]
    return [
        ConnectionRequest(f"vc{index}", cbr(rate),
                          shortest_path(network, src, dst))
        for index, (rate, (src, dst)) in enumerate(zip(rates, spans))
    ]


def ring_factory():
    return ring_network(4, bounds={0: 64}, terminals_per_switch=1)


def ring_requests(network):
    return [
        ConnectionRequest(
            f"bcast{index}", cbr(F(1, 12)),
            ring_walk(network, f"s{index}", hops=3,
                      access_from=f"t{index}.0"))
        for index in range(4)
    ]


def duplex_ring_factory():
    """A 4-switch duplex ring: every switch pair has two disjoint paths."""
    net = Network()
    for index in range(4):
        net.add_switch(f"s{index}")
    for index in range(4):
        nxt = (index + 1) % 4
        net.add_link(f"s{index}", f"s{nxt}", bounds={0: 64})
        net.add_link(f"s{nxt}", f"s{index}", bounds={0: 64})
    for index in range(4):
        net.add_terminal(f"t{index}.0")
        net.add_link(f"t{index}.0", f"s{index}")
        net.add_link(f"s{index}", f"t{index}.0", bounds={0: 64})
    return net


def duplex_ring_requests(network):
    rates = [F(1, 10), F(1, 12), F(1, 9), F(1, 14), F(1, 11)]
    spans = [("t0.0", "t2.0"), ("t1.0", "t3.0"), ("t2.0", "t0.0"),
             ("t3.0", "t1.0"), ("t0.0", "t1.0")]
    return [
        ConnectionRequest(f"vc{index}", cbr(rate),
                          shortest_path(network, src, dst))
        for index, (rate, (src, dst)) in enumerate(zip(rates, spans))
    ]


@pytest.mark.parametrize("seed", range(SCHEDULES))
def test_line_schedule_reaches_replay_equivalent_state(seed):
    report = run_schedule(seed, line_factory, line_requests)
    assert report.consistent, (
        f"seed {seed}: inconsistent caches after {report.plan.faults}"
    )
    assert report.equivalent, (
        f"seed {seed}: state diverged from clean replay of "
        f"{report.established} under {report.plan.faults}; "
        f"errors={report.errors}"
    )
    assert report.booking_safe, (
        f"seed {seed}: a switch books a leg the network does not "
        f"account for under {report.plan.faults}"
    )


@pytest.mark.parametrize("seed", range(10_000, 10_000 + RING_SCHEDULES))
def test_ring_schedule_reaches_replay_equivalent_state(seed):
    report = run_schedule(seed, ring_factory, ring_requests)
    assert report.consistent
    assert report.equivalent, (
        f"seed {seed}: {report.plan.faults} errors={report.errors}"
    )
    assert report.booking_safe, f"seed {seed}: {report.plan.faults}"


@pytest.mark.parametrize("seed", range(20_000, 20_000 + RING_SCHEDULES))
def test_duplex_ring_schedule_reaches_replay_equivalent_state(seed):
    report = run_schedule(seed, duplex_ring_factory, duplex_ring_requests)
    assert report.consistent
    assert report.equivalent, (
        f"seed {seed}: {report.plan.faults} errors={report.errors}"
    )
    assert report.booking_safe, f"seed {seed}: {report.plan.faults}"


def test_corpus_is_not_vacuous():
    """The schedule corpus actually injects faults and refuses setups."""
    reports = [run_schedule(seed, line_factory, line_requests)
               for seed in range(min(SCHEDULES, 30))]
    assert any(len(report.plan) > 0 for report in reports)
    assert any(report.errors for report in reports)
    assert any(report.recovered for report in reports)
    assert any(report.established for report in reports)
    # And some walks survive faults: established despite injections.
    assert any(report.established and len(report.plan) > 0
               for report in reports)


def test_journal_digests_populated():
    report = run_schedule(0, line_factory, line_requests)
    assert report.journals
    switch_names = [name for name, _ops in report.journals]
    assert switch_names == sorted(switch_names)


def test_random_plans_are_seed_deterministic():
    import random

    first = random_fault_plan(random.Random(42), 4, ["a", "b"])
    second = random_fault_plan(random.Random(42), 4, ["a", "b"])
    assert first.faults == second.faults


def test_committed_states_equal_detects_divergence():
    network = line_factory()
    cac = NetworkCAC(network)
    requests = line_requests(network)
    cac.setup(requests[0])
    clean = NetworkCAC(line_factory())
    assert not committed_states_equal(cac, clean)
    clean.setup(requests[0])
    assert committed_states_equal(cac, clean)
