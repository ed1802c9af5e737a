"""The migration acceptance property: live link failures never corrupt
CAC state.

For every seeded schedule the fault harness now also fails (and
sometimes restores) links *mid-workload*, triggering the detection ->
breaker -> make-before-break migration path.  On top of the standing
replay-equivalence and cache-consistency properties this asserts:

* **no double booking** -- after migrations, each switch's committed
  legs are exactly the current-generation legs of the established
  connections crossing it;
* **drop releases everything** -- a ``migrate-or-drop`` victim's
  capacity is fully returned;
* **bit-identical recovery** -- crash + journal replay still restores
  committed state exactly, migrations included.

Scale the corpus with ``FAULT_SCHEDULES`` (the CI chaos job sets 300).
"""

import os
from fractions import Fraction as F

import pytest

from repro.core.traffic import cbr
from repro.network.connection import ConnectionRequest
from repro.network.routing import shortest_path
from repro.network.topology import Network, line_network
from repro.robustness.harness import (
    LinkFailureEvent,
    random_link_failures,
    run_schedule,
)

SCHEDULES = int(os.environ.get("FAULT_SCHEDULES", "40"))


def duplex_ring_factory():
    """A 4-switch duplex ring: every link failure has a detour."""
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


@pytest.mark.parametrize("seed", range(20_000, 20_000 + SCHEDULES))
def test_ring_schedule_with_live_failures_stays_safe(seed):
    """Detours exist: migrations actually move connections."""
    report = run_schedule(seed, duplex_ring_factory, duplex_ring_requests,
                          link_failures=2)
    assert report.consistent, (
        f"seed {seed}: inconsistent caches after {report.plan.faults} "
        f"+ {report.link_events}"
    )
    assert report.equivalent, (
        f"seed {seed}: diverged from clean replay; "
        f"events={report.link_events} migrated={report.migrated} "
        f"errors={report.errors}"
    )
    assert report.booking_safe, (
        f"seed {seed}: double booking after {report.link_events}"
    )
    assert report.ok


@pytest.mark.parametrize("seed", range(30_000, 30_000 + max(10,
                                                            SCHEDULES // 2)))
def test_line_schedule_with_live_failures_stays_safe(seed):
    """No detours on a line: the drop/keep policies carry the load."""
    report = run_schedule(seed, line_factory, line_requests,
                          link_failures=1)
    assert report.ok, (
        f"seed {seed}: consistent={report.consistent} "
        f"equivalent={report.equivalent} "
        f"booking_safe={report.booking_safe} "
        f"events={report.link_events}"
    )


def test_ring_schedules_survive_two_link_failures():
    """Sequential admission survives two live failures per schedule."""
    for seed in range(20_100, 20_100 + 10):
        report = run_schedule(seed, duplex_ring_factory,
                              duplex_ring_requests, link_failures=2)
        assert report.ok, f"seed {seed}: {report}"


def test_corpus_actually_migrates():
    """The migration path is exercised, not vacuously green."""
    reports = [
        run_schedule(seed, duplex_ring_factory, duplex_ring_requests,
                     link_failures=2)
        for seed in range(20_000, 20_000 + min(SCHEDULES, 30))
    ]
    assert any(report.link_events for report in reports)
    assert any(report.migrated for report in reports)
    outcomes = {event.policy
                for report in reports for event in report.link_events}
    assert outcomes == {"migrate-or-drop", "migrate-or-keep"}
    assert any(event.restore
               for report in reports for event in report.link_events)


def test_dropped_victims_are_fully_released():
    """Find schedules that dropped a victim; its capacity must be gone."""
    seen_drop = False
    for seed in range(30_000, 30_000 + 60):
        report = run_schedule(seed, line_factory, line_requests,
                              link_failures=1)
        assert report.ok, f"seed {seed}: {report}"
        if report.dropped:
            seen_drop = True
            for name in report.dropped:
                assert name not in report.established or \
                    report.booking_safe
    assert seen_drop, "corpus never exercised migrate-or-drop"


def test_zero_link_failures_is_bit_identical_to_the_legacy_harness():
    """``link_failures=0`` must not consume any extra randomness."""
    for seed in range(5):
        legacy = run_schedule(seed, line_factory, line_requests)
        explicit = run_schedule(seed, line_factory, line_requests,
                                link_failures=0)
        assert legacy.plan.faults == explicit.plan.faults
        assert legacy.established == explicit.established
        assert legacy.journals == explicit.journals
        assert explicit.link_events == ()


def test_link_failure_draw_is_seed_deterministic():
    import random

    net = duplex_ring_factory()
    first = random_link_failures(random.Random(7), net, 5, 2)
    second = random_link_failures(random.Random(7), net, 5, 2)
    assert first == second
    assert all(isinstance(event, LinkFailureEvent) for event in first)
    assert all(1 <= event.after <= 5 for event in first)

