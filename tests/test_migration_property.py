"""Live link failures never corrupt CAC state.

On top of each seeded fault schedule of the property harness, links
between switches fail *between* setups, while connections routed over
them are established.  A failed link stays down for the rest of the
schedule: the connections already admitted over it keep their bookings
(RTnet's hardware wrap-around carries the traffic; the CAC's promise was
made at setup), and every later walk across it loses its messages, times
out and is refused.  Each schedule must still satisfy the standing
properties:

* **replay equivalence** -- the committed state is exactly a fault-free
  replay of only the established connections;
* **cache consistency** -- every switch's incremental caches verify
  against a from-scratch rebuild;
* **no double booking** -- each switch's committed legs are exactly the
  established connections crossing it, with no leftover reservation.

The module name is kept from when a failed link also triggered live
migration of the connections over it.  Scale the corpus with
``FAULT_SCHEDULES``.
"""

import os
import random

import pytest

from repro.core.admission import NetworkCAC
from repro.exceptions import AdmissionError
from repro.network.signaling import FaultEvent, SignalingTrace
from repro.robustness.faults import FaultInjector
from repro.robustness.harness import (
    ScheduleReport,
    committed_states_equal,
    no_double_booking,
    random_fault_plan,
)
from repro.robustness.retry import RetryPolicy

from .test_robustness_property import (
    duplex_ring_factory,
    duplex_ring_requests,
    line_factory,
    line_requests,
)

SCHEDULES = int(os.environ.get("FAULT_SCHEDULES", "40"))


def run_with_live_failures(seed, network_factory, request_factory,
                           failures):
    """One seeded fault schedule with ``failures`` links cut mid-workload.

    The fault plan, retry policy and walk rng are drawn exactly as
    :func:`~repro.robustness.harness.run_schedule` draws them; the same
    rng then picks, per failure, a switch-to-switch link and the setup
    after which it fails.  Returns the harness's report plus the links
    that were cut.
    """
    rng = random.Random(seed)
    network = network_factory()
    requests = list(request_factory(network))
    max_hops = max(len(request.route.hops()) for request in requests)
    plan = random_fault_plan(rng, max_hops,
                             [request.name for request in requests])
    links = sorted(
        link.name for link in network.links()
        if network.node(link.src).is_switch
        and network.node(link.dst).is_switch
    )
    cuts = [(rng.randint(1, len(requests) - 1), rng.choice(links))
            for _ in range(failures)]
    injector = FaultInjector(plan)
    faulted = NetworkCAC(
        network, fault_injector=injector,
        retry_policy=RetryPolicy(max_attempts=3, base_delay=0.5,
                                 max_delay=4.0),
        rng=random.Random(seed + 1),
    )
    trace = SignalingTrace()
    errors = {}
    for attempt, request in enumerate(requests, start=1):
        try:
            faulted.setup(request, trace=trace)
        except AdmissionError as refused:
            errors[request.name] = f"{type(refused).__name__}: {refused}"
        for after, link in cuts:
            if after == attempt:
                injector.fail_link(link)

    recovered = tuple(sorted(
        name for name, cac in faulted.switches().items() if cac.crashed
    ))
    for name in recovered:
        faulted.recover_switch(name)

    clean = NetworkCAC(network_factory())
    for request in requests:
        if request.name in faulted.established:
            clean.setup(request)

    report = ScheduleReport(
        seed=seed,
        plan=plan,
        attempted=tuple(request.name for request in requests),
        established=tuple(faulted.established),
        errors=errors,
        recovered=recovered,
        consistent=all(cac.verify_consistency()
                       for cac in faulted.switches().values()),
        equivalent=committed_states_equal(faulted, clean),
        trace=trace,
        booking_safe=no_double_booking(faulted),
    )
    cut = tuple(link for _after, link in cuts)
    assert all(injector.link_down(link) for link in cut)
    live = any(
        hop.out_link in cut
        for connection in faulted.established.values()
        for hop in connection.hops
    )
    return report, cut, live


@pytest.mark.parametrize("seed", range(20_000, 20_000 + SCHEDULES))
def test_ring_schedule_with_live_failures_stays_safe(seed):
    """Two cut ring links: established connections stay, walks refuse."""
    report, cut, _live = run_with_live_failures(
        seed, duplex_ring_factory, duplex_ring_requests, failures=2)
    assert report.consistent, (
        f"seed {seed}: inconsistent caches after {report.plan.faults} "
        f"+ cut {cut}"
    )
    assert report.equivalent, (
        f"seed {seed}: diverged from clean replay; cut {cut} "
        f"errors={report.errors}"
    )
    assert report.booking_safe, f"seed {seed}: double booking, cut {cut}"
    assert report.ok


@pytest.mark.parametrize("seed", range(30_000, 30_000 + max(10,
                                                            SCHEDULES // 2)))
def test_line_schedule_with_live_failures_stays_safe(seed):
    """A cut line link partitions the network; the state stays exact."""
    report, cut, _live = run_with_live_failures(
        seed, line_factory, line_requests, failures=1)
    assert report.ok, (
        f"seed {seed}: consistent={report.consistent} "
        f"equivalent={report.equivalent} "
        f"booking_safe={report.booking_safe} cut={cut}"
    )


def test_live_failure_corpus_is_not_vacuous():
    """The cuts strike booked links and later walks hit them."""
    reports = []
    for seed in range(20_100, 20_100 + 10):
        report, cut, live = run_with_live_failures(
            seed, duplex_ring_factory, duplex_ring_requests, failures=2)
        assert report.ok, f"seed {seed}: {report} cut={cut}"
        reports.append((report, live))
    assert any(live for _report, live in reports)
    assert any(
        event.kind == "link-down"
        for report, _live in reports
        for event in report.trace.of_type(FaultEvent)
    )
