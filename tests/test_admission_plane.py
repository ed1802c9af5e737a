"""The event-driven admission plane: identity, interleaving, TTL.

Acceptance properties of :class:`~repro.core.plane.AdmissionPlane`:

* **concurrency-1 bit-identity** -- driving one walk at a time through
  the engine performs the op-for-op identical switch operations as the
  synchronous :meth:`NetworkCAC.setup` API, across seeded fault
  schedules (same generator, different wait mechanism);
* **no double booking under interleaving** -- K concurrent setups
  contending for one bottleneck never oversubscribe it, and resolve
  deterministically for a fixed seed;
* **reservation TTL** -- a phase-1 reservation outliving its hold timer
  is discarded by the switch, the walk unwinds with outcome
  ``expired``, and completed walks cancel their timers;
* **finished walks are freed** -- outcomes reach the caller through
  ``on_done`` only, and a failed walk leaves no reference cycle for
  the cyclic collector.

Scale the interleaving corpus with ``ADMISSION_INTERLEAVINGS`` (the CI
admission-concurrency job raises it; the local default keeps tier-1
fast).
"""

import gc
import os
import random
import types
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AdmissionPlane, NetworkCAC
from repro.core.plane import SetupOutcome
from repro.exceptions import AdmissionError
from repro.core.traffic import cbr
from repro.network.connection import ConnectionRequest
from repro.network.routing import shortest_path
from repro.network.topology import line_network, star_network
from repro.obs import metrics as om
from repro.obs.metrics import MetricsRegistry
from repro.robustness.faults import FaultInjector
from repro.robustness.harness import random_fault_plan
from repro.robustness.harness import no_double_booking
from repro.robustness.retry import RetryPolicy
from repro.sim.engine import Engine, ProcessHandle
from repro.workload import ChurnEngine, ChurnScenario, make_policy
from repro.workload.stats import journal_digest_of

INTERLEAVINGS = int(os.environ.get("ADMISSION_INTERLEAVINGS", "25"))


def line_factory():
    return line_network(3, bounds={0: 64}, terminals_per_switch=2)


def line_requests(network):
    rates = [F(1, 10), F(1, 12), F(1, 9), F(1, 14), F(1, 11)]
    spans = [("t0.0", "t2.0"), ("t0.1", "t1.0"), ("t1.1", "t2.1"),
             ("t0.0", "t1.1"), ("t2.0", "t0.1")]
    return [
        ConnectionRequest(f"vc{index}", cbr(rate),
                          shortest_path(network, src, dst))
        for index, (rate, (src, dst)) in enumerate(zip(rates, spans))
    ]


def build_cac(seed, plan=None, hop_latency=0.0):
    """A line-network CAC configured identically for both modes."""
    return NetworkCAC(
        line_factory(),
        fault_injector=FaultInjector(plan) if plan is not None else None,
        retry_policy=RetryPolicy(max_attempts=3, base_delay=0.5,
                                 max_delay=4.0),
        rng=random.Random(seed + 1),
        hop_latency=hop_latency,
    )


def run_sync(seed, plan, hop_latency=0.0):
    """The synchronous reference: one blocking setup() per request."""
    cac = build_cac(seed, plan, hop_latency)
    errors = {}
    for request in line_requests(cac.network):
        try:
            cac.setup(request)
        except AdmissionError as refused:
            errors[request.name] = type(refused).__name__
    return cac, errors


def run_concurrency_one(seed, plan, hop_latency=0.0):
    """The same requests as engine processes, one in flight at a time."""
    cac = build_cac(seed, plan, hop_latency)
    engine = Engine()
    plane = AdmissionPlane(cac, engine)
    requests = line_requests(cac.network)
    errors = {}

    def launch(index):
        if index >= len(requests):
            return

        def done(outcome):
            if outcome.error is not None:
                errors[outcome.request.name] = type(outcome.error).__name__
            launch(index + 1)

        plane.submit(requests[index], on_done=done)

    launch(0)
    engine.run()
    assert plane.in_flight == 0
    return cac, errors


class TestConcurrencyOneBitIdentity:
    """Engine-driven concurrency-1 == synchronous, op for op."""

    @pytest.mark.parametrize("seed", range(400, 400 + max(10,
                                                          INTERLEAVINGS)))
    def test_faulted_schedules_journal_identically(self, seed):
        plan = random_fault_plan(
            random.Random(seed), max_hops=3,
            connections=[f"vc{i}" for i in range(5)],
        )
        sync_cac, sync_errors = run_sync(seed, plan)
        plane_cac, plane_errors = run_concurrency_one(seed, plan)
        assert journal_digest_of(plane_cac) == journal_digest_of(sync_cac), (
            f"seed {seed}: engine-driven walk diverged from the "
            f"synchronous API under {plan}"
        )
        assert set(plane_cac.established) == set(sync_cac.established)
        assert plane_errors == sync_errors

    def test_identity_holds_with_hop_latency(self):
        for seed in range(420, 425):
            plan = random_fault_plan(
                random.Random(seed), max_hops=3,
                connections=[f"vc{i}" for i in range(5)],
            )
            sync_cac, _ = run_sync(seed, plan, hop_latency=0.75)
            plane_cac, _ = run_concurrency_one(seed, plan, hop_latency=0.75)
            assert journal_digest_of(plane_cac) == journal_digest_of(sync_cac)

    def test_engine_time_advances_past_the_walks(self):
        cac = build_cac(0, None, hop_latency=0.5)
        engine = Engine()
        plane = AdmissionPlane(cac, engine)
        request = line_requests(cac.network)[0]
        done = []
        plane.submit(request, on_done=done.append)
        engine.run()
        (outcome,) = done
        assert outcome.admitted
        # 3 hops x 2 messages (reserve, commit) x 2 transits x 0.5.
        assert outcome.setup_time == pytest.approx(6.0)
        assert engine.now == pytest.approx(6.0)


def bottleneck_star():
    """Seven callers, one hub, every route sharing the hub->t0 link.

    The bound admits only ~4 of 7 at rate 1/4, so concurrent walks
    genuinely contend for the same port.
    """
    return star_network(8, bounds={0: 8.0})


def bottleneck_requests(network, k):
    return [
        ConnectionRequest(f"vc{index}", cbr(F(1, 4)),
                          shortest_path(network, f"t{index}", "t0"))
        for index in range(1, k + 1)
    ]


def run_contended(seed, k, hop_latency):
    """K contending walks; returns the CAC and the outcomes in the
    order their walks finished (as ``on_done`` delivered them)."""
    net = bottleneck_star()
    cac = NetworkCAC(net, rng=random.Random(seed),
                     hop_latency=hop_latency)
    engine = Engine()
    plane = AdmissionPlane(cac, engine, reservation_ttl=500.0)
    outcomes = []
    for request in bottleneck_requests(net, k):
        plane.submit(request, on_done=outcomes.append)
    engine.run()
    assert plane.in_flight == 0
    return cac, outcomes


class TestConcurrentInterleavings:
    @settings(max_examples=INTERLEAVINGS, deadline=None)
    @given(seed=st.integers(0, 10_000), k=st.integers(4, 7),
           hop_latency=st.sampled_from([0.25, 0.5, 1.0, 2.0]))
    def test_contending_setups_never_double_book(self, seed, k,
                                                 hop_latency):
        cac, outcomes = run_contended(seed, k, hop_latency)
        assert len(outcomes) == k
        assert no_double_booking(cac)
        for switch in cac.switches().values():
            assert switch.verify_consistency()
            assert not switch.pending, "reservation leaked past its walk"
        admitted = {o.request.name for o in outcomes if o.admitted}
        assert admitted == set(cac.established)
        for outcome in outcomes:
            if not outcome.admitted:
                assert isinstance(outcome.error, AdmissionError)

    @settings(max_examples=max(5, INTERLEAVINGS // 5), deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_interleavings_resolve_deterministically(self, seed):
        first_cac, first = run_contended(seed, 6, hop_latency=0.5)
        second_cac, second = run_contended(seed, 6, hop_latency=0.5)
        assert journal_digest_of(first_cac) == journal_digest_of(second_cac)
        assert [o.request.name for o in first] == \
               [o.request.name for o in second]
        assert [o.admitted for o in first] == \
               [o.admitted for o in second]
        assert [o.finished for o in first] == \
               [o.finished for o in second]

    def test_contention_actually_rejects_someone(self):
        cac, outcomes = run_contended(1, 7, hop_latency=0.5)
        rejected = [o for o in outcomes if not o.admitted]
        assert rejected, "corpus scenario admits everyone; no contention"
        assert len(cac.established) >= 1


def two_hop_setup(reservation_ttl, hop_latency=1.0):
    net = line_network(2, bounds={0: 64}, terminals_per_switch=1)
    cac = NetworkCAC(net, hop_latency=hop_latency, rng=random.Random(0))
    engine = Engine()
    plane = AdmissionPlane(cac, engine, reservation_ttl=reservation_ttl)
    request = ConnectionRequest("vc0", cbr(F(1, 10)),
                                shortest_path(net, "t0.0", "t1.0"))
    return cac, engine, plane, request


class TestReservationTTL:
    def test_expiry_unwinds_the_walk(self):
        # First hop reserved at t=2, commit arrives at t=5: a 2.5-unit
        # hold expires the reservation first and the walk must abort.
        registry = MetricsRegistry()
        previous = om.set_registry(registry)
        try:
            cac, engine, plane, request = two_hop_setup(reservation_ttl=2.5)
            done = []
            plane.submit(request, on_done=done.append)
            engine.run()
        finally:
            om.set_registry(previous)
        (outcome,) = done
        assert not outcome.admitted
        assert isinstance(outcome.error, AdmissionError)
        assert "no reservation" in str(outcome.error)
        assert cac.established == {}
        for switch in cac.switches().values():
            assert not switch.pending
            assert not switch.legs
            assert switch.verify_consistency()
        assert registry.total("cac_reservation_expiries_total") >= 1

    def test_generous_ttl_commits_normally(self):
        cac, engine, plane, request = two_hop_setup(reservation_ttl=100.0)
        done = []
        plane.submit(request, on_done=done.append)
        engine.run()
        (outcome,) = done
        assert outcome.admitted
        assert "vc0" in cac.established
        assert no_double_booking(cac)

    def test_finished_walks_leave_no_armed_timers(self):
        cac, engine, plane, request = two_hop_setup(reservation_ttl=100.0)
        plane.submit(request)
        engine.run()
        # Every hold timer died with the walk: nothing left to fire, so
        # running long past the TTL cannot expire the committed legs.
        assert engine.peek_next_time() is None
        assert all(switch.legs for switch in cac.switches().values())

    def test_expire_is_pending_only(self):
        net = line_network(2, bounds={0: 64}, terminals_per_switch=1)
        cac = NetworkCAC(net)
        request = ConnectionRequest("vc0", cbr(F(1, 10)),
                                    shortest_path(net, "t0.0", "t1.0"))
        cac.setup(request)
        switch = cac.switch("s0")
        # Committed legs are never touched, unknown ids are a no-op.
        assert switch.expire("vc0") is None
        assert switch.expire("never-reserved") is None
        assert "vc0" in switch.legs
        assert switch.verify_consistency()

    def test_nonpositive_ttl_rejected(self):
        cac = NetworkCAC(line_network(2, bounds={0: 64},
                                      terminals_per_switch=1))
        with pytest.raises(ValueError, match="reservation_ttl"):
            AdmissionPlane(cac, Engine(), reservation_ttl=0.0)


class TestPlaneLifecycle:
    def test_teardown_releases_in_engine_time(self):
        cac, engine, plane, request = two_hop_setup(reservation_ttl=None)
        plane.submit(request)
        engine.run()
        assert "vc0" in cac.established
        plane.submit_teardown("vc0")
        engine.run()
        assert plane.in_flight == 0
        assert cac.established == {}
        assert all(not switch.legs for switch in cac.switches().values())

    def test_in_flight_counts_every_submitted_walk(self):
        cac, engine, plane, request = two_hop_setup(reservation_ttl=None)
        done = []
        plane.submit(request, on_done=done.append)
        assert plane.in_flight == 1
        engine.run()
        assert plane.in_flight == 0
        assert len(done) == 1

    @pytest.mark.parametrize("reservation_ttl", [None, 100.0])
    @pytest.mark.parametrize("switches", [1, 2, 3])
    def test_an_accepted_walk_costs_one_event_per_transit(
            self, switches, reservation_ttl):
        net = line_network(switches, bounds={0: 64}, terminals_per_switch=2)
        cac = NetworkCAC(net, hop_latency=1.5, rng=random.Random(0))
        engine = Engine()
        plane = AdmissionPlane(cac, engine, reservation_ttl=reservation_ttl)
        route = shortest_path(net, "t0.0", f"t{switches - 1}.1")
        done = []
        plane.submit(ConnectionRequest("vc0", cbr(F(1, 10)), route),
                     on_done=done.append)
        engine.run()
        (outcome,) = done
        assert outcome.admitted
        hops = len(route.hops())
        assert hops == switches
        # The deferred first step, then per hop one event per transit
        # (down and back) of the reserve wave and of the commit wave:
        # no zero-length wait is scheduled, and a TTL timer the walk
        # cancels never fires.
        assert engine.events_processed == 1 + 4 * hops
        assert outcome.setup_time == 4 * hops * 1.5

    def test_repr_is_cheap_and_honest(self):
        cac, engine, plane, request = two_hop_setup(reservation_ttl=7.5)
        assert "ttl=7.5" in repr(plane)


def garbage_after(action):
    """Unreachable objects ``action()`` leaves for the cyclic collector."""
    gc.collect()
    gc.disable()
    try:
        action()
        return gc.collect()
    finally:
        gc.enable()


def live_walk_objects():
    """Finished-walk debris still reachable: outcomes, handles,
    tracebacks."""
    kinds = (SetupOutcome, ProcessHandle, types.TracebackType)
    return sum(isinstance(o, kinds) for o in gc.get_objects())


class TestFinishedWalksAreFreed:
    def test_failed_processes_leave_no_cycles(self):
        # A stored error's traceback must not reach the handle's own
        # ``_step`` frame, or handle -> error -> traceback -> frame ->
        # handle is a cycle only the cyclic collector frees.
        def failing():
            yield 1.0
            raise AdmissionError("refused")

        def run():
            engine = Engine()
            handles = [engine.process(failing()) for _ in range(5)]
            engine.run()
            assert all(isinstance(h.error, AdmissionError)
                       for h in handles)

        assert garbage_after(run) == 0

    def test_plane_churn_keeps_no_finished_walk(self):
        scenario = ChurnScenario(
            topology="dual-ring", nodes=6, bound=48.0, rate=0.15,
            offered_load=4.0, mean_holding=400.0, policy="k-alternate",
            k=2, setup_latency=2.0, reservation_ttl=40.0, seed=11)
        network = scenario.build_network()
        cac = NetworkCAC(network, rng=random.Random(11),
                         hop_latency=scenario.setup_latency)
        churn = ChurnEngine(
            cac, [scenario.traffic_class()],
            pairs=scenario.build_pairs(network), seed=11,
            policy=make_policy(scenario.policy, scenario.k),
            setup_latency=scenario.setup_latency,
            reservation_ttl=scenario.reservation_ttl)
        gc.collect()  # count both sides on a collected heap
        before = live_walk_objects()
        assert garbage_after(lambda: churn.run(max_events=200)) == 0
        blocked = [row for row in churn.ledger if row.outcome == "blocked"]
        assert blocked, "no walk failed; the run shows nothing"
        assert live_walk_objects() == before
