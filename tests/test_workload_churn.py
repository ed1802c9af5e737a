"""The churn engine: determinism, budgets, policy comparison.

The heavyweight equivalence cases scale with the ``CHURN_EVENTS``
environment variable (the CI churn-property job sets 2000; the local
default keeps the tier-1 suite fast).
"""

import gc
import os
import random

import pytest

from repro.core.admission import NetworkCAC
from repro.core.traffic import cbr
from repro.exceptions import TrafficModelError
from repro.network.topology import star_network
from repro.obs import metrics as om
from repro.obs.metrics import MetricsRegistry
from repro.robustness.harness import no_double_booking
from repro.workload import (
    ChurnEngine,
    ChurnScenario,
    TrafficClass,
    blocking_curve,
    ledger_digest,
    make_policy,
    opposite_pairs,
    run_scenario,
    star_pairs,
)
from repro.workload.stats import journal_digest_of

from .test_exact_shadow import build_engine

CHURN_EVENTS = int(os.environ.get("CHURN_EVENTS", "400"))

RING = dict(topology="dual-ring", nodes=6, bound=48.0, rate=0.15)


#: The admission-plane transport: 2 time units per hop transit.
PLANE = dict(setup_latency=2.0, reservation_ttl=40.0)


def small_engine(seed=7, policy=None, arrival_rate=0.01, **latency):
    net = star_network(4, bounds={0: 32})
    cac = NetworkCAC(net, rng=random.Random(seed))
    engine = ChurnEngine(
        cac, [TrafficClass("cbr", cbr(0.1), arrival_rate, 200.0)],
        pairs=star_pairs(net), seed=seed, policy=policy, **latency,
    )
    return engine


def rows(ledger):
    return [tuple(vars(row).values()) for row in ledger]


class TestChurnEngine:
    def test_budget_is_hard_and_exact(self):
        engine = small_engine()
        assert engine.run(max_events=25) == 25
        assert engine.events_fired == 25
        assert len(engine.ledger) == 25

    def test_run_continues_the_same_trajectory(self):
        whole = small_engine()
        whole.run(max_events=60)
        split = small_engine()
        split.run(max_events=23)
        split.run(max_events=37)
        assert [tuple(vars(r).values()) for r in split.ledger] == \
               [tuple(vars(r).values()) for r in whole.ledger]

    def test_a_split_plane_run_keeps_its_arrival_process(self):
        # Settling the first call's walks runs the engine past churn
        # events; they are held for the second call, not dropped.
        engine = small_engine(arrival_rate=0.5, **PLANE)
        assert engine.run(max_events=23) == 23
        assert set(engine.active) == set(engine.cac.established)
        first = len(engine.ledger)
        assert engine.run(max_events=37) == 37
        assert set(engine.active) == set(engine.cac.established)
        assert any(row.kind == "arrival" for row in engine.ledger[first:])
        assert engine.run(max_events=40) == 40
        assert set(engine.active) == set(engine.cac.established)

    def test_drain_drops_the_held_departures_it_tears_down(self):
        engine = small_engine(arrival_rate=0.5, **PLANE)
        engine.run(max_events=12)   # settling holds three departures
        drained = set(engine.active)
        engine.drain()
        assert engine.active == {} and engine.cac.established == {}
        first = len(engine.ledger)
        assert engine.run(max_events=30) == 30
        assert not [row for row in engine.ledger[first:]
                    if row.kind == "departure" and row.name in drained]
        assert set(engine.active) == set(engine.cac.established)

    def test_a_horizon_fires_the_events_at_it(self):
        whole = small_engine(arrival_rate=0.5)
        whole.run(max_events=40)
        horizon, following = whole.ledger[19].time, whole.ledger[20].time
        assert horizon < following
        cut = small_engine(arrival_rate=0.5)
        assert cut.run(max_events=1000, until=horizon) == 20
        between = small_engine(arrival_rate=0.5)
        assert between.run(max_events=1000,
                           until=(horizon + following) / 2) == 20
        assert between.run(max_events=20) == 20
        assert rows(between.ledger) == rows(whole.ledger)

    def test_a_plane_horizon_stops_where_its_budget_would(self):
        cut = small_engine(**PLANE)
        fired = cut.run(max_events=1000, until=500.0)
        budget = small_engine(**PLANE)
        assert budget.run(max_events=fired) == fired
        assert rows(cut.ledger) == rows(budget.ledger)

    def test_same_seed_is_bit_identical(self):
        a, b = small_engine(seed=3), small_engine(seed=3)
        a.run(max_events=80)
        b.run(max_events=80)
        assert a.report().ledger_digest == b.report().ledger_digest
        assert a.report().journal_digest == b.report().journal_digest

    def test_different_seeds_diverge(self):
        a, b = small_engine(seed=3), small_engine(seed=4)
        a.run(max_events=80)
        b.run(max_events=80)
        assert a.report().ledger_digest != b.report().ledger_digest

    def test_policy_does_not_perturb_arrivals(self):
        # Same seed, different policy: identical arrival instants and
        # connection names -- only outcomes/routes may differ.
        first = small_engine(seed=5, policy=make_policy("first-path"))
        alt = small_engine(seed=5, policy=make_policy("least-loaded", 3))
        first.run(max_events=70)
        alt.run(max_events=70)
        key = [(r.time, r.kind, r.name) for r in first.ledger
               if r.kind == "arrival"]
        assert key == [(r.time, r.kind, r.name) for r in alt.ledger
                       if r.kind == "arrival"]

    def test_departures_tear_down(self):
        engine = small_engine()
        engine.run(max_events=120)
        departed = [r for r in engine.ledger if r.kind == "departure"]
        assert departed and all(r.outcome == "departed" for r in departed)
        assert set(engine.active) == set(engine.cac.established)

    def test_drain_empties_the_network(self):
        engine = small_engine()
        engine.run(max_events=60)
        engine.drain()
        assert engine.active == {}
        assert engine.cac.established == {}

    def test_zero_rate_class_is_inert(self):
        engine = small_engine(arrival_rate=0.0)
        assert engine.run(max_events=50) == 0
        assert engine.ledger == []

    def test_validation(self):
        net = star_network(2, bounds={0: 32})
        cac = NetworkCAC(net)
        cls = TrafficClass("cbr", cbr(0.1), 0.01, 100.0)
        with pytest.raises(TrafficModelError, match="at least one traffic"):
            ChurnEngine(cac, [], pairs=[("t0", "t1")])
        with pytest.raises(TrafficModelError, match="at least one"):
            ChurnEngine(cac, [cls], pairs=[])
        with pytest.raises(TrafficModelError, match="duplicate"):
            ChurnEngine(cac, [cls, cls], pairs=[("t0", "t1")])
        with pytest.raises(TrafficModelError, match="arrival rate"):
            TrafficClass("x", cbr(0.1), -1.0, 100.0)
        with pytest.raises(TrafficModelError, match="holding"):
            TrafficClass("x", cbr(0.1), 0.1, 0.0)
        engine = ChurnEngine(cac, [cls], pairs=[("t0", "t1")])
        with pytest.raises(TrafficModelError, match="max_events"):
            engine.run(max_events=-1)


class TestPolicyComparison:
    def test_k_alternate_blocks_strictly_less_than_first_path(self):
        # The acceptance case: on the dual ring at a load that saturates
        # the primary direction, crankback over the reverse ring must
        # strictly lower blocking while seeing the same arrivals.
        blocking = {}
        for policy in ("first-path", "k-alternate"):
            report = run_scenario(ChurnScenario(
                events=max(300, CHURN_EVENTS), seed=11, offered_load=4.0,
                policy=policy, k=2, **RING))
            blocking[policy] = report.blocking
        assert blocking["k-alternate"] < blocking["first-path"]


class TestScenario:
    def test_star_topology_and_pairs(self):
        scen = ChurnScenario(topology="star", nodes=3)
        net = scen.build_network()
        pairs = scen.build_pairs(net)
        assert len(pairs) == 6      # 3 terminals, ordered pairs
        assert all(src != dst for src, dst in pairs)

    def test_opposite_pairs_cross_the_ring(self):
        pairs = opposite_pairs(6, 1)
        assert ("term0.0", "term3.0") in pairs
        assert len(pairs) == 6

    def test_unknown_topology_rejected(self):
        with pytest.raises(TrafficModelError, match="unknown churn"):
            ChurnScenario(topology="mesh").build_network()

    def test_arrival_rate_hits_offered_load(self):
        scen = ChurnScenario(offered_load=2.0, rate=0.05, mean_holding=400.0)
        assert scen.arrival_rate() * scen.mean_holding * scen.rate == \
               pytest.approx(2.0)

    def test_bad_replications_rejected(self):
        with pytest.raises(TrafficModelError, match="replication"):
            blocking_curve([1.0], ChurnScenario(), replications=0)


class TestSetupLatency:
    """Churn on the admission plane: nonzero signaling time matters."""

    def scenario(self, **kw):
        base = dict(RING, events=300, seed=11, offered_load=4.0,
                    policy="first-path")
        base.update(kw)
        return ChurnScenario(**base)

    def test_latency_measurably_changes_blocking(self):
        # While a walk is in flight its phase-1 reservations hold
        # capacity that instantaneous setups never would, so blocking
        # under the same arrivals must move (upward, here).
        instant = run_scenario(self.scenario())
        latent = run_scenario(self.scenario(setup_latency=2.0,
                                            reservation_ttl=40.0))
        assert latent.ledger_digest != instant.ledger_digest
        assert latent.blocking != instant.blocking
        assert latent.blocking > instant.blocking

    def test_latent_run_is_deterministic(self):
        first = run_scenario(self.scenario(setup_latency=2.0,
                                           reservation_ttl=40.0))
        second = run_scenario(self.scenario(setup_latency=2.0,
                                            reservation_ttl=40.0))
        assert first.ledger_digest == second.ledger_digest
        assert first.journal_digest == second.journal_digest
        assert first.blocking == second.blocking

    def test_ttl_shorter_than_the_walk_blocks_everything(self):
        # At 5 time units per hop transit a dual-ring walk takes far
        # longer than 40 units end to end, so every reservation expires
        # before its commit arrives: the TTL is genuinely binding.
        starved = run_scenario(self.scenario(setup_latency=5.0,
                                             reservation_ttl=40.0))
        assert starved.blocking == 1.0

    def test_plane_mode_keeps_booking_safe(self):
        scen = self.scenario(setup_latency=2.0, reservation_ttl=40.0)
        net = scen.build_network()
        cac = NetworkCAC(net, rng=random.Random(scen.seed),
                         hop_latency=scen.setup_latency)
        engine = ChurnEngine(
            cac, [scen.traffic_class()], pairs=scen.build_pairs(net),
            seed=scen.seed, policy=make_policy(scen.policy, scen.k),
            setup_latency=scen.setup_latency,
            reservation_ttl=scen.reservation_ttl,
        )
        engine.run(max_events=scen.events)
        assert no_double_booking(cac)
        for switch in cac.switches().values():
            assert switch.verify_consistency()
            assert not switch.pending

    def test_negative_latency_rejected(self):
        net = star_network(2, bounds={0: 32})
        cls = TrafficClass("cbr", cbr(0.1), 0.01, 100.0)
        with pytest.raises(TrafficModelError, match="setup_latency"):
            ChurnEngine(NetworkCAC(net), [cls], pairs=[("t0", "t1")],
                        setup_latency=-1.0)


class TestCounters:
    """The churn metric families count what the ledger records, on the
    synchronous path and on the admission plane alike."""

    @pytest.mark.parametrize("latency", [
        {}, dict(setup_latency=2.0, reservation_ttl=40.0)],
        ids=["synchronous", "plane"])
    def test_counters_match_the_ledger(self, latency):
        scen = ChurnScenario(**RING, events=300, seed=11, offered_load=4.0,
                             policy="k-alternate", k=2, **latency)
        net = scen.build_network()
        registry = MetricsRegistry()
        previous = om.set_registry(registry)
        try:
            engine = ChurnEngine(
                NetworkCAC(net, rng=random.Random(scen.seed)),
                [scen.traffic_class()], pairs=scen.build_pairs(net),
                seed=scen.seed, policy=make_policy(scen.policy, scen.k),
                setup_latency=scen.setup_latency,
                reservation_ttl=scen.reservation_ttl,
            )
            engine.run(max_events=scen.events)
        finally:
            om.set_registry(previous)
        arrivals = [r for r in engine.ledger if r.kind == "arrival"]
        departures = [r for r in engine.ledger if r.kind == "departure"]
        outcomes = {outcome: sum(r.outcome == outcome for r in arrivals)
                    for outcome in ("admitted", "blocked")}
        retries = sum(r.attempts - 1 for r in arrivals)
        assert all(r.attempts >= 1 for r in arrivals)
        assert min(outcomes.values()) > 0 and retries > 0 and departures
        assert registry.total("churn_arrivals_total") == len(arrivals)
        for outcome, count in outcomes.items():
            assert registry.value("churn_outcomes_total", cls="cbr",
                                  outcome=outcome) == count
        assert registry.total("churn_retries_total") == retries
        assert registry.total("churn_departures_total") == len(departures)


class TestOneCrankbackChain:
    """The synchronous and admission-plane transports share one chain:
    crankback, outcome records and departures are written once."""

    @pytest.mark.parametrize("seed", [11, 3])
    @pytest.mark.parametrize("workload", ["churn-cbr", "vbr-2prio"])
    def test_zero_latency_plane_makes_the_synchronous_run(self, workload,
                                                          seed):
        # A finite TTL selects the plane even at zero setup latency;
        # walks that take no time must then decide as the synchronous
        # calls do.
        sync = build_engine(workload, seed)
        plane = build_engine(workload, seed, setup_latency=0.0,
                             reservation_ttl=40.0)
        sync.run(max_events=2000)
        plane.run(max_events=2000)
        assert ledger_digest(plane.ledger) == ledger_digest(sync.ledger)
        assert journal_digest_of(plane.cac) == journal_digest_of(sync.cac)
        # The walks ran as engine processes, and crankback was taken.
        assert (plane.engine.events_processed
                > 2 * sync.engine.events_processed)
        assert any(row.attempts > 1 for row in sync.ledger)

    def test_refused_attempts_leave_no_cycle(self):
        # About 40% of these arrivals are refused.  A refusal held past
        # its ``except`` block would tie error -> traceback -> frame ->
        # error into one cycle per refused attempt.
        engine = build_engine("churn-cbr", 11)
        gc.collect()
        gc.disable()
        try:
            engine.run(max_events=500)
            garbage = gc.collect()
        finally:
            gc.enable()
        assert garbage == 0
        assert any(row.outcome == "blocked" for row in engine.ledger)


class TestEquivalence:
    def test_replications_use_distinct_seeds(self):
        scenario = ChurnScenario(
            events=CHURN_EVENTS, seed=5, policy="k-alternate", **RING)
        (point, _other) = blocking_curve([1.0, 3.0], scenario,
                                         replications=2)
        assert len(set(point.digests)) == len(point.digests)
