"""A setup walk pays per hop for Algorithm 4.1, not for bookkeeping.

A route builds its hops once; the journal stores each transition as a
tuple and builds :class:`JournalEntry` views only when it is read; a
walk builds its :class:`HopCommitment` records only once it commits.
The floats, decisions and journal ops these leave unchanged are pinned
elsewhere (the benchmark digests, the fault-schedule harness, the
float recovery test); these tests pin the saving itself, counted on a
seeded run of the churn-cbr benchmark traffic.
"""

import random
from fractions import Fraction as F

from repro.core.admission import NetworkCAC
from repro.core.switch_cac import SwitchCAC
from repro.core.traffic import cbr
from repro.network.connection import HopCommitment
from repro.network.routing import Hop, Route, shortest_path
from repro.network.topology import line_network
from repro.robustness.journal import AdmissionJournal, JournalEntry
from repro.workload import ChurnEngine, ChurnScenario, make_policy


def churn_cbr(seed=11):
    """A churn engine over the churn-cbr benchmark traffic, not yet run."""
    scenario = ChurnScenario(
        topology="dual-ring", nodes=6, bound=48.0, rate=0.15,
        offered_load=4.0, mean_holding=400.0, policy="k-alternate", k=2,
        seed=seed)
    network = scenario.build_network()
    return ChurnEngine(
        NetworkCAC(network, rng=random.Random(seed)),
        [scenario.traffic_class()], pairs=scenario.build_pairs(network),
        seed=seed, policy=make_policy(scenario.policy, scenario.k))


def built(monkeypatch, cls):
    """Every instance of ``cls`` constructed from now on, in order."""
    instances = []
    original = cls.__init__

    def init(self, *args, **kwargs):
        instances.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", init)
    return instances


def journal_ops(engine):
    return [entry.op for switch in engine.cac.switches().values()
            for entry in switch.journal]


def test_a_route_returns_fresh_lists_of_the_same_hops():
    net = line_network(3, bounds={0: 32}, terminals_per_switch=1)
    route = shortest_path(net, "t0.0", "t2.0")
    first, second = route.hops(), route.hops()
    assert first == second and first is not second
    assert all(a is b for a, b in zip(first, second))
    first.reverse()
    first.append(Hop("s9", "x", "y"))
    assert route.hops() == second


def test_a_churn_run_builds_each_routes_hops_once(monkeypatch):
    engine = churn_cbr()
    routes = built(monkeypatch, Route)
    hops = built(monkeypatch, Hop)
    engine.run(max_events=500)
    assert routes
    assert len(hops) == sum(len(route.hops()) for route in routes)


def test_a_churn_run_builds_no_journal_entry(monkeypatch):
    engine = churn_cbr()
    views = built(monkeypatch, JournalEntry)
    engine.run(max_events=500)
    assert views == []
    assert journal_ops(engine)     # reading the journal builds its views


def test_a_walk_builds_its_hop_commitments_once_it_commits(monkeypatch):
    engine = churn_cbr()
    commitments = built(monkeypatch, HopCommitment)
    engine.run(max_events=500)
    ops = journal_ops(engine)
    # Refused walks reserved hops too, and built no commitment.
    assert ops.count("abort") > 0
    assert len(commitments) == ops.count("commit") > 0


def test_append_returns_the_sequence_and_reads_build_views():
    journal = AdmissionJournal()
    leg = object()
    assert [journal.append("reserve", "a", leg),
            journal.append("commit", "a"),
            journal.append("release", "a")] == [0, 1, 2]
    entries = journal.entries
    assert [(entry.sequence, entry.op, entry.connection_id)
            for entry in entries] == [
        (0, "reserve", "a"), (1, "commit", "a"), (2, "release", "a")]
    assert entries[0].leg is leg
    assert entries[1].leg is None and entries[2].leg is None
    assert list(journal) == list(entries)


def test_a_switch_journals_the_leg_object_it_books():
    switch = SwitchCAC("sw0")
    switch.configure_link("out", {0: 32})
    switch.admit("a", "in", "out", 0, cbr(F(1, 8)).worst_case_stream())
    (entry,) = switch.journal.entries
    assert (entry.sequence, entry.op, entry.connection_id) == (0, "admit",
                                                               "a")
    assert entry.leg is switch.legs["a"]
