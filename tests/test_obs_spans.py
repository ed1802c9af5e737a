"""Tracing spans: nesting, determinism under ManualClock, setup trees."""

from fractions import Fraction as F

import pytest

from repro.core.admission import NetworkCAC
from repro.core.traffic import cbr
from repro.network.connection import ConnectionRequest
from repro.network.routing import shortest_path
from repro.network.topology import line_network
from repro.exceptions import SwitchRejection
from repro.obs import spans
from repro.obs.clock import ManualClock
from repro.obs.spans import NULL_TRACER, Tracer


class TestSpanMechanics:
    def test_nesting_builds_a_tree(self):
        clock = ManualClock()
        tracer = Tracer(clock=clock)
        with tracer.span("outer", kind="walk") as outer:
            clock.advance(1.0)
            with tracer.span("inner") as inner:
                clock.advance(2.0)
            with tracer.span("inner2"):
                clock.advance(3.0)
        assert tracer.roots == [outer]
        assert outer.children == [inner, tracer.roots[0].children[1]]
        assert outer.tags == {"kind": "walk"}
        assert inner.start == 1.0 and inner.end == 3.0

    def test_durations_are_deterministic_under_manual_clock(self):
        def run():
            clock = ManualClock()
            tracer = Tracer(clock=clock)
            with tracer.span("a"):
                clock.advance(5.0)
                with tracer.span("b"):
                    clock.advance(7.0)
            return [(s.name, s.start, s.end)
                    for s in tracer.roots[0].walk()]
        assert run() == run() == [("a", 0.0, 12.0), ("b", 5.0, 12.0)]

    def test_current_tracks_the_open_span(self):
        tracer = Tracer(clock=ManualClock())
        assert tracer.current() is None
        with tracer.span("a") as a:
            assert tracer.current() is a
            with tracer.span("b") as b:
                assert tracer.current() is b
            assert tracer.current() is a
        assert tracer.current() is None

    def test_walk_and_find(self):
        tracer = Tracer(clock=ManualClock())
        with tracer.span("root"):
            with tracer.span("leaf"):
                pass
            with tracer.span("leaf"):
                pass
        root = tracer.roots[0]
        assert [s.name for s in root.walk()] == ["root", "leaf", "leaf"]
        assert len(root.find("leaf")) == 2

    def test_tag_updates_mid_span(self):
        tracer = Tracer(clock=ManualClock())
        with tracer.span("s", a=1) as span:
            span.tag(b=2, a=3)
        assert tracer.roots[0].tags == {"a": 3, "b": 2}

    def test_keep_cap_evicts_oldest_roots(self):
        tracer = Tracer(clock=ManualClock(), keep=2)
        for index in range(5):
            with tracer.span(f"s{index}"):
                pass
        assert [s.name for s in tracer.roots] == ["s3", "s4"]

    def test_exception_still_closes_the_span(self):
        clock = ManualClock()
        tracer = Tracer(clock=clock)
        try:
            with tracer.span("failing"):
                clock.advance(1.0)
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert tracer.roots[0].end == 1.0

    def test_leaf_is_placed_where_span_would_put_it(self):
        tracer = Tracer(clock=ManualClock(), keep=2)
        with tracer.span("outer") as outer:
            inner = tracer.leaf("inner", 1.0, 3.0, {"k": 1})
        assert outer.children == [inner]
        assert (inner.start, inner.end, inner.duration, inner.tags) == (
            1.0, 3.0, 2.0, {"k": 1})
        roots = [tracer.leaf("root", t, t + 1.0, {}) for t in (5.0, 6.0)]
        assert tracer.roots == roots

    def test_null_tracer_is_inert(self):
        with NULL_TRACER.span("anything", x=1) as span:
            span.tag(y=2)
        NULL_TRACER.leaf("anything", 0.0, 1.0, {})
        assert NULL_TRACER.roots == []
        assert span.find("anything") == []


class TestSetupSpanTree:
    def request(self, net, name="vc0"):
        return ConnectionRequest(
            name, cbr(F(1, 8)), shortest_path(net, "t0.0", "t3.0"))

    def test_setup_yields_one_child_span_per_hop(self, obs_enabled):
        _registry, tracer = obs_enabled
        net = line_network(4, bounds={0: 32}, terminals_per_switch=1)
        cac = NetworkCAC(net)
        established = cac.setup(self.request(net))
        roots = [s for s in tracer.roots if s.name == "admission.setup"]
        assert len(roots) == 1
        root = roots[0]
        hops = [c for c in root.children if c.name == "admission.hop"]
        assert root.children == hops            # nothing else at depth 1
        assert len(hops) == len(established.hops) == 4
        assert [h.tags["hop"] for h in hops] == [0, 1, 2, 3]
        assert [h.tags["switch"] for h in hops] == [
            hop.switch for hop in established.hops]
        assert root.tags["outcome"] == "accepted"

    def test_an_untraced_setup_opens_no_span(self, monkeypatch):
        opened = []

        def counting(owner):
            original = owner.span

            def span(*args, **tags):
                opened.append(args)
                return original(*args, **tags)
            return span

        monkeypatch.setattr(spans, "span", counting(spans))
        monkeypatch.setattr(spans.NullTracer, "span",
                            counting(spans.NullTracer))
        previous = spans.set_tracer(NULL_TRACER)
        try:
            net = line_network(4, bounds={0: 32}, terminals_per_switch=1)
            cac = NetworkCAC(net)
            cac.setup(self.request(net))
            cac.teardown("vc0")
        finally:
            spans.set_tracer(previous)
        assert opened == []

    def test_a_traced_setup_keeps_its_span_tags(self, obs_enabled):
        _registry, tracer = obs_enabled
        net = line_network(3, bounds={0: 32}, terminals_per_switch=1)
        route = shortest_path(net, "t0.0", "t2.0")
        cac = NetworkCAC(net)
        cac.setup(ConnectionRequest("vc0", cbr(F(1, 8)), route))
        # Refused at its first hop: the access link cannot carry
        # 1/8 + 15/16 of its capacity.
        with pytest.raises(SwitchRejection):
            cac.setup(ConnectionRequest("vc1", cbr(F(15, 16)), route))
        accepted, rejected = [s for s in tracer.roots
                              if s.name == "admission.setup"]
        assert accepted.tags == {"connection": "vc0", "hops": 3,
                                 "outcome": "accepted"}
        assert [hop.tags for hop in accepted.children] == [
            {"connection": "vc0", "hop": index, "switch": f"s{index}",
             "out_link": link}
            for index, link in enumerate(("s0->s1", "s1->s2", "s2->t2.0"))]
        assert rejected.tags == {"connection": "vc1", "hops": 3,
                                 "outcome": "rejected"}
        assert [hop.tags for hop in rejected.children] == [
            {"connection": "vc1", "hop": 0, "switch": "s0",
             "out_link": "s0->s1"}]

    def test_each_hop_nests_its_admission_check(self, obs_enabled):
        _registry, tracer = obs_enabled
        net = line_network(4, bounds={0: 32}, terminals_per_switch=1)
        NetworkCAC(net).setup(self.request(net))
        root = tracer.roots[-1]
        for hop in root.children:
            checks = hop.find("admission.check")
            assert len(checks) == 1
            assert checks[0].tags["switch"] == hop.tags["switch"]

    def test_setup_tree_is_deterministic(self, obs_clock):
        def run():
            from repro import obs
            previous_registry = obs.get_registry()
            previous_tracer = obs.get_tracer()
            previous_clock = obs.get_clock()
            _registry, tracer = obs.enable(clock_source=ManualClock())
            try:
                net = line_network(4, bounds={0: 32},
                                   terminals_per_switch=1)
                NetworkCAC(net).setup(self.request(net))
                return [(s.name, s.start, s.end, tuple(sorted(s.tags)))
                        for s in tracer.roots[0].walk()]
            finally:
                obs.set_registry(previous_registry)
                obs.set_tracer(previous_tracer)
                obs.set_clock(previous_clock)
        assert run() == run()
