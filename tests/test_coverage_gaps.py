"""Focused tests for paths the main suites exercise only indirectly."""

from fractions import Fraction as F

import pytest

from repro.core import BitStream, NetworkCAC, SwitchCAC, cbr
from repro.core.traffic import VBRParameters
from repro.network import ConnectionRequest, shortest_path
from repro.network.topology import line_network, star_network
from repro.rtnet import RingAnalysis, symmetric_workload
from repro.sim import (
    CbrSource,
    Engine,
    EnvelopeSource,
    GreedyVbrSource,
    SimNetwork,
)


class TestArrivalStreamApi:
    """NetworkCAC.arrival_stream: the Step 1 construction, exposed."""

    def test_first_hop_is_undistorted(self):
        net = line_network(3, bounds={0: 32}, terminals_per_switch=1)
        cac = NetworkCAC(net)
        request = ConnectionRequest(
            "vc", cbr(F(1, 4)), shortest_path(net, "t0.0", "t2.0"))
        assert cac.arrival_stream(request, 0) == \
            request.traffic.worst_case_stream()

    def test_later_hops_are_clumped(self):
        net = line_network(3, bounds={0: 32}, terminals_per_switch=1)
        cac = NetworkCAC(net)
        request = ConnectionRequest(
            "vc", cbr(F(1, 4)), shortest_path(net, "t0.0", "t2.0"))
        hop0 = cac.arrival_stream(request, 0)
        hop2 = cac.arrival_stream(request, 2)
        assert hop2 == hop0.delayed(64)       # two upstream 32-cell hops
        assert hop2.dominates(hop0)

    @pytest.mark.parametrize("hop_index", [3, 7, -1])
    def test_hop_off_the_route_raises(self, hop_index):
        net = line_network(3, bounds={0: 32}, terminals_per_switch=1)
        cac = NetworkCAC(net)
        request = ConnectionRequest(
            "vc", cbr(F(1, 4)), shortest_path(net, "t0.0", "t2.0"))
        assert len(request.route.hops()) == 3
        with pytest.raises(IndexError, match="3 hops"):
            cac.arrival_stream(request, hop_index)

    def test_equal_descriptors_of_other_types_keep_their_types(self):
        """cbr(0.25) == cbr(F(1, 4)), but the memo must not mix them."""
        net = line_network(3, bounds={0: 32}, terminals_per_switch=1)
        cac = NetworkCAC(net)
        route = shortest_path(net, "t0.0", "t2.0")
        for hop in range(3):
            real = cac.arrival_stream(
                ConnectionRequest("a", cbr(0.25), route), hop)
            exact = cac.arrival_stream(
                ConnectionRequest("b", cbr(F(1, 4)), route), hop)
            assert any(isinstance(rate, float) for rate in real.rates)
            assert not any(isinstance(rate, float) for rate in exact.rates)
            assert any(isinstance(rate, F) for rate in exact.rates)


class TestSwitchAccessors:
    def test_soa_and_sof_reflect_admissions(self):
        switch = SwitchCAC("sw")
        switch.configure_link("out", {0: 100, 1: 100})
        hi = cbr(F(1, 4)).worst_case_stream()
        lo = cbr(F(1, 8)).worst_case_stream()
        switch.admit("hi", "in0", "out", 0, hi)
        switch.admit("lo", "in1", "out", 1, lo)
        assert switch.soa("out", 0) == hi.filtered()
        assert switch.soa("out", 1) == lo.filtered()
        # Priority 1's interference is the filtered priority-0 traffic.
        assert switch.sof_higher("out", 1) == hi.filtered().filtered()
        # The top priority has no interference.
        assert switch.sof_higher("out", 0).is_zero

    def test_out_links_listing(self):
        switch = SwitchCAC("sw")
        switch.configure_link("a", {0: 32})
        switch.configure_link("b", {0: 32})
        assert sorted(switch.out_links()) == ["a", "b"]


class TestPropagationDelay:
    def test_propagation_shifts_delivery_not_queueing(self):
        net = star_network(2, bounds={0: 32})
        plain = SimNetwork(net)
        slow = SimNetwork(star_network(2, bounds={0: 32}),
                          propagation=5.0)
        for sim in (plain, slow):
            route = shortest_path(sim.topology, "t0", "t1")
            sim.attach_route("vc", route)
            CbrSource(sim.engine, "vc", 0.25, sim.ingress("vc"),
                      until=100)
            sim.run(until=300)
        assert plain.metrics.stats("vc").delivered == \
            slow.metrics.stats("vc").delivered
        # Propagation adds latency but no queueing wait.
        assert plain.metrics.stats("vc").max_e2e_delay == \
            slow.metrics.stats("vc").max_e2e_delay == 0.0


class TestSourcePhases:
    def test_greedy_vbr_phase_offsets_schedule(self):
        engine = Engine()
        got = []
        params = VBRParameters(pcr=F(1, 2), scr=F(1, 10), mbs=3)
        GreedyVbrSource(engine, "vc", params, 3, got.append, phase=7.5)
        engine.run()
        assert [cell.emitted_at for cell in got] == [7.5, 9.5, 11.5]

    def test_envelope_source_phase(self):
        engine = Engine()
        got = []
        EnvelopeSource(engine, "vc", cbr(F(1, 4)).worst_case_stream(),
                       2, got.append, phase=3.0)
        engine.run()
        assert [cell.emitted_at for cell in got] == [3.0, 7.0]

    def test_cbr_emits_exactly_until(self):
        engine = Engine()
        got = []
        CbrSource(engine, "vc", 0.25, got.append, phase=0.0, until=8.0)
        engine.run()
        assert [cell.emitted_at for cell in got] == [0.0, 4.0, 8.0]


class TestRingAnalysisCaching:
    def test_link_bound_memoized(self):
        analysis = RingAnalysis(symmetric_workload(0.4, 4, 1), 4)
        first = analysis.link_bound(0, 0)
        second = analysis.link_bound(0, 0)
        assert first == second
        assert (0, 0) in analysis._link_bounds

    def test_all_links_cover_the_ring(self):
        analysis = RingAnalysis(symmetric_workload(0.4, 5, 1), 5)
        assert len(analysis.all_link_bounds(0)) == 5

    def test_terminals_share_delayed_envelopes(self, monkeypatch):
        """256 equal broadcasts need one envelope per upstream hop count."""
        calls = []
        delayed = BitStream.delayed

        def counting(stream, cdv):
            calls.append(cdv)
            return delayed(stream, cdv)

        monkeypatch.setattr(BitStream, "delayed", counting)
        analysis = RingAnalysis(symmetric_workload(0.35, 16, 16), 16)
        analysis.worst_link_bound(0)
        assert len(calls) <= analysis.ring_nodes - 1


class TestSwitchSourceRoutes:
    def test_route_starting_at_switch_simulates(self):
        """Routes whose source is a switch use the direct ingress."""
        from repro.network.routing import Route
        net = line_network(3, bounds={0: 32}, terminals_per_switch=1)
        sim = SimNetwork(net)
        route = Route(net, ["s0->s1", "s1->s2"])
        sim.attach_route("transit", route)
        from repro.sim.cell import Cell
        sim.engine.schedule(
            0.0, lambda: sim.ingress("transit")(Cell("transit", 0, 0.0)))
        sim.run(until=50)
        # Destination s2 is a switch: delivered locally there.
        assert sim.metrics.stats("transit").delivered == 1
