"""Ring wrap-around after a single failure: the real-time cost."""

from fractions import Fraction as F

import pytest

from repro.core.admission import NetworkCAC
from repro.core.traffic import cbr
from repro.exceptions import TrafficModelError
from repro.network.connection import ConnectionRequest
from repro.network.routing import shortest_path
from repro.network.topology import Network, line_network
from repro.robustness.faults import FaultInjector, FaultPlan
from repro.robustness.harness import no_double_booking
from repro.rtnet import (
    RingAnalysis,
    evacuate_switch,
    failover_capacity,
    symmetric_workload,
    wrapped_analysis,
    wrapped_ring_size,
    wrapped_workload,
)


def diamond_network():
    """t0 - s0 - {s1 | s2} - s3 - t1: two disjoint middle paths."""
    net = Network()
    for name in ("s0", "s1", "s2", "s3"):
        net.add_switch(name)
    port_bounds = {0: 64}
    for src, dst in [("s0", "s1"), ("s1", "s3"),
                     ("s0", "s2"), ("s2", "s3")]:
        net.add_link(src, dst, bounds=port_bounds)
    net.add_terminal("t0")
    net.add_link("t0", "s0")
    net.add_link("s0", "t0", bounds=port_bounds)
    net.add_terminal("t1")
    net.add_link("t1", "s3")
    net.add_link("s3", "t1", bounds=port_bounds)
    return net


def upper_path_request(net, name):
    """Pinned over the s0->s1->s3 branch."""
    route = shortest_path(net, "t0", "t1", avoid=frozenset({"s2"}))
    return ConnectionRequest(name, cbr(F(1, 10)), route)


class TestWrappedRingSize:
    def test_formula(self):
        assert wrapped_ring_size(16) == 30
        assert wrapped_ring_size(3) == 4

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            wrapped_ring_size(2)


class TestWrappedWorkload:
    def test_keys_preserved(self):
        workload = symmetric_workload(0.4, 4, 2)
        wrapped = wrapped_workload(workload, 4)
        assert wrapped == workload

    def test_out_of_range_node_rejected(self):
        workload = {(7, 0): next(iter(
            symmetric_workload(0.4, 8, 1).values()))}
        with pytest.raises(TrafficModelError):
            wrapped_workload(workload, 4)


class TestWrappedAnalysis:
    def test_transit_only_positions_carry_traffic(self):
        """Secondary ports see transit streams even with no terminals."""
        workload = symmetric_workload(0.4, 4, 1)
        analysis = wrapped_analysis(workload, 4)
        # Position 4 (a secondary port) is crossed by broadcasts.
        assert not analysis.arrival_stream(4, 0).is_zero

    def test_wrapped_bounds_dominate_healthy(self):
        workload = symmetric_workload(0.4, 6, 2)
        healthy = RingAnalysis(workload, 6)
        wrapped = wrapped_analysis(workload, 6)
        assert wrapped.worst_e2e_bound(0) > healthy.worst_e2e_bound(0)

    def test_wrapped_route_length(self):
        # e2e bound sums 2R-3 links on the wrapped cycle.
        workload = symmetric_workload(0.3, 4, 1)
        analysis = wrapped_analysis(workload, 4)
        total = sum(analysis.link_bound((0 + j) % 6, 0) for j in range(5))
        assert analysis.e2e_bound(0, 0) == total


class TestFailoverCapacity:
    def test_failure_costs_capacity(self):
        healthy, wrapped = failover_capacity(
            4, ring_nodes=8, tolerance=1 / 32)
        assert 0 < wrapped < healthy

    def test_cost_is_bounded(self):
        # The wrap roughly doubles the hop count; capacity should drop
        # but not collapse (the deadline has slack at moderate N).
        healthy, wrapped = failover_capacity(
            1, ring_nodes=8, tolerance=1 / 32)
        assert wrapped > healthy * 0.4

    def test_monotone_in_terminals(self):
        one = failover_capacity(1, ring_nodes=8, tolerance=1 / 32)
        many = failover_capacity(8, ring_nodes=8, tolerance=1 / 32)
        assert many[1] <= one[1]


class TestEvacuateSwitch:
    """Crash a node and tear its connections down via the robust path."""

    def make_loaded_cac(self):
        net = line_network(4, bounds={0: 64}, terminals_per_switch=1)
        cac = NetworkCAC(net)
        # "crossing" traverses s1; "local" lives entirely on s3's port.
        cac.setup(ConnectionRequest(
            "crossing", cbr(F(1, 10)), shortest_path(net, "t0.0", "t2.0")))
        cac.setup(ConnectionRequest(
            "local", cbr(F(1, 10)), shortest_path(net, "t3.0", "t2.0")))
        return cac

    def test_affected_connections_are_torn_down(self):
        cac = self.make_loaded_cac()
        affected = evacuate_switch(cac, "s1")
        assert [request.name for request in affected] == ["crossing"]
        assert set(cac.established) == {"local"}
        assert cac.switch("s1").crashed
        # Surviving hops of the evacuated connection are clean.
        for name in ("s0", "s2", "s3"):
            switch = cac.switch(name)
            assert "crossing" not in switch.legs
            assert switch.verify_consistency()

    def test_recovery_reconciles_the_dead_switch(self):
        cac = self.make_loaded_cac()
        evacuate_switch(cac, "s1")
        recovered = cac.recover_switch("s1")
        # Journal replay resurrects the orphaned leg; reconciliation
        # against the network's committed set must drop it again.
        assert recovered.legs == {}
        assert recovered.verify_consistency()
        for switch in cac.switches().values():
            assert switch.verify_consistency()

    def test_evacuated_requests_can_be_readmitted(self):
        cac = self.make_loaded_cac()
        affected = evacuate_switch(cac, "s1")
        cac.recover_switch("s1")
        for request in affected:
            cac.setup(request)
        assert set(cac.established) == {"crossing", "local"}


class TestEvacuationUnderConcurrentFaults:
    """``evacuate_switch`` composes with live fault schedules."""

    def build(self):
        net = diamond_network()
        injector = FaultInjector(FaultPlan([]))
        cac = NetworkCAC(net, fault_injector=injector)
        cac.setup(upper_path_request(net, "vc0"))
        cac.setup(ConnectionRequest(
            "vc1", cbr(F(1, 12)),
            shortest_path(net, "t0", "t1", avoid=frozenset({"s1"}))))
        return net, injector, cac

    def test_evacuation_while_a_link_is_down(self):
        _net, injector, cac = self.build()
        # A concurrent link failure on the survivor's path must not
        # stop the evacuation of the crashed switch.
        injector.fail_link("s2->s3")
        affected = evacuate_switch(cac, "s1")
        assert [request.name for request in affected] == ["vc0"]
        assert "vc0" not in cac.established
        cac.recover_switch("s1")
        assert cac.switch("s1").legs == {}
        assert cac.switch("s1").verify_consistency()

    def test_evacuated_requests_readmit_after_recovery(self):
        _net, injector, cac = self.build()
        affected = evacuate_switch(cac, "s1")
        cac.recover_switch("s1")
        for request in affected:
            cac.setup(request)
        assert "vc0" in cac.established
        assert no_double_booking(cac)
