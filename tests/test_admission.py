"""Network-level CAC: route setup, CDV accumulation, rollback, signalling."""

import math
from fractions import Fraction as F

import pytest

from repro.core.accumulation import HARD, SOFT
from repro.core.admission import NetworkCAC
from repro.core.baseline import PeakBandwidthCAC
from repro.core.traffic import VBRParameters, cbr
from repro.exceptions import AdmissionError, QosUnsatisfiable, SwitchRejection
from repro.network.connection import ConnectionRequest
from repro.network.routing import Route, ring_walk, shortest_path
from repro.network.signaling import (
    AbortMessage,
    CommitMessage,
    ConnectedMessage,
    RejectMessage,
    ReleaseMessage,
    SetupMessage,
    SignalingTrace,
)
from repro.network.topology import line_network, ring_network, star_network


@pytest.fixture
def line():
    return line_network(4, bounds={0: 32}, terminals_per_switch=1)


def request_over(net, name, src, dst, traffic=None, **kwargs):
    return ConnectionRequest(
        name, traffic or cbr(F(1, 8)), shortest_path(net, src, dst), **kwargs)


class TestSetup:
    def test_simple_establishment(self, line):
        cac = NetworkCAC(line)
        established = cac.setup(request_over(line, "vc0", "t0.0", "t3.0"))
        assert established.name == "vc0"
        assert len(established.hops) == 4   # 3 ring ports + delivery port
        assert established.e2e_bound == 4 * 32
        assert "vc0" in cac.established

    def test_duplicate_name_rejected(self, line):
        cac = NetworkCAC(line)
        cac.setup(request_over(line, "vc0", "t0.0", "t3.0"))
        with pytest.raises(AdmissionError, match="already established"):
            cac.setup(request_over(line, "vc0", "t0.0", "t1.0"))

    def test_cdv_grows_along_route(self, line):
        cac = NetworkCAC(line)
        established = cac.setup(request_over(line, "vc0", "t0.0", "t3.0"))
        cdvs = [hop.cdv_in for hop in established.hops]
        assert cdvs == [0, 32, 64, 96]   # hard accumulation of 32/hop

    def test_soft_cdv_is_smaller(self, line):
        cac = NetworkCAC(line, cdv_policy="soft")
        established = cac.setup(request_over(line, "vc0", "t0.0", "t3.0"))
        cdvs = [hop.cdv_in for hop in established.hops]
        assert cdvs[0] == 0
        assert cdvs[1] == pytest.approx(32)
        assert cdvs[2] == pytest.approx(32 * math.sqrt(2))
        assert cdvs[3] == pytest.approx(32 * math.sqrt(3))

    def test_qos_check_rejects_tight_request(self, line):
        cac = NetworkCAC(line)
        with pytest.raises(QosUnsatisfiable):
            cac.setup(request_over(line, "vc0", "t0.0", "t3.0",
                                   delay_bound=100))
        assert cac.established == {}

    def test_qos_check_accepts_matching_request(self, line):
        cac = NetworkCAC(line)
        established = cac.setup(request_over(line, "vc0", "t0.0", "t3.0",
                                             delay_bound=128))
        assert established.e2e_bound <= 128

    def test_computed_bounds_within_advertised(self, line):
        cac = NetworkCAC(line)
        for index in range(4):
            cac.setup(request_over(line, f"vc{index}", "t0.0", "t3.0"))
        for hop_key, stats in cac.port_report().items():
            assert stats["computed_bound"] <= stats["advertised"]

    def test_rejection_rolls_back_upstream_hops(self):
        # Saturate the last hop so the walk fails mid-route, then verify
        # no residue is left anywhere.
        net = line_network(3, bounds={0: 500}, terminals_per_switch=2)
        cac = NetworkCAC(net)
        # Fill the s1->s2 link almost completely via a shorter route.
        blocker = ConnectionRequest(
            "blocker", cbr(F(9, 10)),
            shortest_path(net, "t1.0", "t2.0"))
        cac.setup(blocker)
        victim = ConnectionRequest(
            "victim", cbr(F(1, 4)), shortest_path(net, "t0.0", "t2.1"))
        with pytest.raises(SwitchRejection):
            cac.setup(victim)
        assert "victim" not in cac.established
        # The first hop (s0) must have been released.
        assert cac.switch("s0").legs == {}

    def test_would_admit_matches_setup(self, line):
        cac = NetworkCAC(line)
        good = request_over(line, "vc0", "t0.0", "t3.0")
        assert cac.would_admit(good)
        cac.setup(good)
        bad = request_over(line, "vc1", "t0.0", "t3.0", traffic=cbr(F(95, 100)))
        assert not cac.would_admit(bad)
        with pytest.raises(SwitchRejection):
            cac.setup(bad)

    def test_would_admit_does_not_mutate(self, line):
        cac = NetworkCAC(line)
        cac.would_admit(request_over(line, "vc0", "t0.0", "t3.0"))
        assert cac.established == {}
        assert cac.switch("s0").legs == {}

    def test_unknown_switch_rejected(self, line):
        cac = NetworkCAC(line)
        with pytest.raises(AdmissionError):
            cac.switch("ghost")


@pytest.mark.parametrize("scheme", [NetworkCAC, PeakBandwidthCAC])
def test_would_admit_refuses_an_established_name(scheme):
    """would_admit answers what setup decides, duplicate names included."""
    net = line_network(3, bounds={0: 32}, terminals_per_switch=1)
    cac = scheme(net)
    request = request_over(net, "vc", "t0.0", "t2.0")
    assert cac.would_admit(request)
    cac.setup(request)
    assert not cac.would_admit(request)
    with pytest.raises(AdmissionError, match="already established"):
        cac.setup(request)


class TestTeardown:
    def test_teardown_releases_everywhere(self, line):
        cac = NetworkCAC(line)
        cac.setup(request_over(line, "vc0", "t0.0", "t3.0"))
        cac.teardown("vc0")
        assert cac.established == {}
        for name in ("s0", "s1", "s2", "s3"):
            assert cac.switch(name).legs == {}

    def test_teardown_unknown_rejected(self, line):
        cac = NetworkCAC(line)
        with pytest.raises(AdmissionError, match="no established"):
            cac.teardown("ghost")

    def test_setup_all_unwinds_on_failure(self, line):
        cac = NetworkCAC(line)
        requests = [
            request_over(line, "a", "t0.0", "t3.0"),
            request_over(line, "b", "t0.0", "t3.0"),
            request_over(line, "c", "t0.0", "t3.0", traffic=cbr(F(99, 100))),
        ]
        with pytest.raises(AdmissionError):
            cac.setup_all(requests)
        assert cac.established == {}

    def test_teardown_all(self, line):
        cac = NetworkCAC(line)
        for index in range(3):
            cac.setup(request_over(line, f"vc{index}", "t0.0", "t3.0"))
        cac.teardown_all()
        assert cac.established == {}


class TestSignalling:
    def test_successful_walk_trace(self, line):
        cac = NetworkCAC(line)
        trace = SignalingTrace()
        cac.setup(request_over(line, "vc0", "t0.0", "t3.0"), trace=trace)
        setups = trace.of_type(SetupMessage)
        assert [m.at_node for m in setups] == ["s0", "s1", "s2", "s3"]
        assert [m.cdv_in for m in setups] == [0, 32, 64, 96]
        connected = trace.of_type(ConnectedMessage)
        assert len(connected) == 1
        assert connected[0].at_node == "t3.0"

    def test_rejection_trace(self):
        net = line_network(2, bounds={0: 500}, terminals_per_switch=2)
        cac = NetworkCAC(net)
        cac.setup(ConnectionRequest(
            "hog", cbr(F(9, 10)), shortest_path(net, "t0.0", "t1.0")))
        trace = SignalingTrace()
        with pytest.raises(SwitchRejection):
            cac.setup(ConnectionRequest(
                "late", cbr(F(1, 2)),
                shortest_path(net, "t0.1", "t1.1")), trace=trace)
        rejects = trace.of_type(RejectMessage)
        assert len(rejects) == 1

    def test_release_trace(self, line):
        cac = NetworkCAC(line)
        cac.setup(request_over(line, "vc0", "t0.0", "t3.0"))
        trace = SignalingTrace()
        cac.teardown("vc0", trace=trace)
        assert len(trace.of_type(ReleaseMessage)) == 4

    def test_qos_reject_trace(self, line):
        cac = NetworkCAC(line)
        trace = SignalingTrace()
        with pytest.raises(QosUnsatisfiable):
            cac.setup(request_over(line, "vc0", "t0.0", "t3.0",
                                   delay_bound=1), trace=trace)
        assert len(trace.of_type(RejectMessage)) == 1


class TestMidWalkRollback:
    """A REJECT at hop k must release hops 1..k-1 and leave every
    switch's incremental caches consistent -- not just the happy path."""

    def saturated_net(self):
        # Fill the s1->s2 link almost completely via a shorter route so
        # a longer walk is rejected exactly at hop index 1 (switch s1).
        net = line_network(3, bounds={0: 500}, terminals_per_switch=2)
        cac = NetworkCAC(net)
        cac.setup(ConnectionRequest(
            "blocker", cbr(F(9, 10)), shortest_path(net, "t1.0", "t2.0")))
        return net, cac

    def test_rejection_at_hop_k_releases_upstream_and_stays_consistent(self):
        net, cac = self.saturated_net()
        trace = SignalingTrace()
        victim = ConnectionRequest(
            "victim", cbr(F(1, 4)), shortest_path(net, "t0.0", "t2.1"))
        with pytest.raises(SwitchRejection) as excinfo:
            cac.setup(victim, trace=trace)
        assert excinfo.value.switch == "s1"
        # Upstream hop s0 was reserved and must be rolled back; nothing
        # may linger anywhere, reserved or committed.
        for name in ("s0", "s1", "s2"):
            switch = cac.switch(name)
            assert "victim" not in switch.legs
            assert "victim" not in switch.pending
            assert switch.verify_consistency(), name
        # The unwind was signalled: an ABORT reached the reserved hops.
        aborted = [m.at_node for m in trace.of_type(AbortMessage)]
        assert "s0" in aborted
        rejects = trace.of_type(RejectMessage)
        assert len(rejects) == 1 and rejects[0].at_node == "s1"
        # No COMMIT was ever sent for the rejected walk.
        assert all(m.connection != "victim"
                   for m in trace.of_type(CommitMessage))
        # The blocker is untouched and the network still admits within
        # the remaining capacity.
        assert set(cac.established) == {"blocker"}

    def test_rollback_restores_admittable_capacity(self):
        net, cac = self.saturated_net()
        victim = ConnectionRequest(
            "victim", cbr(F(1, 4)), shortest_path(net, "t0.0", "t2.1"))
        with pytest.raises(SwitchRejection):
            cac.setup(victim)
        # A small connection over the same upstream hop still fits: the
        # failed walk leaked nothing into s0's aggregates.
        small = ConnectionRequest(
            "small", cbr(F(1, 100)), shortest_path(net, "t0.0", "t1.1"))
        assert cac.would_admit(small)
        cac.setup(small)
        for name in ("s0", "s1", "s2"):
            assert cac.switch(name).verify_consistency()


class TestTwoPhaseTrace:
    def test_commit_wave_travels_back_upstream(self, line):
        cac = NetworkCAC(line)
        trace = SignalingTrace()
        cac.setup(request_over(line, "vc0", "t0.0", "t3.0"), trace=trace)
        setups = [m.at_node for m in trace.of_type(SetupMessage)]
        commits = [m.at_node for m in trace.of_type(CommitMessage)]
        assert setups == ["s0", "s1", "s2", "s3"]
        assert commits == ["s3", "s2", "s1", "s0"]
        # Reservations all precede the first commit.
        kinds = [type(m).__name__ for m in trace
                 if isinstance(m, (SetupMessage, CommitMessage))]
        assert kinds == ["SetupMessage"] * 4 + ["CommitMessage"] * 4


class TestRingBroadcast:
    """The RTnet-style pattern: terminals broadcasting around a ring."""

    def test_symmetric_broadcasts_admitted(self):
        net = ring_network(4, bounds={0: 32}, terminals_per_switch=1)
        cac = NetworkCAC(net)
        for index in range(4):
            route = ring_walk(net, f"s{index}", hops=3,
                              access_from=f"t{index}.0")
            cac.setup(ConnectionRequest(
                f"bcast{index}", cbr(F(1, 10)), route))
        assert len(cac.established) == 4

    def test_computed_e2e_bound_grows_with_load(self):
        net = ring_network(4, bounds={0: 64}, terminals_per_switch=1)
        cac = NetworkCAC(net)
        route = ring_walk(net, "s0", hops=3, access_from="t0.0")
        history = []
        for index in range(4):
            cac.setup(ConnectionRequest(
                f"bcast{index}", cbr(F(1, 10)),
                ring_walk(net, f"s{index}", hops=3,
                          access_from=f"t{index}.0")))
            history.append(cac.computed_e2e_bound(route, 0))
        assert history == sorted(history)
        assert history[-1] <= 3 * 64
