"""Per-hop circuit breakers: state machine, fast-fail, reconciliation.

The integration tests pin the acceptance criterion with metric
snapshots: an open breaker fast-fails deliveries with *zero* additional
retransmissions, and a half-open probe reconciles the switch (journal
replay / orphan-leg rollback) *before* the breaker closes.
"""

from fractions import Fraction as F

import pytest

from repro.core.admission import NetworkCAC
from repro.core.traffic import cbr
from repro.exceptions import LinkDown, SignalingTimeout
from repro.network.connection import ConnectionRequest
from repro.network.routing import shortest_path
from repro.network.topology import line_network
from repro.obs.clock import ManualClock
from repro.robustness.breaker import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    STATE_VALUES,
    BreakerBoard,
    CircuitBreaker,
)
from repro.robustness.faults import FaultInjector, FaultPlan
from repro.robustness.retry import RetryPolicy


def breaker(clock=None, threshold=3, reset=64.0, on_close=None):
    return CircuitBreaker("s1", "s0->s1", clock or ManualClock(),
                          failure_threshold=threshold,
                          reset_timeout=reset, on_close=on_close)


class TestStateMachine:
    def test_starts_closed_and_allows(self):
        brk = breaker()
        assert brk.state == CLOSED
        assert brk.allow()
        assert brk.target == "s0->s1@s1"

    def test_opens_after_threshold_consecutive_failures(self):
        brk = breaker(threshold=3)
        brk.record_failure()
        brk.record_failure()
        assert brk.state == CLOSED
        brk.record_failure()
        assert brk.state == OPEN
        assert not brk.allow()

    def test_success_resets_the_failure_count(self):
        brk = breaker(threshold=3)
        brk.record_failure()
        brk.record_failure()
        brk.record_success()
        brk.record_failure()
        brk.record_failure()
        assert brk.state == CLOSED

    def test_half_open_after_reset_timeout(self):
        clock = ManualClock()
        brk = breaker(clock=clock, threshold=1, reset=64.0)
        brk.record_failure()
        assert not brk.allow()
        clock.advance(63.9)
        assert not brk.allow()
        clock.advance(0.1)
        assert brk.allow()  # the probe
        assert brk.state == HALF_OPEN

    def test_probe_failure_reopens_for_a_full_timeout(self):
        clock = ManualClock()
        brk = breaker(clock=clock, threshold=1, reset=64.0)
        brk.record_failure()
        clock.advance(64.0)
        assert brk.allow()
        brk.record_failure()  # the probe dies
        assert brk.state == OPEN
        assert not brk.allow()
        clock.advance(64.0)
        assert brk.allow()

    def test_probe_success_runs_on_close_hook_before_closing(self):
        clock = ManualClock()
        seen = []
        brk = breaker(clock=clock, threshold=1,
                      on_close=lambda b: seen.append(b.state))
        brk.record_failure()
        clock.advance(64.0)
        assert brk.allow()
        brk.record_success()
        # The hook observed the pre-close state: reconcile, *then* trust.
        assert seen == [HALF_OPEN]
        assert brk.state == CLOSED
        assert brk.allow()

    @pytest.mark.parametrize("kwargs", [
        {"threshold": 0}, {"reset": 0.0}, {"reset": -1.0},
    ])
    def test_bad_parameters_refused(self, kwargs):
        with pytest.raises(ValueError):
            breaker(**kwargs)


class TestBreakerBoard:
    def test_breakers_are_lazy_and_stable(self):
        board = BreakerBoard()
        first = board.breaker("s1", "s0->s1")
        assert board.breaker("s1", "s0->s1") is first
        assert board.breaker("s2", "s1->s2") is not first
        assert len(board.breakers()) == 2

    def test_open_hops_reports_only_open(self):
        board = BreakerBoard(failure_threshold=1)
        board.breaker("s1", "s0->s1").record_failure()
        board.breaker("s2", "s1->s2")
        assert board.open_hops() == ["s0->s1@s1"]

    def test_on_close_hook_is_shared(self):
        closed = []
        board = BreakerBoard(failure_threshold=1,
                             on_close=lambda b: closed.append(b.target))
        brk = board.breaker("s1", "s0->s1")
        brk.record_failure()
        board.clock.advance(board.reset_timeout)
        assert brk.allow()
        brk.record_success()
        assert closed == ["s0->s1@s1"]


def crashed_switch_cac(bounds=None):
    """A 3-switch line CAC with one established connection via s1."""
    net = line_network(3, bounds=bounds or {0: 64},
                       terminals_per_switch=1)
    injector = FaultInjector(FaultPlan([]))
    cac = NetworkCAC(net, fault_injector=injector,
                     retry_policy=RetryPolicy(max_attempts=2,
                                              base_delay=0.5,
                                              max_delay=2.0),
                     breaker_threshold=3, breaker_reset_timeout=64.0)
    request = ConnectionRequest("vc0", cbr(F(1, 10)),
                                shortest_path(net, "t0.0", "t2.0"))
    cac.setup(request)
    return net, cac


class TestFastFailIntegration:
    """Metric-snapshot proof that OPEN costs zero retransmissions."""

    def attempt(self, cac, net, name):
        request = ConnectionRequest(name, cbr(F(1, 100)),
                                    shortest_path(net, "t0.0", "t2.0"))
        return cac.setup(request)

    def test_open_breaker_fast_fails_without_retransmits(self,
                                                         obs_enabled):
        registry, _tracer = obs_enabled
        net, cac = crashed_switch_cac()
        cac.switch("s1").crash()

        # Three setups exhaust their retry budgets against silent s1.
        for index in range(3):
            with pytest.raises(SignalingTimeout):
                self.attempt(cac, net, f"probe{index}")
        assert cac.breakers.open_hops() == ["s0->s1@s1"]
        retransmits = registry.total("signaling_retransmits_total")
        timeouts = registry.total("signaling_timeouts_total")
        assert retransmits > 0

        # Open: the next walks fail instantly -- LinkDown, not timeout,
        # and not a single further retransmission.
        for index in range(5):
            with pytest.raises(LinkDown):
                self.attempt(cac, net, f"fast{index}")
        assert registry.total("signaling_retransmits_total") == retransmits
        assert registry.total("signaling_timeouts_total") == timeouts
        assert registry.total("signaling_fast_fails_total") >= 5
        assert registry.total("cac_breaker_fast_fails_total") >= 5

        snapshot = registry.snapshot()
        gauge = snapshot["cac_breaker_state"]["target=s0->s1@s1"]
        assert gauge == STATE_VALUES[OPEN]

    def test_health_monitor_declares_the_hop_down(self, obs_enabled):
        _registry, _tracer = obs_enabled
        net, cac = crashed_switch_cac()
        cac.switch("s1").crash()
        for index in range(3):
            with pytest.raises(SignalingTimeout):
                self.attempt(cac, net, f"probe{index}")
        assert cac.health.is_down("s0->s1")
        assert cac.health.is_down("s1")


class TestReconcileBeforeClose:
    """The half-open probe reconciles switch state before readmission."""

    def open_the_breaker(self, cac, net):
        for index in range(3):
            request = ConnectionRequest(
                f"fail{index}", cbr(F(1, 100)),
                shortest_path(net, "t0.0", "t2.0"))
            with pytest.raises(SignalingTimeout):
                cac.setup(request)
        assert cac.breakers.open_hops() == ["s0->s1@s1"]

    def test_probe_reconciles_orphan_legs_before_closing(self,
                                                         obs_enabled):
        registry, _tracer = obs_enabled
        net, cac = crashed_switch_cac()
        s1 = cac.switch("s1")
        s1.crash()
        # Teardown while s1 is dark: its journal still holds vc0.
        cac.teardown("vc0")
        self.open_the_breaker(cac, net)

        # s1 restarts *on its own* (journal replay): the orphaned vc0
        # leg is back, and the crash epoch moved past what the breaker
        # last saw.
        s1.recover()
        assert "vc0" in s1.legs
        epoch_after_restart = s1.epoch

        # The reset timeout elapses; the next probe is the half-open
        # trial.  Closing must reconcile first: the orphan leg is gone
        # the moment the breaker trusts the hop again.
        cac.clock.advance(65.0)
        results = cac.probe(hops=[("s1", "s0->s1")])
        assert results == {"s0->s1@s1": True}
        brk = cac.breakers.breaker("s1", "s0->s1")
        assert brk.state == CLOSED
        assert brk.known_epoch == epoch_after_restart
        assert "vc0" not in s1.legs
        assert s1.verify_consistency()

        snapshot = registry.snapshot()
        gauge = snapshot["cac_breaker_state"]["target=s0->s1@s1"]
        assert gauge == STATE_VALUES[CLOSED]
        # rollback of the orphan leg was counted
        assert registry.total("cac_rollbacks_total") > 0

    def test_close_hook_recovers_a_still_crashed_switch(self):
        net, cac = crashed_switch_cac()
        s1 = cac.switch("s1")
        s1.crash()
        cac.teardown("vc0")
        self.open_the_breaker(cac, net)

        # A success races the crash: the close hook finds the switch
        # still down and brings it back through recover_switch (journal
        # replay + reconciliation) before the breaker closes.
        cac.clock.advance(65.0)
        brk = cac.breakers.breaker("s1", "s0->s1")
        assert brk.allow()
        brk.record_success()
        assert brk.state == CLOSED
        assert not s1.crashed
        assert "vc0" not in s1.legs
        assert s1.verify_consistency()

    def test_new_traffic_books_cleanly_after_reclose(self):
        net, cac = crashed_switch_cac()
        s1 = cac.switch("s1")
        s1.crash()
        cac.teardown("vc0")
        self.open_the_breaker(cac, net)
        s1.recover()
        cac.clock.advance(65.0)
        cac.probe(hops=[("s1", "s0->s1")])

        request = ConnectionRequest("vc1", cbr(F(1, 10)),
                                    shortest_path(net, "t0.0", "t2.0"))
        cac.setup(request)
        assert "vc1" in cac.established
        assert sorted(s1.legs) == ["vc1"]
