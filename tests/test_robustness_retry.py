"""Deterministic unit tests for the retry/backoff schedule and the
signaling channel's retry loop that follows it."""

import math
import random

import pytest

from repro.core.admission import NetworkCAC
from repro.exceptions import (RetryExhausted, SignalingTimeout, SwitchRejection,
                              SwitchUnavailable)
from repro.network.signaling import (RetryEvent, SignalingChannel,
                                     SignalingTrace, drain_steps)
from repro.network.topology import star_network
from repro.obs.clock import ManualClock
from repro.robustness.faults import (DELAY, DROP, FaultInjector, FaultPlan,
                                     FaultSpec)
from repro.robustness.retry import RetryPolicy

HOP_TIMEOUT = 8.0


def dropping_channel(drops, policy, seed=0, trace=None):
    """A channel that loses the first ``drops`` reserve deliveries."""
    injector = FaultInjector(FaultPlan(
        [FaultSpec(DROP, phase="reserve", hop=0, count=drops)] if drops
        else []))
    return SignalingChannel(
        injector=injector, retry_policy=policy, clock=ManualClock(),
        rng=random.Random(seed), hop_timeout=HOP_TIMEOUT, trace=trace)


class Receiver:
    """The receiving switch: counts deliveries, answers ``"ok"``."""

    def __init__(self):
        self.calls = 0

    def __call__(self):
        self.calls += 1
        return "ok"


def deliver(channel, process):
    return drain_steps(channel.deliver_steps(
        "reserve", 0, "sw0", "in", "vc", process), channel.clock)


class TestManualClock:
    def test_starts_at_zero_and_advances(self):
        clock = ManualClock()
        assert clock.now() == 0.0
        clock.advance(2.5)
        clock.advance(0.5)
        assert clock.now() == 3.0

    def test_negative_advance_refused(self):
        with pytest.raises(ValueError):
            ManualClock().advance(-1)


class TestRetryPolicy:
    def test_backoff_cap_doubles_until_max(self):
        policy = RetryPolicy(max_attempts=8, base_delay=1.0, max_delay=5.0)
        assert [policy.backoff_cap(i) for i in range(5)] == [1, 2, 4, 5, 5]

    def test_full_jitter_stays_in_window(self):
        policy = RetryPolicy(base_delay=2.0, max_delay=16.0)
        rng = random.Random(7)
        for retry_index in range(6):
            for _ in range(50):
                delay = policy.backoff_delay(retry_index, rng)
                assert 0.0 <= delay <= policy.backoff_cap(retry_index)

    def test_schedule_is_deterministic_under_a_seed(self):
        policy = RetryPolicy()
        first = [policy.backoff_delay(i, random.Random(3)) for i in range(4)]
        second = [policy.backoff_delay(i, random.Random(3)) for i in range(4)]
        assert first == second

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-1)
        with pytest.raises(ValueError):
            RetryPolicy(deadline=-0.5)
        with pytest.raises(ValueError):
            RetryPolicy().backoff_cap(-1)


class TestRetryCall:
    """One delivery through :meth:`SignalingChannel.deliver_steps`,
    drained against the channel's clock and retried."""

    def test_succeeds_after_transient_failures(self):
        channel = dropping_channel(2, RetryPolicy(max_attempts=4))
        receiver = Receiver()
        assert deliver(channel, receiver) == "ok"
        assert receiver.calls == 1   # the dropped copies never arrived
        assert channel.clock.now() > 0

    def test_clock_advances_by_exactly_the_drawn_backoffs(self):
        policy = RetryPolicy(max_attempts=4, base_delay=1.0, max_delay=30.0)
        draws = random.Random(11)
        backoffs = [policy.backoff_delay(i, draws) for i in range(2)]
        channel = dropping_channel(2, policy, seed=11)
        deliver(channel, Receiver())
        # each lost attempt costs one timeout, each resend one backoff
        assert channel.clock.now() == pytest.approx(
            2 * HOP_TIMEOUT + sum(backoffs))

    def test_exhaustion_raises_with_cause_chained(self):
        channel = dropping_channel(99, RetryPolicy(max_attempts=3))
        receiver = Receiver()
        with pytest.raises(SignalingTimeout) as excinfo:
            deliver(channel, receiver)
        assert excinfo.value.attempts == 3
        assert isinstance(excinfo.value.__cause__, RetryExhausted)
        assert excinfo.value.__cause__.attempts == 3
        assert receiver.calls == 0

    def test_non_transient_errors_propagate_immediately(self):
        trace = SignalingTrace()
        channel = dropping_channel(0, RetryPolicy(max_attempts=4),
                                   trace=trace)
        calls = []

        def refuse():
            calls.append(channel.clock.now())
            raise SwitchRejection("sw0", "out", 0, 40.0, 32.0)

        with pytest.raises(SwitchRejection):
            deliver(channel, refuse)
        assert calls == [0.0]   # a REJECT is a response: no retry
        assert not trace.of_type(RetryEvent)

    def test_deadline_stops_early(self):
        # A zero deadline forbids any backoff: exactly one attempt runs.
        channel = dropping_channel(
            99, RetryPolicy(max_attempts=10, base_delay=1.0, deadline=0.0),
            seed=1)
        with pytest.raises(SignalingTimeout) as excinfo:
            deliver(channel, Receiver())
        assert excinfo.value.attempts == 1
        assert len(channel.injector.injected) == 1
        assert channel.clock.now() == HOP_TIMEOUT

    def test_a_drop_schedule_ends_in_silence(self):
        channel = dropping_channel(99, RetryPolicy(max_attempts=3))
        with pytest.raises(SignalingTimeout) as excinfo:
            deliver(channel, Receiver())
        exhausted = excinfo.value.__cause__
        assert isinstance(exhausted, RetryExhausted)
        assert exhausted.attempts == 3
        assert isinstance(exhausted.__cause__, TimeoutError)
        assert str(exhausted.__cause__) == "no response from 'sw0'"

    def test_a_late_schedule_ends_in_a_late_response(self):
        late = HOP_TIMEOUT + 4.0
        channel = SignalingChannel(
            injector=FaultInjector(FaultPlan([FaultSpec(
                DELAY, phase="reserve", hop=0, delay=late, count=99)])),
            retry_policy=RetryPolicy(max_attempts=3), clock=ManualClock(),
            hop_timeout=HOP_TIMEOUT)
        receiver = Receiver()
        with pytest.raises(SignalingTimeout) as excinfo:
            deliver(channel, receiver)
        exhausted = excinfo.value.__cause__
        assert isinstance(exhausted, RetryExhausted)
        assert exhausted.attempts == 3
        assert str(exhausted.__cause__) == (
            f"response from 'sw0' arrived after {late} > timeout "
            f"{HOP_TIMEOUT}")
        assert receiver.calls == 3   # every late copy was processed

    def test_a_dead_switch_ends_in_its_own_error(self):
        channel = dropping_channel(0, RetryPolicy(max_attempts=2))

        def dead():
            raise SwitchUnavailable("sw0")

        with pytest.raises(SignalingTimeout) as excinfo:
            deliver(channel, dead)
        exhausted = excinfo.value.__cause__
        assert isinstance(exhausted, RetryExhausted)
        assert isinstance(exhausted.__cause__, SwitchUnavailable)
        assert exhausted.__cause__.switch == "sw0"

    def test_on_retry_observes_every_resend(self):
        trace = SignalingTrace()
        channel = dropping_channel(2, RetryPolicy(max_attempts=4), seed=5,
                                   trace=trace)
        deliver(channel, Receiver())
        retries = trace.of_type(RetryEvent)
        assert [event.attempt for event in retries] == [1, 2]
        assert all(event.backoff >= 0 for event in retries)
        assert all((event.connection, event.at_node, event.phase, event.hop)
                   == ("vc", "sw0", "reserve", 0) for event in retries)


def waits_of(channel, process):
    """Every wait one delivery yields, and its response."""
    steps = channel.deliver_steps("reserve", 0, "sw0", "in", "vc", process)
    waits = []
    try:
        while True:
            waits.append(next(steps))
    except StopIteration as stop:
        return waits, stop.value


def latent_channel(latency, faults=(), seed=0, trace=None):
    return SignalingChannel(
        injector=FaultInjector(FaultPlan(faults)), clock=ManualClock(),
        rng=random.Random(seed), hop_timeout=HOP_TIMEOUT, trace=trace,
        hop_latency=latency)


class TestDeliveryWaits:
    """A delivery yields only the waits that pass time."""

    @pytest.mark.parametrize("latency", [0.5, 2.0])
    def test_a_clean_delivery_is_transit_process_transit(self, latency):
        receiver = Receiver()
        assert waits_of(latent_channel(latency), receiver) == (
            [latency, latency], "ok")
        assert receiver.calls == 1

    def test_a_clean_instantaneous_delivery_yields_nothing(self):
        receiver = Receiver()
        assert waits_of(latent_channel(0.0), receiver) == ([], "ok")
        assert receiver.calls == 1

    @pytest.mark.parametrize("latency", [0.0, 2.0])
    @pytest.mark.parametrize("delay", [0.25, HOP_TIMEOUT])
    def test_an_injected_delay_is_one_more_wait(self, latency, delay):
        channel = latent_channel(
            latency, [FaultSpec(DELAY, phase="reserve", hop=0, delay=delay)])
        transit = [latency] if latency else []
        assert waits_of(channel, Receiver()) == (
            transit + [delay] + transit, "ok")

    def test_a_delay_past_the_timeout_still_retransmits(self):
        trace = SignalingTrace()
        channel = latent_channel(
            2.0, [FaultSpec(DELAY, phase="reserve", hop=0,
                            delay=HOP_TIMEOUT + 1.0)], seed=3, trace=trace)
        receiver = Receiver()
        waits, response = waits_of(channel, receiver)
        (retry,) = trace.of_type(RetryEvent)
        # Processed late, retransmitted after a backoff, processed again.
        assert waits == [2.0, HOP_TIMEOUT, retry.backoff, 2.0, 2.0]
        assert retry.backoff == channel.retry_policy.backoff_delay(
            0, random.Random(3))
        assert response == "ok" and receiver.calls == 2


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("timing", ["hop_timeout", "hop_latency"])
@pytest.mark.parametrize("build", [
    SignalingChannel,
    lambda **timing: NetworkCAC(star_network(2, bounds={0: 32}), **timing),
], ids=["SignalingChannel", "NetworkCAC"])
def test_non_finite_hop_timing_is_refused_at_construction(build, timing,
                                                          value):
    """A NaN or infinite wait would leave the clock unmoved or send it
    to infinity while the walk still establishes; both constructors
    refuse it before any walk runs."""
    with pytest.raises(ValueError, match=timing):
        build(**{timing: value})
