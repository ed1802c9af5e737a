"""Deterministic unit tests for the retry/backoff schedule."""

import random

import pytest

from repro.exceptions import RetryExhausted
from repro.obs.clock import ManualClock
from repro.robustness.retry import RetryPolicy, retry_call


class Flaky:
    """Fails the first ``failures`` calls, then returns its call count."""

    def __init__(self, failures):
        self.failures = failures
        self.calls = 0

    def __call__(self, attempt):
        self.calls += 1
        if self.calls <= self.failures:
            raise TimeoutError(f"transient #{self.calls}")
        return self.calls


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
    def test_succeeds_after_transient_failures(self):
        clock = ManualClock()
        flaky = Flaky(failures=2)
        result = retry_call(
            flaky, policy=RetryPolicy(max_attempts=4), clock=clock,
            rng=random.Random(0), retry_on=(TimeoutError,),
        )
        assert result == 3
        assert clock.now() > 0   # the backoffs advanced simulated time

    def test_clock_advances_by_exactly_the_drawn_backoffs(self):
        clock = ManualClock()
        policy = RetryPolicy(max_attempts=4, base_delay=1.0, max_delay=30.0)
        draws = random.Random(11)
        expected = [policy.backoff_delay(i, draws) for i in range(2)]
        retry_call(
            Flaky(failures=2), policy=policy, clock=clock,
            rng=random.Random(11), retry_on=(TimeoutError,),
        )
        assert clock.now() == pytest.approx(sum(expected))

    def test_exhaustion_raises_with_cause_chained(self):
        with pytest.raises(RetryExhausted) as excinfo:
            retry_call(
                Flaky(failures=99), policy=RetryPolicy(max_attempts=3),
                clock=ManualClock(), rng=random.Random(0),
                retry_on=(TimeoutError,),
            )
        assert excinfo.value.attempts == 3
        assert isinstance(excinfo.value.__cause__, TimeoutError)

    def test_non_transient_errors_propagate_immediately(self):
        calls = []

        def fatal(attempt):
            calls.append(attempt)
            raise ValueError("not transient")

        with pytest.raises(ValueError):
            retry_call(fatal, retry_on=(TimeoutError,), clock=ManualClock())
        assert calls == [0]

    def test_deadline_stops_early(self):
        # A zero deadline forbids any backoff: exactly one attempt runs.
        flaky = Flaky(failures=99)
        with pytest.raises(RetryExhausted) as excinfo:
            retry_call(
                flaky,
                policy=RetryPolicy(max_attempts=10, base_delay=1.0,
                                   deadline=0.0),
                clock=ManualClock(), rng=random.Random(1),
                retry_on=(TimeoutError,),
            )
        assert flaky.calls == 1
        assert excinfo.value.attempts == 1

    def test_on_retry_observes_every_resend(self):
        seen = []
        retry_call(
            Flaky(failures=2), policy=RetryPolicy(max_attempts=4),
            clock=ManualClock(), rng=random.Random(5),
            retry_on=(TimeoutError,),
            on_retry=lambda attempt, backoff, exc: seen.append(
                (attempt, backoff, type(exc).__name__)),
        )
        assert [entry[0] for entry in seen] == [1, 2]
        assert all(entry[2] == "TimeoutError" for entry in seen)
        assert all(entry[1] >= 0 for entry in seen)
