"""Deadline-aware retry with exponential backoff and full jitter.

The signaling walk resends a message when it times out, but naive
fixed-interval resends synchronise retransmissions across connections
and hammer a recovering switch.  The standard cure is *capped
exponential backoff with full jitter*: before retry ``n`` the sender
sleeps ``uniform(0, min(cap, base * 2**n))``.

Everything here is driven by an injectable clock and RNG so the
schedule is deterministic under test and never actually sleeps --
simulated time only advances on a
:class:`~repro.obs.clock.ManualClock` (one
:class:`~repro.obs.clock.Clock` protocol for the whole repo).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional, Tuple, Type, TypeVar

from ..exceptions import RetryExhausted
from ..obs.clock import ManualClock

__all__ = ["RetryPolicy", "retry_call"]

T = TypeVar("T")


@dataclass(frozen=True)
class RetryPolicy:
    """How often, how long and how late an operation may be retried.

    Attributes
    ----------
    max_attempts:
        Total tries, including the first one (so ``1`` means no retry).
    base_delay:
        Backoff cap before the first retry; doubles per retry.
    max_delay:
        Upper bound the exponential cap saturates at.
    deadline:
        Optional total time budget measured from the first attempt; a
        retry whose backoff would overrun it is not made.
    """

    max_attempts: int = 4
    base_delay: float = 1.0
    max_delay: float = 30.0
    deadline: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("backoff delays must be non-negative")
        if self.deadline is not None and self.deadline < 0:
            raise ValueError(f"deadline must be >= 0, got {self.deadline}")

    def backoff_cap(self, retry_index: int) -> float:
        """The jitter window before retry ``retry_index`` (0-based)."""
        if retry_index < 0:
            raise ValueError(f"retry_index must be >= 0, got {retry_index}")
        return min(self.max_delay, self.base_delay * (2 ** retry_index))

    def backoff_delay(self, retry_index: int, rng: random.Random) -> float:
        """Full jitter: uniform over ``[0, backoff_cap]``."""
        return rng.uniform(0.0, self.backoff_cap(retry_index))


def retry_call(operation: Callable[[int], T], *,
               policy: Optional[RetryPolicy] = None,
               clock: Optional[ManualClock] = None,
               rng: Optional[random.Random] = None,
               retry_on: Tuple[Type[BaseException], ...] = (Exception,),
               on_retry: Optional[Callable[[int, float, BaseException], None]]
               = None) -> T:
    """Call ``operation(attempt)`` until it succeeds or the budget runs out.

    Exceptions matching ``retry_on`` are transient and trigger a backoff
    and another attempt; anything else propagates immediately.  When the
    attempt count or the deadline is exhausted, :class:`RetryExhausted`
    is raised with the last transient failure chained as ``__cause__``.
    ``on_retry(next_attempt, backoff, exc)`` observes every resend --
    the signaling channel uses it to record
    :class:`~repro.network.signaling.RetryEvent` messages.
    """
    policy = policy or RetryPolicy()
    clock = clock or ManualClock()
    rng = rng or random.Random(0)
    start = clock.now()
    for attempt in range(policy.max_attempts):
        try:
            return operation(attempt)
        except retry_on as exc:
            elapsed = clock.now() - start
            if attempt + 1 >= policy.max_attempts:
                raise RetryExhausted(attempt + 1, elapsed) from exc
            backoff = policy.backoff_delay(attempt, rng)
            if (policy.deadline is not None
                    and elapsed + backoff > policy.deadline):
                raise RetryExhausted(attempt + 1, elapsed) from exc
            if on_retry is not None:
                on_retry(attempt + 1, backoff, exc)
            clock.advance(backoff)
    raise AssertionError("unreachable: the loop either returns or raises")
