"""Deadline-aware retry schedules: exponential backoff and full jitter.

The signaling walk resends a message when it times out, but naive
fixed-interval resends synchronise retransmissions across connections
and hammer a recovering switch.  The standard cure is *capped
exponential backoff with full jitter*: before retry ``n`` the sender
sleeps ``uniform(0, min(cap, base * 2**n))``.

A :class:`RetryPolicy` only describes the schedule; the one retry loop
that follows it is
:meth:`~repro.network.signaling.SignalingChannel.deliver_steps`, which
draws the backoffs from an injected RNG and spends them as simulated
time, so schedules are deterministic under test and never sleep.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

__all__ = ["RetryPolicy"]


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
