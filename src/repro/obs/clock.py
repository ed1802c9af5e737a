"""The time source shared by metrics timing, spans, events and the CAC.

Observability timestamps must be *deterministic under injected clocks*
so that span trees and latency histograms can be asserted exactly in
tests and replayed fault schedules.  Every clock in the repo satisfies
one small :class:`Clock` protocol -- ``now() -> float`` -- and there are
exactly three implementations:

* :class:`SystemClock` -- the monotonic wall clock
  (:func:`time.perf_counter`), the default for observability;
* :class:`ManualClock` -- simulated time advanced explicitly by the
  synchronous protocol machinery;
* :class:`EngineClock` -- an adapter reading the shared
  :class:`~repro.sim.engine.Engine` simulation clock, so the admission
  plane's walks, retry backoff and reservation timers all tick on
  *one* discrete-event timeline.

``EngineClock`` deliberately refuses :meth:`EngineClock.advance` with a
nonzero delta: engine time moves only when scheduled events fire, so
code that needs to *wait* under an engine clock must yield a delay to
the event loop (see :meth:`repro.sim.engine.Engine.process`) instead of
advancing the clock behind the engine's back.
"""

from __future__ import annotations

import time
from typing import Protocol, runtime_checkable

__all__ = [
    "Clock",
    "SystemClock",
    "ManualClock",
    "EngineClock",
    "get_clock",
    "set_clock",
]


@runtime_checkable
class Clock(Protocol):
    """Anything that can answer "what time is it?" -- the one protocol
    every time source in the repo (observability, retry backoff, the
    admission plane) is typed against."""

    def now(self) -> float:
        """Current time in this clock's units."""
        ...


class SystemClock:
    """Monotonic wall-clock time; the default observability clock."""

    __slots__ = ()

    #: Seconds on the process-local monotonic clock; the builtin itself,
    #: so a timed hot path pays no Python frame per read.
    now = staticmethod(time.perf_counter)

    def __repr__(self) -> str:
        return "SystemClock()"


class ManualClock:
    """A monotonically advancing simulated clock.

    The synchronous protocol machinery never sleeps; it *advances* this
    clock by the backoff and timeout intervals it would have waited,
    which keeps hundreds of randomized fault schedules fast and
    reproducible.
    """

    __slots__ = ("_now",)

    def __init__(self, start: float = 0.0):
        self._now = float(start)

    def now(self) -> float:
        """Current simulated time."""
        return self._now

    def advance(self, delta: float) -> float:
        """Move time forward; negative deltas are refused."""
        if delta < 0:
            raise ValueError(f"cannot advance the clock by {delta}")
        self._now += delta
        return self._now

    def __repr__(self) -> str:
        return f"ManualClock(now={self._now})"


class EngineClock:
    """Adapter exposing an :class:`~repro.sim.engine.Engine` as a Clock.

    ``now()`` reads the engine's simulation time, so components built
    against the :class:`Clock` protocol (the network CAC, metrics
    timestamps, the signaling channel) all see the one shared
    discrete-event timeline.  ``advance`` exists only so synchronous
    zero-wait call sites keep working: a nonzero delta is refused,
    because engine time moves exclusively through scheduled events.
    """

    __slots__ = ("_engine",)

    def __init__(self, engine) -> None:
        self._engine = engine

    @property
    def engine(self):
        """The engine this clock reads."""
        return self._engine

    def now(self) -> float:
        """The engine's current simulation time."""
        return self._engine.now

    def advance(self, delta: float) -> float:
        """Zero-delta no-op; anything else is a programming error.

        Synchronous walk code advances its clock by the waits it would
        have slept; under an engine clock those waits must be yielded to
        the event loop instead, so a nonzero advance here means a
        synchronous driver was used where an engine process belongs.
        """
        if delta != 0:
            from ..exceptions import SimulationError
            raise SimulationError(
                f"EngineClock cannot advance by {delta}: engine time moves "
                f"only via scheduled events; run this walk as an engine "
                f"process (see AdmissionPlane) instead of synchronously"
            )
        return self._engine.now

    def __repr__(self) -> str:
        return f"EngineClock(now={self._engine.now})"


_clock: Clock = SystemClock()


def get_clock():
    """The clock currently stamping spans and events."""
    return _clock


def set_clock(clock):
    """Install a clock (``now() -> float``); returns the previous one."""
    global _clock
    previous = _clock
    _clock = clock
    return previous
