"""A minimal deterministic discrete-event engine.

Time is a float in cell times (matching the unit system of the
analysis).  Events scheduled for the same instant fire in scheduling
order (a monotonically increasing sequence number breaks ties), which
keeps runs bit-for-bit reproducible -- important because the validation
benches compare simulated worst cases against analytic bounds.

The queue is one binary heap of ``(time, sequence, handle)`` entries.
Two refinements keep long simulations fast without touching that
ordering contract:

* **Lazy-cancel compaction** -- ``cancel()`` marks an event and leaves
  it in place (classic lazy removal), but once cancelled entries
  outnumber live ones the heap is rebuilt without them, so churny
  schedule/cancel workloads (timers re-armed per cell) stay bounded
  instead of growing without limit.
* **Batch scheduling** -- :meth:`Engine.schedule_many` inserts a whole
  schedule (e.g. a source's precomputed emission times) in one pass,
  restoring the heap with a single O(n) ``heapify``.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Callable, Iterable, List, Optional, Tuple

from ..exceptions import SimulationError
from ..obs import metrics as _om

__all__ = ["Engine", "EventHandle", "ProcessHandle"]

#: Compaction never triggers below this pending-entry count: tiny heaps
#: are cheap to carry and rebuilding them would cost more than it saves.
_COMPACT_MIN_HEAP = 64


class EventHandle:
    """A scheduled event; ``cancel()`` prevents it from firing."""

    __slots__ = ("time", "callback", "cancelled", "_engine")

    def __init__(self, time: float, callback: Callable[[], None]):
        self.time = time
        self.callback = callback
        self.cancelled = False
        self._engine: Optional["Engine"] = None

    def cancel(self) -> None:
        """Drop the event (lazy removal: it is skipped when popped).

        Idempotent.  While the event is still queued in its engine the
        engine is told, so it can compact once cancelled entries
        dominate.
        """
        if self.cancelled:
            return
        self.cancelled = True
        engine = self._engine
        if engine is not None:
            self._engine = None
            engine._note_cancelled()


_Entry = Tuple[float, int, EventHandle]


def _check_time(time: float, now: float) -> None:
    """Reject a non-finite timestamp or one in the past.

    A NaN timestamp would slip past the into-the-past guard (every
    comparison with NaN is False) and silently corrupt the heap
    ordering, and an infinite one could never fire.
    """
    if not math.isfinite(time):
        raise SimulationError(f"cannot schedule at non-finite time {time}")
    if time < now:
        raise SimulationError(
            f"cannot schedule into the past: {time} < now {now}"
        )


class Engine:
    """Binary-heap event queue with a simulation clock.

    Examples
    --------
    >>> engine = Engine()
    >>> fired = []
    >>> _ = engine.schedule(2.0, lambda: fired.append(engine.now))
    >>> _ = engine.schedule(1.0, lambda: fired.append(engine.now))
    >>> engine.run()
    >>> fired
    [1.0, 2.0]
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: List[_Entry] = []
        self._sequence = itertools.count()
        self._processed = 0
        self._cancelled = 0

    @property
    def now(self) -> float:
        """Current simulation time in cell times."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events executed so far (diagnostics)."""
        return self._processed

    @property
    def heap_size(self) -> int:
        """Entries currently queued, including lazily cancelled ones."""
        return len(self._heap)

    @property
    def pending_events(self) -> int:
        """Live (non-cancelled) events still waiting to fire."""
        return len(self._heap) - self._cancelled

    def schedule(self, time: float, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` to run at absolute time ``time``.

        ``time`` must be finite and not in the past.
        """
        _check_time(time, self._now)
        handle = EventHandle(time, callback)
        handle._engine = self
        heapq.heappush(self._heap, (time, next(self._sequence), handle))
        return handle

    def schedule_in(self, delay: float,
                    callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` to run ``delay`` cell times from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.schedule(self._now + delay, callback)

    def schedule_many(self, events: Iterable[Tuple[float, Callable[[], None]]],
                      ) -> List[EventHandle]:
        """Bulk-schedule ``(time, callback)`` pairs; returns their handles.

        Equivalent to calling :meth:`schedule` once per pair (same
        sequence numbers, hence the exact same firing order), but the
        heap is restored with a single O(n) ``heapify`` instead of one
        O(log n) sift per event -- the win for sources that precompute
        their whole emission schedule.
        """
        entries: List[_Entry] = []
        handles: List[EventHandle] = []
        for time, callback in events:
            _check_time(time, self._now)
            handle = EventHandle(time, callback)
            handle._engine = self
            entries.append((time, next(self._sequence), handle))
            handles.append(handle)
        if entries:
            self._heap.extend(entries)
            heapq.heapify(self._heap)
        return handles

    def run(self, until: float = math.inf, max_events: int = 50_000_000) -> None:
        """Process events in time order until the horizon or exhaustion.

        Events scheduled exactly at ``until`` still fire; anything later
        stays queued (so a subsequent ``run`` can continue).
        ``max_events`` guards against accidental infinite loops.
        """
        heap = self._heap
        remaining = max_events
        while heap and heap[0][0] <= until:
            time, _seq, handle = heapq.heappop(heap)
            if handle.cancelled:
                self._cancelled -= 1
                continue
            handle._engine = None
            if remaining <= 0:
                raise SimulationError(
                    f"exceeded max_events={max_events}; runaway simulation?"
                )
            remaining -= 1
            self._processed += 1
            self._now = time
            handle.callback()
        if until != math.inf and until > self._now:
            self._now = until
        registry = _om.get_registry()
        if registry.enabled:
            registry.gauge("sim_events_processed").set(self._processed)

    def peek_next_time(self) -> Optional[float]:
        """Time of the next pending event, or None when drained.

        Cancelled entries at the front are discarded on the way.
        """
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
            self._cancelled -= 1
        return heap[0][0] if heap else None

    # -- lazy-cancel bookkeeping ---------------------------------------

    def _note_cancelled(self) -> None:
        """One queued event was cancelled; compact when they dominate."""
        self._cancelled += 1
        if (len(self._heap) >= _COMPACT_MIN_HEAP
                and self._cancelled * 2 > len(self._heap)):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify.

        The surviving ``(time, sequence, handle)`` tuples keep their
        original sequence numbers, so the pop order -- and therefore the
        simulation -- is bit-identical to the uncompacted run.
        """
        heap = self._heap
        heap[:] = [entry for entry in heap if not entry[2].cancelled]
        heapq.heapify(heap)
        self._cancelled = 0

    # -- resumable processes -------------------------------------------

    def process(self, steps,
                on_done: Optional[Callable[["ProcessHandle"], None]] = None,
                ) -> "ProcessHandle":
        """Run a generator as a resumable process on this engine.

        ``steps`` is a generator that *yields waits*: every yielded
        value is a non-negative, finite delay in simulation time; the
        process suspends and is resumed (as one scheduled event) once
        the delay has elapsed.  ``yield 0.0`` reschedules at the current
        instant behind already-queued events, so interleavings between
        concurrent processes are fully determined by the engine's
        (time, sequence) order.

        The generator's ``return`` value lands in
        :attr:`ProcessHandle.result`; an exception it raises is captured
        in :attr:`ProcessHandle.error` (processes fail independently --
        one walk dying must not tear down the whole simulation).
        ``on_done(handle)`` fires exactly once, inside the event that
        finished the process, however it ended.

        This is the primitive the admission plane builds on: each
        in-flight connection setup is one process whose per-hop message
        exchanges, retransmit timers and backoff waits are the yields.
        """
        handle = ProcessHandle(self, steps, on_done)
        handle._resume_event = self.schedule_in(0.0, handle._step)
        return handle


class ProcessHandle:
    """A running :meth:`Engine.process`; inspect or cancel it.

    Attributes
    ----------
    done:
        True once the generator returned, raised, or was cancelled.
    result:
        The generator's return value (None until done / on error).
    error:
        The exception that ended the process, or None.
    """

    __slots__ = ("engine", "done", "result", "error",
                 "_steps", "_on_done", "_resume_event")

    def __init__(self, engine: Engine, steps,
                 on_done: Optional[Callable[["ProcessHandle"], None]]):
        self.engine = engine
        self.done = False
        self.result = None
        self.error: Optional[BaseException] = None
        self._steps = steps
        self._on_done = on_done
        self._resume_event: Optional[EventHandle] = None

    def cancel(self) -> None:
        """Stop a suspended process: closes the generator (its
        ``finally`` blocks run now), drops the pending resume event and
        completes the handle without a result.  Idempotent."""
        if self.done:
            return
        if self._resume_event is not None:
            self._resume_event.cancel()
            self._resume_event = None
        try:
            self._steps.close()
        finally:
            self._finish()

    def _step(self) -> None:
        """One resume: advance the generator to its next wait."""
        self._resume_event = None
        try:
            wait = next(self._steps)
        except StopIteration as stop:
            self.result = stop.value
            self._finish()
        except Exception as exc:
            # The traceback starts below this frame: its entry for
            # ``_step`` would hold ``self`` and close a handle -> error
            # -> traceback -> frame -> handle cycle only the cyclic
            # collector frees.
            self.error = exc.with_traceback(exc.__traceback__.tb_next)
            self._finish()
        else:
            self._resume_event = self.engine.schedule_in(float(wait),
                                                         self._step)

    def _finish(self) -> None:
        if self.done:
            return
        self.done = True
        if self._on_done is not None:
            self._on_done(self)

    def __repr__(self) -> str:
        state = ("done" if self.done and self.error is None
                 else f"failed: {self.error!r}" if self.done
                 else "running")
        return f"ProcessHandle({state})"
