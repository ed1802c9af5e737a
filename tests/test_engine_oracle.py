"""The engine against an independent reference queue.

``Engine`` is a binary heap of ``(time, sequence)`` entries with
lazy-cancel compaction and a bulk ``schedule_many``.  These tests drive
randomized schedule / cancel / bulk-schedule / nested-schedule /
``peek_next_time`` scripts through it and through :class:`_Reference`
-- a naive list kept sorted by ``(time, sequence)`` -- and demand
identical firing logs.
"""

import bisect
import math
import random

import pytest

from repro.sim.engine import Engine


class _Reference:
    """Naive oracle: a list kept sorted by ``(time, sequence)``."""

    def __init__(self):
        self.now, self._queue, self._sequence = 0.0, [], 0

    def schedule(self, time, callback):
        handle = _RefHandle(callback)
        bisect.insort(self._queue, (time, self._sequence, handle))
        self._sequence += 1
        return handle

    def schedule_in(self, delay, callback):
        return self.schedule(self.now + delay, callback)

    def schedule_many(self, events):
        return [self.schedule(time, callback) for time, callback in events]

    def run(self, until=math.inf):
        while self._queue and self._queue[0][0] <= until:
            time, _seq, handle = self._queue.pop(0)
            if not handle.cancelled:
                self.now = time
                handle.callback()
        if until != math.inf:
            self.now = max(self.now, until)

    def peek_next_time(self):
        return next((time for time, _seq, handle in self._queue
                     if not handle.cancelled), None)


class _RefHandle:
    def __init__(self, callback):
        self.callback, self.cancelled = callback, False

    def cancel(self):
        self.cancelled = True


def _script(seed):
    """A deterministic op script: phases of scheduling, cancels, runs.

    Times spread from the current instant to far in the future; equal
    times and zero-delay nests exercise the sequence-number tiebreak.
    """
    rng = random.Random(seed)
    ops = []
    clock = 0.0
    scheduled = 0
    for _phase in range(rng.randint(3, 6)):
        for _ in range(rng.randint(4, 20)):
            roll = rng.random()
            if roll < 0.50:
                time = clock + rng.choice(
                    [0.0, rng.uniform(0, 5), rng.uniform(0, 60),
                     rng.uniform(0, 200)])
                nested = tuple(
                    (rng.choice([0.0, rng.uniform(0, 25)]), f"n{scheduled}.{k}")
                    for k in range(rng.randint(0, 2)))
                ops.append(("schedule", time, f"e{scheduled}", nested))
                scheduled += 1
            elif roll < 0.65 and scheduled:
                ops.append(("cancel", rng.randrange(scheduled)))
            else:
                base = clock + rng.uniform(0, 150)
                times = sorted(base + rng.uniform(0, 40) for _ in range(
                    rng.randint(1, 6)))
                if rng.random() < 0.5:
                    times += times[:1]  # a duplicate instant
                ops.append(("many", tuple(times), f"m{scheduled}"))
                scheduled += len(times)
        clock += rng.uniform(0.5, 45)
        ops.append(("run", clock))
    ops.append(("run", None))
    return ops


def _drive(engine, script):
    """Apply one script; return the (time, tag, peek-after-run) log."""
    log = []
    handles = []

    def callback(tag, nested):
        def fire():
            log.append((engine.now, tag))
            for delay, sub_tag in nested:
                engine.schedule_in(delay, callback(sub_tag, ()))
        return fire

    for op in script:
        if op[0] == "schedule":
            _, time, tag, nested = op
            handles.append(engine.schedule(time, callback(tag, nested)))
        elif op[0] == "cancel":
            handles[op[1]].cancel()
        elif op[0] == "many":
            _, times, prefix = op
            handles.extend(engine.schedule_many(
                [(time, callback(f"{prefix}.{k}", ()))
                 for k, time in enumerate(times)]))
        else:
            _, until = op
            if until is None:
                engine.run()
            else:
                engine.run(until=until)
            log.append(("peek", engine.peek_next_time(), engine.now))
    return log


@pytest.mark.parametrize("seed", range(16))
def test_engine_matches_reference(seed):
    script = _script(seed)
    engine = Engine()
    assert _drive(engine, script) == _drive(_Reference(), script)
    assert engine.pending_events == 0


def test_equal_times_fire_in_schedule_order():
    """The sequence number breaks ties between equal instants."""
    engine = Engine()
    fired = []
    for tag in range(6):
        engine.schedule(500.0, lambda tag=tag: fired.append(tag))
    engine.schedule(499.0, lambda: fired.append("early"))
    engine.run()
    assert fired == ["early", 0, 1, 2, 3, 4, 5]


def test_callbacks_can_schedule_at_the_current_instant():
    """A zero-delay reschedule fires this run, after queued peers."""
    engine = Engine()
    order = []
    engine.schedule(3.0, lambda: (order.append("a"),
                                  engine.schedule_in(0.0,
                                                     lambda: order.append("c"))))
    engine.schedule(3.0, lambda: order.append("b"))
    engine.run()
    assert order == ["a", "b", "c"]


def test_cancel_churn_stays_bounded_and_matches_reference():
    """Re-armed-timer churn compacts without changing the firing order."""
    logs = []
    for engine in (Engine(), _Reference()):
        fired = []
        pending = []
        rng = random.Random(7)
        for round_index in range(40):
            for handle in pending[1:]:  # one timer per round stays armed
                handle.cancel()
            pending = [
                engine.schedule(engine.now + rng.uniform(0.1, 90),
                                lambda i=(round_index, k): fired.append(i))
                for k in range(20)
            ]
            if isinstance(engine, Engine):
                assert engine.heap_size <= 250
            engine.run(until=engine.now + rng.uniform(0.1, 4))
        engine.run()
        logs.append(fired)
    assert logs[0] == logs[1]
