"""Timer-wheel-shaped workloads on the heap engine.

Switch timers (per-hop retransmits, deadlines re-armed per cell) do not
spread over free-running times: they land on a coarse grid of ``slots``
instants ``width`` apart.  These tests snap the randomized scripts of
:mod:`tests.test_engine_oracle` onto such grids -- so equal instants,
the sequence-number tiebreak and lazy-cancel compaction are hit far
harder than with unsnapped times -- and demand that the engine's firing
log match the naive sorted-list reference exactly.
"""

import math
import random

import pytest

from repro.sim.engine import Engine

from .test_engine_oracle import _drive, _Reference, _script

#: ``(slots, width)`` grids; the 1-slot grid puts every delayed event on
#: a single instant.
WHEEL_SHAPES = [(16, 0.5), (4, 3.0), (1, 1.0), (128, 0.25)]


def _snap(delay, slots, width):
    """Round ``delay`` up to the grid, clamped to the ``slots * width``
    horizon; a zero delay stays zero."""
    return width * min(math.ceil(delay / width), slots)


def _grid_script(seed, slots, width):
    """``_script(seed)`` with every delay past the clock snapped."""
    clock = 0.0
    ops = []
    for op in _script(seed):
        if op[0] == "schedule":
            _, time, tag, nested = op
            ops.append(("schedule", clock + _snap(time - clock, slots, width),
                        tag, tuple((_snap(delay, slots, width), sub_tag)
                                   for delay, sub_tag in nested)))
        elif op[0] == "many":
            _, times, prefix = op
            ops.append(("many", tuple(clock + _snap(time - clock, slots, width)
                                      for time in times), prefix))
        else:
            if op[0] == "run" and op[1] is not None:
                clock = op[1]
            ops.append(op)
    return ops


@pytest.mark.parametrize("slots,width", WHEEL_SHAPES)
@pytest.mark.parametrize("seed", range(8))
def test_wheel_matches_pure_heap(seed, slots, width):
    script = _grid_script(seed, slots, width)
    engine = Engine()
    log = _drive(engine, script)
    assert log == _drive(_Reference(), script)
    assert engine.pending_events == 0
    assert engine.events_processed == sum(
        1 for entry in log if entry[0] != "peek")


@pytest.mark.parametrize("slots,width", [(16, 0.5), (1, 1.0)])
def test_cancel_churn_stays_bounded_and_equivalent(slots, width):
    """Re-armed grid timers compact without changing the firing order."""
    logs = []
    for engine in (Engine(), _Reference()):
        fired = []
        pending = []
        rng = random.Random(7)
        for round_index in range(40):
            for handle in pending:
                handle.cancel()
            pending = [
                engine.schedule(
                    engine.now + _snap(rng.uniform(0.1, 90), slots, width),
                    lambda i=(round_index, k): fired.append(i))
                for k in range(20)
            ]
            if isinstance(engine, Engine):
                assert engine.heap_size <= 250
            engine.run(until=engine.now + rng.uniform(0.1, 4))
        engine.run()
        logs.append(fired)
    assert logs[0] == logs[1]
