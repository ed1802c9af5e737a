"""Traffic sources for the cell-level simulator.

Every source owns one connection, emits :class:`~repro.sim.cell.Cell`
objects on a schedule that conforms to the connection's traffic
contract, and hands them to a consumer callback (the access-link wire
installed by :class:`~repro.sim.network.SimNetwork`).

Available behaviours:

* :class:`ScheduleSource` -- emit at explicit, caller-provided times;
* :class:`CbrSource` -- strictly periodic at ``1/PCR`` spacing;
* :class:`GreedyVbrSource` -- the equation (1) worst case (``MBS`` at
  PCR, then SCR), i.e. the discrete pattern Algorithm 2.1 envelopes;
* :class:`RandomVbrSource` -- randomized on/off bursts *shaped* by a
  :class:`~repro.sim.gcra.DualLeakyBucket`, so emissions always conform.
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional

from ..core.bitstream import BitStream
from ..core.traffic import VBRParameters, worst_case_cell_times
from .cell import Cell
from .engine import Engine
from .gcra import DualLeakyBucket

__all__ = [
    "ScheduleSource",
    "CbrSource",
    "GreedyVbrSource",
    "RandomVbrSource",
    "EnvelopeSource",
    "envelope_cell_times",
]

Consumer = Callable[[Cell], None]


class ScheduleSource:
    """Emit cells at an explicit list of times.

    The workhorse behind deterministic tests: hand it any conforming
    schedule and it plays the schedule back.  The whole schedule is
    inserted with one :meth:`~repro.sim.engine.Engine.schedule_many`
    batch (one heapify, not one sift per cell), which is what makes
    populating a large simulation from precomputed emission times
    cheap.
    """

    def __init__(self, engine: Engine, connection: str,
                 times: List[float], consumer: Consumer):
        self.engine = engine
        self.connection = connection
        self.consumer = consumer
        self.emitted = 0
        self.handles = engine.schedule_many(
            (time, self._make_emitter(time)) for time in times)

    def _make_emitter(self, time: float) -> Callable[[], None]:
        def emit() -> None:
            cell = Cell(self.connection, self.emitted, time)
            self.emitted += 1
            self.consumer(cell)
        return emit


class CbrSource:
    """A periodic source: one cell every ``1/PCR`` starting at ``phase``."""

    def __init__(self, engine: Engine, connection: str, pcr: float,
                 consumer: Consumer, phase: float = 0.0,
                 until: float = 0.0):
        if pcr <= 0 or pcr > 1:
            raise ValueError(f"pcr must be in (0, 1], got {pcr}")
        if until < phase:
            raise ValueError("until must not precede phase")
        self.engine = engine
        self.connection = connection
        self.pcr = float(pcr)
        self.consumer = consumer
        self.until = until
        self.emitted = 0
        engine.schedule(phase, self._emit)

    def _emit(self) -> None:
        cell = Cell(self.connection, self.emitted, self.engine.now)
        self.emitted += 1
        self.consumer(cell)
        next_time = self.engine.now + 1.0 / self.pcr
        if next_time <= self.until:
            self.engine.schedule(next_time, self._emit)


class GreedyVbrSource(ScheduleSource):
    """The worst-case discrete source of equation (1) / Figure 1."""

    def __init__(self, engine: Engine, connection: str,
                 params: VBRParameters, count: int, consumer: Consumer,
                 phase: float = 0.0):
        times = [phase + t for t in worst_case_cell_times(params, count)]
        super().__init__(engine, connection, times, consumer)
        self.params = params


def envelope_cell_times(stream: BitStream, count: int) -> List[float]:
    """The latest discrete cell schedule a bit-stream envelope dominates.

    Cell ``k`` finishes arriving (at link rate, over one cell time) no
    later than the instant the envelope's cumulative curve reaches
    ``k + 1`` bits, so the adversarial discrete source emits cell ``k``
    at ``A^{-1}(k + 1) - 1``.  Feeding this schedule into the simulator
    reproduces, cell by cell, the worst case the analysis envelopes --
    the tool for demonstrating the bounds are (nearly) tight.

    Raises :class:`ValueError` when the envelope cannot deliver the
    requested number of cells (zero tail rate).
    """
    import math as _math
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    times: List[float] = []
    for index in range(count):
        crossing = stream.time_of_bits(index + 1)
        if crossing == _math.inf:
            raise ValueError(
                f"envelope delivers only {index} cells, {count} requested"
            )
        times.append(max(0.0, float(crossing) - 1.0))
    return times


class EnvelopeSource(ScheduleSource):
    """Replay the discrete worst case of any bit-stream envelope.

    Where :class:`GreedyVbrSource` replays the *source* worst case,
    this source replays the worst case *at any point in the network* --
    e.g. an Algorithm 3.1 clumped envelope -- letting tests drive a
    downstream queue with exactly the pattern the analysis assumed.
    """

    def __init__(self, engine: Engine, connection: str,
                 stream: BitStream, count: int, consumer: Consumer,
                 phase: float = 0.0):
        times = [phase + t for t in envelope_cell_times(stream, count)]
        super().__init__(engine, connection, times, consumer)
        self.stream = stream


class RandomVbrSource:
    """Random on/off bursts, always shaped to conform to the contract.

    During an "on" period the source emits as fast as the dual leaky
    bucket permits; "off" periods are exponentially distributed.  Every
    emission passes through :class:`DualLeakyBucket`, so whatever the
    randomness does, the traffic stays within ``(PCR, SCR, MBS)`` -- the
    property the validation bench relies on.
    """

    def __init__(self, engine: Engine, connection: str,
                 params: VBRParameters, consumer: Consumer,
                 until: float, seed: int = 0,
                 mean_burst_cells: float = 4.0,
                 mean_idle: Optional[float] = None):
        self.engine = engine
        self.connection = connection
        self.params = params
        self.consumer = consumer
        self.until = until
        self.bucket = DualLeakyBucket(params)
        self.rng = random.Random(seed)
        self.mean_burst_cells = mean_burst_cells
        # Default idle long enough that the long-run rate sits below SCR.
        self.mean_idle = (
            mean_idle if mean_idle is not None
            else mean_burst_cells / float(params.scr) * 0.5
        )
        self.emitted = 0
        self._burst_left = 0
        engine.schedule(0.0, self._tick)

    def _tick(self) -> None:
        if self.engine.now > self.until:
            return
        if self._burst_left <= 0:
            self._burst_left = max(1, int(self.rng.expovariate(
                1.0 / self.mean_burst_cells)) + 1)
        slot = self.bucket.earliest_conforming(self.engine.now)
        if slot > self.until:
            return
        if slot > self.engine.now:
            self.engine.schedule(slot, self._tick)
            return
        self.bucket.record_emission(self.engine.now)
        cell = Cell(self.connection, self.emitted, self.engine.now)
        self.emitted += 1
        self._burst_left -= 1
        self.consumer(cell)
        if self._burst_left > 0:
            gap = 1.0 / float(self.params.pcr)
        else:
            gap = self.rng.expovariate(1.0 / self.mean_idle)
        next_time = self.engine.now + gap
        if next_time <= self.until:
            self.engine.schedule(next_time, self._tick)
