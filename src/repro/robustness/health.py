"""Live failure detection: heartbeat/probe tracking with flap damping.

The CAC runtime detects failures the only way a distributed sender can:
by *observing silence*.  Every signaling delivery outcome -- success,
timeout, fast-fail -- feeds the :class:`HealthMonitor`, which keeps one
:class:`TargetHealth` record per link and per switch and runs a small
suspicion state machine:

.. code-block:: text

      up --timeout--> suspect --timeout (>= threshold)--> down
      ▲                 |                                  |
      └──── success ────┘            success (damped) ─────┘

A single timeout only makes a target *suspect* (one lost message is
routine); ``suspicion_threshold`` consecutive timeouts declare it
*down*.  A success normally resets the record to *up* immediately --
except under **flap damping**: a target that bounced down repeatedly
inside ``flap_window`` time units must stay down for ``hold_down``
after its last failure before a success is believed again, so a
marginal link cannot whipsaw the breaker and migration machinery.

Time comes from the injectable observability clock
(:func:`repro.obs.clock.get_clock`) unless an explicit
:class:`~repro.obs.clock.Clock` is passed, so whole detection schedules
replay deterministically under a :class:`~repro.obs.clock.ManualClock`
-- or tick on the shared simulation timeline under an
:class:`~repro.obs.clock.EngineClock`.

Detection *latency* -- the gap between the ground-truth failure instant
and the monitor declaring the target down -- is an honest end-to-end
measure of the probe cadence plus the suspicion threshold.  The ground
truth comes from :meth:`FaultInjector.add_link_listener
<repro.robustness.faults.FaultInjector.add_link_listener>` (the
injector *knows* when it failed a link); the monitor only uses it to
stamp the ``cac_failure_detection_time`` histogram, never to cheat the
state machine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..obs import clock as _oclock
from ..obs import metrics as _om
from ..obs.clock import Clock

__all__ = ["UP", "SUSPECT", "DOWN", "TargetHealth", "HealthMonitor"]

#: Health states of one monitored target (a link or a switch).
UP = "up"
SUSPECT = "suspect"
DOWN = "down"


@dataclass
class TargetHealth:
    """The monitor's belief about one link or switch."""

    target: str
    kind: str                      # "link" | "switch"
    state: str = UP
    consecutive_timeouts: int = 0
    #: when the current state was entered (monitor clock)
    since: float = 0.0
    #: ground-truth failure instant (None when unknown / healthy)
    failed_at: Optional[float] = None
    #: monitor time of each down transition, for flap damping
    down_times: List[float] = field(default_factory=list)
    #: time of the last observed timeout
    last_timeout: Optional[float] = None


class HealthMonitor:
    """Failure detector over observed signaling outcomes.

    Parameters
    ----------
    clock:
        ``now() -> float`` time source; defaults to the observability
        clock, which the tests and fault harness set to a
        :class:`~repro.obs.clock.ManualClock`.
    suspicion_threshold:
        Consecutive delivery timeouts that turn *suspect* into *down*.
    flap_window / flap_threshold:
        A target that went down ``flap_threshold`` times within the
        last ``flap_window`` time units is considered flapping.
    hold_down:
        While flapping, a success is only believed once ``hold_down``
        time units have passed since the last observed timeout.

    ``on_down(target, kind)`` subscribers fire exactly once per down
    transition -- the hook the survivability layer uses to trigger
    migration of the affected connections.
    """

    def __init__(self, clock: Optional[Clock] = None,
                 suspicion_threshold: int = 3,
                 flap_window: float = 240.0, flap_threshold: int = 3,
                 hold_down: float = 60.0):
        if suspicion_threshold < 1:
            raise ValueError(
                f"suspicion_threshold must be >= 1, got {suspicion_threshold}"
            )
        if flap_threshold < 2:
            raise ValueError(
                f"flap_threshold must be >= 2, got {flap_threshold}"
            )
        if flap_window <= 0 or hold_down < 0:
            raise ValueError("flap_window must be > 0 and hold_down >= 0")
        self._clock = clock
        self.suspicion_threshold = suspicion_threshold
        self.flap_window = flap_window
        self.flap_threshold = flap_threshold
        self.hold_down = hold_down
        self._targets: Dict[str, TargetHealth] = {}
        self._on_down: List[Callable[[str, str], None]] = []

    # ------------------------------------------------------------------

    def _now(self) -> float:
        clock = self._clock if self._clock is not None \
            else _oclock.get_clock()
        return clock.now()

    def bind_clock(self, clock: Clock) -> None:
        """Swap the time source (e.g. onto an
        :class:`~repro.obs.clock.EngineClock` when the owning CAC moves
        to the shared simulation timeline)."""
        self._clock = clock

    def _record(self, target: str, kind: str) -> TargetHealth:
        record = self._targets.get(target)
        if record is None:
            record = TargetHealth(target, kind, since=self._now())
            self._targets[target] = record
        return record

    def on_down(self, hook: Callable[[str, str], None]) -> None:
        """Subscribe to down transitions: ``hook(target, kind)``."""
        self._on_down.append(hook)

    def link_listener(self) -> Callable[[str, bool], None]:
        """Adapter for :meth:`FaultInjector.add_link_listener`.

        Stamps the ground-truth failure/repair instants so detection
        latency can be measured; does *not* move the state machine.
        """

        def listener(link: str, up: bool) -> None:
            record = self._record(link, "link")
            record.failed_at = None if up else self._now()

        return listener

    # ------------------------------------------------------------------
    # Evidence
    # ------------------------------------------------------------------

    def record_timeout(self, target: str, kind: str = "link") -> bool:
        """One delivery over/to ``target`` timed out.

        Returns ``True`` when this observation *newly* declares the
        target down (the caller may react, e.g. kick off migration).
        """
        record = self._record(target, kind)
        now = self._now()
        record.consecutive_timeouts += 1
        record.last_timeout = now
        if record.state == DOWN:
            return False
        if record.consecutive_timeouts >= self.suspicion_threshold:
            self._declare_down(record, now)
            return True
        if record.state == UP:
            record.state = SUSPECT
            record.since = now
        return False

    def record_success(self, target: str, kind: str = "link") -> None:
        """One delivery over/to ``target`` got a timely response."""
        record = self._record(target, kind)
        now = self._now()
        record.consecutive_timeouts = 0
        if record.state == UP:
            return
        if record.state == DOWN and self._damped(record, now):
            # Flapping: don't believe a lone success yet.
            return
        record.state = UP
        record.since = now
        record.failed_at = None

    def _damped(self, record: TargetHealth, now: float) -> bool:
        """Is this target's recovery currently held down by damping?"""
        recent = [t for t in record.down_times
                  if now - t <= self.flap_window]
        record.down_times = recent
        if len(recent) < self.flap_threshold:
            return False
        last_evidence = record.last_timeout
        return last_evidence is not None and \
            now - last_evidence < self.hold_down

    def _declare_down(self, record: TargetHealth, now: float) -> None:
        record.state = DOWN
        record.since = now
        record.down_times.append(now)
        registry = _om.get_registry()
        if registry.enabled:
            registry.counter("cac_failure_detections_total",
                             kind=record.kind).inc()
            if record.failed_at is not None:
                registry.histogram(
                    "cac_failure_detection_time",
                    buckets=_om.SIGNALING_BUCKETS,
                ).observe(now - record.failed_at)
        for hook in self._on_down:
            hook(record.target, record.kind)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def state(self, target: str) -> str:
        """The current belief: ``up`` (also for never-seen targets),
        ``suspect`` or ``down``."""
        record = self._targets.get(target)
        return record.state if record is not None else UP

    def is_down(self, target: str) -> bool:
        """True when the monitor has declared the target down."""
        return self.state(target) == DOWN

    def down_targets(self, kind: Optional[str] = None) -> List[str]:
        """Sorted names of every target currently declared down."""
        return sorted(
            record.target for record in self._targets.values()
            if record.state == DOWN and (kind is None or record.kind == kind)
        )

    def detection_latency(self, target: str) -> Optional[float]:
        """Failure-to-detection gap of the *current* outage, if known."""
        record = self._targets.get(target)
        if record is None or record.state != DOWN or \
                record.failed_at is None:
            return None
        return record.since - record.failed_at

    def snapshot(self) -> Dict[str, Tuple[str, str]]:
        """``{target: (kind, state)}`` for every target ever observed."""
        return {
            name: (record.kind, record.state)
            for name, record in sorted(self._targets.items())
        }

    def __repr__(self) -> str:
        down = self.down_targets()
        return (
            f"HealthMonitor(targets={len(self._targets)}, "
            f"down={down})"
        )
