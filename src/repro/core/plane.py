"""The event-driven admission plane: concurrent in-flight setups.

The synchronous :class:`~repro.core.admission.NetworkCAC` API runs one
walk at a time to completion, advancing its private clock past every
timeout and backoff.  That is faithful to the paper's sequential model
but cannot express the situation a real signaling network is in all the
time: *several* setups in flight at once, their per-hop exchanges
interleaving on the shared timeline, each holding phase-1 reservations
that compete for the same ports.

:class:`AdmissionPlane` closes that gap without forking the protocol
logic.  Every walk already exists as a *step generator*
(:meth:`NetworkCAC.setup_steps` and :meth:`NetworkCAC.teardown_steps`
-- see :func:`~repro.network.signaling.drain_steps`); the plane runs
those very generators as :meth:`Engine.process
<repro.sim.engine.Engine.process>` processes on a shared
:class:`~repro.sim.engine.Engine`, after setting the CAC's clock to an
:class:`~repro.obs.clock.EngineClock`.  Because the engine fires events
in deterministic ``(time, sequence)`` order, N concurrent walks resolve
their conflicts deterministically: whoever's RESERVE event fires first
holds the resources, seeded run after seeded run.

**Determinism contract.**  With exactly one walk in flight at a time,
the engine-driven execution performs the op-for-op identical switch
operations (journals, aggregates, traces) as the synchronous API --
both modes drive the *same* generator, only the wait mechanism differs.

**Reservation TTL.**  A phase-1 reservation is a promise held on a
switch for a sender that may since have died.  With
``reservation_ttl`` set, the plane arms one engine timer per successful
reservation; if the COMMIT (or ABORT) has not consumed the reservation
when the timer fires, the switch discards it on its own initiative
(:meth:`SwitchCAC.expire <repro.core.switch_cac.SwitchCAC.expire>` --
pending state only, commitments are never touched).  A commit that
finds its reservation expired unwinds the whole walk with outcome
``expired``.  All timers of a walk are cancelled the moment the walk
finishes, so a stale timer can never hit a later reservation reusing
the same connection id (e.g. a crankback retry over another route).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from ..exceptions import SwitchUnavailable
from ..network.connection import ConnectionRequest, EstablishedConnection
from ..network.signaling import SignalingTrace
from ..obs.clock import EngineClock
from ..sim.engine import Engine, EventHandle, ProcessHandle
from .admission import NetworkCAC

__all__ = ["AdmissionPlane", "SetupOutcome"]


@dataclass(frozen=True, slots=True)
class SetupOutcome:
    """Final result of one submitted setup walk.

    Exactly one of ``established`` / ``error`` is set.  ``started`` and
    ``finished`` are engine times, so ``finished - started`` is the
    walk's signaling latency on the shared timeline.
    """

    request: ConnectionRequest
    established: Optional[EstablishedConnection]
    error: Optional[BaseException]
    started: float
    finished: float

    @property
    def admitted(self) -> bool:
        """True when the walk committed at every hop."""
        return self.established is not None

    @property
    def setup_time(self) -> float:
        """Engine time the walk spent in flight."""
        return self.finished - self.started


class AdmissionPlane:
    """Run admission walks as concurrent processes on a shared engine.

    Parameters
    ----------
    cac:
        The network CAC whose walks this plane drives.  Its clock is
        replaced by the engine's timeline at construction -- after
        that, the synchronous CAC API must not be used to *advance*
        time on this instance (instantaneous queries like
        :meth:`NetworkCAC.would_admit` remain fine, and so do whole
        synchronous walks as long as no faults or latency make them
        wait: an
        :class:`~repro.obs.clock.EngineClock` rejects nonzero advances).
    engine:
        The shared :class:`~repro.sim.engine.Engine`; callers drive it
        (``engine.run(...)``) to make submitted walks progress.
    reservation_ttl:
        Hold time of a phase-1 reservation before the switch discards
        it, in engine time units (finite and positive); ``None``
        disables expiry.
    """

    def __init__(self, cac: NetworkCAC, engine: Engine,
                 reservation_ttl: Optional[float] = None):
        if reservation_ttl is not None and not (
                math.isfinite(reservation_ttl) and reservation_ttl > 0):
            raise ValueError(
                f"reservation_ttl must be finite and positive, got "
                f"{reservation_ttl}"
            )
        self.cac = cac
        self.engine = engine
        self.reservation_ttl = reservation_ttl
        self.clock = EngineClock(engine)
        # Channels are created per walk, so every later walk reads the
        # engine's timeline.
        cac.clock = self.clock
        self._in_flight = 0

    @property
    def in_flight(self) -> int:
        """Walks submitted (setups and teardowns) not yet done."""
        return self._in_flight

    # ------------------------------------------------------------------

    def _expire(self, switch: str, leg_id: str) -> None:
        """TTL timer fired: ask the switch to discard the reservation.

        A crashed switch already lost its volatile reservations (its
        recovery aborts them from the journal), so it is skipped.
        """
        cac = self.cac.switches().get(switch)
        if cac is None or cac.crashed:
            return
        try:
            cac.expire(leg_id)
        except SwitchUnavailable:  # crashed between check and call
            pass

    def submit(self, request: ConnectionRequest,
               trace: Optional[SignalingTrace] = None,
               on_done: Optional[Callable[[SetupOutcome], None]] = None,
               ) -> ProcessHandle:
        """Launch one setup walk as an engine process.

        Returns immediately with the walk's
        :class:`~repro.sim.engine.ProcessHandle`; the walk makes
        progress as the caller runs the engine.  ``on_done(outcome)``
        fires exactly once, inside the event that finished the walk,
        and is the only place the :class:`SetupOutcome` is delivered:
        the plane keeps no finished walk alive.
        """
        timers: Dict[str, EventHandle] = {}
        started = self.engine.now

        def arm(switch: str, leg_id: str) -> None:
            if self.reservation_ttl is None:
                return
            # Idempotent reserve re-deliveries re-arm the hold timer.
            old = timers.pop(switch, None)
            if old is not None:
                old.cancel()
            timers[switch] = self.engine.schedule_in(
                self.reservation_ttl,
                lambda: self._expire(switch, leg_id),
            )

        def steps():
            try:
                return (yield from self.cac.setup_steps(
                    request, trace, on_reserved=arm))
            finally:
                # However the walk ended, its hold timers die with it:
                # a stale timer must never expire a later reservation
                # booked under the same connection id.
                for handle in timers.values():
                    handle.cancel()
                timers.clear()

        def finish(process: ProcessHandle) -> None:
            self._in_flight -= 1
            outcome = SetupOutcome(
                request=request,
                established=None if process.error is not None
                else process.result,
                error=process.error,
                started=started,
                finished=self.engine.now,
            )
            if on_done is not None:
                on_done(outcome)

        self._in_flight += 1
        return self.engine.process(steps(), on_done=finish)

    def submit_teardown(self, name: str,
                        trace: Optional[SignalingTrace] = None,
                        on_done: Optional[
                            Callable[[ProcessHandle], None]] = None,
                        ) -> ProcessHandle:
        """Release an established connection, hop by hop, in engine time."""
        def finish(process: ProcessHandle) -> None:
            self._in_flight -= 1
            if on_done is not None:
                on_done(process)

        self._in_flight += 1
        return self.engine.process(self.cac.teardown_steps(name, trace),
                                   on_done=finish)

    def __repr__(self) -> str:
        return (
            f"AdmissionPlane(in_flight={self._in_flight}, "
            f"ttl={self.reservation_ttl})"
        )
