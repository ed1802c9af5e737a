"""The distributed connection setup sequence (Section 4.1), made fallible.

A source end system sends a SETUP message carrying its traffic and QoS
parameters ``(PCR, SCR, MBS, D)`` along the preselected route.  Every
switch runs the CAC check; on success it forwards the SETUP downstream,
on failure it sends a REJECT back upstream (releasing any resources the
message already reserved).  When the SETUP reaches the destination, a
COMMIT/CONNECTED wave travels back and the source may start sending.

The paper assumes these messages always arrive.  This module drops that
assumption: :class:`SignalingChannel` delivers every message with a
per-hop timeout, bounded retries (exponential backoff + full jitter via
:mod:`repro.robustness.retry`) and an optional
:class:`~repro.robustness.faults.FaultInjector` that can drop, delay or
duplicate the message, crash the receiving switch, or fail the link (a
failed link stays down for the injector's lifetime, so every later
delivery over it is lost and times out).
:class:`repro.core.admission.NetworkCAC` drives the two-phase
reserve -> commit walk over this channel; the message classes here exist
so the walk can be *observed* -- examples and tests inspect the trace to
watch the protocol degrade gracefully (:class:`FaultEvent`,
:class:`RetryEvent`) and still unwind to a consistent state.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, fields as dataclass_fields
from typing import Callable, List, Optional, Tuple, TypeVar, Union

from ..core.bitstream import Number
from ..exceptions import RetryExhausted, SignalingTimeout, SwitchUnavailable
from ..obs import events as _oevents
from ..obs import metrics as _om
from ..obs.clock import ManualClock
from ..robustness.faults import (
    CRASH,
    DELAY,
    DROP,
    DUPLICATE,
    LINK_FAIL,
    FaultInjector,
)
from ..robustness.retry import RetryPolicy

__all__ = [
    "SetupMessage",
    "RejectMessage",
    "ConnectedMessage",
    "ReleaseMessage",
    "CommitMessage",
    "AbortMessage",
    "FaultEvent",
    "RetryEvent",
    "SignalingTrace",
    "SignalingChannel",
    "message_event_fields",
    "drain_steps",
    "check_hop_timing",
]

T = TypeVar("T")


@dataclass(frozen=True)
class SetupMessage:
    """SETUP processed (and forwarded) at one node.

    ``cdv_in`` is the accumulated delay variation the node's CAC check
    assumed -- it grows hop by hop per the CDV policy in force.  In the
    two-phase walk a SETUP *reserves*; resources are held but the
    connection may not send until the COMMIT wave confirms every hop.
    """

    connection: str
    at_node: str
    pcr: Number
    scr: Number
    mbs: Number
    delay_bound: Optional[Number]
    cdv_in: Number


@dataclass(frozen=True)
class RejectMessage:
    """REJECT travelling upstream from the refusing node."""

    connection: str
    at_node: str
    reason: str


@dataclass(frozen=True)
class ConnectedMessage:
    """CONNECTED travelling back to the source after full admission."""

    connection: str
    at_node: str
    e2e_bound: Number


@dataclass(frozen=True)
class ReleaseMessage:
    """Teardown of an established connection at one node."""

    connection: str
    at_node: str


@dataclass(frozen=True)
class CommitMessage:
    """Phase-2 confirmation turning a hop's reservation into a commitment."""

    connection: str
    at_node: str


@dataclass(frozen=True)
class AbortMessage:
    """Unwind of a reservation after a mid-walk failure."""

    connection: str
    at_node: str


@dataclass(frozen=True)
class FaultEvent:
    """An injected fault striking one delivery attempt.

    ``kind`` is one of the :mod:`repro.robustness.faults` constants
    (plus ``"link-down"`` for deliveries lost on an already-failed
    link); ``detail`` carries the delay or link name where relevant.
    """

    connection: str
    at_node: str
    phase: str
    hop: int
    kind: str
    detail: str = ""


@dataclass(frozen=True)
class RetryEvent:
    """One retransmission of a signaling message after a timeout."""

    connection: str
    at_node: str
    phase: str
    hop: int
    attempt: int
    backoff: float


Message = Union[
    SetupMessage,
    RejectMessage,
    ConnectedMessage,
    ReleaseMessage,
    CommitMessage,
    AbortMessage,
    FaultEvent,
    RetryEvent,
]


#: Message class -> event name on the ``"signaling"`` bus category.
_EVENT_NAMES = {
    "SetupMessage": "setup",
    "RejectMessage": "reject",
    "ConnectedMessage": "connected",
    "ReleaseMessage": "release",
    "CommitMessage": "commit",
    "AbortMessage": "abort",
    "FaultEvent": "fault",
    "RetryEvent": "retry",
}


def message_event_fields(message: Message) -> dict:
    """A signaling message's payload as plain event fields."""
    return {
        f.name: getattr(message, f.name) for f in dataclass_fields(message)
    }


@dataclass
class SignalingTrace:
    """An ordered record of the signalling messages a setup produced.

    A thin adapter over the structured event bus: every recorded
    message is emitted as an :class:`~repro.obs.events.Event` in the
    ``"signaling"`` category (name ``setup``/``commit``/``fault``/...,
    fields from the message dataclass), so bus subscribers see one
    unified format; the legacy per-trace ``messages`` list is kept for
    the existing inspection API.
    """

    messages: List[Message] = field(default_factory=list)
    bus: Optional[_oevents.EventBus] = None

    def record(self, message: Message) -> None:
        """Append one message to the trace and emit it on the bus."""
        bus = self.bus if self.bus is not None else _oevents.get_bus()
        if bus.has_subscribers:
            bus.emit("signaling", _EVENT_NAMES[type(message).__name__],
                     **message_event_fields(message))
        self.messages.append(message)

    def of_type(self, message_type: type) -> List[Message]:
        """All recorded messages of one class, in order."""
        return [m for m in self.messages if isinstance(m, message_type)]

    def __len__(self) -> int:
        return len(self.messages)

    def __iter__(self):
        return iter(self.messages)


def drain_steps(steps, clock):
    """Run a step generator to completion against ``clock``.

    Every yielded wait becomes one ``clock.advance``; the generator's
    return value is returned, its exceptions propagate.  This is the
    synchronous execution mode of the admission plane's state machines
    -- the event-driven mode runs the very same generators via
    :meth:`repro.sim.engine.Engine.process`, so both modes perform the
    identical operation sequence by construction.
    """
    try:
        while True:
            clock.advance(next(steps))
    except StopIteration as stop:
        return stop.value


def check_hop_timing(hop_timeout: float, hop_latency: float) -> None:
    """Refuse signaling timing no clock can follow.

    ``hop_timeout`` must be finite and positive and ``hop_latency``
    finite and non-negative: a NaN or infinite wait would leave the
    clock unmoved or send it to infinity while the walk still
    establishes.  Raises :class:`ValueError`.
    """
    if not (math.isfinite(hop_timeout) and hop_timeout > 0):
        raise ValueError(
            f"hop_timeout must be finite and > 0, got {hop_timeout}")
    if not (math.isfinite(hop_latency) and hop_latency >= 0):
        raise ValueError(
            f"hop_latency must be finite and >= 0, got {hop_latency}")


class SignalingChannel:
    """Unreliable, retrying message transport for one CAC walk.

    Parameters
    ----------
    injector:
        Optional :class:`~repro.robustness.faults.FaultInjector`
        consulted on every delivery attempt; ``None`` delivers
        everything first try.
    retry_policy:
        Resend budget per message (attempts, backoff, deadline).
    clock / rng:
        Simulated time source and jitter randomness; injected so whole
        fault schedules replay deterministically.
    hop_timeout:
        How long the sender waits for a response before retransmitting;
        finite and positive (see :func:`check_hop_timing`).
    trace:
        Optional :class:`SignalingTrace` that receives
        :class:`FaultEvent`/:class:`RetryEvent` records.
    crash_switch:
        Callback crashing the named switch (a ``CRASH`` fault fires it).
    hop_latency:
        Nominal per-direction transit time of one message over one hop.
        Finite; zero (the default) reproduces the instantaneous-exchange
        model, and a positive value makes every successful delivery cost one
        ``hop_latency`` each way.  The sender is assumed to arm its
        retransmit timer *knowing* the nominal RTT, so ``hop_timeout``
        remains the silence budget beyond it.

    The sender cannot tell a dropped message from a dead link or a
    crashed switch -- every such attempt just looks like silence, costs
    one ``hop_timeout``, and is retried until the policy gives up, at
    which point :class:`~repro.exceptions.SignalingTimeout` is raised.
    A response that arrives *after* the timeout is processed late and
    retransmitted anyway, so receivers must be idempotent.

    Every delivery is implemented as a *resumable step generator*
    (:meth:`deliver_steps`): each elapse of simulated time -- transit,
    timeout, backoff -- is a ``yield`` of that many time units.  A
    synchronous walk drains the generator against the channel's clock
    with :func:`drain_steps`; the event-driven admission plane runs the
    very same generator as an :meth:`Engine.process
    <repro.sim.engine.Engine.process>`, which is what makes the two
    execution modes produce identical operation sequences.
    """

    def __init__(self, injector: Optional[FaultInjector] = None,
                 retry_policy: Optional[RetryPolicy] = None,
                 clock: Optional[ManualClock] = None,
                 rng: Optional[random.Random] = None,
                 hop_timeout: float = 8.0,
                 trace: Optional[SignalingTrace] = None,
                 crash_switch: Optional[Callable[[str], None]] = None,
                 hop_latency: float = 0.0):
        check_hop_timing(hop_timeout, hop_latency)
        self.injector = injector
        self.retry_policy = retry_policy or RetryPolicy()
        self.clock = clock or ManualClock()
        self.rng = rng or random.Random(0)
        self.hop_timeout = hop_timeout
        self.hop_latency = hop_latency
        self.trace = trace
        self.crash_switch = crash_switch
        # Channels are per-walk and short-lived; binding the registry
        # once at construction is cheap and good enough.
        self._registry = _om.get_registry()

    # ------------------------------------------------------------------

    def _record_fault(self, connection: str, at_node: str, phase: str,
                      hop: int, kind: str, detail: str = "") -> None:
        if self._registry.enabled:
            self._registry.counter("signaling_faults_total", kind=kind).inc()
        if self.trace is not None:
            self.trace.record(FaultEvent(
                connection, at_node, phase, hop, kind, detail,
            ))

    def _intercept(self, phase: str, hop: int, at_node: str, link: str,
                   connection: str) -> Tuple[bool, float, bool]:
        """Consult the injector for one delivery attempt.

        Fires the attempt's faults (a crash, a link failure) and records
        each one; returns ``(lost, delay, duplicate)``: whether the
        message vanishes, how long an injected delay holds it, and
        whether a second copy follows it.
        """
        injector = self.injector
        specs = injector.intercept(phase, hop, connection)
        lost = False
        delay = 0.0
        duplicate = False
        for spec in specs:
            if spec.kind == CRASH:
                if self.crash_switch is not None:
                    self.crash_switch(at_node)
                self._record_fault(connection, at_node, phase, hop, CRASH)
                lost = True
            elif spec.kind == LINK_FAIL:
                injector.fail_link(link)
                self._record_fault(connection, at_node, phase, hop,
                                   LINK_FAIL, detail=link)
            elif spec.kind == DROP:
                self._record_fault(connection, at_node, phase, hop, DROP)
                lost = True
            elif spec.kind == DELAY:
                delay = max(delay, spec.delay)
                self._record_fault(connection, at_node, phase, hop, DELAY,
                                   detail=str(spec.delay))
            elif spec.kind == DUPLICATE:
                duplicate = True
                self._record_fault(connection, at_node, phase, hop,
                                   DUPLICATE)
        if injector.link_down(link):
            if not any(spec.kind == LINK_FAIL for spec in specs):
                self._record_fault(connection, at_node, phase, hop,
                                   "link-down", detail=link)
            lost = True
        return lost, delay, duplicate

    def deliver_steps(self, phase: str, hop: int, at_node: str, link: str,
                      connection: str, process: Callable[[], T]):
        """Deliver one message as a resumable step generator.

        ``process()`` applies the message at the receiving switch and
        returns its response, which becomes the generator's return
        value; protocol-level refusals (e.g.
        :class:`~repro.exceptions.SwitchRejection`) propagate untouched
        because a REJECT *is* a response.  Raises
        :class:`~repro.exceptions.SignalingTimeout` once the retry
        budget is exhausted; its cause is the
        :class:`~repro.exceptions.RetryExhausted`, whose own cause says
        what the last attempt met: silence (a :class:`TimeoutError`, or
        the :class:`~repro.exceptions.SwitchUnavailable` of a dead
        switch) or a response that came too late.

        The repository's one retry loop: capped exponential backoff with
        full jitter (:class:`~repro.robustness.retry.RetryPolicy`), with
        every wait -- transit, injected delay, timeout, backoff -- a
        ``yield`` rather than a ``clock.advance``, so the same exchange
        can run synchronously (:func:`drain_steps`) *or* as an engine
        process.  No zero-length wait is yielded, so a clean exchange is
        transit, process, transit.
        """
        registry = self._registry
        policy = self.retry_policy
        hop_timeout = self.hop_timeout
        hop_latency = self.hop_latency
        sent_at = self.clock.now()
        attempt = 0
        while True:
            lost, delay, duplicate = (
                self._intercept(phase, hop, at_node, link, connection)
                if self.injector is not None else (False, 0.0, False))
            if lost:
                yield hop_timeout
                silence: Exception = TimeoutError(
                    f"no response from {at_node!r}")
            else:
                if hop_latency > 0.0:
                    # Message transit down the link to the receiving
                    # switch.
                    yield hop_latency
                if delay > 0.0:
                    # An injected delay holds the message (up to the
                    # timeout).
                    yield min(delay, hop_timeout)
                try:
                    result = process()
                except SwitchUnavailable as unavailable:
                    # A dead switch answers nothing; the sender only sees
                    # the timeout expire.  Its error is kept without the
                    # traceback, which would tie it to this frame.
                    silence = unavailable.with_traceback(None)
                    yield hop_timeout
                else:
                    if duplicate:
                        # The second copy of the message arrives right
                        # behind the first; the receiver must shrug it off.
                        try:
                            process()
                        except SwitchUnavailable:
                            pass
                    if delay <= hop_timeout:
                        break
                    # Processed, but the response missed the sender's
                    # timeout: the sender retransmits, and the receiver
                    # will see the same message again (idempotency
                    # keeps this safe).
                    silence = TimeoutError(
                        f"response from {at_node!r} arrived after {delay} "
                        f"> timeout {hop_timeout}")
            attempt += 1
            elapsed = self.clock.now() - sent_at
            backoff = (policy.backoff_delay(attempt - 1, self.rng)
                       if attempt < policy.max_attempts else None)
            if backoff is None or (policy.deadline is not None
                                   and elapsed + backoff > policy.deadline):
                if registry.enabled:
                    registry.counter("signaling_timeouts_total",
                                     phase=phase).inc()
                exhausted = RetryExhausted(attempt, elapsed)
                exhausted.__cause__ = silence
                raise SignalingTimeout(
                    connection, at_node, phase, attempt) from exhausted
            if registry.enabled:
                registry.counter("signaling_retransmits_total",
                                 phase=phase).inc()
            if self.trace is not None:
                self.trace.record(RetryEvent(
                    connection, at_node, phase, hop, attempt, backoff,
                ))
            yield backoff
        if hop_latency > 0.0:
            # Response transit back to the sender.
            yield hop_latency
        if registry.enabled:
            registry.counter("signaling_messages_total", phase=phase).inc()
            registry.histogram(
                "signaling_hop_rtt", buckets=_om.SIGNALING_BUCKETS,
                phase=phase,
            ).observe(self.clock.now() - sent_at)
        return result
