"""Exception hierarchy for the repro library.

All library-specific errors derive from :class:`ReproError` so callers can
catch the whole family with one ``except`` clause while still telling the
sub-cases apart.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class TrafficModelError(ReproError, ValueError):
    """Invalid traffic descriptor (e.g. SCR > PCR, MBS < 1)."""


class BitStreamError(ReproError, ValueError):
    """A bit stream violates the model invariants (Section 2).

    Raised when constructing a stream whose times are not strictly
    increasing, whose first time is not zero, whose rates are negative,
    or whose rate function is not monotonically non-increasing.
    """


class UnstableSystemError(ReproError, ArithmeticError):
    """The long-run arrival rate meets or exceeds the service capacity.

    Under these conditions queue backlog grows without bound and the
    worst-case delay is infinite.  Most analysis entry points return
    ``math.inf`` instead of raising; this exception is used where an
    infinite answer cannot be represented (e.g. when a finite drained
    stream must be constructed).
    """


class AdmissionError(ReproError):
    """Base class for connection admission failures."""


class SwitchRejection(AdmissionError):
    """A switch on the route rejected the connection (CAC check failed).

    Attributes
    ----------
    switch:
        Name of the rejecting switch.
    out_link:
        The outgoing link whose delay-bound check failed.
    priority:
        The priority level whose bound would have been violated.
    computed_bound:
        The worst-case delay bound that adding the connection would cause.
    advertised_bound:
        The fixed bound the switch guarantees for that priority.
    """

    def __init__(self, switch: str, out_link: str, priority: int,
                 computed_bound: float, advertised_bound: float):
        self.switch = switch
        self.out_link = out_link
        self.priority = priority
        self.computed_bound = computed_bound
        self.advertised_bound = advertised_bound
        super().__init__(
            f"switch {switch!r} rejected connection: priority {priority} on "
            f"link {out_link!r} would have worst-case delay "
            f"{computed_bound} > advertised bound {advertised_bound}"
        )


class RetryExhausted(ReproError, RuntimeError):
    """A retried operation failed on every allowed attempt.

    Raised inside the signaling channel's retry loop
    (:meth:`~repro.network.signaling.SignalingChannel.deliver_steps`)
    when the retry budget (attempt count or deadline) runs out, and
    chained as the ``__cause__`` of the
    :class:`SignalingTimeout` the channel raises.
    """

    def __init__(self, attempts: int, elapsed: float):
        self.attempts = attempts
        self.elapsed = elapsed
        super().__init__(
            f"operation failed after {attempts} attempt(s) over "
            f"{elapsed} time units"
        )


class SignalingTimeout(AdmissionError):
    """A signaling message got no response within its retry budget.

    The sender cannot distinguish a lost message, a dead link and a
    crashed switch -- all it observes is silence.  The setup walk treats
    this as a refusal and unwinds every reservation it made.
    """

    def __init__(self, connection: str, at_node: str, phase: str,
                 attempts: int):
        self.connection = connection
        self.at_node = at_node
        self.phase = phase
        self.attempts = attempts
        super().__init__(
            f"{phase} message for connection {connection!r} got no "
            f"response from node {at_node!r} after {attempts} attempt(s)"
        )


class SwitchUnavailable(AdmissionError):
    """A crashed (and not yet recovered) switch was asked to do CAC work.

    The volatile CAC state of a crashed switch is gone until
    :meth:`repro.core.switch_cac.SwitchCAC.recover` replays its journal;
    until then every check or state transition refuses loudly rather
    than operating on empty caches.
    """

    def __init__(self, switch: str):
        self.switch = switch
        super().__init__(
            f"switch {switch!r} is down (crashed and not yet recovered)"
        )


class QosUnsatisfiable(AdmissionError):
    """The route's accumulated advertised bound exceeds the requested QoS."""

    def __init__(self, requested: float, achievable: float):
        self.requested = requested
        self.achievable = achievable
        super().__init__(
            f"requested end-to-end delay bound {requested} cell times is "
            f"smaller than the route's achievable bound {achievable}"
        )


class RoutingError(ReproError, ValueError):
    """No route exists, or an explicit route is not connected."""


class TopologyError(ReproError, ValueError):
    """Malformed network description (unknown node, duplicate link, ...)."""


class SimulationError(ReproError, RuntimeError):
    """Internal inconsistency detected by the cell-level simulator."""
