"""Network-level connection admission control.

:class:`NetworkCAC` glues the per-switch checks of
:class:`~repro.core.switch_cac.SwitchCAC` into the route-level setup
procedure of Section 4: walk the preselected route, reconstruct the
connection's worst-case arrival stream at every hop from its source
envelope and the CDV accumulated over the *fixed advertised bounds* of
the upstream hops, run the per-switch check, and commit only if every
hop accepts and the route's advertised bounds add up to no more than the
requested end-to-end bound ``D``.

Because every hop's arrival stream is derived from the source contract
plus fixed upstream bounds -- never from the distorted output of the
previous hop -- the per-hop checks are mutually independent and the
procedure needs no iteration, which is one of the paper's selling points
over the rate-function scheme of Raha et al.

The same object serves as the "central connection management server" the
paper plans for RTnet's switched connections: it owns every switch's CAC
state and can also answer hypothetical (non-mutating) queries.
"""

from __future__ import annotations

import random
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from ..exceptions import (
    AdmissionError,
    QosUnsatisfiable,
    SignalingTimeout,
    SwitchRejection,
    SwitchUnavailable,
)
from ..network.connection import (
    ConnectionRequest,
    EstablishedConnection,
    HopCommitment,
)
from ..network.routing import Route
from ..network.signaling import (
    AbortMessage,
    CommitMessage,
    ConnectedMessage,
    RejectMessage,
    ReleaseMessage,
    SetupMessage,
    SignalingChannel,
    SignalingTrace,
    check_hop_timing,
    drain_steps,
)
from ..network.topology import Network
from ..obs import metrics as _om
from ..obs import spans as _ospans
from ..obs.clock import ManualClock
from ..robustness.faults import FaultInjector
from ..robustness.retry import RetryPolicy
from .accumulation import CdvPolicy, make_policy
from .bitstream import BitStream, Number
from .switch_cac import SwitchCAC
from .traffic import VBRParameters

__all__ = ["NetworkCAC"]

#: Entries the per-hop stream memo holds before it starts over: callers
#: may send any number of distinct descriptors, so the memo is bounded.
_STREAM_MEMO_SIZE = 1024


class NetworkCAC:
    """Admission control for a whole network.

    Parameters
    ----------
    network:
        The topology; every switch output port that should carry
        real-time traffic must have advertised ``bounds`` on its link.
    cdv_policy:
        ``"hard"`` (worst-case summation -- the default, required for
        hard real-time guarantees), ``"soft"`` (square-root of the sum
        of squares, Section 4.3 discussion 1), or any custom
        :class:`~repro.core.accumulation.CdvPolicy`.
    filter_per_input:
        Forwarded to every switch; ``False`` reproduces the coarser
        no-link-filtering analysis for the ablation bench.
    fault_injector:
        Optional :class:`~repro.robustness.faults.FaultInjector` the
        signaling channel consults on every message delivery; ``None``
        (the default) makes the protocol lossless, which degenerates to
        the paper's original walk.
    retry_policy / hop_timeout:
        Resend budget and per-hop response timeout (finite, > 0) of the
        signaling channel (see ``docs/robustness.md``).
    clock / rng:
        Simulated time source and backoff-jitter randomness, injected
        so fault schedules replay deterministically.  The clock is
        shared across all walks of this instance; the event-driven
        admission plane replaces it with an
        :class:`~repro.obs.clock.EngineClock`.
    hop_latency:
        Nominal per-direction signaling transit time per hop (finite,
        >= 0), forwarded to every channel; zero keeps the paper's
        instantaneous-exchange model.

    Examples
    --------
    >>> from repro.network.topology import star_network
    >>> from repro.network.routing import shortest_path
    >>> from repro.network.connection import ConnectionRequest
    >>> from repro.core.traffic import cbr
    >>> net = star_network(2, bounds={0: 32})
    >>> cac = NetworkCAC(net)
    >>> request = ConnectionRequest(
    ...     "vc0", cbr(0.3), shortest_path(net, "t0", "t1"))
    >>> established = cac.setup(request)
    >>> established.e2e_bound
    32
    """

    def __init__(self, network: Network,
                 cdv_policy: Union[str, CdvPolicy] = "hard",
                 filter_per_input: bool = True,
                 fault_injector: Optional[FaultInjector] = None,
                 retry_policy: Optional[RetryPolicy] = None,
                 hop_timeout: float = 8.0,
                 clock: Optional[ManualClock] = None,
                 rng: Optional[random.Random] = None,
                 hop_latency: float = 0.0):
        check_hop_timing(hop_timeout, hop_latency)
        self.network = network
        self.cdv_policy = make_policy(cdv_policy)
        self.filter_per_input = filter_per_input
        self.fault_injector = fault_injector
        self.retry_policy = retry_policy or RetryPolicy()
        self.hop_timeout = hop_timeout
        self.hop_latency = hop_latency
        self.clock = clock or ManualClock()
        self.rng = rng or random.Random(0)
        self._switches: Dict[str, SwitchCAC] = {}
        self._established: Dict[str, EstablishedConnection] = {}
        #: Step 1 streams by (descriptor stream key, CDV, CDV type).
        self._hop_streams: Dict[tuple, BitStream] = {}
        #: names of the walks in flight; recover_switch keeps their legs
        self._in_flight: Set[str] = set()
        for switch in network.switches():
            cac = SwitchCAC(switch.name, filter_per_input=filter_per_input)
            for link in network.out_links(switch.name):
                if link.bounds:
                    cac.configure_link(link.name, link.bounds)
            self._switches[switch.name] = cac

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    def switch(self, name: str) -> SwitchCAC:
        """The per-switch CAC state of one switching node."""
        try:
            return self._switches[name]
        except KeyError:
            raise AdmissionError(f"no switch named {name!r}") from None

    def switches(self) -> Mapping[str, SwitchCAC]:
        """Every per-switch CAC, keyed by switch name (a snapshot)."""
        return dict(self._switches)

    @property
    def established(self) -> Mapping[str, EstablishedConnection]:
        """All currently established connections, keyed by name."""
        return dict(self._established)

    def _channel(self, trace: Optional[SignalingTrace]) -> SignalingChannel:
        """The signaling transport for one walk, sharing this CAC's clock."""
        return SignalingChannel(
            injector=self.fault_injector,
            retry_policy=self.retry_policy,
            clock=self.clock,
            rng=self.rng,
            hop_timeout=self.hop_timeout,
            trace=trace,
            crash_switch=lambda name: self._switches[name].crash(),
            hop_latency=self.hop_latency,
        )

    # ------------------------------------------------------------------
    # Setup / teardown
    # ------------------------------------------------------------------

    def _advertised_bounds(self, route: Route, priority: int) -> List[Number]:
        """The fixed bound of every hop on the route, in order."""
        return [
            self.switch(hop.switch).advertised_bound(hop.out_link, priority)
            for hop in route.hops()
        ]

    def _hop_stream(self, traffic: VBRParameters, bounds: Sequence[Number],
                    hop_index: int) -> Tuple[Number, BitStream]:
        """Step 1 at one hop: ``(upstream CDV, arrival stream)``.

        ``bounds`` are the route's advertised bounds in hop order.  The
        source envelope of Algorithm 2.1 is clumped by the CDV the
        policy accumulates over the bounds of the hops before
        ``hop_index`` (Algorithm 3.1); hop 0 sees the undistorted
        envelope.  The stream depends on the descriptor and the CDV
        alone, so it is built once per descriptor stream key and CDV
        (with the CDV's type) and shared by every walk and leg.
        """
        if not 0 <= hop_index < len(bounds):
            raise IndexError(
                f"hop index {hop_index} is not on a route of "
                f"{len(bounds)} hops"
            )
        cdv = self.cdv_policy.accumulate(bounds[:hop_index])
        key = (traffic.stream_key, cdv, type(cdv))
        memo = self._hop_streams
        stream = memo.get(key)
        if stream is None:
            if len(memo) >= _STREAM_MEMO_SIZE:
                memo.clear()
            stream = memo[key] = traffic.worst_case_stream().delayed(cdv)
        return cdv, stream

    def arrival_stream(self, request: ConnectionRequest,
                       hop_index: int) -> BitStream:
        """Step 1: the worst-case arrival stream at the given hop.

        The source envelope of Algorithm 2.1, clumped by the CDV the
        policy accumulates over the advertised bounds of the upstream
        hops (Algorithm 3.1).  Hop 0 sees the undistorted envelope.  A
        ``hop_index`` outside ``range(len(request.route.hops()))``
        raises :class:`IndexError`.
        """
        bounds = self._advertised_bounds(request.route, request.priority)
        return self._hop_stream(request.traffic, bounds, hop_index)[1]

    def setup(self, request: ConnectionRequest,
              trace: Optional[SignalingTrace] = None) -> EstablishedConnection:
        """Establish a connection along its route, or raise.

        A two-phase walk (see ``docs/robustness.md``): the SETUP message
        first *reserves* resources hop by hop with the properly clumped
        arrival stream, then a COMMIT wave travelling back from the
        destination confirms every reservation.  Each message is
        delivered over the :class:`SignalingChannel` with a per-hop
        timeout and bounded, jittered retries.  The first refusal
        (:class:`SwitchRejection`) or exhausted retry budget
        (:class:`SignalingTimeout`) unwinds every reservation made so
        far -- idempotently, so duplicated or re-sent ABORTs are
        harmless -- and re-raises; the network is then in exactly its
        pre-setup state.  A route whose advertised bounds sum beyond the
        requested ``D`` raises :class:`QosUnsatisfiable` without
        reserving anything.  On success the connection is committed at
        every hop and recorded.
        """
        return drain_steps(self.setup_steps(request, trace), self.clock)

    def setup_steps(self, request: ConnectionRequest,
                    trace: Optional[SignalingTrace] = None,
                    on_reserved: Optional[Callable[[str, str], None]] = None):
        """:meth:`setup` as a resumable step generator.

        Yields every elapse of simulated time; the admission plane runs
        this via :meth:`Engine.process <repro.sim.engine.Engine.process>`
        so N setups can be in flight concurrently, while :meth:`setup`
        drains it synchronously against the CAC clock (see
        :func:`~repro.network.signaling.drain_steps`).  Every per-hop
        exchange is a ``yield from`` of the channel's
        :meth:`~repro.network.signaling.SignalingChannel.deliver_steps`,
        and every switch on the route books the leg under the
        connection name.

        ``on_reserved(switch, leg_id)`` fires after each successful
        phase-1 reservation -- the admission plane arms that hop's TTL
        hold timer there.  A reservation the TTL discarded before the
        COMMIT wave reached it raises
        :class:`~repro.exceptions.AdmissionError` at the commit, which
        unwinds the walk with outcome ``expired`` (unreachable in the
        synchronous mode, where no timer can interleave).
        """
        if request.name in self._established:
            raise AdmissionError(
                f"connection {request.name!r} is already established"
            )
        leg_id = request.name
        registry = _om.get_registry()
        started = self.clock.now()

        def _finish(outcome: str) -> None:
            if registry.enabled:
                registry.counter("network_setups_total",
                                 outcome=outcome).inc()
                registry.histogram(
                    "network_setup_time", buckets=_om.SIGNALING_BUCKETS,
                ).observe(self.clock.now() - started)

        hops = request.route.hops()
        bounds = self._advertised_bounds(request.route, request.priority)
        achievable: Number = 0
        for bound in bounds:
            achievable += bound
        if request.delay_bound is not None and achievable > request.delay_bound:
            if trace is not None:
                trace.record(RejectMessage(
                    leg_id, request.route.source,
                    f"achievable bound {achievable} exceeds requested "
                    f"{request.delay_bound}",
                ))
            _finish("unsatisfiable")
            raise QosUnsatisfiable(request.delay_bound, achievable)

        channel = self._channel(trace)
        # What each reserved hop assumed and answered, for its
        # HopCommitment once the whole walk commits.
        reserved: List[Tuple[Number, Number]] = []
        touched = 0
        tracer = _ospans._tracer
        traced = tracer.enabled
        self._in_flight.add(leg_id)
        try:
            with (tracer.span("admission.setup", connection=leg_id,
                              hops=len(hops))
                  if traced else _ospans._NULL_CONTEXT) as setup_span:
                try:
                    # Phase 1: the SETUP message walks downstream,
                    # reserving.
                    for index, hop in enumerate(hops):
                        cdv, stream = self._hop_stream(
                            request.traffic, bounds, index)

                        def process_reserve(hop=hop, cdv=cdv, stream=stream):
                            if trace is not None:
                                trace.record(SetupMessage(
                                    leg_id, hop.switch,
                                    request.traffic.pcr, request.traffic.scr,
                                    request.traffic.mbs, request.delay_bound,
                                    cdv,
                                ))
                            return self.switch(hop.switch).reserve(
                                leg_id, hop.in_link, hop.out_link,
                                request.priority, stream,
                            )

                        touched = index + 1
                        with (tracer.span("admission.hop",
                                          connection=leg_id, hop=index,
                                          switch=hop.switch,
                                          out_link=hop.out_link)
                              if traced else _ospans._NULL_CONTEXT):
                            result = yield from channel.deliver_steps(
                                "reserve", index, hop.switch, hop.in_link,
                                leg_id, process_reserve,
                            )
                        if on_reserved is not None:
                            on_reserved(hop.switch, leg_id)
                        reserved.append(
                            (cdv, result.computed_bounds[request.priority]))
                    # Phase 2: the COMMIT wave travels back upstream.
                    for index, hop in reversed(list(enumerate(hops))):

                        def process_commit(hop=hop):
                            if trace is not None:
                                trace.record(CommitMessage(leg_id,
                                                           hop.switch))
                            self.switch(hop.switch).commit(leg_id)

                        yield from channel.deliver_steps(
                            "commit", index, hop.switch, hop.in_link,
                            leg_id, process_commit,
                        )
                except AdmissionError as failure:
                    # A refusal, an exhausted retry budget or -- only in
                    # the event-driven mode -- a commit whose
                    # reservation the TTL hold timer already discarded.
                    if isinstance(failure, SwitchRejection):
                        outcome, node = "rejected", failure.switch
                    elif isinstance(failure, SignalingTimeout):
                        outcome, node = "timeout", failure.at_node
                    else:
                        outcome, node = "expired", request.route.source
                    if traced:
                        setup_span.tag(outcome=outcome)
                    yield from self._unwind_steps(
                        leg_id, "abort", AbortMessage,
                        reversed(list(enumerate(hops[:touched]))),
                        channel, trace)
                    if trace is not None:
                        trace.record(RejectMessage(leg_id, node, str(failure)))
                    _finish(outcome)
                    raise
                if traced:
                    setup_span.tag(outcome="accepted")
        finally:
            self._in_flight.discard(leg_id)

        established = EstablishedConnection(request, tuple(
            HopCommitment(
                switch=hop.switch,
                in_link=hop.in_link,
                out_link=hop.out_link,
                cdv_in=cdv,
                advertised_bound=bound,
                computed_bound=computed,
            )
            for hop, bound, (cdv, computed) in zip(hops, bounds, reserved)))
        self._established[request.name] = established
        if trace is not None:
            trace.record(ConnectedMessage(
                leg_id, request.route.destination,
                established.e2e_bound,
            ))
        _finish("accepted")
        return established

    def _unwind_steps(self, leg_id: str, phase: str,
                      message: Callable[[str, str],
                                        Union[AbortMessage, ReleaseMessage]],
                      hops: Iterable[Tuple[int, Any]],
                      channel: SignalingChannel,
                      trace: Optional[SignalingTrace]):
        """Roll ``leg_id`` back at each hop, best-effort (step generator).

        ``hops`` yields ``(hop index, hop)`` pairs in the caller's order:
        a failed walk sends an ABORT (``phase="abort"``,
        :class:`AbortMessage`) upstream from the last hop it touched; a
        teardown sends a RELEASE (``phase="release"``,
        :class:`ReleaseMessage`) down the route.  Every message applies the
        idempotent :meth:`SwitchCAC.rollback`, so hops that never
        reserved (the message was lost before arriving) or that see a
        message twice are no-ops.  A crashed switch is skipped: its
        journal recovery discards uncommitted reservations, and
        :meth:`recover_switch` reconciles anything it had committed.  If
        the message cannot be delivered (timeout), the switch discards
        the booking on its own once its holder falls silent (reservation
        expiry), modelled here as a direct rollback.
        """
        for index, hop in hops:
            cac = self._switches[hop.switch]
            if cac.crashed:
                continue

            def process(hop=hop, cac=cac):
                if trace is not None:
                    trace.record(message(leg_id, hop.switch))
                cac.rollback(leg_id)

            try:
                yield from channel.deliver_steps(
                    phase, index, hop.switch, hop.in_link, leg_id, process,
                )
            except SignalingTimeout:
                try:
                    cac.rollback(leg_id)
                except SwitchUnavailable:
                    pass

    def would_admit(self, request: ConnectionRequest) -> bool:
        """Non-mutating admission query.

        Hop checks are mutually independent (every hop reconstructs the
        arrival stream from the source contract), so the answer equals
        what :meth:`setup` would decide -- without touching any state.
        An established name is refused, as :meth:`setup` refuses it.
        """
        if request.name in self._established:
            return False
        try:
            bounds = self._advertised_bounds(request.route, request.priority)
        except AdmissionError:
            return False
        achievable: Number = 0
        for bound in bounds:
            achievable += bound
        if request.delay_bound is not None and achievable > request.delay_bound:
            return False
        for index, hop in enumerate(request.route.hops()):
            _cdv, stream = self._hop_stream(request.traffic, bounds, index)
            try:
                result = self.switch(hop.switch).check(
                    hop.in_link, hop.out_link, request.priority, stream,
                )
            except AdmissionError:
                # An unserved priority or a crashed switch on the route
                # means setup could not succeed either.
                return False
            if not result.admitted:
                return False
        return True

    def teardown(self, name: str,
                 trace: Optional[SignalingTrace] = None) -> None:
        """Release an established connection at every hop.

        An unknown (or already-torn-down) connection raises
        :class:`AdmissionError` before any switch is touched.  Per-hop
        RELEASE messages travel over the signaling channel and apply the
        idempotent :meth:`SwitchCAC.rollback`, so duplicated deliveries
        cannot corrupt the aggregates; a crashed hop is skipped (its
        reconciliation happens in :meth:`recover_switch`) and an
        undeliverable RELEASE falls back to reservation expiry, exactly
        like a failed setup's unwind.
        """
        drain_steps(self.teardown_steps(name, trace), self.clock)

    def teardown_steps(self, name: str,
                       trace: Optional[SignalingTrace] = None):
        """:meth:`teardown` as a step generator (for the engine mode)."""
        try:
            established = self._established.pop(name)
        except KeyError:
            raise AdmissionError(f"no established connection {name!r}") from None
        yield from self._unwind_steps(
            name, "release", ReleaseMessage,
            enumerate(established.hops), self._channel(trace), trace)
        registry = _om.get_registry()
        if registry.enabled:
            registry.counter("network_teardowns_total").inc()

    def recover_switch(self, name: str) -> SwitchCAC:
        """Bring a crashed switch back and reconcile it with the network.

        The switch first replays its journal
        (:meth:`SwitchCAC.recover`), which restores its committed state
        bit-identically and discards in-flight reservations.  The
        central server then reconciles: a leg the switch committed for
        a connection the network unwound (e.g. the COMMIT reached this
        hop but a later fault aborted the walk) is released, so the
        recovered switch carries exactly the network's committed
        connections.
        """
        cac = self.switch(name)
        cac.recover()
        # The legs of walks still in flight stay too: in the event-driven
        # mode a recovery can run while a walk is mid-commit-wave, and
        # its committed legs are about to register.
        active = set(self._established)
        active.update(self._in_flight)
        for connection_id in list(cac.legs):
            if connection_id not in active:
                cac.rollback(connection_id)
        return cac

    def setup_all(self, requests: Iterable[ConnectionRequest]) -> List[EstablishedConnection]:
        """Establish several connections; unwind all of them on failure.

        All-or-nothing semantics: the workload generators use this so a
        partially admitted connection set never leaks into a sweep.
        """
        done: List[EstablishedConnection] = []
        try:
            for request in requests:
                done.append(self.setup(request))
        except AdmissionError:
            for established in reversed(done):
                self.teardown(established.name)
            raise
        return done

    def teardown_all(self) -> None:
        """Release every established connection."""
        for name in list(self._established):
            self.teardown(name)

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------

    def computed_e2e_bound(self, route: Route, priority: int) -> Number:
        """Worst-case end-to-end bound along a route *as currently loaded*.

        The sum over the route's hops of each port's computed bound for
        the priority class -- what Figure 10 plots as a function of the
        admitted load.  Advertised bounds cap each term, so this never
        exceeds the fixed end-to-end guarantee.
        """
        total: Number = 0
        for hop in route.hops():
            total += self.switch(hop.switch).computed_bound(
                hop.out_link, priority,
            )
        return total

    def port_report(self) -> Dict[Tuple[str, str, int], Dict[str, Number]]:
        """Per-(switch, link, priority) computed bound, buffer need, load."""
        report: Dict[Tuple[str, str, int], Dict[str, Number]] = {}
        for name, cac in self._switches.items():
            for out_link in cac.out_links():
                for priority in cac.priorities(out_link):
                    report[(name, out_link, priority)] = {
                        "computed_bound": cac.computed_bound(out_link, priority),
                        "buffer_cells": cac.buffer_requirement(out_link, priority),
                        "advertised": cac.advertised_bound(out_link, priority),
                        "utilization": cac.utilization(out_link),
                    }
        return report
