"""Per-switch connection admission control (Section 4.3).

A switch keeps, for every pair of incoming link ``i`` and outgoing link
``j`` and every priority level ``p``, the aggregated worst-case arrival
stream of the connections routed ``i -> j`` at priority ``p``
(``Sia(i,j,p)`` in the paper).  From those it keeps, patched by one
delta per admit/release:

* ``Sif(i,j,p)   = filter(Sia(i,j,p))`` -- the aggregate as smoothed by
  the incoming link (a link of capacity 1 cannot deliver faster than 1);
* ``Soa(j,p)     = sum_i Sif(i,j,p)`` -- the output-port arrival stream;
* the same chain over all priorities *higher* than ``p``:
  ``Sia(i,j)(p)``, ``Sif(i,j)(p)`` and ``Soa(j)(p) = sum_i Sif(i,j)(p)``,
  whose filtered form ``Sof(j)(p)`` is the higher-priority interference
  at the output port.

Admitting a connection with arrival stream ``S`` on ``(i, j, p)``
follows Steps 1-6 of the paper: rebuild the affected aggregates with
``S`` included, recompute the worst-case delay bound of priority ``p``
*and of every lower real-time priority* at output ``j`` (higher
priorities cannot be affected), and accept only if every recomputed
bound stays within the bound the switch advertises for that priority.

Priority convention: **smaller number = higher priority** (priority 0 is
served first), matching the RTnet configuration where the cyclic-traffic
queue is the single highest-priority queue.

The switch advertises a *fixed* bound ``D(j, p)`` per output link and
priority -- in RTnet the size of the priority-``p`` FIFO in cells --
independent of current load (Section 4.1), which is what lets the
distributed setup procedure accumulate CDV without iterating.

Layering (see ``docs/architecture.md``): this class runs the admission
protocol -- Steps 1-6, the two-phase transitions, journaling, recovery,
metrics -- and holds the switch's bookkeeping: its ports, the committed
and pending leg maps, each reservation's :class:`CheckResult` and the
in-link rate ledger.  Every ``(out_link, priority)`` port is a pure
:class:`~repro.core.port_state.PortState` holding its own-priority and
higher-priority aggregates and the memoized filtered interference
``Sof(j)(p)``.  What each journal op
(``reserve``, ``admit``, ``commit``, ``abort``, ``release``) does to the
legs and aggregates is written once, in ``_transition``: live
operations journal an op and run it, and :meth:`recover` replays the
journal through the same method.

Transactional setup (see ``docs/robustness.md``): the two-phase network
walk first *reserves* a leg (:meth:`reserve` -- resources held, not yet
confirmed), then *commits* it (:meth:`commit`); :meth:`rollback` is the
idempotent unwind primitive that discards a reservation or releases a
commitment, and shrugs at connections it has never heard of.  Every
transition is appended to an
:class:`~repro.robustness.journal.AdmissionJournal` -- the switch's
stable storage -- so that :meth:`crash` (volatile caches lost) followed
by :meth:`recover` (op-for-op journal replay, in-flight reservations
discarded) restores a state bit-identical to the pre-crash committed
state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from ..exceptions import AdmissionError, SwitchRejection, SwitchUnavailable
from ..obs import clock as _oclock
from ..obs import metrics as _om
from ..obs import spans as _ospans
from ..robustness.journal import AdmissionJournal
from .bitstream import BitStream, Number, ZERO_STREAM
from .delay_bound import backlog_bound_with_higher, delay_bound
from .port_state import PortState, StepMemo

__all__ = ["SwitchCAC", "Leg", "CheckResult", "PriorityBoundViolation"]

#: Memos whose hit/miss behaviour is observable: ``service`` is each
#: port's ``Sof(j)(p)`` memo (the label predates it).
_CACHES = ("service",)


class _SwitchMetrics:
    """Pre-bound metric handles of one switch.

    A labelled registry lookup per cache access would dominate the
    incremental admission path, so the handles are resolved once and cached
    on the switch; ``generation`` records which global registry they
    were bound under, and :meth:`SwitchCAC._rebind` re-binds when
    :data:`repro.obs.metrics._generation` moves (i.e. after every
    ``set_registry``).
    """

    __slots__ = ("generation", "enabled", "checks", "check_rejections",
                 "check_seconds", "admits", "reserves", "commits",
                 "rollbacks", "releases", "expiries", "incremental",
                 "recoveries", "recoveries_verified", "replayed",
                 "cache_hits", "cache_misses")

    def __init__(self, registry, switch: str):
        self.generation = _om._generation
        self.enabled = registry.enabled
        self.checks = registry.counter("cac_checks_total", switch=switch)
        self.check_rejections = registry.counter(
            "cac_check_rejections_total", switch=switch)
        self.check_seconds = registry.histogram(
            "cac_check_seconds", switch=switch)
        self.admits = registry.counter("cac_admits_total", switch=switch)
        self.reserves = registry.counter("cac_reserves_total", switch=switch)
        self.commits = registry.counter("cac_commits_total", switch=switch)
        self.rollbacks = registry.counter("cac_rollbacks_total",
                                          switch=switch)
        self.releases = registry.counter("cac_releases_total", switch=switch)
        self.expiries = registry.counter("cac_reservation_expiries_total",
                                         switch=switch)
        self.incremental = registry.counter(
            "cac_incremental_updates_total", switch=switch)
        self.recoveries = registry.counter("cac_recoveries_total",
                                           switch=switch)
        self.recoveries_verified = registry.counter(
            "cac_recoveries_verified_total", switch=switch)
        self.replayed = registry.gauge("cac_recovery_replayed_entries",
                                       switch=switch)
        self.cache_hits = {
            cache: registry.counter("cac_cache_hits_total", switch=switch,
                                    cache=cache)
            for cache in _CACHES
        }
        self.cache_misses = {
            cache: registry.counter("cac_cache_misses_total", switch=switch,
                                    cache=cache)
            for cache in _CACHES
        }


@dataclass(frozen=True, slots=True)
class Leg:
    """One connection's traversal of one switch.

    Attributes
    ----------
    connection_id:
        Caller-chosen identifier, unique per switch.
    in_link / out_link:
        Names of the links the connection enters and leaves by.
    priority:
        Static priority level (0 = highest).
    stream:
        The connection's worst-case arrival stream *at this switch*
        (i.e. the source envelope of Algorithm 2.1 already passed
        through :meth:`BitStream.delayed` with the CDV accumulated over
        upstream switches).
    """

    connection_id: str
    in_link: str
    out_link: str
    priority: int
    stream: BitStream


@dataclass(frozen=True, slots=True)
class PriorityBoundViolation:
    """One failed delay-bound check inside a :class:`CheckResult`."""

    priority: int
    computed_bound: Number
    advertised_bound: Number


@dataclass(frozen=True, slots=True)
class CheckResult:
    """Outcome of a CAC check at one switch.

    ``computed_bounds`` maps each checked priority at the output link to
    the worst-case delay bound the port would have *with the new
    connection admitted*; ``violations`` lists the priorities whose
    bound would exceed the advertised guarantee.  The connection passes
    iff ``violations`` is empty.
    """

    switch: str
    out_link: str
    computed_bounds: Mapping[int, Number]
    violations: Tuple[PriorityBoundViolation, ...]

    @property
    def admitted(self) -> bool:
        """True when every affected priority keeps its guarantee."""
        return not self.violations


class SwitchCAC:
    """CAC bookkeeping and admission checks for a single switch.

    Parameters
    ----------
    name:
        Identifier used in error messages and results.
    filter_per_input:
        When True (the default, and the paper's scheme) the per-input
        aggregates are filtered by the incoming link before being summed
        at the output port, which models the smoothing a real link
        performs and tightens the bounds.  Setting it False reproduces
        the coarser "no link filtering" analysis for the ablation bench.

    Examples
    --------
    >>> from repro.core.traffic import cbr
    >>> switch = SwitchCAC("sw0")
    >>> switch.configure_link("out", {0: 32})
    >>> stream = cbr(0.25).worst_case_stream()
    >>> switch.admit("vc1", "in-a", "out", 0, stream).admitted
    True
    >>> switch.computed_bound("out", 0) <= 32
    True
    """

    def __init__(self, name: str, filter_per_input: bool = True):
        self.name = name
        self.filter_per_input = filter_per_input
        #: out link -> {priority: PortState}, priorities ascending.
        self._ports: Dict[str, Dict[int, PortState]] = {}
        #: out link -> {priority: same-link ports of strictly lower
        #: priority, highest first}, kept by configure_link.
        self._below: Dict[str, Dict[int, Tuple[PortState, ...]]] = {}
        #: committed and pending (reserved, uncommitted) legs, in order.
        self._committed: Dict[str, Leg] = {}
        self._pending: Dict[str, Leg] = {}
        #: the result a pending reservation replays on re-delivery.
        self._results: Dict[str, CheckResult] = {}
        #: admitted long-run rate per incoming link.
        self._in_link_rate: Dict[str, Number] = {}
        #: the per-input step memo every port's aggregates share.
        self._steps: StepMemo = {}
        #: stable storage: survives crash(), drives recover().
        self._journal = AdmissionJournal()
        self._crashed = False
        #: pre-bound metric handles (re-bound when the registry changes)
        self._obs = _SwitchMetrics(_om.get_registry(), name)

    # ------------------------------------------------------------------
    # Observability plumbing
    # ------------------------------------------------------------------

    def _rebind(self) -> _SwitchMetrics:
        """The switch's metric handles, re-bound after a registry swap.

        The single rebinding point shared by the check, reserve, commit,
        rollback and recovery paths -- call sites never compare
        generations themselves.
        """
        obs = self._obs
        if obs.generation != _om._generation:
            obs = self._obs = _SwitchMetrics(_om.get_registry(), self.name)
        return obs

    def _count_cache(self, hit: bool, cache: str) -> None:
        """Record one ``Sof`` memo hit or rebuild."""
        obs = self._rebind()
        if obs.enabled:
            (obs.cache_hits if hit else obs.cache_misses)[cache].inc()

    def _count(self, op: str) -> None:
        """Bump one op counter (``reserves``, ``commits``, ...)."""
        obs = self._rebind()
        if obs.enabled:
            getattr(obs, op).inc()

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------

    def configure_link(self, out_link: str,
                       bounds: Mapping[int, Number]) -> None:
        """Declare an output link and its advertised per-priority bounds.

        ``bounds`` maps each real-time priority level served on the link
        to the fixed queueing delay bound (in cell times) the switch
        guarantees -- in RTnet, the FIFO queue size in cells.  Once the
        link carries connections its bounds may change but its set of
        priorities may not (:class:`AdmissionError`): a port added next
        to live traffic would start without the interference already
        admitted above it, and a dropped one would strand its legs.
        """
        if not bounds:
            raise ValueError("an output link needs at least one priority")
        for priority, bound in bounds.items():
            if bound <= 0:
                raise ValueError(
                    f"advertised bound must be positive, got {bound} for "
                    f"priority {priority}"
                )
        current = self._ports.get(out_link, {})
        if current and set(current) != set(bounds) and any(
                leg.out_link == out_link
                for legs in (self._committed, self._pending)
                for leg in legs.values()):
            raise AdmissionError(
                f"link {out_link!r} carries connections; its priorities "
                f"{sorted(current)} cannot change to {sorted(bounds)}"
            )
        ports: Dict[int, PortState] = {}
        for priority in sorted(bounds):
            port = current.get(priority)
            if port is None:
                port = PortState(out_link, priority, bounds[priority],
                                 filter_per_input=self.filter_per_input,
                                 on_cache=self._count_cache,
                                 steps=self._steps)
            port.advertised_bound = bounds[priority]
            ports[priority] = port
        self._ports[out_link] = ports
        self._below[out_link] = {
            priority: tuple(port for lower, port in ports.items()
                            if lower > priority)
            for priority in ports
        }

    def advertised_bound(self, out_link: str, priority: int) -> Number:
        """The fixed bound ``D(j, p)`` the switch guarantees."""
        port = self._ports.get(out_link, {}).get(priority)
        if port is None:
            raise AdmissionError(
                f"switch {self.name!r} does not serve priority {priority} "
                f"on link {out_link!r}"
            )
        return port.advertised_bound

    def out_links(self) -> List[str]:
        """Names of the configured output links, sorted.

        Deterministic (sorted) so serialization and Prometheus
        exposition are reproducible across runs.
        """
        return sorted(self._ports)

    def priorities(self, out_link: str) -> List[int]:
        """Real-time priorities served on ``out_link``, highest first."""
        return list(self._ports[out_link])

    # ------------------------------------------------------------------
    # State access
    # ------------------------------------------------------------------

    @property
    def legs(self) -> Mapping[str, Leg]:
        """The currently admitted (committed) legs, keyed by connection id."""
        return dict(self._committed)

    @property
    def pending(self) -> Mapping[str, Leg]:
        """Reserved-but-uncommitted legs of in-flight two-phase walks."""
        return dict(self._pending)

    @property
    def journal(self) -> AdmissionJournal:
        """The append-only admit/release journal (stable storage)."""
        return self._journal

    @property
    def crashed(self) -> bool:
        """True between :meth:`crash` and :meth:`recover`."""
        return self._crashed

    def _ensure_up(self) -> None:
        """Refuse CAC work while the volatile state is gone."""
        if self._crashed:
            raise SwitchUnavailable(self.name)

    def port(self, out_link: str, priority: int) -> PortState:
        """The :class:`PortState` of one configured port."""
        try:
            return self._ports[out_link][priority]
        except KeyError:
            raise AdmissionError(
                f"no port for priority {priority} on link {out_link!r}"
            ) from None

    def sia(self, in_link: str, out_link: str, priority: int) -> BitStream:
        """``Sia(i, j, p)``: the per-pair per-priority aggregate."""
        port = self._ports.get(out_link, {}).get(priority)
        return ZERO_STREAM if port is None else port.sia(in_link)

    def soa(self, out_link: str, priority: int) -> BitStream:
        """``Soa(j, p)``: output-port arrival stream of priority ``p``."""
        return self.port(out_link, priority).soa()

    def sof_higher(self, out_link: str, priority: int) -> BitStream:
        """``Sof(j)(p)``: filtered higher-priority output interference."""
        return self.port(out_link, priority).sof_higher()

    # ------------------------------------------------------------------
    # Incremental state transitions
    # ------------------------------------------------------------------

    def _apply(self, leg: Leg, add: bool) -> None:
        """Patch every aggregate for one admit/release delta.

        The leg's stream is added to (or removed from) the in-link
        ledger, the ``higher`` aggregate of every lower-priority port on
        the link, and the port's own ``own`` aggregate -- one ``+``/``-``
        each (Algorithms 3.2/3.3).  No port reads another, so each
        port's floats depend only on the sequence of deltas it sees:
        the incremental arithmetic :meth:`recover` relies on for
        bit-identical replay.  An add right after a check installs the
        what-if streams each aggregate kept from it; replay, which runs
        no check, computes them and reaches the same floats.  Only the
        final output filter of affected lower priorities, ``Sof(j)(p)``,
        is recomputed, on the next check that needs it.
        """
        obs = self._rebind()
        if obs.enabled:
            obs.incremental.inc()
        in_link, stream = leg.in_link, leg.stream
        rate = stream.long_run_rate
        base = self._in_link_rate.get(in_link, 0)
        self._in_link_rate[in_link] = (base + rate) if add else (base - rate)
        for lower in self._below[leg.out_link][leg.priority]:
            lower.apply_higher(in_link, stream, add)
        self.port(leg.out_link, leg.priority).apply_same(in_link, stream, add)

    def _transition(self, op: str, connection_id: str,
                    leg: Optional[Leg] = None) -> Leg:
        """Run one journal op on the legs and aggregates; return its leg.

        The one definition of the five ops: ``reserve`` and ``admit``
        book ``leg`` as pending or committed and add its stream;
        ``commit`` moves a pending leg to committed; ``abort`` and
        ``release`` drop a pending or committed leg and subtract its
        stream.  Live operations validate, then reach this through
        :meth:`_record`; :meth:`recover` replays the journal through it
        directly with the same arguments, so replay repeats the live
        arithmetic op for op.
        """
        if op in ("reserve", "admit"):
            assert leg is not None, f"a {op!r} op carries its leg"
            booked = self._pending if op == "reserve" else self._committed
            booked[connection_id] = leg
            self._apply(leg, add=True)
            return leg
        self._results.pop(connection_id, None)
        if op == "commit":
            leg = self._committed[connection_id] = \
                self._pending.pop(connection_id)
            return leg
        held = self._pending if op == "abort" else self._committed
        leg = held.pop(connection_id)
        self._apply(leg, add=False)
        return leg

    def _record(self, op: str, connection_id: str,
                leg: Optional[Leg] = None) -> Leg:
        """Journal one op, then run it (:meth:`_transition`)."""
        self._journal.append(op, connection_id, leg)
        return self._transition(op, connection_id, leg)

    # ------------------------------------------------------------------
    # Admission (Steps 1-6)
    # ------------------------------------------------------------------

    def check(self, in_link: str, out_link: str, priority: int,
              stream: BitStream) -> CheckResult:
        """Steps 2-6: would admitting this connection keep all bounds?

        Does not mutate state.  The caller provides the connection's
        worst-case arrival stream at this switch (Step 1 -- the source
        envelope delayed by the upstream CDV -- belongs to the caller
        because only the route knows the accumulated CDV).
        """
        obs = self._rebind()
        tracer = _ospans._tracer
        if not obs.enabled and not tracer.enabled:
            return self._check_impl(in_link, out_link, priority, stream)
        # One pair of clock reads times both the histogram and the span.
        now = _oclock._clock.now
        start = now()
        try:
            result = self._check_impl(in_link, out_link, priority, stream)
        finally:
            end = now()
            if tracer.enabled:
                tracer.leaf("admission.check", start, end, {
                    "switch": self.name, "out_link": out_link,
                    "priority": priority})
        if obs.enabled:
            obs.checks.inc()
            obs.check_seconds.observe(end - start)
            if not result.admitted:
                obs.check_rejections.inc()
        return result

    def _check_impl(self, in_link: str, out_link: str, priority: int,
                    stream: BitStream) -> CheckResult:
        self._ensure_up()
        ports = self._ports.get(out_link)
        if ports is None:
            raise AdmissionError(
                f"switch {self.name!r} has no output link {out_link!r}"
            )
        port = ports.get(priority)
        if port is None:
            raise AdmissionError(
                f"switch {self.name!r} does not serve priority {priority} "
                f"on link {out_link!r}"
            )

        # Feasibility of the incoming link itself.  Filtering caps a
        # per-input aggregate at the link rate, which would otherwise
        # silently mask a physically impossible load (total sustained
        # rate beyond what the incoming link can ever deliver) as a
        # zero-delay stream.  The rate comes from the in-link ledger.
        if self._in_link_rate.get(in_link, 0) + stream.long_run_rate > 1:
            return self._unbounded(priority, port)

        computed: Dict[int, Number] = {}
        violations: List[PriorityBoundViolation] = []

        # Step 2-4: the new connection's own priority.
        own = port.own.added(in_link, stream)
        bound = delay_bound(own[2], port.sof_higher())
        computed[priority] = bound
        if bound > port.advertised_bound:
            violations.append(PriorityBoundViolation(
                priority, bound, port.advertised_bound,
            ))

        # Steps 5-6: every lower real-time priority on the same port.
        for lower_port in self._below[out_link][priority]:
            soa_lower = lower_port.soa()
            if soa_lower.is_zero:
                continue  # no traffic to disturb
            higher = lower_port.higher.added(in_link, stream)
            bound = delay_bound(soa_lower, higher[2].filtered())
            computed[lower_port.priority] = bound
            if bound > lower_port.advertised_bound:
                violations.append(PriorityBoundViolation(
                    lower_port.priority, bound, lower_port.advertised_bound,
                ))

        return CheckResult(
            switch=self.name,
            out_link=out_link,
            computed_bounds=computed,
            violations=tuple(violations),
        )

    def _unbounded(self, priority: int, port: PortState) -> CheckResult:
        """A rejection: the candidate's own priority has no finite bound."""
        return CheckResult(
            switch=self.name,
            out_link=port.out_link,
            computed_bounds={priority: math.inf},
            violations=(PriorityBoundViolation(
                priority, math.inf, port.advertised_bound),),
        )

    def _checked(self, leg: Leg) -> CheckResult:
        """:meth:`check` one leg; :class:`SwitchRejection` on a violation."""
        result = self.check(leg.in_link, leg.out_link, leg.priority,
                            leg.stream)
        if not result.admitted:
            worst = result.violations[0]
            raise SwitchRejection(
                self.name, leg.out_link, worst.priority,
                worst.computed_bound, worst.advertised_bound,
            )
        return result

    def admit(self, connection_id: str, in_link: str, out_link: str,
              priority: int, stream: BitStream) -> CheckResult:
        """Check and, if every bound holds, commit the connection.

        Raises :class:`SwitchRejection` (leaving state untouched) when a
        bound would be violated, and :class:`AdmissionError` when the
        connection id is already present.
        """
        self._ensure_up()
        if connection_id in self._committed or connection_id in self._pending:
            raise AdmissionError(
                f"connection {connection_id!r} already admitted at switch "
                f"{self.name!r}"
            )
        leg = Leg(connection_id, in_link, out_link, priority, stream)
        result = self._checked(leg)
        self._record("admit", connection_id, leg)
        self._count("admits")
        return result

    def release(self, connection_id: str) -> Leg:
        """Tear down a committed connection, restoring the aggregates.

        Strict by design (Alg. 3.3 runs exactly once per admission): an
        unknown or already-released connection raises
        :class:`AdmissionError` *before* any aggregate is touched, so a
        double release can never subtract a stream twice and silently
        corrupt the incremental caches.  Protocol code that must unwind
        without knowing what the switch still holds uses the idempotent
        :meth:`rollback` instead.
        """
        self._ensure_up()
        if connection_id not in self._committed:
            if connection_id in self._pending:
                raise AdmissionError(
                    f"connection {connection_id!r} is only reserved (not "
                    f"committed) at switch {self.name!r}; rollback() is the "
                    f"way to discard a reservation"
                )
            raise AdmissionError(
                f"connection {connection_id!r} is not admitted at switch "
                f"{self.name!r} (unknown or already released); aggregates "
                f"left untouched"
            )
        leg = self._record("release", connection_id)
        self._count("releases")
        return leg

    # ------------------------------------------------------------------
    # Two-phase setup (reserve -> commit) and crash recovery
    # ------------------------------------------------------------------

    def reserve(self, connection_id: str, in_link: str, out_link: str,
                priority: int, stream: BitStream) -> CheckResult:
        """Phase 1 of the transactional walk: check and hold resources.

        On success the leg is *pending*: it participates in every
        aggregate (so later checks see it) but is not yet a commitment.
        Re-delivery of the same SETUP (identical leg) is idempotent and
        replays the original :class:`CheckResult`; a conflicting
        reservation or an already-committed id raises
        :class:`AdmissionError`.
        """
        self._ensure_up()
        if connection_id in self._committed:
            raise AdmissionError(
                f"connection {connection_id!r} already admitted at switch "
                f"{self.name!r}"
            )
        leg = Leg(connection_id, in_link, out_link, priority, stream)
        held = self._pending.get(connection_id)
        if held is not None:
            if held != leg:
                raise AdmissionError(
                    f"connection {connection_id!r} already holds a "
                    f"conflicting reservation at switch {self.name!r}"
                )
            return self._results[connection_id]
        result = self._results[connection_id] = self._checked(leg)
        self._record("reserve", connection_id, leg)
        self._count("reserves")
        return result

    def commit(self, connection_id: str) -> Leg:
        """Phase 2: confirm a reservation.  Idempotent on re-delivery."""
        self._ensure_up()
        committed = self._committed.get(connection_id)
        if committed is not None:
            return committed
        if connection_id not in self._pending:
            raise AdmissionError(
                f"no reservation for connection {connection_id!r} to commit "
                f"at switch {self.name!r}"
            )
        leg = self._record("commit", connection_id)
        self._count("commits")
        return leg

    def rollback(self, connection_id: str) -> Optional[Leg]:
        """Idempotently unwind whatever this switch holds for a connection.

        Discards a pending reservation, releases a commitment, and
        returns ``None`` (doing nothing) for an unknown id -- exactly
        the semantics an ABORT/RELEASE message needs, since the sender
        cannot know how far the receiver got before a fault struck.
        """
        self._ensure_up()
        if connection_id in self._pending:
            leg = self._record("abort", connection_id)
        elif connection_id in self._committed:
            leg = self._record("release", connection_id)
        else:
            return None
        self._count("rollbacks")
        return leg

    def expire(self, connection_id: str) -> Optional[Leg]:
        """Discard a *pending* reservation whose hold timer ran out.

        The switch-side half of the reservation TTL: a reservation whose
        holder fell silent (the setup walk stalled, or its ABORT never
        arrived) is discarded on the switch's own initiative once the
        TTL elapses.  Only pending state is touched -- a reservation the
        COMMIT wave already confirmed is a commitment and must survive
        -- and an unknown id is a no-op, so a timer racing the walk's
        own ABORT (or its commit) is always safe.  Journaled as an
        ``abort``, exactly like an explicit unwind.
        """
        self._ensure_up()
        if connection_id not in self._pending:
            return None
        leg = self._record("abort", connection_id)
        self._count("expiries")
        return leg

    def _clear(self) -> None:
        """Drop legs, results, the in-link ledger, every aggregate and
        the step memo.

        Port configuration (advertised bounds) survives: it is boot
        configuration, not run-time state.
        """
        self._committed.clear()
        self._pending.clear()
        self._results.clear()
        self._in_link_rate.clear()
        self._steps.clear()
        for ports in self._ports.values():
            for port in ports.values():
                port.clear()

    def crash(self) -> None:
        """Simulate a node failure: volatile state lost, journal kept.

        The advertised bounds survive too -- they are boot configuration,
        not run-time state.  Until :meth:`recover` runs, every CAC
        operation raises :class:`~repro.exceptions.SwitchUnavailable`.
        """
        self._crashed = True
        self._clear()

    def recover(self) -> None:
        """Rebuild the caches by replaying the journal op-for-op.

        Replaying the exact admit/release sequence (rather than summing
        the surviving legs) reproduces the incremental arithmetic in its
        original order, so the recovered committed state is bit-identical
        to what the switch held before the crash.  Reservations that
        never committed are in-flight transactions the crash aborted:
        they are discarded (and journaled as aborts) at the end of the
        replay.  Every entry runs through ``_transition``, the method
        live operations use, and the result is validated with
        :meth:`verify_consistency`.
        """
        self._crashed = False
        self._clear()
        entries = self._journal.entries
        for entry in entries:
            self._transition(entry.op, entry.connection_id, entry.leg)
        for connection_id in list(self._pending):
            self._record("abort", connection_id)
        obs = self._rebind()
        obs.recoveries.inc()
        obs.replayed.set(len(entries))
        if not self.verify_consistency():
            raise AdmissionError(
                f"journal recovery left switch {self.name!r} with "
                f"inconsistent caches"
            )
        obs.recoveries_verified.inc()

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------

    def computed_bound(self, out_link: str, priority: int) -> Number:
        """Worst-case delay bound of the *currently admitted* traffic."""
        port = self.port(out_link, priority)
        soa = port.soa()
        if soa.is_zero:
            return 0
        return delay_bound(soa, port.sof_higher())

    def buffer_requirement(self, out_link: str, priority: int) -> Number:
        """Worst-case FIFO occupancy (cells) of the admitted traffic.

        What Section 5 uses to size ring-node buffers: if this value
        stays at or below the configured queue length, worst-case
        traffic is never dropped.
        """
        port = self.port(out_link, priority)
        soa = port.soa()
        if soa.is_zero:
            return 0
        return backlog_bound_with_higher(soa, port.sof_higher())

    def in_link_utilization(self, in_link: str) -> Number:
        """Long-run admitted rate entering via one incoming link.

        Served from the in-link ledger -- a scalar running sum patched
        by the same deltas as the aggregates, and the value the
        admission check's feasibility test reads.
        """
        return self._in_link_rate.get(in_link, 0)

    def utilization(self, out_link: str) -> Number:
        """Long-run admitted rate on an output link (1.0 == saturated)."""
        total: Number = 0
        for port in self._ports[out_link].values():
            total += port.long_run_rate()
        return total

    def recompute_aggregates(self) -> Dict[Tuple[str, str, int], BitStream]:
        """Rebuild every ``Sia`` from the per-leg streams.

        The incremental bookkeeping of :meth:`admit`/:meth:`release`
        must always agree with this ground truth; the test suite checks
        it after long admit/release sequences to catch drift.
        """
        fresh: Dict[Tuple[str, str, int], BitStream] = {}
        for legs in (self._committed, self._pending):
            for leg in legs.values():
                key = (leg.in_link, leg.out_link, leg.priority)
                base = fresh.get(key, ZERO_STREAM)
                fresh[key] = base + leg.stream
        return fresh

    def verify_consistency(self, tolerance: float = 1e-9) -> bool:
        """True when every incremental aggregate matches a fresh rebuild.

        Checks every in-link ledger entry, also of in-links that no
        longer carry legs, and both aggregates of every port -- ``Sia``
        ground truth and patched output sum, own priority and higher
        priorities -- against values recomputed from the per-leg
        streams alone, so a switch that corrupts or loses state cannot
        pass.
        """
        fresh = self.recompute_aggregates()
        in_rates: Dict[str, Number] = {}
        for (in_link, out_link, priority), stream in fresh.items():
            if priority not in self._ports.get(out_link, {}):
                return False  # a leg on a port the switch no longer has
            in_rates[in_link] = in_rates.get(in_link, 0) \
                + stream.long_run_rate
        for in_link in in_rates.keys() | self._in_link_rate.keys():
            if abs(self._in_link_rate.get(in_link, 0)
                   - in_rates.get(in_link, 0)) > tolerance:
                return False
        return all(port.verify_against(fresh, tolerance)
                   for ports in self._ports.values()
                   for port in ports.values())

    def __repr__(self) -> str:
        status = ", crashed" if self._crashed else ""
        return (
            f"SwitchCAC(name={self.name!r}, "
            f"legs={len(self._committed)}, "
            f"pending={len(self._pending)}, "
            f"links={self.out_links()}{status})"
        )
