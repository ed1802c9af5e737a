"""Seeded connection churn: the dynamic-traffic engine.

The paper evaluates the CAC on *fixed* connection sets; a production
network serves ongoing traffic in which connections arrive, hold and
depart continuously while the CAC admits or refuses in steady state --
the offered-load vs. blocking regime of classic ATM traffic-management
studies.  :class:`ChurnEngine` drives exactly that workload, fully
deterministically:

* arrivals are Poisson per :class:`TrafficClass` and holding times are
  exponential, every draw coming from one explicit
  ``random.Random(seed)`` -- no wall clock anywhere;
* events run on the deterministic
  :class:`~repro.sim.engine.Engine` heap, so two runs with the same
  seed produce bit-identical ledgers;
* every admission attempt goes through the real
  :meth:`~repro.core.admission.NetworkCAC.setup` /
  :meth:`~repro.core.admission.NetworkCAC.teardown` two-phase walks,
  with the route chosen by a pluggable
  :class:`~repro.workload.policies.AdmissionPolicy`;
* the run obeys a **hard event budget** (arrivals + departures fired)
  and the analytics trim a **warm-up** prefix before measuring.

The :class:`ChurnScenario` / :func:`run_scenario` pair is the recipe
:func:`blocking_curve`, the CLI and the benchmark share.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass, replace
from functools import partial
from typing import (Callable, Deque, Dict, List, Mapping, Optional, Sequence,
                    Tuple)

from ..core.admission import NetworkCAC
from ..core.plane import AdmissionPlane
from ..core.traffic import VBRParameters, cbr
from ..exceptions import AdmissionError, TrafficModelError
from ..network.connection import ConnectionRequest
from ..network.topology import Network, star_network
from ..obs import events as _oe
from ..obs import metrics as _om
from ..rtnet.topology import build_rtnet, terminal_name
from ..sim.engine import Engine, EventHandle
from .policies import AdmissionPolicy, FirstPathPolicy, make_policy
from .stats import (ChurnReport, batch_means, journal_digest_of, left_sum,
                    summarize)

__all__ = [
    "TrafficClass",
    "ChurnRecord",
    "ChurnEngine",
    "ChurnScenario",
    "run_scenario",
    "blocking_curve",
    "BlockingPoint",
    "opposite_pairs",
    "star_pairs",
]


@dataclass(frozen=True)
class TrafficClass:
    """One class of churning connections.

    ``arrival_rate`` is the Poisson intensity in arrivals per cell
    time (0 disables the class -- no events are ever scheduled for it);
    ``mean_holding`` the exponential mean holding time.  The nominal
    offered load of the class is ``arrival_rate * mean_holding``
    erlangs, i.e. ``arrival_rate * mean_holding * traffic.scr``
    normalized bandwidth.
    """

    name: str
    traffic: VBRParameters
    arrival_rate: float
    mean_holding: float
    priority: int = 0
    delay_bound: Optional[float] = None

    def __post_init__(self) -> None:
        if self.arrival_rate < 0:
            raise TrafficModelError(
                f"arrival rate must be >= 0, got {self.arrival_rate}"
            )
        if self.mean_holding <= 0:
            raise TrafficModelError(
                f"mean holding time must be positive, got {self.mean_holding}"
            )

    @property
    def offered_erlangs(self) -> float:
        """Nominal offered load, ``arrival_rate * mean_holding``."""
        return self.arrival_rate * self.mean_holding


@dataclass(frozen=True)
class ChurnRecord:
    """One ledger row -- plain data, digest-stable.

    ``kind`` is ``"arrival"`` or ``"departure"``; ``outcome`` refines it
    (``admitted``/``blocked`` or ``departed``/``absent``).
    ``attempts`` counts the candidate routes a setup walked (0 for an
    unroutable pair); ``route`` is the admitted route's link names
    (empty otherwise).
    """

    index: int
    time: float
    kind: str
    name: str
    cls: str
    outcome: str
    attempts: int = 0
    route: Tuple[str, ...] = ()


class ChurnEngine:
    """Seeded Poisson churn through a live :class:`NetworkCAC`.

    Parameters
    ----------
    cac:
        The admission controller under load.
    classes:
        The traffic mix.  Classes with ``arrival_rate == 0`` are inert.
    pairs:
        The ``(src, dst)`` terminal pairs arrivals pick from, uniformly.
    seed:
        Seeds the single ``random.Random`` behind every draw; two
        engines with equal seeds and classes see identical arrival
        sequences regardless of policy.
    policy:
        Route selection strategy (default
        :class:`~repro.workload.policies.FirstPathPolicy`).  Policies
        draw no randomness, so changing only the policy never perturbs
        the arrival process -- the basis of every policy comparison.
    warmup:
        Default warm-up trim (simulated time) for :meth:`report`.
    setup_latency / reservation_ttl:
        The nonzero-setup-time model (``setup_latency`` finite and
        ``>= 0``, ``reservation_ttl`` ``None`` or finite and ``> 0``).
        When either is set the engine switches to the event-driven
        admission plane
        (:class:`~repro.core.plane.AdmissionPlane`): every arrival
        *launches* its setup walk and the connection only starts its
        holding time once the walk commits, ``setup_latency`` (set as
        the CAC's ``hop_latency``) per hop per message direction later
        -- so concurrent in-flight setups
        contend for ports, phase-1 reservations are held under the TTL,
        and blocking genuinely differs from the instantaneous model.
        Both unset (the default) runs each walk synchronously through
        :meth:`NetworkCAC.setup` / :meth:`NetworkCAC.teardown`.  The
        two transports share one crankback chain: the candidate routes
        are materialized at the arrival instant and tried in order, and
        only submitting a setup and a teardown differ.  In plane mode
        :meth:`run` settles still-in-flight walks after the event
        budget is spent, holding the churn events that fall due
        meanwhile for the next :meth:`run`.

    Examples
    --------
    >>> from repro.network.topology import star_network
    >>> from repro.core.admission import NetworkCAC
    >>> from repro.core.traffic import cbr
    >>> net = star_network(4, bounds={0: 32})
    >>> cac = NetworkCAC(net)
    >>> engine = ChurnEngine(
    ...     cac, [TrafficClass("cbr", cbr(0.1), 0.01, 200.0)],
    ...     pairs=star_pairs(net), seed=7)
    >>> engine.run(max_events=50)
    50
    >>> len(engine.ledger)
    50
    """

    def __init__(self, cac: NetworkCAC,
                 classes: Sequence[TrafficClass],
                 pairs: Sequence[Tuple[str, str]],
                 seed: int = 0,
                 policy: Optional[AdmissionPolicy] = None,
                 warmup: float = 0.0,
                 setup_latency: float = 0.0,
                 reservation_ttl: Optional[float] = None):
        if not classes:
            raise TrafficModelError("churn needs at least one traffic class")
        if not pairs:
            raise TrafficModelError("churn needs at least one (src, dst) pair")
        names = [cls.name for cls in classes]
        if len(set(names)) != len(names):
            raise TrafficModelError(f"duplicate class names in {names}")
        if warmup < 0:
            raise TrafficModelError(f"warmup must be >= 0, got {warmup}")
        self.cac = cac
        self.network: Network = cac.network
        self.classes: Tuple[TrafficClass, ...] = tuple(classes)
        self.pairs: Tuple[Tuple[str, str], ...] = tuple(
            (str(src), str(dst)) for src, dst in pairs)
        self.seed = seed
        self.policy = policy or FirstPathPolicy()
        self.warmup = warmup
        if not (math.isfinite(setup_latency) and setup_latency >= 0):
            raise TrafficModelError(
                f"setup_latency must be finite and >= 0, got "
                f"{setup_latency}"
            )
        if reservation_ttl is not None and not (
                math.isfinite(reservation_ttl) and reservation_ttl > 0):
            raise TrafficModelError(
                f"reservation_ttl must be finite and > 0, got "
                f"{reservation_ttl}"
            )
        self.engine = Engine()
        self.setup_latency = setup_latency
        self.reservation_ttl = reservation_ttl
        self._plane: Optional[AdmissionPlane] = None
        if setup_latency > 0 or reservation_ttl is not None:
            cac.hop_latency = setup_latency
            self._plane = AdmissionPlane(cac, self.engine,
                                         reservation_ttl=reservation_ttl)
        self.ledger: List[ChurnRecord] = []
        self._rng = random.Random(seed)
        self._sequence = 0
        self._events_fired = 0
        self._budget = 0
        #: name -> (class name, departure handle) of live connections.
        self._active: Dict[str, Tuple[str, EventHandle]] = {}
        #: Churn events that fell due while walks were settling, in the
        #: order they fell due; the next :meth:`run` fires them first.
        self._held: Deque[EventHandle] = deque()
        for cls in self.classes:
            if cls.arrival_rate > 0:
                self.engine.schedule(
                    self._rng.expovariate(cls.arrival_rate),
                    partial(self._arrival, cls),
                )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def events_fired(self) -> int:
        """Churn events (arrivals + departures) fired so far."""
        return self._events_fired

    @property
    def active(self) -> Mapping[str, str]:
        """Live connection name -> class name."""
        return {name: cls for name, (cls, _h) in self._active.items()}

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self.engine.now

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------

    def run(self, max_events: int, until: float = math.inf) -> int:
        """Process churn until the hard event budget or horizon.

        ``max_events`` is a *hard* budget on arrivals + departures fired
        by this call: the event crossing the budget is the last one
        processed, and later events (even at the same instant) wait for
        the next :meth:`run`.  Events at ``until`` fire.  Returns the
        events this call fired.

        A synchronous run leaves the engine exactly where the budget
        ran out, so a subsequent :meth:`run` continues the same
        trajectory.  In plane mode the walks still in flight are then
        settled, and the churn events that fall due meanwhile are held:
        the next :meth:`run` fires them first, in the order they fell
        due, at its own starting instant.
        """
        if max_events < 0:
            raise TrafficModelError(
                f"max_events must be >= 0, got {max_events}"
            )
        started = self._events_fired
        self._budget = started + max_events
        held = self._held
        while (held and self._events_fired < self._budget
               and held[0].time <= until):
            held.popleft().callback()
        while self._events_fired < self._budget:
            upcoming = self.engine.peek_next_time()
            if upcoming is None or upcoming > until:
                break
            self.engine.run(until=upcoming)
        self._settle()
        return self._events_fired - started

    def _settle(self) -> None:
        """Run the engine until no admission walk is in flight.

        Every churn event that falls due meanwhile is held for the next
        :meth:`run`.
        """
        self._budget = self._events_fired
        while self._plane is not None and self._plane.in_flight:
            upcoming = self.engine.peek_next_time()
            if upcoming is None:
                break
            self.engine.run(until=upcoming)

    def drain(self) -> None:
        """Tear down every still-active connection (end-of-run cleanup).

        A held departure of a connection torn down here is dropped.
        """
        for name, (_cls, handle) in sorted(self._active.items()):
            handle.cancel()
            self._teardown(name, lambda released: None)
        self._active.clear()
        self._held = deque(held for held in self._held if not held.cancelled)
        self._settle()

    def report(self, warmup: Optional[float] = None,
               batches: int = 10) -> ChurnReport:
        """Blocking/load analytics over the run so far (see ``stats``)."""
        return summarize(
            self.ledger,
            {cls.name: cls for cls in self.classes},
            horizon=self.engine.now,
            warmup=self.warmup if warmup is None else warmup,
            seed=self.seed,
            policy=self.policy.name,
            journal_digest=journal_digest_of(self.cac),
            batches=batches,
        )

    # ------------------------------------------------------------------
    # Event callbacks
    # ------------------------------------------------------------------

    def _record(self, kind: str, name: str, cls: str, outcome: str,
                attempts: int = 0, route: Tuple[str, ...] = ()) -> None:
        self.ledger.append(ChurnRecord(
            index=len(self.ledger), time=self.engine.now, kind=kind,
            name=name, cls=cls, outcome=outcome, attempts=attempts,
            route=route,
        ))
        bus = _oe.get_bus()
        if bus.has_subscribers:
            bus.emit("churn", kind, time=self.engine.now, name=name,
                     cls=cls, outcome=outcome)

    def _arrival(self, cls: TrafficClass) -> None:
        if self._events_fired >= self._budget:
            self._held.append(EventHandle(self.engine.now,
                                          partial(self._arrival, cls)))
            return
        self._events_fired += 1
        registry = _om.get_registry()
        if registry.enabled:
            registry.counter("churn_arrivals_total", cls=cls.name).inc()
        # Every draw happens up front, in fixed order, so the arrival
        # process -- pairs, holding times, the whole future schedule --
        # is identical whatever the policy decides below.
        src, dst = self.pairs[self._rng.randrange(len(self.pairs))]
        holding = self._rng.expovariate(1.0 / cls.mean_holding)
        self.engine.schedule_in(
            self._rng.expovariate(cls.arrival_rate),
            partial(self._arrival, cls),
        )
        name = f"c{self._sequence:06d}"
        self._sequence += 1
        routes = list(self.policy.routes(self.cac, self.network, src, dst))
        self._attempt(name, cls, routes, 0, holding)

    def _attempt(self, name: str, cls: TrafficClass,
                 routes: Sequence, index: int,
                 holding: float) -> None:
        """Set up one arrival on candidate route ``index``.

        Crankback: a refusal (an :class:`AdmissionError`) tries the next
        candidate; success starts the holding time at the *commit*
        instant (setup latency delays the connection, and therefore
        every downstream departure).  Both transports run this chain:
        ``done`` runs right after a synchronous :meth:`NetworkCAC.setup`
        returns, or when an admission-plane walk finishes.
        """
        if index >= len(routes):
            self._record("arrival", name, cls.name, "blocked", len(routes))
            self._count_outcome(cls.name, "blocked", len(routes))
            return
        route = routes[index]
        request = ConnectionRequest(
            name, cls.traffic, route, priority=cls.priority,
            delay_bound=cls.delay_bound,
        )

        def done(admitted: bool) -> None:
            if not admitted:
                self._attempt(name, cls, routes, index + 1, holding)
                return
            handle = self.engine.schedule_in(
                holding, partial(self._departure, name, cls.name))
            self._active[name] = (cls.name, handle)
            self._record("arrival", name, cls.name, "admitted",
                         index + 1, route.link_names)
            self._count_outcome(cls.name, "admitted", index + 1)

        if self._plane is not None:
            self._plane.submit(
                request, on_done=lambda outcome: done(_verdict(outcome.error)))
        else:
            done(_succeeded(self.cac.setup, request))

    def _count_outcome(self, cls_name: str, outcome: str,
                       attempts: int) -> None:
        registry = _om.get_registry()
        if registry.enabled:
            registry.counter("churn_outcomes_total", cls=cls_name,
                             outcome=outcome).inc()
            if attempts > 1:
                registry.counter("churn_retries_total",
                                 cls=cls_name).inc(attempts - 1)
            registry.gauge("churn_active_connections").set_max(
                len(self._active))

    def _departure(self, name: str, cls_name: str) -> None:
        if self._events_fired >= self._budget:
            # The connection's own handle: :meth:`drain` cancels it.
            self._held.append(self._active[name][1])
            return
        self._events_fired += 1
        if self._active.pop(name, None) is None:
            self._finish_departure(name, cls_name, False)
            return
        self._teardown(name, partial(self._finish_departure, name, cls_name))

    def _teardown(self, name: str, done: Callable[[bool], None]) -> None:
        """Release ``name``; ``done(released)`` runs once the walk ends."""
        if self._plane is not None:
            self._plane.submit_teardown(
                name, on_done=lambda process: done(_verdict(process.error)))
        else:
            done(_succeeded(self.cac.teardown, name))

    def _finish_departure(self, name: str, cls_name: str,
                          released: bool) -> None:
        outcome = "departed" if released else "absent"
        self._record("departure", name, cls_name, outcome)
        registry = _om.get_registry()
        if registry.enabled:
            registry.counter("churn_departures_total", cls=cls_name,
                             outcome=outcome).inc()


def _succeeded(walk: Callable[..., object], *args: object) -> bool:
    """Run one synchronous walk; ``False`` if it raised a refusal.

    Only the bool leaves the handler: a caught error kept in a local
    would tie error -> traceback -> frame -> error into a cycle.
    """
    try:
        walk(*args)
    except AdmissionError:
        return False
    return True


def _verdict(error: Optional[BaseException]) -> bool:
    """Whether a finished plane walk succeeded; ``False`` for a refusal.

    Any error but an :class:`AdmissionError` is a bug, not an admission
    verdict, and is raised.
    """
    if error is not None and not isinstance(error, AdmissionError):
        raise error
    return error is None


# ----------------------------------------------------------------------
# Scenarios and blocking curves
# ----------------------------------------------------------------------


def star_pairs(network: Network) -> List[Tuple[str, str]]:
    """All ordered terminal pairs of a network, in sorted name order."""
    terminals = sorted(node.name for node in network.terminals())
    return [(a, b) for a in terminals for b in terminals if a != b]


def opposite_pairs(ring_nodes: int,
                   terminals_per_node: int = 1) -> List[Tuple[str, str]]:
    """RTnet point-to-point pairs: each terminal to its opposite peer.

    Terminal ``i.s`` talks to ``(i + ring_nodes // 2) % ring_nodes . s``,
    so traffic crosses ring links in both route directions on a dual
    ring.
    """
    half = ring_nodes // 2
    return [
        (terminal_name(node, slot),
         terminal_name((node + half) % ring_nodes, slot))
        for node in range(ring_nodes)
        for slot in range(terminals_per_node)
    ]


@dataclass(frozen=True)
class ChurnScenario:
    """A churn recipe: topology + traffic + run parameters.

    ``offered_load`` is the target mean *bandwidth* demand (normalized
    to the link rate) the arrival process offers:
    ``arrival_rate = offered_load / (rate * mean_holding)``, i.e.
    ``offered_load / rate`` erlangs.  ``topology`` is ``"star"``
    (``nodes`` terminals on one hub) or ``"dual-ring"`` (an RTnet dual
    ring of ``nodes`` ring nodes, opposite-peer pairs) -- the two
    shapes the blocking analytics and the policy-comparison acceptance
    use.  ``warmup_fraction`` trims that leading fraction of the run
    from the analytics.
    """

    topology: str = "star"
    nodes: int = 8
    terminals_per_node: int = 1
    bound: float = 32.0
    rate: float = 0.05
    mbs: int = 1
    offered_load: float = 0.5
    mean_holding: float = 400.0
    events: int = 2000
    seed: int = 1
    policy: str = "first-path"
    k: int = 2
    warmup_fraction: float = 0.1
    #: Per-hop per-direction signaling transit time; > 0 switches the
    #: run onto the event-driven admission plane (in-flight setups).
    setup_latency: float = 0.0
    #: Phase-1 reservation hold time before switch-side expiry; only
    #: meaningful with the admission plane active.
    reservation_ttl: Optional[float] = None

    def arrival_rate(self) -> float:
        """The Poisson intensity hitting the offered-load target."""
        return self.offered_load / (self.rate * self.mean_holding)

    def build_network(self) -> Network:
        if self.topology == "star":
            return star_network(self.nodes, bounds={0: self.bound})
        if self.topology == "dual-ring":
            return build_rtnet(
                self.nodes, self.terminals_per_node,
                bounds={0: self.bound}, dual_ring=True,
            )
        raise TrafficModelError(
            f"unknown churn topology {self.topology!r}; expected 'star' "
            f"or 'dual-ring'"
        )

    def build_pairs(self, network: Network) -> List[Tuple[str, str]]:
        if self.topology == "dual-ring":
            return opposite_pairs(self.nodes, self.terminals_per_node)
        return star_pairs(network)

    def traffic_class(self) -> TrafficClass:
        traffic = cbr(self.rate) if self.mbs <= 1 else VBRParameters(
            pcr=min(1.0, self.rate * 4), scr=self.rate, mbs=self.mbs)
        return TrafficClass(
            "cbr" if self.mbs <= 1 else "vbr", traffic,
            arrival_rate=self.arrival_rate(),
            mean_holding=self.mean_holding,
        )


def run_scenario(scenario: ChurnScenario) -> ChurnReport:
    """Execute one :class:`ChurnScenario` end to end.

    Builds the topology, churns through the hard event budget, and
    returns the warm-up-trimmed
    :class:`~repro.workload.stats.ChurnReport`.
    """
    network = scenario.build_network()
    cac = NetworkCAC(network, rng=random.Random(scenario.seed))
    engine = ChurnEngine(
        cac,
        [scenario.traffic_class()],
        pairs=scenario.build_pairs(network),
        seed=scenario.seed,
        policy=make_policy(scenario.policy, scenario.k),
        setup_latency=scenario.setup_latency,
        reservation_ttl=scenario.reservation_ttl,
    )
    engine.run(max_events=scenario.events)
    return engine.report(warmup=engine.now * scenario.warmup_fraction)


@dataclass(frozen=True)
class BlockingPoint:
    """One point of a blocking-vs-offered-load curve."""

    offered_load: float
    arrivals: int
    blocked: int
    blocking: float
    ci_half_width: float
    carried_erlangs: float
    #: Per-replication ledger digests, in seed order -- the fingerprint
    #: two runs of one seed must share.
    digests: Tuple[str, ...] = ()

    def as_row(self) -> List[object]:
        return [self.offered_load, self.arrivals, self.blocked,
                round(self.blocking, 4), round(self.ci_half_width, 4),
                round(self.carried_erlangs, 2)]


def blocking_curve(loads: Sequence[float],
                   scenario: ChurnScenario,
                   replications: int = 1,
                   ) -> List[BlockingPoint]:
    """Blocking probability vs offered load, over seeded replications.

    Every ``(load, replication)`` cell is one fully seeded
    :func:`run_scenario` (replication ``i`` uses ``seed + i``), and each
    point keeps its replications' ledger digests.  Confidence
    intervals are batch means: across replications when there are
    several, within-run time batches otherwise.
    """
    if replications < 1:
        raise TrafficModelError(
            f"need at least one replication, got {replications}"
        )
    grid = [
        replace(scenario, offered_load=load, seed=scenario.seed + rep)
        for load in loads
        for rep in range(replications)
    ]
    reports = [run_scenario(cell) for cell in grid]
    points: List[BlockingPoint] = []
    for index, load in enumerate(loads):
        cell = reports[index * replications:(index + 1) * replications]
        arrivals = sum(r.arrivals for r in cell)
        blocked = sum(r.blocked for r in cell)
        blocking = blocked / arrivals if arrivals else 0.0
        if replications > 1:
            _mean, half = batch_means([r.blocking for r in cell])
        else:
            half = cell[0].blocking_ci
        points.append(BlockingPoint(
            offered_load=load,
            arrivals=arrivals,
            blocked=blocked,
            blocking=blocking,
            ci_half_width=half,
            carried_erlangs=left_sum(r.carried_erlangs for r in cell)
            / len(cell),
            digests=tuple(r.ledger_digest for r in cell),
        ))
    return points
