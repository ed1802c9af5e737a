"""Process-local metrics: counters, gauges and fixed-bucket histograms.

The registry is deliberately minimal and dependency-free.  Instrumented
code asks the global registry for an instrument by ``(name, labels)``
and bumps it; when observability is off the global registry is the
shared :data:`NULL_REGISTRY`, whose instruments are no-ops and whose
``enabled`` flag lets hot paths skip instrumentation with a single
attribute check.

Hot paths that cannot afford a labelled lookup per call (the
:class:`~repro.core.switch_cac.SwitchCAC` cache getters, the kernel
path counter) bind their instrument handles once and re-bind only when
:data:`_generation` changes -- every :func:`set_registry` bumps it, so a
swapped registry invalidates all cached handles without any back
references.

The catalogue of every metric the library emits lives in
:data:`METRIC_HELP`; the Prometheus exporter uses it for ``# HELP``
lines and ``docs/observability.md`` documents the same names.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "LATENCY_BUCKETS",
    "SIZE_BUCKETS",
    "SIGNALING_BUCKETS",
    "METRIC_HELP",
    "get_registry",
    "set_registry",
]

#: Wall-clock latency buckets in seconds (admission checks run in the
#: microsecond-to-millisecond range on the reference container).
LATENCY_BUCKETS: Tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0,
)

#: Stream-size buckets in breakpoints (aggregates on a loaded port run
#: to a few hundred).
SIZE_BUCKETS: Tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512,
                                   1024)

#: Simulated-time buckets for signaling round trips (the default hop
#: timeout is 8.0 time units; backoff can push a retried delivery far
#: beyond it).
SIGNALING_BUCKETS: Tuple[float, ...] = (0.5, 1, 2, 4, 8, 16, 32, 64, 128)

#: name -> help text for every metric the library emits.
METRIC_HELP: Dict[str, str] = {
    "cac_checks_total":
        "Admission checks (Steps 2-6) run at a switch.",
    "cac_check_rejections_total":
        "Admission checks whose result violated at least one bound.",
    "cac_check_seconds":
        "Wall-clock latency of one switch admission check.",
    "cac_screen_total":
        "Admission checks by (sigma, rho) headroom-screen outcome "
        "(accept/reject decided by the screen, exact fell through).",
    "cac_admits_total":
        "One-shot admit() commitments at a switch.",
    "cac_reserves_total":
        "Phase-1 reservations held at a switch.",
    "cac_commits_total":
        "Phase-2 commitments confirmed at a switch.",
    "cac_rollbacks_total":
        "Idempotent rollbacks that actually released state.",
    "cac_releases_total":
        "Committed legs torn down via release().",
    "cac_reservation_expiries_total":
        "Pending reservations discarded by the TTL hold timer.",
    "cac_cache_hits_total":
        "ServiceCurve memo lookups served from the memo.",
    "cac_cache_misses_total":
        "ServiceCurve memo lookups that rebuilt the curve.",
    "cac_incremental_updates_total":
        "Cached aggregates patched by one +/- delta in _apply().",
    "cac_recoveries_total":
        "Journal replays performed by recover().",
    "cac_recoveries_verified_total":
        "Recoveries whose caches passed verify_consistency().",
    "cac_recovery_replayed_entries":
        "Journal entries replayed by the most recent recover().",
    "kernel_path_total":
        "Delay/backlog bound evaluations by execution path "
        "(path=numpy: float list kernels; path=scalar: exact int/Fraction).",
    "network_setups_total":
        "Route-level setup walks by outcome "
        "(accepted/rejected/timeout/unsatisfiable).",
    "network_setup_time":
        "Simulated time one setup walk consumed (timeouts and backoff "
        "advance the injected clock).",
    "network_teardowns_total":
        "Route-level teardowns of established connections.",
    "signaling_messages_total":
        "Signaling messages delivered successfully, by phase.",
    "signaling_retransmits_total":
        "Signaling retransmissions after a timed-out attempt, by phase.",
    "signaling_timeouts_total":
        "Deliveries abandoned after the retry budget ran out, by phase.",
    "signaling_faults_total":
        "Injected faults observed on delivery attempts, by kind.",
    "signaling_hop_rtt":
        "Simulated round-trip time of one successful delivery "
        "(includes backoff of earlier attempts).",
    "signaling_fast_fails_total":
        "Deliveries fast-failed by an open circuit breaker, by phase "
        "(zero timeouts and zero retransmissions spent).",
    "cac_breaker_state":
        "Circuit breaker state per signaling hop "
        "(0=closed, 1=half-open, 2=open).",
    "cac_breaker_transitions_total":
        "Circuit breaker state transitions, by entered state.",
    "cac_breaker_fast_fails_total":
        "Deliveries refused by an open breaker (fast-fail decisions).",
    "cac_failure_detections_total":
        "Targets the health monitor declared down, by kind "
        "(link/switch).",
    "cac_failure_detection_time":
        "Gap between a link's ground-truth failure instant and the "
        "health monitor declaring it down (simulated time).",
    "cac_migrations_total":
        "Live-migration outcomes: migrated (moved to a detour), failed "
        "(one migration attempt refused), dropped/kept (policy fallback "
        "applied to an unmigratable victim).",
    "journal_ops_total":
        "Entries appended to admission journals, by op.",
    "churn_arrivals_total":
        "Connection arrivals generated by the churn engine, by class.",
    "churn_outcomes_total":
        "Arrival outcomes (admitted/blocked) under churn, by class.",
    "churn_retries_total":
        "Extra candidate routes walked beyond the first (crankback "
        "retries), by class.",
    "churn_departures_total":
        "Churn departures by outcome (departed/dropped/absent).",
    "churn_active_connections":
        "High-water mark of concurrently held churn connections.",
    "churn_blocking_probability":
        "Blocking probability of the most recent churn report, by class.",
    "churn_carried_erlangs":
        "Carried load (time-averaged held connections) of the most "
        "recent churn report.",
    "sim_events_processed":
        "Events executed by the discrete-event engine so far.",
    "sim_cells_delivered_total":
        "Cells delivered to simulation sinks.",
    "sim_worst_e2e_delay":
        "Largest observed end-to-end queueing delay (cell times).",
}


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "labels", "value")
    kind = "counter"

    def __init__(self, name: str, labels: Tuple[Tuple[str, str], ...]):
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, amount: float = 1) -> None:
        """Add ``amount`` (must be non-negative) to the count."""
        if amount < 0:
            raise ValueError(f"counters only go up; got {amount}")
        self.value += amount

    def __repr__(self) -> str:
        return f"Counter({_sample_name(self.name, self.labels)}={self.value})"


class Gauge:
    """A value that can go up and down (queue depth, worst-seen, ...)."""

    __slots__ = ("name", "labels", "value")
    kind = "gauge"

    def __init__(self, name: str, labels: Tuple[Tuple[str, str], ...]):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        """Overwrite the gauge."""
        self.value = value

    def set_max(self, value: float) -> None:
        """Keep the largest value ever seen (worst-case trackers)."""
        if value > self.value:
            self.value = value

    def __repr__(self) -> str:
        return f"Gauge({_sample_name(self.name, self.labels)}={self.value})"


class Histogram:
    """Fixed-bucket histogram with a Prometheus-compatible layout.

    ``bounds`` are the inclusive upper bucket edges; an implicit
    ``+Inf`` bucket catches everything beyond the last edge.  Bucket
    counts are stored per-bucket (not cumulative); the exporter derives
    the cumulative form.
    """

    __slots__ = ("name", "labels", "bounds", "bucket_counts", "count", "sum")
    kind = "histogram"

    def __init__(self, name: str, labels: Tuple[Tuple[str, str], ...],
                 bounds: Tuple[float, ...]):
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError(f"bucket bounds must strictly increase: {bounds}")
        self.name = name
        self.labels = labels
        self.bounds = tuple(float(b) for b in bounds)
        self.bucket_counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value

    def cumulative(self) -> List[Tuple[float, int]]:
        """``(upper_edge, cumulative_count)`` pairs, ``+Inf`` last."""
        edges = list(self.bounds) + [float("inf")]
        total = 0
        out = []
        for edge, bucket in zip(edges, self.bucket_counts):
            total += bucket
            out.append((edge, total))
        return out

    def __repr__(self) -> str:
        return (f"Histogram({_sample_name(self.name, self.labels)}: "
                f"count={self.count}, sum={self.sum})")


def _sample_name(name: str, labels: Tuple[Tuple[str, str], ...]) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={v!r}" for k, v in labels)
    return f"{name}{{{inner}}}"


def _label_key(labels: Mapping[str, object]) -> Tuple[Tuple[str, str], ...]:
    if not labels:
        return ()
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class MetricsRegistry:
    """Holds every instrument, keyed by ``(name, sorted labels)``.

    A name is bound to one instrument kind forever (asking for a
    counter named like an existing gauge raises), which is what keeps
    the export formats coherent.
    """

    __slots__ = ("_instruments", "_kinds")
    enabled = True

    def __init__(self) -> None:
        self._instruments: Dict[Tuple[str, Tuple[Tuple[str, str], ...]],
                                object] = {}
        self._kinds: Dict[str, str] = {}

    # -- instrument accessors ------------------------------------------

    def counter(self, name: str, **labels: object) -> Counter:
        """The counter for ``(name, labels)``, created on first use."""
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: object) -> Gauge:
        """The gauge for ``(name, labels)``, created on first use."""
        return self._get(Gauge, name, labels)

    def histogram(self, name: str,
                  buckets: Optional[Iterable[float]] = None,
                  **labels: object) -> Histogram:
        """The histogram for ``(name, labels)``; ``buckets`` only
        matters on first creation (defaults to :data:`LATENCY_BUCKETS`).
        """
        self._check_kind(name, "histogram")
        key = (name, _label_key(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            bounds = tuple(buckets) if buckets is not None else LATENCY_BUCKETS
            instrument = Histogram(name, key[1], bounds)
            self._instruments[key] = instrument
        return instrument  # type: ignore[return-value]

    def _get(self, cls, name: str, labels: Mapping[str, object]):
        self._check_kind(name, cls.kind)
        key = (name, _label_key(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = cls(name, key[1])
            self._instruments[key] = instrument
        return instrument

    def _check_kind(self, name: str, kind: str) -> None:
        known = self._kinds.get(name)
        if known is None:
            self._kinds[name] = kind
        elif known != kind:
            raise ValueError(
                f"metric {name!r} is already registered as a {known}, "
                f"cannot re-register as a {kind}"
            )

    # -- introspection -------------------------------------------------

    def kind_of(self, name: str) -> Optional[str]:
        """The instrument kind bound to ``name``, if any."""
        return self._kinds.get(name)

    def families(self) -> List[Tuple[str, str, List[object]]]:
        """``(name, kind, instruments)`` groups, sorted by name then labels."""
        grouped: Dict[str, List[object]] = {}
        for (name, _labels), instrument in self._instruments.items():
            grouped.setdefault(name, []).append(instrument)
        return [
            (name, self._kinds[name],
             sorted(grouped[name], key=lambda i: i.labels))
            for name in sorted(grouped)
        ]

    def samples(self) -> List[Dict[str, object]]:
        """Every instrument as one plain-data record (JSONL rows)."""
        out: List[Dict[str, object]] = []
        for name, kind, instruments in self.families():
            for instrument in instruments:
                record: Dict[str, object] = {
                    "name": name,
                    "kind": kind,
                    "labels": dict(instrument.labels),
                }
                if kind == "histogram":
                    record["count"] = instrument.count
                    record["sum"] = instrument.sum
                    record["buckets"] = [
                        ["+Inf" if edge == float("inf") else edge, total]
                        for edge, total in instrument.cumulative()
                    ]
                else:
                    record["value"] = instrument.value
                out.append(record)
        return out

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Nested ``{name: {rendered-labels: value-or-summary}}`` view."""
        snap: Dict[str, Dict[str, object]] = {}
        for name, kind, instruments in self.families():
            family: Dict[str, object] = {}
            for instrument in instruments:
                label = ",".join(f"{k}={v}" for k, v in instrument.labels)
                if kind == "histogram":
                    family[label] = {"count": instrument.count,
                                     "sum": instrument.sum}
                else:
                    family[label] = instrument.value
            snap[name] = family
        return snap

    def value(self, name: str, **labels: object) -> float:
        """Current value of one counter/gauge (0 when never touched)."""
        instrument = self._instruments.get((name, _label_key(labels)))
        if instrument is None:
            return 0
        return instrument.value  # type: ignore[union-attr]

    def total(self, name: str) -> float:
        """Sum of one counter family over every label combination."""
        total = 0.0
        for (sample_name, _labels), instrument in self._instruments.items():
            if sample_name == name and isinstance(instrument, Counter):
                total += instrument.value
        return total

    def __len__(self) -> int:
        return len(self._instruments)

    def __repr__(self) -> str:
        return f"MetricsRegistry(instruments={len(self._instruments)})"


class _NullInstrument:
    """Accepts every instrument method as a no-op."""

    __slots__ = ()
    name = "null"
    labels: Tuple[Tuple[str, str], ...] = ()
    value = 0
    count = 0
    sum = 0.0

    def inc(self, amount: float = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def set_max(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


_NULL_INSTRUMENT = _NullInstrument()


class NullRegistry:
    """The disabled registry: every instrument is the shared no-op.

    ``enabled`` is ``False`` so hot paths can skip label construction
    and lookups with a single attribute check; code that does not guard
    still works, it just bumps the black-hole instrument.
    """

    __slots__ = ()
    enabled = False

    def counter(self, name: str, **labels: object) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str, **labels: object) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(self, name: str,
                  buckets: Optional[Iterable[float]] = None,
                  **labels: object) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def families(self) -> List[Tuple[str, str, List[object]]]:
        return []

    def samples(self) -> List[Dict[str, object]]:
        return []

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        return {}

    def value(self, name: str, **labels: object) -> float:
        return 0

    def total(self, name: str) -> float:
        return 0.0

    def __len__(self) -> int:
        return 0

    def __repr__(self) -> str:
        return "NullRegistry()"


NULL_REGISTRY = NullRegistry()

_registry = NULL_REGISTRY
#: Bumped by every :func:`set_registry`; hot paths cache instrument
#: handles tagged with the generation they were bound under and re-bind
#: when it moves.
_generation = 0


def get_registry():
    """The registry instrumented code currently reports to."""
    return _registry


def set_registry(registry):
    """Install a registry (or :data:`NULL_REGISTRY`); returns the old one."""
    global _registry, _generation
    previous = _registry
    _registry = registry
    _generation += 1
    return previous
