"""Blocking-probability and load analytics over a churn ledger.

The ledger written by :class:`~repro.workload.churn.ChurnEngine` is the
single source of truth: every function here is a pure, deterministic
fold over those plain-data rows, so the analytics give bit-identical
results wherever they run, live or offline on a saved report.

The headline quantities are the classic teletraffic trio:

* **blocking probability** per class -- blocked arrivals over offered
  arrivals inside the measurement window, with a batch-means confidence
  interval (the window is cut into equal time batches, per-batch
  blocking ratios are treated as approximately independent samples, and
  a Student-t interval is put around their mean);
* **carried vs offered load** -- time-averaged concurrently-held
  erlangs against the nominal ``arrival_rate * mean_holding`` the
  sources offered;
* **link-utilization timelines** -- the piecewise-constant bandwidth
  commitment on every link as connections come and go, summarized to
  time-weighted mean and peak per link.

Warm-up trimming: every statistic ignores the ledger prefix before
``warmup`` (arrivals, departures and active time alike), so transient
fill-up of an initially empty network does not bias the steady-state
estimates.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.admission import NetworkCAC
    from .churn import ChurnRecord, TrafficClass

from ..obs import events as _oe
from ..obs import metrics as _om

__all__ = [
    "ClassStats",
    "ChurnReport",
    "batch_means",
    "ledger_digest",
    "journal_digest_of",
    "summarize",
    "utilization_timeline",
    "export_report",
]

#: Two-sided 95% Student-t critical values by degrees of freedom; the
#: normal quantile 1.96 serves beyond the table.  Hard-coded because the
#: container must not grow a scipy dependency for one lookup.
_T_95: Dict[int, float] = {
    1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571, 6: 2.447,
    7: 2.365, 8: 2.306, 9: 2.262, 10: 2.228, 11: 2.201, 12: 2.179,
    13: 2.160, 14: 2.145, 15: 2.131, 16: 2.120, 17: 2.110, 18: 2.101,
    19: 2.093, 20: 2.086, 25: 2.060, 30: 2.042,
}


def _t_critical(df: int) -> float:
    if df in _T_95:
        return _T_95[df]
    if df < 1:
        return 0.0
    for known in sorted(_T_95):
        if df <= known:
            return _T_95[known]
    return 1.96


def left_sum(values: Iterable[float]) -> float:
    """Sum left to right, rounding after every term.

    Built-in :func:`sum` compensates float rounding since Python 3.12,
    so the same values could sum to another last bit on another
    interpreter; every float total a report carries comes from this
    loop instead, which rounds the way ``sum`` did up to Python 3.11.
    """
    total = 0
    for value in values:
        total += value
    return total


def batch_means(values: Sequence[float]) -> Tuple[float, float]:
    """Mean and 95% half-width over approximately independent batches.

    The standard batch-means construction: each value is one batch
    statistic; the half-width is ``t * s / sqrt(n)`` with ``s`` the
    sample standard deviation.  Degenerate inputs collapse gracefully --
    no values gives ``(0, 0)``, a single value gives ``(value, 0)`` --
    so reports stay JSON-serializable (never infinite).
    """
    n = len(values)
    if n == 0:
        return 0.0, 0.0
    mean = left_sum(values) / n
    if n == 1:
        return mean, 0.0
    variance = left_sum((v - mean) ** 2 for v in values) / (n - 1)
    half = _t_critical(n - 1) * (variance ** 0.5) / (n ** 0.5)
    return mean, half


# ----------------------------------------------------------------------
# Digests
# ----------------------------------------------------------------------


def ledger_digest(ledger: Sequence["ChurnRecord"]) -> str:
    """SHA-256 fingerprint of an entire churn trajectory.

    Hashes the canonical repr of every row in order -- times, outcomes,
    routes, everything -- so two runs agree on the digest iff they took
    bit-identical trajectories.  This is the value the seeded
    reproducibility checks compare.
    """
    hasher = hashlib.sha256()
    for row in ledger:
        hasher.update(repr((
            row.index, row.time.hex(), row.kind, row.name, row.cls,
            row.outcome, row.attempts, row.route,
        )).encode())
    return hasher.hexdigest()


def journal_digest_of(cac: "NetworkCAC") -> str:
    """SHA-256 over every switch's op-for-op admission journal.

    The same ``(switch, ((op, connection_id), ...))`` canonical form the
    robustness harness compares, hashed so a report can carry it as one
    short string.  Equal digests mean every switch journalled the exact
    same operation sequence -- the strongest cheap witness that two runs
    drove the CAC identically.
    """
    hasher = hashlib.sha256()
    for name, switch in sorted(cac.switches().items()):
        hasher.update(repr((
            name,
            tuple((entry.op, entry.connection_id)
                  for entry in switch.journal.entries),
        )).encode())
    return hasher.hexdigest()


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ClassStats:
    """Steady-state statistics of one traffic class."""

    name: str
    #: Nominal offered load, ``arrival_rate * mean_holding`` erlangs.
    offered_erlangs: float
    arrivals: int
    admitted: int
    blocked: int
    departed: int
    #: Blocked arrivals / arrivals in the measurement window.
    blocking: float
    #: 95% batch-means half-width around :attr:`blocking`.
    blocking_ci: float
    #: Time-averaged concurrently-held connections in the window.
    carried_erlangs: float

    def as_dict(self) -> Dict[str, object]:
        return {
            "class": self.name,
            "offered_erlangs": self.offered_erlangs,
            "arrivals": self.arrivals,
            "admitted": self.admitted,
            "blocked": self.blocked,
            "departed": self.departed,
            "blocking": self.blocking,
            "blocking_ci": self.blocking_ci,
            "carried_erlangs": self.carried_erlangs,
        }


@dataclass(frozen=True)
class ChurnReport:
    """Everything one churn run yields, as plain data.

    ``link_utilization`` summarizes the per-link bandwidth-commitment
    timeline as sorted ``(link, time-weighted mean, peak)`` triples;
    the full piecewise series is available from
    :func:`utilization_timeline` when a plot needs it.  The two digests
    fingerprint the trajectory (:attr:`ledger_digest`) and the CAC's
    operation history (:attr:`journal_digest`) -- the determinism
    acceptance compares both.
    """

    seed: int
    policy: str
    events: int
    horizon: float
    warmup: float
    arrivals: int
    admitted: int
    blocked: int
    blocking: float
    blocking_ci: float
    carried_erlangs: float
    offered_erlangs: float
    per_class: Tuple[ClassStats, ...]
    link_utilization: Tuple[Tuple[str, float, float], ...]
    ledger_digest: str
    journal_digest: str
    active_at_end: int

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready view (the CLI's ``--json`` payload)."""
        return {
            "seed": self.seed,
            "policy": self.policy,
            "events": self.events,
            "horizon": self.horizon,
            "warmup": self.warmup,
            "arrivals": self.arrivals,
            "admitted": self.admitted,
            "blocked": self.blocked,
            "blocking": self.blocking,
            "blocking_ci": self.blocking_ci,
            "carried_erlangs": self.carried_erlangs,
            "offered_erlangs": self.offered_erlangs,
            "per_class": [stats.as_dict() for stats in self.per_class],
            "link_utilization": [
                {"link": link, "mean": mean, "peak": peak}
                for link, mean, peak in self.link_utilization
            ],
            "ledger_digest": self.ledger_digest,
            "journal_digest": self.journal_digest,
            "active_at_end": self.active_at_end,
        }


def _intervals(ledger: Sequence["ChurnRecord"], horizon: float,
               ) -> List[Tuple[str, float, float, Tuple[str, ...]]]:
    """``(class, start, end, route)`` holding intervals, ledger order.

    An admitted arrival opens an interval; its departure row closes
    it; still-open intervals close at the horizon.
    """
    open_at: Dict[str, Tuple[str, float, Tuple[str, ...]]] = {}
    out: List[Tuple[str, float, float, Tuple[str, ...]]] = []
    order: List[str] = []
    for row in ledger:
        if row.kind == "arrival" and row.outcome == "admitted":
            open_at[row.name] = (row.cls, row.time, row.route)
            order.append(row.name)
        elif row.kind == "departure" and row.name in open_at:
            cls, start, route = open_at.pop(row.name)
            out.append((cls, start, row.time, route))
    for name in order:
        if name in open_at:
            cls, start, route = open_at.pop(name)
            out.append((cls, start, horizon, route))
    return out


def utilization_timeline(ledger: Sequence["ChurnRecord"],
                         classes: Mapping[str, "TrafficClass"],
                         horizon: float,
                         links: Optional[Iterable[str]] = None,
                         ) -> Dict[str, List[Tuple[float, float]]]:
    """Piecewise-constant committed bandwidth per link over the run.

    Returns ``{link: [(time, utilization), ...]}`` where each pair says
    "from this time on, the link carried this much committed SCR" --
    exactly the step series a blocking-curve plot overlays.  ``links``
    restricts the output; by default every link any admitted route used
    appears.
    """
    wanted = set(links) if links is not None else None
    deltas: Dict[str, List[Tuple[float, float]]] = {}
    for cls, start, end, route in _intervals(ledger, horizon):
        rate = float(classes[cls].traffic.scr) if cls in classes else 0.0
        for link in route:
            if wanted is not None and link not in wanted:
                continue
            deltas.setdefault(link, []).append((start, rate))
            if end < horizon:
                deltas[link].append((end, -rate))
    series: Dict[str, List[Tuple[float, float]]] = {}
    for link in sorted(deltas):
        level = 0.0
        steps: List[Tuple[float, float]] = [(0.0, 0.0)]
        for time, delta in sorted(deltas[link]):
            level += delta
            if steps and steps[-1][0] == time:
                steps[-1] = (time, level)
            else:
                steps.append((time, level))
        series[link] = steps
    return series


def summarize(ledger: Sequence["ChurnRecord"],
              classes: Mapping[str, "TrafficClass"],
              horizon: float,
              warmup: float,
              seed: int,
              policy: str,
              journal_digest: str,
              batches: int = 10) -> ChurnReport:
    """Fold a churn ledger into a :class:`ChurnReport`.

    ``warmup`` trims the transient: only rows (and holding time) at or
    after it count.  ``batches`` controls the batch-means construction
    for the blocking confidence intervals.
    """
    duration = max(0.0, horizon - warmup)
    intervals = _intervals(ledger, horizon)

    per_class: List[ClassStats] = []
    for name in sorted(classes):
        cls = classes[name]
        rows = [r for r in ledger if r.cls == name and r.time >= warmup]
        arrivals = [r for r in rows if r.kind == "arrival"]
        blocked = sum(1 for r in arrivals if r.outcome == "blocked")
        admitted = len(arrivals) - blocked
        departed = sum(1 for r in rows if r.kind == "departure"
                       and r.outcome == "departed")
        blocking = blocked / len(arrivals) if arrivals else 0.0
        # Batch means over equal time slices of the window.
        ratios: List[float] = []
        if duration > 0 and batches > 0:
            width = duration / batches
            for index in range(batches):
                lo = warmup + index * width
                hi = warmup + (index + 1) * width
                batch = [r for r in arrivals if lo <= r.time < hi]
                if batch:
                    ratios.append(
                        sum(1 for r in batch if r.outcome == "blocked")
                        / len(batch))
        _mean, half = batch_means(ratios)
        carried = 0.0
        if duration > 0:
            for icls, start, end, _route in intervals:
                if icls == name:
                    carried += max(0.0, min(end, horizon) - max(start, warmup))
            carried /= duration
        per_class.append(ClassStats(
            name=name,
            offered_erlangs=cls.offered_erlangs,
            arrivals=len(arrivals),
            admitted=admitted,
            blocked=blocked,
            departed=departed,
            blocking=blocking,
            blocking_ci=half,
            carried_erlangs=carried,
        ))

    # Per-link time-weighted mean and peak within the window.
    link_summary: List[Tuple[str, float, float]] = []
    if duration > 0:
        means: Dict[str, float] = {}
        for cls, start, end, route in intervals:
            rate = float(classes[cls].traffic.scr) if cls in classes else 0.0
            overlap = max(0.0, min(end, horizon) - max(start, warmup))
            if overlap <= 0:
                continue
            for link in route:
                means[link] = means.get(link, 0.0) + rate * overlap / duration
        peaks: Dict[str, float] = {}
        for link, steps in utilization_timeline(
                ledger, classes, horizon, links=means).items():
            peak = 0.0
            for index, (time, level) in enumerate(steps):
                next_time = (steps[index + 1][0]
                             if index + 1 < len(steps) else horizon)
                if next_time > warmup:   # the step overlaps the window
                    peak = max(peak, level)
            peaks[link] = peak
        link_summary = [
            (link, means[link], peaks.get(link, 0.0))
            for link in sorted(means)
        ]

    total_arrivals = sum(s.arrivals for s in per_class)
    total_blocked = sum(s.blocked for s in per_class)
    opened = {r.name for r in ledger
              if r.kind == "arrival" and r.outcome == "admitted"}
    closed = {r.name for r in ledger if r.kind == "departure"}
    active_at_end = len(opened - closed)

    # Overall CI: batch means over time slices pooled across classes.
    overall_ratios: List[float] = []
    if duration > 0 and batches > 0:
        all_arrivals = [r for r in ledger
                        if r.kind == "arrival" and r.time >= warmup]
        width = duration / batches
        for index in range(batches):
            lo = warmup + index * width
            hi = warmup + (index + 1) * width
            batch = [r for r in all_arrivals if lo <= r.time < hi]
            if batch:
                overall_ratios.append(
                    sum(1 for r in batch if r.outcome == "blocked")
                    / len(batch))
    return ChurnReport(
        seed=seed,
        policy=policy,
        events=len(ledger),
        horizon=horizon,
        warmup=warmup,
        arrivals=total_arrivals,
        admitted=sum(s.admitted for s in per_class),
        blocked=total_blocked,
        blocking=total_blocked / total_arrivals if total_arrivals else 0.0,
        blocking_ci=batch_means(overall_ratios)[1],
        carried_erlangs=left_sum(s.carried_erlangs for s in per_class),
        offered_erlangs=left_sum(s.offered_erlangs for s in per_class),
        per_class=tuple(per_class),
        link_utilization=tuple(link_summary),
        ledger_digest=ledger_digest(ledger),
        journal_digest=journal_digest,
        active_at_end=active_at_end,
    )


def export_report(report: ChurnReport) -> None:
    """Publish a report's headline numbers to the observability layer.

    Sets the ``churn_blocking_probability`` gauge per class and emits
    one ``churn/report`` event on the bus -- the hook the CLI calls so
    ``--metrics-out`` / ``--events-out`` capture churn summaries next
    to the per-event counters.
    """
    registry = _om.get_registry()
    if registry.enabled:
        for stats in report.per_class:
            registry.gauge("churn_blocking_probability",
                           cls=stats.name).set(stats.blocking)
        registry.gauge("churn_carried_erlangs").set(report.carried_erlangs)
    bus = _oe.get_bus()
    if bus.has_subscribers:
        bus.emit("churn", "report", time=report.horizon,
                 policy=report.policy, seed=report.seed,
                 arrivals=report.arrivals, blocked=report.blocked,
                 blocking=report.blocking,
                 carried_erlangs=report.carried_erlangs)
