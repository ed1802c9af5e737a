"""Fault tolerance for the distributed connection setup (Section 4.1/5).

The paper's setup sequence assumes SETUP/REJECT/CONNECTED messages
always arrive and every switch stays up; this package removes that
assumption so partial reservations can never be stranded:

* :mod:`repro.robustness.retry` -- deadline-aware retry schedules with
  exponential backoff and full jitter, driven by an injectable clock so
  tests never sleep;
* :mod:`repro.robustness.faults` -- declarative :class:`FaultPlan`\\ s
  (drop / delay / duplicate a signaling message at hop *k*, crash a
  switch mid-check, fail a link mid-walk) consumed by a
  :class:`FaultInjector` that the signaling channel consults on every
  delivery attempt;
* :mod:`repro.robustness.journal` -- the append-only admit/release
  journal each :class:`~repro.core.switch_cac.SwitchCAC` writes, from
  which :meth:`~repro.core.switch_cac.SwitchCAC.recover` rebuilds a
  crashed switch's caches;
* :mod:`repro.robustness.harness` -- the randomized fault-schedule
  property harness: for seeded schedules it asserts that post-fault
  network state equals a from-scratch replay of only the committed
  connections;
* :mod:`repro.robustness.health` -- the live failure detector: per-link
  and per-switch suspicion state machines fed by observed delivery
  outcomes, with flap damping;
* :mod:`repro.robustness.breaker` -- per-hop circuit breakers that
  fast-fail deliveries into a dead hop and reconcile the switch before
  readmitting traffic;
* :mod:`repro.robustness.migration` -- make-before-break migration
  primitives: policies, the network-level migration journal, and the
  :func:`no_double_booking` safety invariant.

See ``docs/robustness.md`` for the fault model, the two-phase
reserve/commit walk, and the failure-detection/migration layer these
pieces support.
"""

from .breaker import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    BreakerBoard,
    CircuitBreaker,
)
from .faults import (
    CRASH,
    DELAY,
    DROP,
    DUPLICATE,
    FAULT_KINDS,
    LINK_FAIL,
    FaultInjector,
    FaultPlan,
    FaultSpec,
)
from .health import DOWN, SUSPECT, UP, HealthMonitor, TargetHealth
from .journal import AdmissionJournal, JournalEntry
from .migration import (
    DROPPED,
    KEPT,
    MIGRATED,
    POLICIES,
    MigrationJournal,
    MigrationRecord,
    MigrationReport,
    no_double_booking,
)
from .retry import RetryPolicy

#: Harness exports resolved lazily (PEP 562): the harness drives
#: :class:`~repro.core.admission.NetworkCAC`, which itself imports the
#: fault/retry primitives above -- a top-level import here would close
#: an import cycle through :mod:`repro.network.signaling`.
_HARNESS_EXPORTS = (
    "ScheduleReport",
    "random_fault_plan",
    "run_schedule",
    "committed_states_equal",
)


def __getattr__(name: str):
    if name in _HARNESS_EXPORTS:
        from . import harness

        return getattr(harness, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    # retry
    "RetryPolicy",
    # faults
    "DROP",
    "DELAY",
    "DUPLICATE",
    "CRASH",
    "LINK_FAIL",
    "FAULT_KINDS",
    "FaultSpec",
    "FaultPlan",
    "FaultInjector",
    # journal
    "JournalEntry",
    "AdmissionJournal",
    # health
    "UP",
    "SUSPECT",
    "DOWN",
    "TargetHealth",
    "HealthMonitor",
    # breaker
    "CLOSED",
    "OPEN",
    "HALF_OPEN",
    "CircuitBreaker",
    "BreakerBoard",
    # migration
    "MIGRATED",
    "DROPPED",
    "KEPT",
    "POLICIES",
    "MigrationRecord",
    "MigrationJournal",
    "MigrationReport",
    "no_double_booking",
    # harness
    "ScheduleReport",
    "random_fault_plan",
    "run_schedule",
    "committed_states_equal",
]
