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
  connections, and that no switch books a leg the network does not
  account for (:func:`no_double_booking`).

See ``docs/robustness.md`` for the fault model and the two-phase
reserve/commit walk these pieces support.
"""

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
from .journal import AdmissionJournal, JournalEntry
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
    "no_double_booking",
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
    # harness
    "ScheduleReport",
    "random_fault_plan",
    "run_schedule",
    "committed_states_equal",
    "no_double_booking",
]
