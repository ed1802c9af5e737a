"""Dynamic traffic: seeded churn, admission policies, blocking analytics.

The paper's evaluation admits *fixed* connection sets; this package
adds the missing dynamic regime -- connections that arrive by seeded
Poisson processes, hold for exponential times and depart, while the CAC
admits or refuses in steady state.  Three pieces:

* :mod:`~repro.workload.churn` -- the deterministic
  :class:`~repro.workload.churn.ChurnEngine` plus the
  :class:`~repro.workload.churn.ChurnScenario` recipe and the
  :func:`~repro.workload.churn.blocking_curve` sweep over it;
* :mod:`~repro.workload.policies` -- pluggable route-selection
  strategies (first-path, k-alternate crankback, least-loaded);
* :mod:`~repro.workload.stats` -- blocking probability, carried vs
  offered load and link-utilization analytics with batch-means
  confidence intervals.

See ``docs/architecture.md`` ("Dynamic workloads") for how the pieces
compose with the admission plane.
"""

from .churn import (
    BlockingPoint,
    ChurnEngine,
    ChurnRecord,
    ChurnScenario,
    TrafficClass,
    blocking_curve,
    opposite_pairs,
    run_scenario,
    star_pairs,
)
from .policies import (
    POLICY_NAMES,
    AdmissionPolicy,
    FirstPathPolicy,
    KAlternatePolicy,
    LeastLoadedPolicy,
    make_policy,
    route_load,
)
from .stats import (
    ChurnReport,
    ClassStats,
    batch_means,
    export_report,
    journal_digest_of,
    ledger_digest,
    summarize,
    utilization_timeline,
)

__all__ = [
    "ChurnEngine",
    "ChurnRecord",
    "ChurnScenario",
    "TrafficClass",
    "BlockingPoint",
    "blocking_curve",
    "run_scenario",
    "star_pairs",
    "opposite_pairs",
    "AdmissionPolicy",
    "FirstPathPolicy",
    "KAlternatePolicy",
    "LeastLoadedPolicy",
    "POLICY_NAMES",
    "make_policy",
    "route_load",
    "ChurnReport",
    "ClassStats",
    "batch_means",
    "export_report",
    "journal_digest_of",
    "ledger_digest",
    "summarize",
    "utilization_timeline",
]
