"""Churn throughput and the policy blocking comparison.

* **churn run**: the churn engine driving live two-phase setups and
  teardowns through the dual-ring CAC -- the dynamic-traffic analogue
  of the core-ops microbenches;
* the **policy comparison** at a fixed saturating offered load:
  first-path vs k-alternate blocking over the *same* seeded arrival
  sequence, asserting the crankback policy strictly lowers blocking.
"""

from repro.workload import ChurnScenario, run_scenario

SCENARIO = ChurnScenario(
    topology="dual-ring", nodes=6, bound=48.0, rate=0.15,
    offered_load=4.0, events=800, seed=11, k=2,
)


def test_bench_churn_events_per_sec(once):
    report = once(lambda: run_scenario(SCENARIO))
    assert report.arrivals > 0


def test_bench_churn_policy_comparison(once):
    from dataclasses import replace

    def compare():
        return {
            policy: run_scenario(replace(SCENARIO, policy=policy))
            for policy in ("first-path", "k-alternate")
        }

    reports = once(compare)
    first = reports["first-path"]
    alternate = reports["k-alternate"]
    assert alternate.blocking < first.blocking, (
        f"k-alternate ({alternate.blocking}) must block strictly less "
        f"than first-path ({first.blocking})"
    )
