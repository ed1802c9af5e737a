"""Admission fast path: screen resolution, identity, and plane speedup.

Three records go into ``BENCH_core_ops.json`` under ``"fast_path"``:

* **screen** -- how the headroom screen resolved the churn mix
  (accepted / rejected without touching Algorithm 4.1, vs exact
  fallthroughs) and the resulting hit rate (acceptance floor: 70%);
* **identity** -- the screened and exact runs' ledger digests (must be
  byte-identical: the fast path may only move the wall clock) plus the
  count of exact ``delay_bound`` evaluations each run performed;
* **plane_churn** -- events/sec of the plane-mode churn scenario with
  the fast path on and off, measured interleaved in the same process
  (best of three each), and their ratio (gate: >= 1.1x).  Comparing
  against the exact path on the same host keeps the gate meaningful on
  any machine.
"""

import time
from dataclasses import replace

import pytest

from repro.workload import ChurnScenario, run_scenario

#: Filled by the benches, dumped into the artifact by the conftest hook.
RESULTS = {}

SCENARIO = ChurnScenario(
    topology="dual-ring", nodes=6, bound=48.0, rate=0.15,
    offered_load=4.0, events=800, seed=11, k=2,
)

PLANE_SCENARIO = replace(SCENARIO, setup_latency=2.0, reservation_ttl=40.0)

#: Minimum screened/exact events-per-second ratio on plane churn.
MIN_FAST_PATH_SPEEDUP = 1.1


def _counter_totals(name, label):
    """Sum a counter family by one label across the live registry."""
    from repro import obs

    registry = obs.get_registry()
    totals = {}
    if not registry.enabled:
        return totals
    for family, _kind, instruments in registry.families():
        if family != name:
            continue
        for instrument in instruments:
            key = dict(instrument.labels).get(label, "?")
            totals[key] = totals.get(key, 0) + instrument.value
    return totals


def _delta(after, before):
    return {key: after[key] - before.get(key, 0) for key in after
            if after[key] - before.get(key, 0)}


def test_bench_fast_path_screen_rate(once):
    before = _counter_totals("cac_screen_total", "outcome")
    report = once(lambda: run_scenario(replace(SCENARIO, fast_path=True)))
    outcomes = _delta(_counter_totals("cac_screen_total", "outcome"), before)
    if not outcomes:
        pytest.skip("observability disabled; no screen counters to read")
    resolved = outcomes.get("accept", 0) + outcomes.get("reject", 0)
    total = resolved + outcomes.get("exact", 0)
    hit_rate = resolved / total
    RESULTS["screen"] = {
        "events": SCENARIO.events,
        "seed": SCENARIO.seed,
        "outcomes": outcomes,
        "hit_rate": round(hit_rate, 4),
        "arrivals": report.arrivals,
    }
    assert hit_rate >= 0.70, (
        f"screen resolved only {hit_rate:.1%} of checks ({outcomes}); "
        f"the acceptance floor is 70%"
    )


def test_bench_fast_path_identity_and_exact_call_reduction(once):
    def run_both():
        runs = {}
        for label, fast in (("exact", False), ("screened", True)):
            before = _counter_totals("kernel_path_total", "op")
            report = run_scenario(replace(SCENARIO, fast_path=fast))
            paths = _delta(_counter_totals("kernel_path_total", "op"),
                           before)
            runs[label] = (report, paths.get("delay_bound", 0))
        return runs

    runs = once(run_both)
    exact_report, exact_calls = runs["exact"]
    screened_report, screened_calls = runs["screened"]
    RESULTS["identity"] = {
        "events": SCENARIO.events,
        "seed": SCENARIO.seed,
        "ledger_digest_exact": exact_report.ledger_digest,
        "ledger_digest_screened": screened_report.ledger_digest,
        "delay_bound_calls_exact": exact_calls,
        "delay_bound_calls_screened": screened_calls,
        "exact_call_reduction": (
            round(1 - screened_calls / exact_calls, 4) if exact_calls else None
        ),
    }
    assert screened_report.ledger_digest == exact_report.ledger_digest, (
        "the screened run must commit the exact same ledger state"
    )
    assert screened_report.blocking == exact_report.blocking
    if exact_calls:
        assert screened_calls < exact_calls, (
            "the screen resolved nothing; every check still ran "
            "Algorithm 4.1"
        )


def test_bench_fast_path_plane_churn_speedup(once):
    def interleaved_best_of_three():
        best = {}
        for _ in range(3):
            for fast in (False, True):
                start = time.perf_counter()
                result = run_scenario(replace(PLANE_SCENARIO,
                                              fast_path=fast))
                wall = time.perf_counter() - start
                if fast not in best or wall < best[fast][0]:
                    best[fast] = (wall, result)
        return best

    best = once(interleaved_best_of_three)
    (exact_wall, exact_report), (wall, report) = best[False], best[True]
    assert report.ledger_digest == exact_report.ledger_digest
    exact_rate = PLANE_SCENARIO.events / exact_wall
    events_per_sec = PLANE_SCENARIO.events / wall
    speedup = events_per_sec / exact_rate
    RESULTS["plane_churn"] = {
        "events": PLANE_SCENARIO.events,
        "setup_latency": PLANE_SCENARIO.setup_latency,
        "reservation_ttl": PLANE_SCENARIO.reservation_ttl,
        "repeats": 3,
        "wall_s": round(wall, 4),
        "events_per_sec": round(events_per_sec, 1),
        "exact_events_per_sec": round(exact_rate, 1),
        "speedup_vs_exact": round(speedup, 2),
        "arrivals": report.arrivals,
    }
    assert speedup >= MIN_FAST_PATH_SPEEDUP, (
        f"plane churn ran at {events_per_sec:.1f} events/s with the fast "
        f"path -- only {speedup:.2f}x the {exact_rate:.1f} events/s of "
        f"the exact path"
    )
