"""Watching the CAC work: metrics, span trees and the event bus.

Establishes the Table 1 plant mix on a small ring with observability
enabled, then prints what the instrumentation saw: the per-switch
admission counters, the hop-by-hop span tree of a setup walk, the
unified event stream that signaling messages and journal appends both
flow through, and the Prometheus rendering of the network-level
families.

Run:  python examples/observability_demo.py
"""

from repro import obs
from repro.obs.clock import ManualClock
from repro.obs.export import format_span_tree, to_prometheus
from repro.rtnet.evaluation import establish_workload
from repro.rtnet.workloads import plant_mix_workload


def main() -> None:
    registry, tracer = obs.enable(clock_source=ManualClock())
    events = obs.EventLog()
    try:
        network, established = establish_workload(
            plant_mix_workload(4), ring_nodes=4, terminals_per_node=3)
        print(f"established {len(established)} plant-mix connections "
              f"on a 4-node ring\n")

        print("== per-switch admission counters ==")
        for switch in sorted(network.switches()):
            checks = registry.value("cac_checks_total", switch=switch)
            commits = registry.value("cac_commits_total", switch=switch)
            hits = registry.value("cac_cache_hits_total",
                                  switch=switch, cache="service")
            print(f"  {switch}: checks={checks} commits={commits} "
                  f"cache_hits={hits}")

        print("\n== span tree of the first setup walk ==")
        print(format_span_tree(tracer.roots[0]))

        # A traced teardown routes its RELEASE messages over the same
        # bus the journal already reports to.
        from repro.network.signaling import SignalingTrace
        network.teardown(established[0].name, trace=SignalingTrace())

        print("\n== unified event stream ==")
        for category in ("journal", "signaling"):
            sample = events.of_category(category)
            print(f"  {category}: {len(sample)} events, e.g.")
            for event in sample[:2]:
                fields = {k: v for k, v in event.fields.items()
                          if k in ("connection", "connection_id",
                                   "at_node")}
                print(f"    [{category}] {event.name} {fields}")

        print("\n== Prometheus exposition (network families) ==")
        for line in to_prometheus(registry).splitlines():
            if line.startswith(("network_", "# TYPE network_")):
                print(f"  {line}")

        network.teardown_all()
        print(f"\nafter teardown: network_teardowns_total = "
              f"{registry.total('network_teardowns_total'):g}")
    finally:
        events.close()
        obs.disable()


if __name__ == "__main__":
    main()
