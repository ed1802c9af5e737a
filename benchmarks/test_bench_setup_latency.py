"""Admission-plane throughput: engine-driven vs synchronous setups.

* **synchronous setups** -- the blocking :meth:`NetworkCAC.setup` /
  :meth:`NetworkCAC.teardown` cycle, the pre-plane baseline;
* **engine-driven setups** -- the same cycles run as
  :class:`~repro.core.plane.AdmissionPlane` processes at concurrency 1,
  so the difference is the pure cost of event-driven signaling
  (generator suspension + one engine event per wait);
* **plane churn** -- the churn engine in plane mode with a nonzero
  per-hop setup latency and a reservation TTL, the dynamic analogue
  under concurrent in-flight walks.
"""

import random
from fractions import Fraction as F

from repro.core import AdmissionPlane, NetworkCAC
from repro.core.traffic import cbr
from repro.network.connection import ConnectionRequest
from repro.network.routing import shortest_path
from repro.network.topology import line_network
from repro.sim.engine import Engine
from repro.workload import ChurnScenario, run_scenario

CYCLES = 300

CHURN = ChurnScenario(
    topology="dual-ring", nodes=6, bound=48.0, rate=0.15,
    offered_load=4.0, events=800, seed=11, k=2,
    setup_latency=2.0, reservation_ttl=40.0,
)


def _fixture():
    network = line_network(3, bounds={0: 64}, terminals_per_switch=2)
    request = ConnectionRequest(
        "bench", cbr(F(1, 10)), shortest_path(network, "t0.0", "t2.0"))
    return network, request


def test_bench_setup_sync_cycles(once):
    network, request = _fixture()
    cac = NetworkCAC(network, rng=random.Random(0))

    def cycles():
        for _ in range(CYCLES):
            cac.setup(request)
            cac.teardown("bench")
        return cac

    once(cycles)


def test_bench_setup_engine_cycles(once):
    network, request = _fixture()
    cac = NetworkCAC(network, rng=random.Random(0))
    engine = Engine()
    plane = AdmissionPlane(cac, engine)

    def cycles():
        remaining = [CYCLES]

        def launch():
            if remaining[0] == 0:
                return
            remaining[0] -= 1
            plane.submit(request, on_done=lambda outcome: teardown())

        def teardown():
            plane.submit_teardown("bench",
                                  on_done=lambda process: launch())

        launch()
        engine.run()
        assert plane.in_flight == 0
        return plane

    once(cycles)


def test_bench_plane_churn_events_per_sec(once):
    report = once(lambda: run_scenario(CHURN))
    assert report.arrivals > 0
