"""The benchmark's four workloads, built on the public ``repro`` API.

Each workload is a closed loop with one client that runs as fast as the
host allows: churn arrivals are Poisson in *simulated* time, so the
generator can never fall behind, and every input comes from ``seed``.

* ``churn-cbr`` -- CBR churn on a 6-node dual ring at offered load 4.0
  with 2-alternate crankback.  Read-heavy: about 40% of arrivals are
  refused and most checks are decided by the ``(sigma, rho)`` screen.
* ``plane-churn`` -- the same traffic through the event-driven admission
  plane (setup latency 2, reservation TTL 40): every hop exchange
  becomes an engine event, isolating ``sim.engine``, ``core.plane`` and
  ``network.signaling``.
* ``vbr-2prio`` -- two VBR classes on two priorities.  Write-heavy:
  about 10% blocking, so most checks reserve, commit and later release,
  and the screen decides few checks, sending the rest (twice, with the
  lower-priority re-check) to exact ``delay_bound``.
* ``fig10-sweep`` -- the paper's Figure 10 sweep.  It touches only
  ``rtnet.evaluation``, ``bitstream`` and ``delay_bound``: the control
  workload on which switch, engine and signaling changes must not move.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import replace
from typing import Callable, Dict, Optional

from repro.core.admission import NetworkCAC
from repro.core.traffic import VBRParameters
from repro.rtnet import RING_NODES, build_rtnet, symmetric_delay_curve
from repro.workload import (
    ChurnEngine,
    ChurnScenario,
    TrafficClass,
    ledger_digest,
    make_policy,
    opposite_pairs,
)

CHURN = ("churn-cbr", "plane-churn", "vbr-2prio")

CBR = ChurnScenario(
    topology="dual-ring", nodes=6, bound=48.0, rate=0.15,
    offered_load=4.0, mean_holding=400.0, policy="k-alternate", k=2,
)
PLANE = replace(CBR, setup_latency=2.0, reservation_ttl=40.0)

#: Figure 10: total loads B and terminals per ring node N.
TERMINALS = (1, 4, 8, 16)
#: The headline loads come first, so a shortened sweep still checks them.
LOADS = (0.75, 0.35) + tuple(
    load for load in (round(0.05 * step, 2) for step in range(1, 20))
    if load not in (0.75, 0.35))
#: The paper's headline: both points just under 1 ms = 370 cell times.
HEADLINE_BOUND = 370.0


class Churn:
    """One churn run: a :class:`ChurnEngine` over a fresh network."""

    def __init__(self, name: str, seed: int, events: int):
        self.events = events
        if name == "vbr-2prio":
            network = build_rtnet(6, 2, bounds={0: 32.0, 1: 96.0},
                                  dual_ring=True)
            self.cac = NetworkCAC(network, rng=random.Random(seed))
            classes = [
                _vbr_class("ctl", VBRParameters(pcr=0.4, scr=0.04, mbs=8),
                           priority=0, load=0.3),
                _vbr_class("bulk", VBRParameters(pcr=0.5, scr=0.08, mbs=24),
                           priority=1, load=0.8),
            ]
            self.engine = ChurnEngine(
                self.cac, classes, pairs=opposite_pairs(6, 2), seed=seed,
                policy=make_policy("k-alternate", 2))
            return
        scenario = replace(PLANE if name == "plane-churn" else CBR, seed=seed)
        network = scenario.build_network()
        self.cac = NetworkCAC(network, rng=random.Random(seed),
                              hop_latency=scenario.setup_latency)
        self.engine = ChurnEngine(
            self.cac, [scenario.traffic_class()],
            pairs=scenario.build_pairs(network), seed=seed,
            policy=make_policy(scenario.policy, scenario.k),
            setup_latency=scenario.setup_latency,
            reservation_ttl=scenario.reservation_ttl,
        )

    def run(self) -> None:
        self.engine.run(max_events=self.events)

    @property
    def done(self) -> int:
        """Churn events fired so far (the throughput numerator)."""
        return self.engine.events_fired

    def digest(self) -> str:
        return ledger_digest(self.engine.ledger)

    def outcome(self) -> Dict[str, float]:
        """All arrivals, the blocking after the 10% warm-up (as the CLI
        reports it) and the engine events processed."""
        report = self.engine.report(warmup=self.engine.now * 0.1)
        return {
            "arrivals": sum(1 for row in self.engine.ledger
                            if row.kind == "arrival"),
            "reject_ratio": report.blocking,
            "engine_events": self.engine.engine.events_processed,
        }

    def checks(self) -> Dict[str, bool]:
        switches = self.cac.switches().values()
        return {
            # Incremental caches agree with a from-scratch rebuild.
            "consistency": all(s.verify_consistency() for s in switches),
            # The promise: every admitted hop, and every port as it
            # stands now, meets its advertised bound.
            "admitted_bounds": all(
                hop.computed_bound <= hop.advertised_bound
                for connection in self.cac.established.values()
                for hop in connection.hops) and all(
                s.computed_bound(link, p) <= s.advertised_bound(link, p)
                for s in switches for link in s.out_links()
                for p in s.priorities(link)),
            # No walk left a reservation behind.
            "no_pending": not any(s.pending for s in switches),
        }


def _vbr_class(name: str, traffic: VBRParameters, priority: int,
               load: float) -> TrafficClass:
    """A class offering ``load`` normalized bandwidth (holding 400)."""
    holding = 400.0
    return TrafficClass(name, traffic,
                        arrival_rate=load / (traffic.scr * holding),
                        mean_holding=holding, priority=priority)


class Fig10:
    """The Figure 10 sweep, evaluated one row (one load B, all N) at a time.

    Its work items are the broadcast connections the points decide:
    ``RING_NODES * N`` per point, so a point's time per item does not
    depend on N the way the point's own time does.
    """

    def __init__(self, rows: int):
        self.loads = sorted(LOADS[:rows])
        self.points: Dict[tuple, object] = {}
        self.done = 0

    def run(self, on_point: Optional[Callable[[], None]] = None) -> None:
        for load in self.loads:
            for count in TERMINALS:
                (point,) = symmetric_delay_curve([load],
                                                 terminals_per_node=count)
                self.points[count, load] = point
                self.done += RING_NODES * count
                if on_point is not None:
                    on_point()

    def digest(self) -> str:
        hasher = hashlib.sha256()
        for (count, load), point in sorted(self.points.items()):
            hasher.update(repr((count, load, float(point.delay_bound).hex(),
                                point.admissible)).encode())
        return hasher.hexdigest()

    def outcome(self) -> Dict[str, float]:
        refused = sum(1 for p in self.points.values() if not p.admissible)
        return {"arrivals": len(self.points),
                "reject_ratio": refused / len(self.points),
                "engine_events": 0}

    def checks(self) -> Dict[str, bool]:
        n1 = self.points.get((1, 0.75))
        n16 = self.points.get((16, 0.35))
        return {"headline": (
            n1 is not None and n1.admissible
            and n1.delay_bound <= HEADLINE_BOUND
            and n16 is not None and n16.admissible
            and abs(n16.delay_bound - HEADLINE_BOUND) / HEADLINE_BOUND < 0.1)}


def build(name: str, seed: int, size: int):
    """Workload ``name`` of ``size`` churn events or Figure 10 rows."""
    if name == "fig10-sweep":
        return Fig10(size)  # no randomness: the seed is ignored
    if name not in CHURN:
        raise ValueError(f"unknown workload {name!r}")
    return Churn(name, seed, size)

