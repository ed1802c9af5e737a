"""RingAnalysis correctness and the figure drivers (Section 5)."""

import hashlib
import math
from dataclasses import astuple, is_dataclass
from fractions import Fraction as F

import pytest

from repro.core.traffic import cbr
from repro.exceptions import AdmissionError, TrafficModelError
from repro.rtnet import (
    RingAnalysis,
    asymmetric_capacity_curve,
    asymmetric_workload,
    broadcast_route,
    establish_workload,
    failover_capacity,
    failover_capacity_curve,
    priority_capacity_curve,
    ring_node,
    soft_hard_capacity_curve,
    symmetric_delay_curve,
    symmetric_workload,
    vbr_capacity_curve,
)


class TestRingAnalysisAgainstFullCac:
    """The direct path must match the procedural CAC machinery exactly."""

    @pytest.mark.parametrize("ring_nodes,terminals,load", [
        (4, 1, 0.5),
        (5, 2, 0.4),
        (3, 3, 0.6),
    ])
    def test_symmetric_link_bounds_match(self, ring_nodes, terminals, load):
        workload = symmetric_workload(load, ring_nodes, terminals)
        analysis = RingAnalysis(workload, ring_nodes)
        cac, _est = establish_workload(workload, ring_nodes, terminals)
        for k in range(ring_nodes):
            link = f"ring{k}->ring{(k + 1) % ring_nodes}"
            direct = float(analysis.link_bound(k, 0))
            procedural = float(
                cac.switch(ring_node(k)).computed_bound(link, 0))
            assert direct == pytest.approx(procedural, abs=1e-9)

    def test_symmetric_e2e_bounds_match(self):
        workload = symmetric_workload(0.45, 5, 2)
        analysis = RingAnalysis(workload, 5)
        cac, _est = establish_workload(workload, 5, 2)
        for node in range(5):
            route = broadcast_route(cac.network, node, 0)
            assert float(analysis.e2e_bound(node, 0)) == pytest.approx(
                float(cac.computed_e2e_bound(route, 0)), abs=1e-9)

    def test_asymmetric_bounds_match(self):
        workload = asymmetric_workload(0.4, 0.5, 4, 2)
        analysis = RingAnalysis(workload, 4)
        cac, _est = establish_workload(workload, 4, 2)
        for k in range(4):
            link = f"ring{k}->ring{(k + 1) % 4}"
            assert float(analysis.link_bound(k, 0)) == pytest.approx(
                float(cac.switch(ring_node(k)).computed_bound(link, 0)),
                abs=1e-9)

    def test_soft_policy_matches(self):
        workload = symmetric_workload(0.4, 4, 2)
        analysis = RingAnalysis(workload, 4, cdv_policy="soft")
        cac, _est = establish_workload(workload, 4, 2, cdv_policy="soft")
        link = "ring0->ring1"
        assert float(analysis.link_bound(0, 0)) == pytest.approx(
            float(cac.switch("ring0").computed_bound(link, 0)), abs=1e-9)


class TestRingAnalysisStructure:
    def test_symmetric_links_identical(self):
        analysis = RingAnalysis(symmetric_workload(0.5, 6, 2), 6)
        bounds = analysis.all_link_bounds(0)
        assert all(b == pytest.approx(bounds[0]) for b in bounds)

    def test_bounds_grow_with_load(self):
        low = RingAnalysis(symmetric_workload(0.2, 6, 2), 6)
        high = RingAnalysis(symmetric_workload(0.6, 6, 2), 6)
        assert high.worst_link_bound(0) > low.worst_link_bound(0)

    def test_bounds_grow_with_burstiness(self):
        """More terminals per node (same load) means burstier nodes."""
        smooth = RingAnalysis(symmetric_workload(0.4, 6, 1), 6)
        bursty = RingAnalysis(symmetric_workload(0.4, 6, 8), 6)
        assert bursty.worst_link_bound(0) > smooth.worst_link_bound(0)

    def test_soft_bounds_below_hard(self):
        workload = symmetric_workload(0.5, 6, 4)
        hard = RingAnalysis(workload, 6, cdv_policy="hard")
        soft = RingAnalysis(workload, 6, cdv_policy="soft")
        assert soft.worst_link_bound(0) <= hard.worst_link_bound(0)

    def test_e2e_is_sum_of_route_links(self):
        analysis = RingAnalysis(asymmetric_workload(0.4, 0.6, 5, 1), 5)
        expected = sum(analysis.link_bound((2 + j) % 5, 0)
                       for j in range(4))
        assert analysis.e2e_bound(2, 0) == expected

    def test_missing_priority_bound_rejected(self):
        workload = symmetric_workload(0.4, 4, 1, priority=2)
        with pytest.raises(ValueError, match="priority 2"):
            RingAnalysis(workload, 4, node_bound={0: 32})

    def test_feasible_checks_queue_and_deadline(self):
        analysis = RingAnalysis(symmetric_workload(0.3, 4, 1), 4)
        assert analysis.feasible()
        assert not analysis.feasible(queue_bounds={0: 1e-6})
        assert not analysis.feasible(e2e_requirements={0: 1e-6})

    def test_interference_empty_for_single_priority(self):
        analysis = RingAnalysis(symmetric_workload(0.3, 4, 1), 4)
        assert analysis.interference_stream(0, 0).is_zero

    def test_two_priority_interference(self):
        workload = asymmetric_workload(
            0.4, 0.5, 4, 2, hot_priority=0, other_priority=1)
        analysis = RingAnalysis(workload, 4, node_bound={0: 32, 1: 128})
        assert not analysis.interference_stream(1, 1).is_zero
        assert analysis.link_bound(1, 1) >= analysis.link_bound(1, 0)

    @pytest.mark.parametrize("workload,ring_nodes,node", [
        (symmetric_workload(0.4, 16, 1), 8, 8),
        ({(-1, 0): (cbr(0.05), 0)}, 4, -1),
    ], ids=["16-node-workload-on-8", "negative-node"])
    def test_out_of_range_node_rejected(self, workload, ring_nodes, node):
        """A node outside the ring is refused, not folded onto it."""
        with pytest.raises(TrafficModelError, match=(
                f"node {node} outside the {ring_nodes}-node ring")):
            RingAnalysis(workload, ring_nodes)


def _mixed_ring(float_first: bool):
    """Equal rates as a float and as a Fraction on one 4-node ring."""
    terminals = [((0, 0), cbr(F(1, 4))), ((1, 0), cbr(0.25)),
                 ((2, 0), cbr(F(1, 7)))]
    if float_first:
        terminals.insert(0, terminals.pop(1))
    analysis = RingAnalysis(
        {terminal: (params, 0) for terminal, params in terminals}, 4)
    return analysis.all_link_bounds(0) + [
        analysis.e2e_bound(node, 0) for node in range(4)]


def _two_priority_backlog():
    workload = asymmetric_workload(
        0.5, 0.5, 8, 4, hot_priority=1, other_priority=0)
    analysis = RingAnalysis(workload, 8, node_bound={0: 32, 1: 128})
    return [analysis.worst_link_backlog(0), analysis.worst_link_backlog(1),
            *analysis.all_link_bounds(0), *analysis.all_link_bounds(1)]


def _flat(rows):
    """Curve rows (tuples or point dataclasses) as one list of numbers."""
    return [value for row in rows
            for value in (astuple(row) if is_dataclass(row) else row)]


#: Short runs of every RingAnalysis path, each flattened to numbers.
GOLDEN_CASES = {
    "fig10-n16": lambda: _flat(symmetric_delay_curve(
        [0.05, 0.35, 0.6, 0.95], terminals_per_node=16)),
    "fig11-asymmetric": lambda: _flat(asymmetric_capacity_curve(
        [0.0, 0.5, 0.9], terminals_per_node=4, ring_nodes=8,
        tolerance=1 / 32)),
    "fig12-two-priorities": lambda: _flat(priority_capacity_curve(
        [0.5, 0.9], terminals_per_node=8, ring_nodes=8, tolerance=1 / 32)),
    "fig13-soft-cdv": lambda: _flat(soft_hard_capacity_curve(
        [0.0, 0.5], terminals_per_node=8, ring_nodes=8, tolerance=1 / 32)),
    "vbr": lambda: _flat(vbr_capacity_curve(
        [1, 16], ring_nodes=8, tolerance=1 / 32)),
    "failover-wrapped": lambda: _flat(failover_capacity_curve(
        [1, 4], ring_nodes=6, tolerance=1 / 32)),
    "backlog-two-priorities": _two_priority_backlog,
    "mixed-exact-first": lambda: _mixed_ring(float_first=False),
    "mixed-float-first": lambda: _mixed_ring(float_first=True),
}

#: SHA-256 of each case's values as computed with one envelope per
#: (link, terminal) pair; shared envelopes must reproduce them bit for bit.
GOLDEN_DIGESTS = {
    "backlog-two-priorities":
        "fe3b2324702b4d09a513e68a35599e1f96beca830db68868d55a0ce7cb49ed95",
    "failover-wrapped":
        "79282ebca743ca3e279e1f6d3dcfe0495acc54265bbcc1d4d3bacc9908428277",
    "fig10-n16":
        "1db6d7986bd4161da6d3c21aaceef82137b05293ea0d536c63d5ff8a1206e81f",
    "fig11-asymmetric":
        "5a3a307bfb5af08554018a5403fbc258cb7d2adb46be141896429126d7de7030",
    "fig12-two-priorities":
        "755baf43ed347e6098bfdec733323cdeb65b7c9639df1e38791445e40d3eff8d",
    "fig13-soft-cdv":
        "94aad804d7dd488a5ab35f8e6f8819b05873162b61d1328a370cd0e8bc1b4b74",
    "mixed-exact-first":
        "4c31c30cf7116c90a513dc6385173daff567932a2fc097fbaeddaed2359baeff",
    "mixed-float-first":
        "4c31c30cf7116c90a513dc6385173daff567932a2fc097fbaeddaed2359baeff",
    "vbr":
        "5675f76896cb8b91625a81efd5b92c60d1fa6f62af52ad45a5b3378ea06e4c11",
}


def _golden_digest(values) -> str:
    """Hash floats by ``float.hex`` and exact values by ``repr``."""
    text = "\n".join(value.hex() if isinstance(value, float) else repr(value)
                     for value in values)
    return hashlib.sha256(text.encode()).hexdigest()


class TestRingAnalysisGolden:
    """Every RingAnalysis path keeps its floats, bit for bit."""

    @pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
    def test_values_match_recorded_digest(self, case):
        assert _golden_digest(GOLDEN_CASES[case]()) == GOLDEN_DIGESTS[case]


class TestFigure10Driver:
    def test_paper_headline_n1(self):
        """N=1: 75% load supported within the 1 ms (370 cell) bound."""
        points = symmetric_delay_curve([0.75], terminals_per_node=1)
        assert points[0].admissible
        assert points[0].delay_bound <= 370

    def test_paper_headline_n16(self):
        """N=16: about 35% supported with a bound near 370 cells."""
        points = symmetric_delay_curve([0.35], terminals_per_node=16)
        assert points[0].admissible
        assert points[0].delay_bound == pytest.approx(370, rel=0.1)

    def test_monotone_in_load(self):
        loads = [0.1, 0.3, 0.5, 0.7]
        points = symmetric_delay_curve(loads, terminals_per_node=4)
        delays = [p.delay_bound for p in points]
        assert delays == sorted(delays)

    def test_monotone_in_terminals(self):
        at_load = lambda n: symmetric_delay_curve(
            [0.4], terminals_per_node=n)[0].delay_bound
        assert at_load(1) <= at_load(4) <= at_load(16)

    def test_inadmissible_at_extreme_load(self):
        points = symmetric_delay_curve([0.99], terminals_per_node=16)
        assert not points[0].admissible


class TestFigure11Driver:
    def test_capacity_decreases_with_asymmetry(self):
        # At the paper's 16-node scale the end-to-end deadline binds and
        # concentrating load on one terminal costs capacity (shorter
        # rings can invert this: a single hot stream is smoothed by its
        # own access link).
        points = asymmetric_capacity_curve(
            [0.0, 0.4, 0.8], terminals_per_node=4,
            ring_nodes=16, tolerance=1 / 32)
        loads = [p.max_load for p in points]
        assert loads[0] >= loads[1] >= loads[2]

    def test_capacity_decreases_with_terminals(self):
        small = asymmetric_capacity_curve(
            [0.5], terminals_per_node=1, ring_nodes=8,
            tolerance=1 / 32)[0].max_load
        large = asymmetric_capacity_curve(
            [0.5], terminals_per_node=8, ring_nodes=8,
            tolerance=1 / 32)[0].max_load
        assert large <= small


class TestFigure12Driver:
    def test_two_priorities_never_worse(self):
        rows = priority_capacity_curve(
            [0.0, 0.5, 0.9], terminals_per_node=4,
            ring_nodes=8, tolerance=1 / 32)
        for _p, single, dual in rows:
            assert dual >= single

    def test_gap_appears_at_high_asymmetry(self):
        rows = priority_capacity_curve(
            [0.9], terminals_per_node=8, ring_nodes=8, tolerance=1 / 32)
        _p, single, dual = rows[0]
        assert dual > single


class TestFigure13Driver:
    def test_soft_never_worse(self):
        rows = soft_hard_capacity_curve(
            [0.0, 0.5, 0.9], terminals_per_node=4,
            ring_nodes=8, tolerance=1 / 32)
        for _p, hard, soft in rows:
            assert soft >= hard

    def test_soft_strictly_better_somewhere(self):
        rows = soft_hard_capacity_curve(
            [0.0], terminals_per_node=8, ring_nodes=8, tolerance=1 / 64)
        _p, hard, soft = rows[0]
        assert soft > hard


@pytest.mark.parametrize("build,args,kwargs", [
    pytest.param(asymmetric_capacity_curve, ([1.5], 1), {"ring_nodes": 4},
                 id="fig11-fraction-above-1"),
    pytest.param(priority_capacity_curve, ([-0.5], 1), {"ring_nodes": 4},
                 id="fig12-negative-fraction"),
    pytest.param(asymmetric_capacity_curve, ([0.5], 0), {"ring_nodes": 4},
                 id="fig11-no-terminals"),
    pytest.param(soft_hard_capacity_curve, ([0.5], 0), {"ring_nodes": 4},
                 id="fig13-no-terminals"),
    pytest.param(vbr_capacity_curve, ([0],), {"ring_nodes": 4},
                 id="vbr-mbs-0"),
    pytest.param(vbr_capacity_curve, ([1],), {"ring_nodes": 0},
                 id="vbr-no-ring-nodes"),
    pytest.param(symmetric_delay_curve, ([0.5], 0), {},
                 id="fig10-no-terminals"),
    pytest.param(failover_capacity, (0,), {}, id="failover-no-terminals"),
    pytest.param(asymmetric_workload, (0.5, 0.9, 4, 1), {"hot_node": 7},
                 id="hot-terminal-off-the-ring"),
])
def test_invalid_size_or_fraction_raises(build, args, kwargs):
    """Bad input is an error, never a capacity number."""
    with pytest.raises(TrafficModelError):
        build(*args, **kwargs)


class TestEstablishWorkload:
    def test_infeasible_workload_raises(self):
        workload = symmetric_workload(0.99, 8, 8)
        with pytest.raises(AdmissionError):
            establish_workload(workload, 8, 8)

    def test_all_terminals_established(self):
        workload = symmetric_workload(0.3, 4, 2)
        cac, established = establish_workload(workload, 4, 2)
        assert len(established) == 8
        assert len(cac.established) == 8
