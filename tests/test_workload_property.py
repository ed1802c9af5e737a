"""Property: churn at arrival rate 0 is a perfect no-op.

The issue's equivalence contract: *any* interleaving of churn machinery
at arrival rate 0 -- whatever the seed, event budget, class mix, pair
set or armed policy -- schedules nothing, fires nothing, and leaves
every switch's state bit-identical to the seed snapshot.  A second
property drives real setup/teardown churn and checks the network
returns to empty after a full drain, with consistent caches.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.admission import NetworkCAC
from repro.core.traffic import cbr
from repro.network.topology import star_network
from repro.workload import ChurnEngine, TrafficClass, make_policy, star_pairs

POLICIES = ["first-path", "k-alternate", "least-loaded"]


def fresh_cac(seed):
    return NetworkCAC(star_network(4, bounds={0: 32}),
                      rng=random.Random(seed))


@st.composite
def zero_rate_classes(draw):
    count = draw(st.integers(min_value=1, max_value=4))
    return [
        TrafficClass(
            f"cls{index}",
            cbr(draw(st.sampled_from([0.05, 0.1, 0.2]))),
            arrival_rate=0.0,
            mean_holding=draw(st.floats(min_value=1.0, max_value=1e4)),
            priority=draw(st.integers(min_value=0, max_value=1)),
        )
        for index in range(count)
    ]


class TestZeroRateNoOp:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        budget=st.integers(min_value=0, max_value=10_000),
        classes=zero_rate_classes(),
        policy=st.sampled_from(POLICIES),
        k=st.integers(min_value=1, max_value=4),
    )
    def test_state_bit_identical_to_seed_snapshot(
            self, seed, budget, classes, policy, k):
        cac = fresh_cac(seed)
        before = {name: (list(switch.legs.values()),
                         list(switch.pending.values()))
                  for name, switch in cac.switches().items()}
        engine = ChurnEngine(
            cac, classes, pairs=star_pairs(cac.network), seed=seed,
            policy=make_policy(policy, k),
        )
        fired = engine.run(max_events=budget)
        assert fired == 0
        assert engine.ledger == []
        assert engine.engine.pending_events == 0
        after = {name: (list(switch.legs.values()),
                        list(switch.pending.values()))
                 for name, switch in cac.switches().items()}
        assert after == before
        assert engine.report().ledger_digest == \
               ChurnEngine(
                   fresh_cac(seed), classes,
                   pairs=star_pairs(cac.network), seed=seed,
               ).report().ledger_digest


class TestChurnDrainsClean:
    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**20),
        budget=st.integers(min_value=1, max_value=120),
        policy=st.sampled_from(POLICIES),
    )
    def test_any_interleaving_drains_to_empty(self, seed, budget, policy):
        cac = fresh_cac(seed)
        engine = ChurnEngine(
            cac,
            [TrafficClass("cbr", cbr(0.1), 0.02, 150.0)],
            pairs=star_pairs(cac.network), seed=seed,
            policy=make_policy(policy, 2),
        )
        engine.run(max_events=budget)
        engine.drain()
        assert cac.established == {}
        for switch in cac.switches().values():
            switch.verify_consistency()
            assert not switch.legs
