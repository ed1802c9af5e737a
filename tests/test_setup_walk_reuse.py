"""One setup walk builds each stream once.

Three reuses, each counted at the call it saves: a reserve after an
exact check installs the check's what-if aggregates, routes are
enumerated once per topology, and each hop's Step 1 stream is built
once per descriptor and CDV.  A fourth keeps the float write path in
kernel form: filtering, clumping and adding to an empty slot no longer
build their results through the scalar constructor.  The bit-identity
of all four is pinned elsewhere (the float recovery test, the
ring-analysis goldens, the kernel-route properties and the benchmark
digests); these tests pin the saving itself.

A fifth is each switch's per-input step memo: ``Sia +/- S`` and its
filter are computed once per exact pair of operands.  Its tests pin
that it is exact (operands equal under ``==`` but not type for type
get their own entries), bounded, dropped by a crash, and that it saves
what it claims; a property compares it with the memo-free chain.
"""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import BitStream, NetworkCAC, SwitchCAC, ZERO_STREAM, cbr
from repro.core import bitstream
from repro.core.admission import _STREAM_MEMO_SIZE
from repro.core.port_state import _STEP_MEMO_SIZE, _Aggregate
from repro.core.traffic import VBRParameters
from repro.network import ConnectionRequest
from repro.network.routing import alternate_paths
from repro.network.topology import Network, line_network
from repro.rtnet import build_rtnet
from repro.workload import (
    ChurnEngine,
    TrafficClass,
    make_policy,
    opposite_pairs,
)

from .test_properties_kernels import (
    ROUTE_EXAMPLES,
    assert_route_identity,
    mixed_streams,
)


def count_calls(monkeypatch, owner, name):
    """Replace ``owner.name`` with a wrapper that counts its calls."""
    calls = []
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def test_exact_reserve_installs_the_checks_streams(monkeypatch):
    """The check patches both sums once; the reserve patches neither."""
    switch = SwitchCAC("sw")
    switch.configure_link("out", {0: 64, 1: 128})
    switch.admit("low", "in-a", "out", 1, cbr(F(1, 8)).worst_case_stream())
    patched = count_calls(monkeypatch, BitStream, "patched")
    switch.reserve("vc", "in-b", "out", 0, cbr(F(1, 6)).worst_case_stream())
    assert len(patched) == 2
    assert switch.verify_consistency()


def installed(switch):
    """Every port's per-input ``Sia``/``Sif`` and sums, both instances."""
    streams = []
    for link in switch.out_links():
        for priority in switch.priorities(link):
            port = switch.port(link, priority)
            for instance in (port.own, port.higher):
                for in_link in sorted(instance.sia):
                    streams += instance.sia[in_link], instance.sif[in_link]
                streams.append(instance.total)
    return streams


@pytest.mark.parametrize("between", ["release", "admit"])
@pytest.mark.parametrize("bounds", [{0: 64.0}, {0: 64.0, 1: 128.0}],
                         ids=["one-priority", "two-priorities"])
def test_a_stale_what_if_is_never_installed(bounds, between):
    """``check(s1)``, then another leg on the same in-link and port
    leaves or arrives (with the very same stream object, as the hop
    stream memo hands out), then ``reserve(s1)``: the reserve installs
    what a twin that never ran the check installs, type for type."""
    s1 = cbr(0.125).worst_case_stream().delayed(8.0)

    def loaded():
        switch = SwitchCAC("sw")
        switch.configure_link("out", bounds)
        switch.admit("old", "in", "out", 0,
                     cbr(0.1).worst_case_stream().delayed(4.0))
        if 1 in bounds:
            switch.admit("low", "in", "out", 1,
                         cbr(0.05).worst_case_stream())
        return switch

    def finish(switch):
        if between == "release":
            switch.release("old")
        else:
            switch.admit("other", "in", "out", 0, s1)
        switch.reserve("vc", "in", "out", 0, s1)
        return installed(switch)

    switch, twin = loaded(), loaded()
    assert switch.check("in", "out", 0, s1).admitted
    streams, expected = finish(switch), finish(twin)
    assert len(streams) == len(expected)
    for stream, reference in zip(streams, expected):
        assert_route_identity(stream, reference)
    assert switch.verify_consistency()


def test_repeated_setups_build_routes_and_hop_streams_once(monkeypatch):
    """20 walks of one 4-hop dual-ring route: one route search, and one
    clumped stream per upstream CDV."""
    net = build_rtnet(6, 2, bounds={0: 32}, dual_ring=True)
    cac = NetworkCAC(net)
    delayed = count_calls(monkeypatch, BitStream, "delayed")
    out_links = count_calls(monkeypatch, Network, "out_links")
    for index in range(20):
        route = alternate_paths(net, "term0.0", "term3.0", k=2)[0]
        assert len(route.hops()) == 4
        cac.setup(ConnectionRequest(f"vc{index}", cbr(0.05), route))
        cac.teardown(f"vc{index}")
    assert [args[1] for args in delayed] == [0, 32, 64, 96]
    assert len(out_links) == 10


def test_hop_stream_memo_is_bounded():
    """Callers may send any number of descriptors; the memo stays small
    and keeps answering correctly after it starts over."""
    net = line_network(2, bounds={0: 32}, terminals_per_switch=1)
    cac = NetworkCAC(net)
    route = alternate_paths(net, "t0.0", "t1.0", k=1)[0]
    for denominator in range(2, _STREAM_MEMO_SIZE + 10):
        traffic = cbr(F(1, denominator))
        stream = cac.arrival_stream(
            ConnectionRequest("vc", traffic, route), 1)
        assert stream == traffic.worst_case_stream().delayed(32)
        assert len(cac._hop_streams) <= _STREAM_MEMO_SIZE


def run_vbr_2prio(events):
    """A seeded two-priority VBR churn run (the vbr-2prio benchmark
    traffic); returns its :class:`NetworkCAC`."""
    network = build_rtnet(6, 2, bounds={0: 32.0, 1: 96.0}, dual_ring=True)
    classes = [
        TrafficClass(name, traffic, arrival_rate=load / (traffic.scr * 400),
                     mean_holding=400.0, priority=priority)
        for name, traffic, priority, load in (
            ("ctl", VBRParameters(pcr=0.4, scr=0.04, mbs=8), 0, 0.3),
            ("bulk", VBRParameters(pcr=0.5, scr=0.08, mbs=24), 1, 0.8))]
    cac = NetworkCAC(network, rng=random.Random(11))
    ChurnEngine(cac, classes, pairs=opposite_pairs(6, 2), seed=11,
                policy=make_policy("k-alternate", 2)).run(max_events=events)
    return cac


def scalar_builds(monkeypatch, events):
    """Scalar ``BitStream.__init__`` and ``_merge`` calls of a seeded
    vbr-2prio run."""
    inits = count_calls(monkeypatch, BitStream, "__init__")
    merges = count_calls(monkeypatch, bitstream, "_merge")
    run_vbr_2prio(events)
    count = len(inits) + len(merges)
    monkeypatch.undo()
    return count


def test_float_write_path_stays_in_kernel_form(monkeypatch):
    """Scalar constructions are a constant of the topology: what is left
    is the first input on each port's sum (the kernel merge would turn
    the sum's ints into floats) and the few memoized hop streams."""
    assert scalar_builds(monkeypatch, 500) == scalar_builds(monkeypatch,
                                                            1500)


# ----------------------------------------------------------------------
# The per-input step memo
# ----------------------------------------------------------------------

#: Releasing it from a stream with a zero tail leaves that zero's sign.
ZERO_TAIL = BitStream([0.125, 0.0], [0.0, 4.0])

#: Two steps ``(Sia, stream, add)`` each, whose operands are equal
#: under ``==`` and ``hash`` but not type for type, so the algebra
#: builds different tuples for them.
TWIN_STEPS = {
    "int-and-float": [
        (ZERO_STREAM, BitStream([1, 0.15], [0, 1]), True),
        (ZERO_STREAM, BitStream([1.0, 0.15], [0.0, 1.0]), True)],
    "signed-zero-residue": [
        (BitStream([0.5, -0.0], [0.0, 4.0]), ZERO_TAIL, False),
        (BitStream([0.5, 0.0], [0.0, 4.0]), ZERO_TAIL, False)],
    "fraction-and-float": [
        (ZERO_STREAM, cbr(F(1, 4)).worst_case_stream(), True),
        (ZERO_STREAM, cbr(0.25).worst_case_stream(), True)],
}


def direct_step(sia, stream, add):
    """``(Sia', filter(Sia'))`` computed without any memo."""
    new_sia = sia + stream if add else sia - stream
    return new_sia, new_sia.filtered()


def assert_same_tuples(result, reference):
    """``(Sia', Sif')`` pairs with the same tuples, type for type."""
    for stream, expected in zip(result, reference):
        assert_route_identity(stream, expected)


@pytest.mark.parametrize("twins", TWIN_STEPS.values(), ids=TWIN_STEPS)
def test_step_memo_keys_operands_type_for_type(twins):
    """Equal operands of other types miss, across the ports of a switch,
    and each step gets the tuples a direct computation builds."""
    (sia_a, stream_a, _), (sia_b, stream_b, _) = twins
    assert (sia_a, stream_a) == (sia_b, stream_b)
    assert hash((sia_a, stream_a)) == hash((sia_b, stream_b))
    switch = SwitchCAC("sw")
    switch.configure_link("out", {0: 64, 1: 128})
    aggregates = (switch.port("out", 0).own, switch.port("out", 1).higher)
    for aggregate, (sia, stream, add) in zip(aggregates, twins):
        if sia is not ZERO_STREAM:
            aggregate.sia["in"] = sia
        assert_same_tuples(aggregate.step("in", stream, add),
                           direct_step(sia, stream, add))
    assert len(switch._steps) == 2


def test_step_memo_computes_each_step_once(monkeypatch):
    """A 500-event seeded vbr-2prio run makes at most one ``+`` or ``-``
    per memo entry: no step is computed twice while the memo has not
    started over, and most lookups hit."""
    adds = count_calls(monkeypatch, BitStream, "__add__")
    subs = count_calls(monkeypatch, BitStream, "__sub__")
    lookups = count_calls(monkeypatch, _Aggregate, "step")
    cac = run_vbr_2prio(500)
    entries = sum(len(switch._steps) for switch in cac.switches().values())
    computed = len(adds) + len(subs)
    assert 0 < computed <= entries
    assert len(lookups) > 2 * computed


def test_step_memo_is_bounded():
    """More distinct steps than the cap: the memo stays within it and
    keeps answering correctly after it starts over."""
    switch = SwitchCAC("sw")
    switch.configure_link("out", {0: 64})
    streams = [cbr(1 / denominator).worst_case_stream()
               for denominator in range(2, _STEP_MEMO_SIZE + 10)]
    for stream in streams + streams[:3]:
        switch.check("in", "out", 0, stream)
        own = switch.port("out", 0).own.added("in", stream)
        assert_same_tuples(own[:2], direct_step(ZERO_STREAM, stream, True))
        assert len(switch._steps) <= _STEP_MEMO_SIZE


def test_crash_drops_the_step_memo(monkeypatch):
    """``crash()`` empties the memo with the other volatile state, and
    ``recover()`` recomputes every step to the same floats."""
    switch = SwitchCAC("sw")
    switch.configure_link("out", {0: 64, 1: 128})
    for index in range(8):
        stream = cbr(0.02 * (1 + index % 3)).worst_case_stream().delayed(
            4.0 * (index % 2))
        switch.admit(f"vc{index}", f"in{index % 2}", "out", index % 2,
                     stream)
    for index in (1, 4, 6):
        switch.release(f"vc{index}")

    def aggregates():
        return repr([(port.own.sia, port.own.sif, port.higher.sia,
                      port.higher.sif) for port in
                     (switch.port("out", 0), switch.port("out", 1))])

    before = aggregates()
    assert switch._steps
    switch.crash()
    assert not switch._steps
    computed = count_calls(monkeypatch, BitStream, "__add__")
    switch.recover()
    assert computed
    assert switch.verify_consistency()
    assert aggregates() == before


@settings(max_examples=ROUTE_EXAMPLES, deadline=None)
@given(st.lists(mixed_streams(), min_size=1, max_size=3),
       st.lists(st.tuples(st.integers(min_value=0, max_value=5),
                          st.booleans(), st.sampled_from(["a", "b"])),
                min_size=1, max_size=12))
def test_step_memo_route_is_type_exact(pool, ops):
    """Random ``+``/``-`` sequences of mixed int/float legs and their
    float twins, on two inputs of one aggregate with a memo, give the
    memo-free chain's tuples type for type."""
    pool += [stream.as_floats() for stream in pool]
    aggregate = _Aggregate(True, {})
    chain = {}
    held = {"a": [], "b": []}
    for index, release, in_link in ops:
        legs = held[in_link]
        add = not (release and legs)
        if add:
            stream = pool[index % len(pool)]
            legs.append(stream)
        else:
            stream = legs.pop(index % len(legs))
        expected = direct_step(chain.get(in_link, ZERO_STREAM), stream, add)
        assert_same_tuples(aggregate.step(in_link, stream, add), expected)
        aggregate.apply(in_link, stream, add)
        if expected[0].is_zero:
            chain.pop(in_link, None)
        else:
            chain[in_link] = expected[0]
