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
"""

import random
from fractions import Fraction as F

from repro.core import BitStream, NetworkCAC, SwitchCAC, cbr
from repro.core import bitstream
from repro.core.admission import _STREAM_MEMO_SIZE
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


def scalar_builds(monkeypatch, events):
    """Scalar ``BitStream.__init__`` and ``_merge`` calls of a seeded
    two-priority VBR churn run (the vbr-2prio benchmark traffic)."""
    inits = count_calls(monkeypatch, BitStream, "__init__")
    merges = count_calls(monkeypatch, bitstream, "_merge")
    network = build_rtnet(6, 2, bounds={0: 32.0, 1: 96.0}, dual_ring=True)
    classes = [
        TrafficClass(name, traffic, arrival_rate=load / (traffic.scr * 400),
                     mean_holding=400.0, priority=priority)
        for name, traffic, priority, load in (
            ("ctl", VBRParameters(pcr=0.4, scr=0.04, mbs=8), 0, 0.3),
            ("bulk", VBRParameters(pcr=0.5, scr=0.08, mbs=24), 1, 0.8))]
    ChurnEngine(NetworkCAC(network, rng=random.Random(11)), classes,
                pairs=opposite_pairs(6, 2), seed=11,
                policy=make_policy("k-alternate", 2)).run(max_events=events)
    count = len(inits) + len(merges)
    monkeypatch.undo()
    return count


def test_float_write_path_stays_in_kernel_form(monkeypatch):
    """Scalar constructions are a constant of the topology: what is left
    is the first input on each port's sum (the kernel merge would turn
    the sum's ints into floats) and the few memoized hop streams."""
    assert scalar_builds(monkeypatch, 500) == scalar_builds(monkeypatch,
                                                            1500)
