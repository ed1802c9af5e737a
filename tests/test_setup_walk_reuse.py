"""One setup walk builds each stream once.

Three reuses, each counted at the call it saves: a reserve after an
exact check installs the check's what-if aggregates, routes are
enumerated once per topology, and each hop's Step 1 stream is built
once per descriptor and CDV.  The bit-identity of all three is pinned
elsewhere (the float recovery test, the ring-analysis goldens and the
benchmark digests); these tests pin the saving itself.
"""

from fractions import Fraction as F

from repro.core import BitStream, NetworkCAC, SwitchCAC, cbr
from repro.core.admission import _STREAM_MEMO_SIZE
from repro.network import ConnectionRequest
from repro.network.routing import alternate_paths
from repro.network.topology import Network, line_network
from repro.rtnet import build_rtnet


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
    switch = SwitchCAC("sw", fast_path=False)
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
