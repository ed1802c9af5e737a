"""The layered switch state: PortState under SwitchCAC.

The layering contract (``docs/architecture.md``): a pure
:class:`PortState` per (out_link, priority) owns the aggregates and
incremental caches; :class:`SwitchCAC` holds every port and leg of one
switch, iterates deterministically, and rebuilds them by journal replay.
"""

from fractions import Fraction as F

import pytest

from repro.core import SwitchCAC
from repro.core.port_state import PortState
from repro.core.traffic import cbr
from repro.exceptions import AdmissionError
from repro.obs import metrics as om
from repro.obs.metrics import MetricsRegistry


def stream(rate):
    return cbr(rate).worst_case_stream()


def streams_equal(left, right):
    return left.rates == right.rates and left.times == right.times


# ----------------------------------------------------------------------
# PortState: the pure domain object
# ----------------------------------------------------------------------


class TestPortState:
    def make_port(self, priority=1):
        return PortState("out", priority, 64)

    def test_apply_same_maintains_sia_ground_truth(self):
        port = self.make_port()
        a, b = stream(F(1, 5)), stream(F(1, 7))
        port.apply_same("in-a", a, add=True)
        port.apply_same("in-a", b, add=True)
        assert streams_equal(port.sia("in-a"), a + b)
        port.apply_same("in-a", b, add=False)
        assert streams_equal(port.sia("in-a"), a)
        assert port.in_links() == ["in-a"]
        assert port.long_run_rate() == F(1, 5)

    def test_soa_patched_matches_rebuild(self):
        port = self.make_port()
        port.apply_same("in-a", stream(F(1, 5)), add=True)
        port.apply_same("in-b", stream(F(1, 9)), add=True)
        port.apply_same("in-a", stream(F(1, 5)), add=False)
        rebuilt = self.make_port()
        rebuilt.apply_same("in-b", stream(F(1, 9)), add=True)
        assert port.in_links() == ["in-b"]
        assert streams_equal(port.soa(), rebuilt.soa())

    def test_higher_what_if_equals_admitting_at_higher_priority(self):
        def low_port():
            low = self.make_port()
            low.apply_higher("in-a", stream(F(1, 6)), add=True)
            low.apply_same("in-a", stream(F(1, 8)), add=True)
            low.apply_same("in-b", stream(F(1, 9)), add=True)
            return low

        extra = stream(F(1, 10))
        probed = low_port()
        sia, sif, total = probed.higher.added("in-a", extra)
        assert streams_equal(probed.sof_higher(), low_port().sof_higher())
        admitted = low_port()
        admitted.apply_higher("in-a", extra, add=True)
        assert streams_equal(total.filtered(), admitted.sof_higher())
        assert streams_equal(sia, admitted.higher.sia["in-a"])
        assert streams_equal(sif, admitted.higher.sif["in-a"])

    def test_sof_memo_lives_until_the_interference_changes(self):
        seen = []
        port = PortState("out", 1, 64, on_cache=lambda hit, cache:
                         seen.append((hit, cache)))
        port.apply_higher("in-a", stream(F(1, 6)), add=True)
        port.apply_same("in-b", stream(F(1, 8)), add=True)
        sof = port.sof_higher()
        assert streams_equal(sof, port.higher.total.filtered())
        assert port.sof_higher() is sof
        port.apply_same("in-a", stream(F(1, 9)), add=True)  # own traffic
        assert port.sof_higher() is sof
        assert streams_equal(port.service().higher, sof)
        port.apply_higher("in-b", stream(F(1, 10)), add=True)
        changed = port.sof_higher()
        assert changed is not sof
        assert streams_equal(changed, port.higher.total.filtered())
        port.clear()
        assert port.sof_higher().is_zero
        assert seen == [(False, "service"), (True, "service"),
                        (True, "service"), (True, "service"),
                        (False, "service"), (False, "service")]

    def test_verify_against_accepts_truth_and_rejects_drift(self):
        port = self.make_port()
        port.apply_same("in-a", stream(F(1, 5)), add=True)
        port.apply_higher("in-b", stream(F(1, 6)), add=True)
        truth = {("in-a", "out", 1): stream(F(1, 5)),
                 ("in-b", "out", 0): stream(F(1, 6))}
        assert port.verify_against(truth)
        assert not port.verify_against(
            {**truth, ("in-a", "out", 1): stream(F(1, 4))})
        # the higher-priority aggregate is checked the same way
        assert not port.verify_against(
            {**truth, ("in-b", "out", 0): stream(F(1, 7))})
        assert not port.verify_against({})  # port holds a stream truth lacks
        # an extra ground-truth key the port does not hold also fails
        truth[("in-c", "out", 1)] = stream(F(1, 9))
        assert not port.verify_against(truth)


# ----------------------------------------------------------------------
# SwitchCAC: every port and leg of one switch
# ----------------------------------------------------------------------


def drive(switch):
    """A fixed admit/reserve/commit/rollback workout on one switch."""
    for index, link in enumerate(["out-b", "out-a", "out-c"]):
        switch.configure_link(link, {0: 32, 2: 96})
    switch.admit("vc0", "in-a", "out-a", 0, stream(F(1, 10)))
    switch.admit("vc1", "in-b", "out-b", 2, stream(F(1, 12)))
    switch.reserve("vc2", "in-a", "out-c", 0, stream(F(1, 14)))
    switch.commit("vc2")
    switch.reserve("vc3", "in-b", "out-a", 2, stream(F(1, 16)))
    switch.rollback("vc3")
    switch.release("vc1")
    switch.admit("vc4", "in-c", "out-b", 0, stream(F(1, 18)))
    return switch


def test_drive_crash_and_recover_restore_the_committed_state():
    switch = drive(SwitchCAC("sw"))
    assert list(switch.legs) == ["vc0", "vc2", "vc4"]
    assert switch.verify_consistency()
    assert [(e.op, e.connection_id) for e in switch.journal] == [
        ("admit", "vc0"), ("admit", "vc1"), ("reserve", "vc2"),
        ("commit", "vc2"), ("reserve", "vc3"), ("abort", "vc3"),
        ("release", "vc1"), ("admit", "vc4"),
    ]
    before = switch.recompute_aggregates()
    soas = {(link, priority): switch.soa(link, priority)
            for link in switch.out_links()
            for priority in switch.priorities(link)}
    switch.crash()
    with pytest.raises(AdmissionError):
        switch.admit("vc9", "in-a", "out-a", 0, stream(F(1, 20)))
    switch.recover()
    assert list(switch.legs) == ["vc0", "vc2", "vc4"]
    after = switch.recompute_aggregates()
    assert before.keys() == after.keys()
    for key, value in before.items():
        assert streams_equal(after[key], value)
    for (link, priority), soa in soas.items():
        assert streams_equal(switch.soa(link, priority), soa)


def test_a_delta_drops_the_sof_memo_of_lower_ports_on_its_link_only():
    switch = SwitchCAC("sw")
    for link in ("out-a", "out-b"):
        switch.configure_link(link, {0: 32, 1: 64, 2: 96})
        for priority in (0, 1, 2):
            switch.admit(f"{link}-{priority}", "in-x", link, priority,
                         stream(F(1, 20)))

    def memos():
        return {(link, p): switch.port(link, p).sof_higher()
                for link in ("out-a", "out-b") for p in (0, 1, 2)}

    before = memos()
    switch.admit("vc", "in-y", "out-a", 1, stream(F(1, 30)))
    after = memos()
    assert [key for key in before if after[key] is not before[key]] == [
        ("out-a", 2)]
    assert streams_equal(
        after["out-a", 2],
        switch.port("out-a", 2).higher.total.filtered())
    switch.crash()  # drops every memo; priority 0 has no interference
    switch.recover()
    assert all(memo is not after[key] for key, memo in memos().items()
               if key[1] > 0)


def test_cache_counters_count_sof_memo_hits_and_rebuilds():
    registry = MetricsRegistry()
    previous = om.set_registry(registry)
    try:
        switch = SwitchCAC("sw")
        switch.configure_link("out", {0: 32, 1: 96})
        switch.admit("hi", "in-a", "out", 0, stream(F(1, 10)))   # miss
        switch.admit("lo", "in-b", "out", 1, stream(F(1, 12)))   # miss
        switch.check("in-b", "out", 1, stream(F(1, 14)))         # hit
        switch.computed_bound("out", 1)                          # hit
        switch.release("hi")                                     # drops it
        switch.buffer_requirement("out", 1)                      # miss
    finally:
        om.set_registry(previous)
    counts = [registry.value(name, switch="sw", cache="service")
              for name in ("cac_cache_hits_total", "cac_cache_misses_total")]
    assert counts == [2, 3]


def test_verify_consistency_audits_idle_in_link_entries():
    """The check reads an idle in-link's ledger entry, so the audit must
    too: a corrupted entry there fails it."""
    switch = SwitchCAC("sw")
    switch.configure_link("out", {0: 32})
    switch.admit("vc0", "x", "out", 0, stream(F(1, 4)))
    switch.release("vc0")
    assert switch.verify_consistency()
    switch._in_link_rate["x"] = 0.9
    assert not switch.check("x", "out", 0, cbr(0.2).worst_case_stream()
                            ).admitted
    assert not switch.verify_consistency()


def test_out_links_and_priorities_are_sorted():
    switch = SwitchCAC("sw")
    for link in ["out-z", "out-a", "out-m"]:
        switch.configure_link(link, {3: 96, 0: 32, 1: 64})
    assert switch.out_links() == ["out-a", "out-m", "out-z"]
    assert switch.priorities("out-z") == [0, 1, 3]
    ports = [switch.port(link, priority) for link in switch.out_links()
             for priority in switch.priorities(link)]
    assert [(port.out_link, port.priority) for port in ports] == [
        (link, priority)
        for link in ["out-a", "out-m", "out-z"]
        for priority in [0, 1, 3]
    ]


def test_clear_volatile_keeps_configuration():
    # a crash drops legs and aggregates, never the configured ports
    switch = SwitchCAC("sw")
    switch.configure_link("out", {0: 32})
    switch.admit("vc0", "in-a", "out", 0, stream(F(1, 4)))
    switch.crash()
    assert switch.out_links() == ["out"]
    assert switch.priorities("out") == [0]
    assert switch.advertised_bound("out", 0) == 32
    assert not switch.legs and not switch.pending
    assert switch.port("out", 0).in_links() == []


def test_configure_link_refuses_priority_changes_on_a_live_link():
    switch = SwitchCAC("sw")
    switch.configure_link("out", {0: 32})
    switch.admit("vc0", "in-a", "out", 0, stream(F(1, 2)))
    # a port added next to live traffic would miss the interference
    # already admitted above it
    with pytest.raises(AdmissionError, match="carries connections"):
        switch.configure_link("out", {0: 32, 1: 1})
    with pytest.raises(AdmissionError, match="carries connections"):
        switch.configure_link("out", {1: 32})
    assert switch.priorities("out") == [0]
    switch.configure_link("out", {0: 16})  # new bounds alone are fine
    assert switch.advertised_bound("out", 0) == 16
    switch.configure_link("other", {0: 32, 1: 64})  # other links too
    switch.release("vc0")
    switch.configure_link("out", {0: 32, 1: 1})  # an idle link may change
    assert switch.priorities("out") == [0, 1]
    assert switch.verify_consistency()


def test_unknown_port_raises_admission_error():
    switch = SwitchCAC("sw")
    switch.configure_link("out", {0: 32})
    with pytest.raises(AdmissionError, match="no port for priority 7"):
        switch.port("out", 7)
    with pytest.raises(AdmissionError, match="no port"):
        switch.port("nope", 0)
