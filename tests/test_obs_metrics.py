"""The metrics registry: instruments, labels, null objects, handles."""

import pathlib
import re

import pytest

from repro.obs import metrics as om
from repro.obs.metrics import (
    LATENCY_BUCKETS,
    METRIC_HELP,
    NULL_REGISTRY,
    MetricsRegistry,
    NullRegistry,
)


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        registry = MetricsRegistry()
        counter = registry.counter("requests_total")
        assert counter.value == 0
        counter.inc()
        counter.inc(3)
        assert counter.value == 4

    def test_negative_increment_rejected(self):
        counter = MetricsRegistry().counter("requests_total")
        with pytest.raises(ValueError, match="only go up"):
            counter.inc(-1)

    def test_same_name_and_labels_share_one_instrument(self):
        registry = MetricsRegistry()
        a = registry.counter("hits", cache="sif", switch="s0")
        b = registry.counter("hits", switch="s0", cache="sif")
        assert a is b                      # label order is canonicalised
        a.inc()
        assert registry.value("hits", cache="sif", switch="s0") == 1

    def test_distinct_labels_are_distinct_series(self):
        registry = MetricsRegistry()
        registry.counter("hits", switch="s0").inc()
        registry.counter("hits", switch="s1").inc(2)
        assert registry.value("hits", switch="s0") == 1
        assert registry.value("hits", switch="s1") == 2
        assert registry.total("hits") == 3


class TestGauge:
    def test_set_and_set_max(self):
        gauge = MetricsRegistry().gauge("depth")
        gauge.set(5.0)
        assert gauge.value == 5.0
        gauge.set(2.0)
        assert gauge.value == 2.0
        gauge.set_max(1.0)
        assert gauge.value == 2.0          # smaller values are ignored
        gauge.set_max(9.0)
        assert gauge.value == 9.0


class TestHistogram:
    def test_bucketing_is_inclusive_upper_edge(self):
        hist = MetricsRegistry().histogram("lat", buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 1.0, 1.5, 4.0, 100.0):
            hist.observe(value)
        assert hist.count == 5
        assert hist.sum == pytest.approx(107.0)
        assert hist.cumulative() == [
            (1.0, 2),                       # 0.5 and the exact edge 1.0
            (2.0, 3), (4.0, 4), (float("inf"), 5),
        ]

    def test_default_buckets_are_latency(self):
        hist = MetricsRegistry().histogram("lat")
        assert hist.bounds == LATENCY_BUCKETS

    def test_unsorted_buckets_rejected(self):
        with pytest.raises(ValueError, match="strictly increase"):
            MetricsRegistry().histogram("lat", buckets=(2.0, 1.0))


class TestRegistry:
    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("thing")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("thing")
        with pytest.raises(ValueError, match="already registered"):
            registry.histogram("thing")

    def test_families_sorted_by_name_then_labels(self):
        registry = MetricsRegistry()
        registry.counter("b", x="2")
        registry.counter("b", x="1")
        registry.gauge("a")
        families = registry.families()
        assert [name for name, _, _ in families] == ["a", "b"]
        _, _, instruments = families[1]
        assert [i.labels for i in instruments] == [
            (("x", "1"),), (("x", "2"),)]

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("c", k="v").inc(2)
        registry.histogram("h", buckets=(1.0,)).observe(0.5)
        snap = registry.snapshot()
        assert snap["c"] == {"k=v": 2}
        assert snap["h"] == {"": {"count": 1, "sum": 0.5}}

    def test_value_of_untouched_series_is_zero(self):
        assert MetricsRegistry().value("nope", x="y") == 0


class TestNullRegistry:
    def test_disabled_and_inert(self):
        null = NullRegistry()
        assert null.enabled is False
        instrument = null.counter("anything", label="x")
        instrument.inc()
        instrument.set(3)
        instrument.set_max(9)
        instrument.observe(1.0)
        assert null.samples() == []
        assert null.snapshot() == {}
        assert len(null) == 0
        assert null.total("anything") == 0.0

    def test_all_instruments_are_the_same_object(self):
        null = NullRegistry()
        assert null.counter("a") is null.gauge("b")
        assert null.gauge("b") is null.histogram("c")


class TestGlobalRegistry:
    def test_set_registry_bumps_generation_and_returns_previous(self):
        before = om._generation
        registry = MetricsRegistry()
        previous = om.set_registry(registry)
        try:
            assert om._generation == before + 1
            assert om.get_registry() is registry
        finally:
            assert om.set_registry(previous) is registry
        assert om._generation == before + 2

    def test_default_is_the_null_registry(self):
        assert isinstance(NULL_REGISTRY, NullRegistry)


class TestCatalogue:
    def test_every_help_entry_names_a_valid_metric(self):
        for name in METRIC_HELP:
            assert name.replace("_", "").isalnum()

    def test_core_metric_families_are_catalogued(self):
        for name in ("cac_checks_total", "cac_cache_hits_total",
                     "kernel_path_total", "network_setups_total",
                     "signaling_hop_rtt", "journal_ops_total",
                     "sim_cells_delivered_total"):
            assert name in METRIC_HELP

    def test_documented_catalogue_matches_metric_help(self):
        # Only the "Metric catalogue" section: the event-bus table further
        # down lists categories, not metrics.
        doc = (pathlib.Path(__file__).resolve().parents[1]
               / "docs" / "observability.md").read_text(encoding="utf-8")
        section = doc.split("## Metric catalogue", 1)[1].split("\n## ", 1)[0]
        documented = re.findall(r"^\| `(\w+)` \|", section, re.MULTILINE)
        assert len(documented) == len(set(documented))
        assert set(documented) == set(METRIC_HELP)
