"""Exporter golden tests: JSONL round trip, Prometheus lint, tables."""

import io
import json
import re

import pytest

from repro.obs.clock import ManualClock
from repro.obs.events import EventBus
from repro.obs.export import (
    JsonlEventSink,
    format_span_tree,
    metrics_table,
    metrics_to_jsonl,
    samples_from_jsonl,
    to_prometheus,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import Tracer


def loaded_registry():
    registry = MetricsRegistry()
    registry.counter("cac_checks_total", switch="s0").inc(4)
    registry.counter("cac_checks_total", switch="s1").inc(1)
    registry.gauge("sim_worst_e2e_delay").set(96.0)
    hist = registry.histogram("signaling_hop_rtt",
                              buckets=(1.0, 8.0), phase="reserve")
    hist.observe(0.5)
    hist.observe(8.0)
    hist.observe(30.0)
    return registry


class TestJsonl:
    def test_round_trip_is_lossless(self):
        registry = loaded_registry()
        samples = samples_from_jsonl(metrics_to_jsonl(registry))
        assert samples == registry.samples()

    def test_golden_shape(self):
        text = metrics_to_jsonl(loaded_registry())
        lines = text.splitlines()
        assert len(lines) == 4              # 2 counters + gauge + histogram
        first = json.loads(lines[0])
        assert first == {"name": "cac_checks_total", "kind": "counter",
                         "labels": {"switch": "s0"}, "value": 4}
        hist = json.loads(lines[2])         # families sort by name
        assert hist["buckets"] == [[1.0, 1], [8.0, 2], ["+Inf", 3]]
        assert hist["count"] == 3 and hist["sum"] == 38.5

    def test_every_line_is_valid_json(self):
        for line in metrics_to_jsonl(loaded_registry()).splitlines():
            json.loads(line)

    def test_empty_registry_exports_empty(self):
        assert metrics_to_jsonl(MetricsRegistry()) == ""
        assert samples_from_jsonl("") == []


#: One Prometheus exposition line: metric sample or comment.
_SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"
    r'(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"'
    r'(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})?'
    r" (?:[+-]?(?:\d+\.?\d*(?:[eE][+-]?\d+)?|Inf)|NaN)$"
)


def lint_prometheus(text: str):
    """A minimal exposition-format linter; returns sample names seen."""
    assert text.endswith("\n")
    names = set()
    typed = {}
    for line in text.splitlines():
        if line.startswith("# HELP "):
            continue
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ")
            assert name not in typed, f"duplicate TYPE for {name}"
            typed[name] = kind
            continue
        assert _SAMPLE_RE.match(line), f"malformed sample line: {line!r}"
        names.add(line.split("{")[0].split(" ")[0])
    return names, typed


class TestPrometheus:
    def test_golden_output(self):
        text = to_prometheus(loaded_registry())
        assert text == (
            "# HELP cac_checks_total Admission checks (Steps 2-6) run at "
            "a switch.\n"
            "# TYPE cac_checks_total counter\n"
            'cac_checks_total{switch="s0"} 4\n'
            'cac_checks_total{switch="s1"} 1\n'
            "# HELP signaling_hop_rtt Simulated round-trip time of one "
            "successful delivery (includes backoff of earlier attempts).\n"
            "# TYPE signaling_hop_rtt histogram\n"
            'signaling_hop_rtt_bucket{phase="reserve",le="1"} 1\n'
            'signaling_hop_rtt_bucket{phase="reserve",le="8"} 2\n'
            'signaling_hop_rtt_bucket{phase="reserve",le="+Inf"} 3\n'
            'signaling_hop_rtt_sum{phase="reserve"} 38.5\n'
            'signaling_hop_rtt_count{phase="reserve"} 3\n'
            "# HELP sim_worst_e2e_delay Largest observed end-to-end "
            "queueing delay (cell times).\n"
            "# TYPE sim_worst_e2e_delay gauge\n"
            "sim_worst_e2e_delay 96\n"
        )

    def test_output_passes_the_linter(self):
        names, typed = lint_prometheus(to_prometheus(loaded_registry()))
        assert typed == {"cac_checks_total": "counter",
                         "signaling_hop_rtt": "histogram",
                         "sim_worst_e2e_delay": "gauge"}
        assert "signaling_hop_rtt_bucket" in names

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.counter("c", path='we"ird\\thing').inc()
        text = to_prometheus(registry)
        assert r'path="we\"ird\\thing"' in text

    def test_invalid_metric_name_rejected(self):
        registry = MetricsRegistry()
        registry.counter("bad-name").inc()
        with pytest.raises(ValueError, match="invalid Prometheus metric"):
            to_prometheus(registry)

    def test_empty_registry_exports_empty(self):
        assert to_prometheus(MetricsRegistry()) == ""


class TestTable:
    def test_table_lists_every_instrument(self):
        text = metrics_table(loaded_registry())
        assert "cac_checks_total" in text
        assert "switch=s0" in text
        assert "count=3 sum=38.5" in text

    def test_empty_registry(self):
        assert "no metrics recorded" in metrics_table(MetricsRegistry())


class TestSpanTree:
    def test_format_is_indented_with_durations(self):
        clock = ManualClock()
        tracer = Tracer(clock=clock)
        with tracer.span("root", conn="vc0"):
            clock.advance(2.0)
            with tracer.span("child"):
                clock.advance(3.0)
        text = format_span_tree(tracer.roots[0])
        assert text == "root [5] conn=vc0\n  child [3]"


class TestJsonlEventSink:
    def test_streams_events_as_json_lines(self):
        bus = EventBus()
        stream = io.StringIO()
        with JsonlEventSink(stream, bus) as sink:
            bus.emit("signaling", "setup", time=1.0, connection="vc0")
            bus.emit("journal", "commit", time=2.0)
        assert sink.written == 2
        lines = [json.loads(line)
                 for line in stream.getvalue().splitlines()]
        assert lines[0] == {"category": "signaling", "name": "setup",
                            "time": 1.0,
                            "fields": {"connection": "vc0"}}

    def test_file_target_is_written_and_closed(self, tmp_path):
        bus = EventBus()
        path = tmp_path / "events.jsonl"
        with JsonlEventSink(str(path), bus):
            bus.emit("a", "b", time=0.0)
        assert json.loads(path.read_text())["category"] == "a"
