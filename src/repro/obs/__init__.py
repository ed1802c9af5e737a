"""Observability: metrics, tracing spans and structured events.

The CAC runs online inside every switch, so the operationally
interesting questions -- admission-check latency, cache hit rates,
per-hop retransmits, rollback counts -- need *measured* answers, not
just analytical bounds.  This package provides them without any
third-party dependency:

* :mod:`repro.obs.metrics` -- counters, gauges, fixed-bucket histograms
  behind a swappable global registry (no-op when disabled);
* :mod:`repro.obs.spans` -- nesting tracing spans, so one
  ``NetworkCAC.setup`` yields a hop-by-hop span tree;
* :mod:`repro.obs.events` -- the structured event bus unifying the
  signaling trace, cell journeys and journal records;
* :mod:`repro.obs.export` -- JSON-lines, Prometheus text exposition and
  console-table exporters.

Everything is off by default (the global registry/tracer are the shared
null objects, so instrumented hot paths cost one attribute check).
:func:`enable` switches a live registry and tracer in; timestamps come
from the injectable observability clock, so passing a
:class:`~repro.obs.clock.ManualClock` makes spans and latency
histograms fully deterministic.

Usage::

    from repro import obs
    registry, tracer = obs.enable()
    ...  # run setups, simulations, recoveries
    print(obs.export.to_prometheus(registry))
    obs.disable()
"""

from __future__ import annotations

from typing import Optional, Tuple

from . import clock, events, export, metrics, spans
from .clock import (
    Clock,
    EngineClock,
    ManualClock,
    SystemClock,
    get_clock,
    set_clock,
)
from .events import Event, EventBus, EventLog, get_bus, set_bus
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    METRIC_HELP,
    MetricsRegistry,
    NULL_REGISTRY,
    NullRegistry,
    get_registry,
    set_registry,
)
from .spans import NULL_TRACER, NullTracer, Span, Tracer, get_tracer, set_tracer, span

__all__ = [
    "clock", "events", "export", "metrics", "spans",
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "NullRegistry",
    "NULL_REGISTRY", "METRIC_HELP", "get_registry", "set_registry",
    "Span", "Tracer", "NullTracer", "NULL_TRACER", "span",
    "get_tracer", "set_tracer",
    "Event", "EventBus", "EventLog", "get_bus", "set_bus",
    "Clock", "SystemClock", "ManualClock", "EngineClock",
    "get_clock", "set_clock",
    "enable", "disable", "enabled",
]


def enable(clock_source=None,
           keep_spans: Optional[int] = None) -> Tuple[MetricsRegistry, Tracer]:
    """Switch observability on: fresh registry + tracer, returned as a pair.

    ``clock_source`` (any object with ``now() -> float``) becomes the
    observability clock for spans, events and timing histograms;
    omitted, the current clock (wall time by default) stays in place.
    """
    if clock_source is not None:
        set_clock(clock_source)
    registry = MetricsRegistry()
    tracer = Tracer(keep=keep_spans)
    set_registry(registry)
    set_tracer(tracer)
    return registry, tracer


def disable() -> None:
    """Switch observability off (null registry and tracer)."""
    set_registry(NULL_REGISTRY)
    set_tracer(NULL_TRACER)


def enabled() -> bool:
    """True when a live metrics registry is installed."""
    return get_registry().enabled
