"""Shared fixtures: observability isolation and optional CI export.

``obs_enabled`` installs a fresh registry + tracer driven by a
ManualClock and restores whatever was installed before, so tests can
assert on metrics/spans without leaking global state into each other.

When the ``REPRO_OBS_JSONL`` environment variable names a file (the CI
fault-stress job sets it), observability is switched on for the whole
session and the final metrics registry is dumped there as JSON lines
for artifact upload.
"""

import os

import pytest

from repro import obs
from repro.obs.clock import ManualClock


@pytest.fixture
def obs_clock():
    """A fresh ManualClock (also installed as the obs clock by
    ``obs_enabled``)."""
    return ManualClock()


@pytest.fixture
def obs_enabled(obs_clock):
    """``(registry, tracer)`` installed globally for one test."""
    previous_clock = obs.get_clock()
    previous_registry = obs.get_registry()
    previous_tracer = obs.get_tracer()
    registry, tracer = obs.enable(clock_source=obs_clock)
    yield registry, tracer
    obs.set_registry(previous_registry)
    obs.set_tracer(previous_tracer)
    obs.set_clock(previous_clock)


@pytest.fixture
def obs_bus():
    """A fresh global event bus for one test, restored afterwards."""
    bus = obs.EventBus()
    previous = obs.set_bus(bus)
    yield bus
    obs.set_bus(previous)


@pytest.fixture(scope="session", autouse=True)
def _obs_session_export():
    """Dump session-wide metrics as JSONL when REPRO_OBS_JSONL is set."""
    path = os.environ.get("REPRO_OBS_JSONL")
    if not path:
        yield
        return
    registry, _tracer = obs.enable()
    yield
    from repro.obs.export import metrics_to_jsonl
    text = metrics_to_jsonl(obs.get_registry())
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text + ("\n" if text else ""))
    obs.disable()
