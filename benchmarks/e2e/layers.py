"""Per-layer tracing for the benchmark's traced run.

Spans are recorded from the benchmark's side only: :func:`install`
wraps the public functions of each layer (nothing under ``src/``
changes), and each wrapped call becomes one span -- name, start, end
and the span that was open when it began.  Spans stay in memory and
are written out when the run ends.  A generator function (the
admission and signaling walks) is one call but one span *per resume*,
so a walk suspended on the engine never covers time it did not run.

A layer's self time is its spans' duration minus the part covered by
their child spans; with every span nested in the root, self times plus
the root's own self time (``trace.unattributed_ms``) add up to the root
duration exactly.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array
from typing import Callable, Dict, List, Tuple

#: ``(span name, owner, attribute)`` of every wrapped call.  ``owner`` is
#: ``"module:Class"`` for methods, or a module whose function is then
#: replaced in every ``repro`` module that imported it by name (e.g.
#: ``delay_bound`` is looked up in ``switch_cac`` and ``rtnet.evaluation``).
TRACED = (
    ("admission.setup", "repro.core.admission:NetworkCAC", "setup_steps"),
    ("admission.teardown", "repro.core.admission:NetworkCAC",
     "teardown_steps"),
    ("signaling.deliver", "repro.network.signaling:SignalingChannel",
     "deliver_steps"),
    ("switch_cac.check", "repro.core.switch_cac:SwitchCAC", "check"),
    ("switch_cac.reserve", "repro.core.switch_cac:SwitchCAC", "reserve"),
    ("switch_cac.commit", "repro.core.switch_cac:SwitchCAC", "commit"),
    ("switch_cac.release", "repro.core.switch_cac:SwitchCAC", "release"),
    ("switch_cac.rollback", "repro.core.switch_cac:SwitchCAC", "rollback"),
    ("switch_cac.expire", "repro.core.switch_cac:SwitchCAC", "expire"),
    ("port_state.apply_same", "repro.core.port_state:PortState",
     "apply_same"),
    ("port_state.apply_higher", "repro.core.port_state:PortState",
     "apply_higher"),
    ("port_state.soa", "repro.core.port_state:PortState", "soa"),
    ("port_state.sof_higher", "repro.core.port_state:PortState",
     "sof_higher"),
    ("port_state.service", "repro.core.port_state:PortState", "service"),
    ("delay_bound", "repro.core.delay_bound", "delay_bound"),
    ("bitstream.add", "repro.core.bitstream:BitStream", "__add__"),
    ("bitstream.sub", "repro.core.bitstream:BitStream", "__sub__"),
    ("bitstream.patched", "repro.core.bitstream:BitStream", "patched"),
    ("bitstream.filtered", "repro.core.bitstream:BitStream", "filtered"),
    ("bitstream.delayed", "repro.core.bitstream:BitStream", "delayed"),
    ("bitstream.aggregate", "repro.core.bitstream", "aggregate"),
    ("routing.paths", "repro.network.routing", "alternate_paths"),
    ("plane.submit", "repro.core.plane:AdmissionPlane", "submit"),
    ("plane.submit_teardown", "repro.core.plane:AdmissionPlane",
     "submit_teardown"),
    ("engine.run", "repro.sim.engine:Engine", "run"),
    ("engine.schedule", "repro.sim.engine:Engine", "schedule"),
    ("evaluation.link_bound", "repro.rtnet.evaluation:RingAnalysis",
     "link_bound"),
)

#: Span names the per-layer metrics fold together.
RELEASES = ("switch_cac.release", "switch_cac.rollback", "switch_cac.expire")
APPLIES = ("port_state.apply_same", "port_state.apply_higher")
READS = ("port_state.soa", "port_state.sof_higher", "port_state.service")
OPS = ("bitstream.add", "bitstream.sub", "bitstream.patched",
       "bitstream.filtered", "bitstream.delayed")
SUBMITS = ("plane.submit", "plane.submit_teardown")

#: High-water marks sampled on the wrapped object after each call.
GAUGES = {
    "engine.schedule": ("engine.queue_max", lambda engine: engine.heap_size),
    "plane.submit": ("plane.in_flight_max", lambda plane: plane.in_flight),
    "plane.submit_teardown": ("plane.in_flight_max",
                              lambda plane: plane.in_flight),
}

ROOT = "root"


class Recorder:
    """Spans in flat arrays, call counts and gauges of one traced run."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        self.enabled = False
        self.names: List[str] = []
        self._index: Dict[str, int] = {}
        self.calls: List[int] = []
        self.gauges: Dict[str, float] = {}
        self.name_of = array("H")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]

    def index(self, name: str) -> int:
        """The id of a span name, registered on first use."""
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
        return self._index[name]

    def open(self, index: int) -> int:
        span = len(self.start)
        self.name_of.append(index)
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(span)
        self.start.append(self.clock())
        return span

    def close(self, span: int) -> None:
        self.end[span] = self.clock()
        self._stack.pop()

    def count(self, *names: str) -> int:
        """Calls into the named spans, summed."""
        return sum(self.calls[self._index[name]] for name in names
                   if name in self._index)

    def fold(self) -> Tuple[Dict[str, int], Dict[Tuple[str, str], int]]:
        """Self time (ns) per span name, and span counts per
        ``(name, parent name)``."""
        covered = [0] * len(self.start)
        for span, parent in enumerate(self.parent):
            if parent >= 0:
                covered[parent] += self.end[span] - self.start[span]
        self_ns: Dict[str, int] = {}
        nested: Dict[Tuple[str, str], int] = {}
        for span, parent in enumerate(self.parent):
            name = self.names[self.name_of[span]]
            self_ns[name] = (self_ns.get(name, 0) + self.end[span]
                             - self.start[span] - covered[span])
            if parent >= 0:
                key = (name, self.names[self.name_of[parent]])
                nested[key] = nested.get(key, 0) + 1
        return self_ns, nested

    def write(self, path: str) -> None:
        """One JSON array per span: ``[id, parent, name, start, end]``,
        times in ns from the first span's start."""
        origin = self.start[0] if self.start else 0
        with open(path, "w") as out:
            for span, parent in enumerate(self.parent):
                out.write(json.dumps([
                    span, parent, self.names[self.name_of[span]],
                    self.start[span] - origin, self.end[span] - origin,
                ]) + "\n")


def _traced_call(recorder: Recorder, index: int, fn, gauge):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not recorder.enabled:
            return fn(*args, **kwargs)
        recorder.calls[index] += 1
        span = recorder.open(index)
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.close(span)
            if gauge is not None:
                metric, read = gauge
                value = read(args[0])
                if value > recorder.gauges.get(metric, 0):
                    recorder.gauges[metric] = value
    return traced


def _traced_steps(recorder: Recorder, index: int, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        steps = fn(*args, **kwargs)
        if not recorder.enabled:
            return steps
        recorder.calls[index] += 1
        return forward(steps, functools.partial(recorder.open, index),
                       recorder.close)
    return traced


def forward(steps, enter: Callable[[], int], leave: Callable[[int], None]):
    """Drive generator ``steps`` for its caller, calling ``enter()``
    before and ``leave(token)`` after each resume; sends, throws and
    closes pass through, so ``yield from forward(...)`` behaves exactly
    like ``yield from steps``."""
    value, error = None, None
    while True:
        token = enter()
        try:
            wait = steps.throw(error) if error is not None \
                else steps.send(value)
        except StopIteration as stop:
            return stop.value
        finally:
            leave(token)
        try:
            value, error = (yield wait), None
        except GeneratorExit:
            steps.close()
            raise
        except BaseException as exc:  # re-raised inside ``steps``
            value, error = None, exc


def install(recorder: Recorder) -> None:
    """Wrap every :data:`TRACED` call; they record while
    ``recorder.enabled`` is set."""
    for name, owner, attribute in TRACED:
        index = recorder.index(name)
        module_name, _, class_name = owner.partition(":")
        module = importlib.import_module(module_name)
        target = getattr(module, class_name) if class_name else module
        original = getattr(target, attribute)
        if inspect.isgeneratorfunction(original):
            wrapper = _traced_steps(recorder, index, original)
        else:
            wrapper = _traced_call(recorder, index, original,
                                   GAUGES.get(name))
        if class_name:
            setattr(target, attribute, wrapper)
            continue
        for loaded in list(sys.modules.values()):
            if getattr(loaded, "__name__", "").startswith("repro") and \
                    vars(loaded).get(attribute) is original:
                setattr(loaded, attribute, wrapper)


def _counter(registry, family: str, **match: str) -> float:
    """Sum of a counter family over the instruments matching ``match``."""
    total = 0.0
    for name, _kind, instruments in registry.families():
        if name != family:
            continue
        for instrument in instruments:
            labels = dict(instrument.labels)
            if all(labels.get(k) == v for k, v in match.items()):
                total += instrument.value
    return total


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(recorder: Recorder, registry,
                  outcome: Dict[str, float], done: int) -> Dict[str, float]:
    """Every per-layer metric of one traced run.

    ``outcome`` holds the workload's ``arrivals``, ``reject_ratio`` and
    ``engine_events``; ``done`` its completed work items (churn events
    or Figure 10 points).  ``trace.overhead`` needs the untraced runs,
    so the runner adds it.
    """
    self_ns, nested = recorder.fold()
    count = recorder.count

    def ms(*names: str) -> float:
        return sum(self_ns.get(name, 0) for name in names) / 1e6

    screened = (_counter(registry, "cac_screen_total", outcome="accept")
                + _counter(registry, "cac_screen_total", outcome="reject"))
    hits = registry.total("cac_cache_hits_total")
    numpy_paths = _counter(registry, "kernel_path_total",
                           op="delay_bound", path="numpy")
    messages = sum(_counter(registry, "signaling_messages_total", phase=p)
                   for p in ("reserve", "commit", "abort"))
    setups = count("admission.setup")
    checks = count("switch_cac.check")
    root = recorder.end[0] - recorder.start[0]
    return {
        "switch_cac.check.calls": checks,
        "switch_cac.check.self_ms": ms("switch_cac.check"),
        "switch_cac.reserve.self_ms": ms("switch_cac.reserve"),
        "switch_cac.commit.self_ms": ms("switch_cac.commit"),
        "switch_cac.release.self_ms": ms(*RELEASES),
        "switch_cac.screen_hit_ratio": _ratio(
            screened, registry.total("cac_screen_total")),
        "switch_cac.exact_per_check": _ratio(
            nested.get(("delay_bound", "switch_cac.check"), 0), checks),
        "port_state.apply.calls": count(*APPLIES),
        "port_state.apply.self_ms": ms(*APPLIES),
        "port_state.read.calls": count(*READS),
        "port_state.read.self_ms": ms(*READS),
        "port_state.cache_hit_ratio": _ratio(
            hits, hits + registry.total("cac_cache_misses_total")),
        "delay_bound.calls": count("delay_bound"),
        "delay_bound.self_ms": ms("delay_bound"),
        "delay_bound.mean_us": _ratio(ms("delay_bound") * 1e3,
                                      count("delay_bound")),
        "delay_bound.numpy_ratio": _ratio(
            numpy_paths, _counter(registry, "kernel_path_total",
                                  op="delay_bound")),
        "bitstream.ops.calls": count(*OPS),
        "bitstream.ops.self_ms": ms(*OPS),
        "bitstream.aggregate.calls": count("bitstream.aggregate"),
        "bitstream.aggregate.self_ms": ms("bitstream.aggregate"),
        "routing.paths.calls": count("routing.paths"),
        "routing.paths.self_ms": ms("routing.paths"),
        "admission.setup.calls": setups,
        "admission.setup.self_ms": ms("admission.setup"),
        "admission.teardown.calls": count("admission.teardown"),
        "admission.teardown.self_ms": ms("admission.teardown"),
        "admission.attempts_per_arrival": _ratio(setups, outcome["arrivals"]),
        "admission.reject_ratio": outcome["reject_ratio"],
        "signaling.deliver.calls": count("signaling.deliver"),
        "signaling.deliver.self_ms": ms("signaling.deliver"),
        "signaling.messages_per_setup": _ratio(messages, setups),
        "plane.submit.calls": count(*SUBMITS),
        "plane.submit.self_ms": ms(*SUBMITS),
        "plane.in_flight_max": recorder.gauges.get("plane.in_flight_max", 0),
        "engine.events": outcome["engine_events"],
        "engine.events_per_churn_event": _ratio(outcome["engine_events"],
                                                done),
        "engine.schedule.calls": count("engine.schedule"),
        "engine.schedule.self_ms": ms("engine.schedule"),
        "engine.run.self_ms": ms("engine.run"),
        "engine.queue_max": recorder.gauges.get("engine.queue_max", 0),
        "evaluation.link_bound.calls": count("evaluation.link_bound"),
        "evaluation.link_bound.self_ms": ms("evaluation.link_bound"),
        "trace.root_ms": root / 1e6,
        "trace.unattributed_ms": ms(ROOT),
    }
