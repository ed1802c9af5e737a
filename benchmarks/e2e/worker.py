"""One benchmark repeat, in a fresh single-threaded process.

    python worker.py --src SRC --workload NAME --seed N --size N \
        [--trace-out PATH]

Without ``--trace-out`` this is a *timed* repeat.  Its only
instrumentation is a timer around each admission request -- a setup
walk (``NetworkCAC.setup_steps``, summed over the walk's resumes, so a
walk suspended on the engine counts only the time it ran) or a Figure
10 curve point -- and a progress window closed every ``WINDOW_EVENTS``
churn events or after every Figure 10 point.  After each window the
worker times one :func:`calibrate` slice, outside the window, and every
timing taken in the window is scaled by the median of the five nearest
slices over :data:`REFERENCE_NS`; set-up time is scaled by three slices timed
right after it.  That cancels the host's own speed drift -- on a shared
host, 10-15% over minutes, and twice as slow while other tenants load
the machine -- which would otherwise swamp the regression bounds.

With ``--trace-out`` it is the *traced* repeat: every layer is wrapped
(see ``layers.py``), observability counters are on, and the spans are
written to ``PATH``.  Prints one JSON object on stdout; the runner does
the statistics.
"""

import time

#: Set-up time counts from here: interpreter start-up is excluded, the
#: ``repro`` import and workload construction are included.
STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

try:
    import numpy
except ImportError:  # the library runs without NumPy, and so does this
    numpy = None
else:
    #: Breakpoint-like arrays the calibration slice merges.
    _LEFT = numpy.linspace(0.0, 50.0, 24)
    _RIGHT = numpy.linspace(3.0, 60.0, 31)

#: Median :func:`calibrate` time on the reference host (2-core x86_64
#: container, CPython 3.11, NumPy 2.4): timings are reported as if the
#: host ran at that speed.
REFERENCE_NS = 2_800_000

#: Churn events per progress window.
WINDOW_EVENTS = 100


def calibrate() -> int:
    """Nanoseconds one fixed slice of work takes right now.

    Plain-Python arithmetic and list indexing plus the small-array NumPy
    operations the bit-stream kernels use: the instruction mix of the
    admission code.  It uses nothing from ``repro``, so no library
    change can move it, and the cyclic garbage collector is paused while
    it runs, so neither can the size of the workload's heap.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        begin = time.perf_counter_ns()
        slots = [0.0] * 64
        total = 0.0
        for i in range(4000):
            slots[i & 63] += i * 0.5
            total += abs(slots[(i * 7) & 63] - i)
        if numpy is not None:
            for i in range(150):
                merged = numpy.concatenate((_LEFT, _RIGHT + i * 1e-3))
                merged.sort()
                steps = numpy.cumsum(numpy.diff(numpy.unique(merged)))
                total += float(
                    steps[int(numpy.searchsorted(steps, 10.0)) % len(steps)])
        return time.perf_counter_ns() - begin
    finally:
        if collecting:
            gc.enable()


def host_factor(slices) -> float:
    """How much slower than the reference host these slices ran."""
    return statistics.median(slices) / REFERENCE_NS


class Windows:
    """Progress windows, each followed by an (untimed) calibration slice.

    ``walks`` is the list the walk timer appends to; a walk belongs to
    the window in which it finished.
    """

    def __init__(self, workload, walks):
        self.workload = workload
        self.walks = walks
        self.closed = []   # (ns, work items, walks finished so far)
        self.slices = []
        self.start()

    def start(self) -> None:
        self._ns, self._done = time.perf_counter_ns(), self.workload.done

    def close_after(self, every: int) -> None:
        """Close the window once it holds ``every`` work items."""
        if self.workload.done - self._done >= every:
            self.close()

    def close(self, as_walk: bool = False) -> None:
        """End the window; ``as_walk`` also records its time per work
        item as one request (a Figure 10 point, per connection)."""
        ns = time.perf_counter_ns() - self._ns
        items = self.workload.done - self._done
        if as_walk:
            self.walks.append(ns / items)
        self.closed.append((ns, items, len(self.walks)))
        self.slices.append(calibrate())
        self.start()

    def factors(self):
        """Each window's host factor: its five nearest slices' median."""
        return [host_factor(self.slices[max(0, k - 2):k + 3])
                for k in range(len(self.slices))]

    def rates(self):
        """Work items per second of each window, at reference speed."""
        return [items / ns * 1e9 * factor for (ns, items, _), factor
                in zip(self.closed, self.factors())]

    def latency_us(self):
        """Each walk's time at reference speed, in microseconds; walks
        finishing after the last window take the last window's factor."""
        factors = self.factors() or [host_factor([calibrate()])]
        scaled, first = [], 0
        bounds = [walks for _ns, _items, walks in self.closed]
        for last, factor in zip(bounds + [len(self.walks)],
                                factors + factors[-1:]):
            scaled += [ns / 1e3 / factor for ns in self.walks[first:last]]
            first = last
        return scaled


def _time_walks(samples, counts):
    """Time every setup walk; count started, finished and failed walks."""
    from layers import forward
    from repro.core.admission import NetworkCAC
    from repro.exceptions import AdmissionError

    steps_of = NetworkCAC.setup_steps

    def timed(steps):
        spent = [0]

        def leave(begin):
            spent[0] += time.perf_counter_ns() - begin

        try:
            return (yield from forward(steps, time.perf_counter_ns, leave))
        except AdmissionError:  # a refusal is a verdict, not a failure
            raise
        except Exception:
            counts["failed"] += 1
            raise
        finally:
            counts["finished"] += 1
            samples.append(spent[0])

    def setup_steps(self, *args, **kwargs):
        counts["started"] += 1
        return timed(steps_of(self, *args, **kwargs))

    NetworkCAC.setup_steps = setup_steps


def _close_windows(windows, every):
    """Close a window whenever another ``every`` churn events fired."""
    from repro.sim.engine import Engine

    run = Engine.run

    def probe(self, *args, **kwargs):
        run(self, *args, **kwargs)
        windows.close_after(every)

    Engine.run = probe


def timed(workload, name):
    walks_ns = []
    counts = {"started": 0, "finished": 0, "failed": 0}
    windows = Windows(workload, walks_ns)
    if name == "fig10-sweep":
        def run():
            workload.run(lambda: windows.close(as_walk=True))
    else:
        _time_walks(walks_ns, counts)
        # Short test runs still get about ten windows.
        _close_windows(windows,
                       max(1, min(WINDOW_EVENTS, workload.events // 10)))
        run = workload.run
    setup_s = time.perf_counter() - STARTED
    # Set-up time is scaled too, by slices taken right after it.
    setup_s /= host_factor([calibrate() for _ in range(3)])
    windows.start()
    run()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    checks = workload.checks()
    if name != "fig10-sweep":
        checks["walks_finished"] = counts["started"] == counts["finished"]
    return {
        "numpy": getattr(numpy, "__version__", None),
        "setup_s": setup_s,
        "rss_mb": peak_rss_mb,
        "host_factor": host_factor(windows.slices or [calibrate()]),
        "rates": windows.rates(),
        "latency_us": windows.latency_us(),
        "attempted": counts["started"] or len(walks_ns),
        "failed": counts["failed"],
        "digest": workload.digest(),
        "checks": checks,
    }


def traced(workload, trace_out):
    import layers
    from repro.obs.metrics import NULL_REGISTRY, MetricsRegistry, set_registry

    recorder = layers.Recorder()
    layers.install(recorder)
    root = recorder.index(layers.ROOT)
    registry = MetricsRegistry()
    slices = [calibrate() for _ in range(5)]
    set_registry(registry)
    recorder.enabled = True
    span = recorder.open(root)
    workload.run()
    recorder.close(span)
    recorder.enabled = False
    set_registry(NULL_REGISTRY)
    slices += [calibrate() for _ in range(5)]
    metrics = layers.layer_metrics(recorder, registry, workload.outcome(),
                                   workload.done)
    recorder.write(trace_out)
    return {
        "layers": metrics,
        "done": workload.done,
        "host_factor": host_factor(slices),
        "digest": workload.digest(),
        "checks": workload.checks(),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", type=int, required=True)
    parser.add_argument("--trace-out")
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    import workloads

    workload = workloads.build(args.workload, args.seed, args.size)
    if args.trace_out:
        result = traced(workload, args.trace_out)
    else:
        result = timed(workload, args.workload)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
