"""The pure per-port CAC domain state (Section 4.3's aggregates).

One :class:`PortState` owns everything the paper keeps per output link
``j`` and priority ``p``.  Section 4.3 builds the port's own arrivals
(``Sia(i, j, p)`` -> ``Sif(i, j, p)`` -> ``Soa(j, p)``) and its
higher-priority interference (``Sia(i, j)(p)`` -> ``Sif(i, j)(p)`` ->
``Soa(j)(p)`` -> ``Sof(j)(p)``) with the same steps, the second applied
to the union of the priorities above ``p``.  So a port holds two
instances of one private aggregate:

* ``own`` -- the connections routed ``i -> j`` at priority ``p``;
* ``higher`` -- the connections routed ``i -> j`` at every priority
  above ``p``.

Each instance keeps per-input ``Sia`` (the ground truth), per-input
``Sif = filter(Sia)`` and the patched sum ``sum_i Sif``, all patched by
one ``+``/``-`` delta per admit/release.  An add is built by the
instance's what-if, which the admission check calls first; the
instance keeps its last what-if, so the reserve that follows installs
the check's streams as they are.  On top the port keeps only the
memoized ``Sof(j)(p)``, the filtered interference Algorithm 4.1 reads
beside the port's own ``Soa(j, p)``.

The per-input step -- ``Sia +/- S`` and its filter -- goes through a
step memo keyed on the exact operands (their
:attr:`~repro.core.bitstream.BitStream.exact_key`, type for type).
Inputs carry few legs drawn from a few hop streams, so most steps
repeat an earlier one; a hit returns the tuples the computation would
build.  :class:`~repro.core.switch_cac.SwitchCAC` hands one memo to
all its ports, bounds it and empties it on a crash; a port built alone
keeps its own.  The patched sum is computed every time.

The object is *pure domain state*: no journaling, no two-phase
bookkeeping, no metrics registry -- those belong to
:class:`~repro.core.switch_cac.SwitchCAC` -- and it never reads another
port.  Its one outward hook is ``on_cache``, an optional ``(hit,
cache_name)`` callback the owner uses to count ``Sof`` memo hits
without this layer importing the observability stack.

Both patched sums start at the zero stream when the port is created or
cleared, so every float in them is a function of the mutation sequence
alone (see ``docs/performance.md``).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from .bitstream import BitStream, Number, ZERO_STREAM, aggregate
from .delay_bound import ServiceCurve

__all__ = ["PortState", "CacheObserver", "Streams", "StepMemo"]

#: ``(hit, cache_name)`` callback counting memo hits/misses.
CacheObserver = Callable[[bool, str], None]

#: One aggregate's ``(Sia, Sif, sum_i Sif)`` for one input link.
Streams = Tuple[BitStream, BitStream, BitStream]

#: ``(Sia key, stream key, add, filter_per_input) -> (Sia', Sif')``: the
#: per-input steps of every aggregate that shares it.
StepMemo = Dict[tuple, Tuple[BitStream, BitStream]]

#: Entries a step memo holds before it starts over.
_STEP_MEMO_SIZE = 1024


def _no_observer(_hit: bool, _cache: str) -> None:
    """Default cache observer: count nothing."""


class _Aggregate:
    """One Section 4.3 chain: per-input ``Sia`` -> ``Sif`` -> ``sum_i Sif``.

    ``total`` starts at the zero stream and is only ever patched, one
    delta per mutation.  The per-input step ``Sia +/- S`` and its filter
    go through ``steps``, a memo the aggregate shares with its owner's
    other aggregates (see :meth:`step`).  The last what-if is kept as
    well (see :meth:`added`).
    """

    __slots__ = ("filter_per_input", "steps", "sia", "sif", "total",
                 "_last")

    def __init__(self, filter_per_input: bool, steps: StepMemo):
        self.filter_per_input = filter_per_input
        self.steps = steps
        #: Sia per incoming link -- the ground truth; zero entries popped.
        self.sia: Dict[str, BitStream] = {}
        #: Sif = filter(Sia) per incoming link.
        self.sif: Dict[str, BitStream] = {}
        #: sum_i Sif, before any output filter.
        self.total: BitStream = ZERO_STREAM
        #: ``(total, stream, in_link, what-if)`` of the last :meth:`added`.
        self._last: Optional[Tuple[BitStream, BitStream, str, Streams]] = None

    def filter(self, stream: BitStream) -> BitStream:
        """Per-input link filtering (identity in the ablation mode)."""
        return stream.filtered() if self.filter_per_input else stream

    def step(self, in_link: str, stream: BitStream,
             add: bool) -> Tuple[BitStream, BitStream]:
        """``(Sia', filter(Sia'))`` for ``Sia' = Sia + stream`` (or ``-``).

        ``+``, ``-`` and :meth:`BitStream.filtered` are functions of
        their operands' tuples, type for type, so a step is memoized on
        the operands' :attr:`~BitStream.exact_key` and a hit returns
        exactly what the computation would build.  The memo starts over
        when full.
        """
        old = self.sia.get(in_link, ZERO_STREAM)
        key = (old.exact_key, stream.exact_key, add, self.filter_per_input)
        steps = self.steps
        result = steps.get(key)
        if result is None:
            new_sia = old + stream if add else old - stream
            result = new_sia, self.filter(new_sia)
            if len(steps) >= _STEP_MEMO_SIZE:
                steps.clear()
            steps[key] = result
        return result

    def added(self, in_link: str, stream: BitStream) -> Streams:
        """What-if: ``(Sia, Sif, sum_i Sif)`` with ``stream`` added.

        Mutates nothing but the step memo and the last what-if.  The
        admission check builds its candidate streams with it, and
        :meth:`apply` builds every add with it, so a check's result and
        the add it precedes are the same floats.  The sum is one O(m)
        subtract-and-add delta against the patched sum (:meth:`replaced`).

        The last what-if is returned again for the same stream object
        and in-link while ``total`` is the same object: every mutation
        installs a freshly patched sum, and the kept tuple holds the old
        one, whose identity therefore cannot be reused.  So the add
        right after a check installs the check's own streams, and a
        what-if built against an older state is never installed.
        """
        total = self.total
        last = self._last
        if (last is not None and last[0] is total and last[1] is stream
                and last[2] == in_link):
            return last[3]
        new_sia, new_sif = self.step(in_link, stream, True)
        streams = new_sia, new_sif, self.replaced(in_link, new_sif)
        self._last = total, stream, in_link, streams
        return streams

    def apply(self, in_link: str, stream: BitStream, add: bool) -> None:
        """Patch ``Sia``, ``Sif`` and the sum for one delta.

        A single ``+``/``-`` of the connection's stream (Algorithms
        3.2/3.3) -- O(m) in the aggregate breakpoint count, unless the
        step memo already holds it.  An add installs :meth:`added`'s
        result, the admission check's own streams when it just ran.
        """
        if add:
            new_sia, new_sif, total = self.added(in_link, stream)
        else:
            new_sia, new_sif = self.step(in_link, stream, False)
            total = self.replaced(in_link, new_sif)
        if new_sia.is_zero:
            self.sia.pop(in_link, None)
        else:
            self.sia[in_link] = new_sia
        self.total = total
        self.sif[in_link] = new_sif

    def replaced(self, in_link: str, new_sif: BitStream) -> BitStream:
        """``sum_i Sif`` with one input's ``Sif`` swapped for ``new_sif``."""
        return self.total.patched(self.sif.get(in_link, ZERO_STREAM), new_sif)

    def verify(self, items: Iterable[Tuple[str, BitStream]],
               tolerance: float) -> bool:
        """Does this instance match a rebuild from ``(in_link, stream)``?"""
        expected: Dict[str, BitStream] = {}
        for in_link, stream in items:
            expected[in_link] = expected.get(in_link, ZERO_STREAM) + stream
        for in_link in expected.keys() | self.sia.keys():
            if not self.sia.get(in_link, ZERO_STREAM).approx_equal(
                    expected.get(in_link, ZERO_STREAM), tolerance):
                return False
        total = aggregate([self.filter(expected[i]) for i in sorted(expected)])
        return self.total.approx_equal(total, tolerance)


class PortState:
    """CAC aggregates of one ``(out_link, priority)`` port.

    Parameters
    ----------
    out_link / priority:
        The port's coordinates; ``priority`` follows the repository
        convention that smaller numbers are served first.
    advertised_bound:
        The fixed queueing-delay bound ``D(j, p)`` the switch
        advertises for this port (Section 4.1).
    filter_per_input:
        Whether per-input aggregates are smoothed by the incoming link
        before being summed at the output port (the paper's scheme).
    on_cache:
        Optional ``(hit, cache_name)`` observer.
    steps:
        Optional memo of per-input steps (``Sia +/- S`` and its
        filter), shared with the owner's other ports; by default the
        port keeps its own.  The owner empties it with its other
        volatile state.
    """

    __slots__ = ("out_link", "priority", "advertised_bound", "on_cache",
                 "own", "higher", "_sof")

    def __init__(self, out_link: str, priority: int,
                 advertised_bound: Number,
                 filter_per_input: bool = True,
                 on_cache: Optional[CacheObserver] = None,
                 steps: Optional[StepMemo] = None):
        self.out_link = out_link
        self.priority = priority
        self.advertised_bound = advertised_bound
        self.on_cache: CacheObserver = on_cache or _no_observer
        steps = {} if steps is None else steps
        #: the port's own priority p.
        self.own = _Aggregate(filter_per_input, steps)
        #: every priority above p on the same out link.
        self.higher = _Aggregate(filter_per_input, steps)
        #: memoized Sof(j)(p).
        self._sof: Optional[BitStream] = None

    @property
    def filter_per_input(self) -> bool:
        """Whether per-input aggregates are filtered by the incoming link."""
        return self.own.filter_per_input

    def in_links(self) -> List[str]:
        """Incoming links currently carrying traffic to this port, sorted."""
        return sorted(self.own.sia)

    def long_run_rate(self) -> Number:
        """Total admitted long-run rate through this port."""
        total: Number = 0
        for stream in self.own.sia.values():
            total += stream.long_run_rate
        return total

    def sia(self, in_link: str) -> BitStream:
        """``Sia(i, j, p)``: the per-pair per-priority aggregate."""
        return self.own.sia.get(in_link, ZERO_STREAM)

    def soa(self) -> BitStream:
        """``Soa(j, p)``: the output-port arrival stream."""
        return self.own.total

    def sof_higher(self) -> BitStream:
        """``Sof(j)(p)``: filtered higher-priority output interference.

        Memoized until the interference changes (:meth:`apply_higher`,
        :meth:`clear`).
        """
        cached = self._sof
        if cached is None:
            self.on_cache(False, "service")
            cached = self._sof = self.higher.total.filtered()
        else:
            self.on_cache(True, "service")
        return cached

    def service(self) -> ServiceCurve:
        """The service ``Sof(j)(p)`` leaves to priority ``p`` (per call)."""
        return ServiceCurve(self.sof_higher())

    def apply_same(self, in_link: str, stream: BitStream, add: bool) -> None:
        """Patch the ``own`` instance for one admit/release delta."""
        self.own.apply(in_link, stream, add)

    def apply_higher(self, in_link: str, stream: BitStream,
                     add: bool) -> None:
        """Patch the ``higher`` instance after a higher-priority delta.

        Invoked on every *lower*-priority port of the link when a
        stream is admitted/released above it; the interference changed,
        so the memoized ``Sof(j)(p)`` is dropped.
        """
        self.higher.apply(in_link, stream, add)
        self._sof = None

    def clear(self) -> None:
        """Drop both aggregates and the ``Sof`` memo (crash, replay)."""
        filter_per_input, steps = self.filter_per_input, self.own.steps
        self.own = _Aggregate(filter_per_input, steps)
        self.higher = _Aggregate(filter_per_input, steps)
        self._sof = None

    def verify_against(self, fresh: Mapping[Tuple[str, str, int], BitStream],
                       tolerance: float = 1e-9) -> bool:
        """Do this port's aggregates match a from-scratch rebuild?

        ``fresh`` maps ``(in_link, out_link, priority)`` to the
        ground-truth aggregates recomputed from the per-leg streams
        alone (see :meth:`SwitchCAC.recompute_aggregates`).
        """
        own: List[Tuple[str, BitStream]] = []
        higher: List[Tuple[str, BitStream]] = []
        for (i, j, q), stream in sorted(fresh.items()):
            if j == self.out_link and q <= self.priority:
                (own if q == self.priority else higher).append((i, stream))
        return (self.own.verify(own, tolerance)
                and self.higher.verify(higher, tolerance))

    def __repr__(self) -> str:
        return (
            f"PortState(out_link={self.out_link!r}, "
            f"priority={self.priority}, in_links={self.in_links()}, "
            f"advertised={self.advertised_bound})"
        )
