"""Float kernels for the bit-stream algebra, on plain Python lists.

The generic implementations in :mod:`repro.core.bitstream` and
:mod:`repro.core.delay_bound` are linear (or worse) scans over segment
lists, generic over :class:`float` and :class:`fractions.Fraction`.
That generality is what the exact property tests rely on, but it makes
every hot admission-check primitive O(m)..O(m^2) in the number of
breakpoints -- and the paper itself flags admission-check latency as
the limit on how fast switched real-time VCs can be established
(Section 4.3, discussion 2).

This module provides the float path:

* :class:`StreamKernel` -- a stream's own float tuples plus its
  cumulative-arrival prefix sums, computed once, so ``A(t)``,
  ``A^{-1}(b)`` and ``r(t)`` become :mod:`bisect` lookups;
* :func:`aggregate_fast` -- k-way multiplexing as one stable sort of
  every input's rate deltas and one running sum;
* :func:`merge_fast` / :func:`patch_fast` -- pairwise
  multiplex/demultiplex and the fused ``base - old + new`` as a
  point-wise combination on the breakpoint union;
* :func:`delay_bound_fast` / :func:`backlog_bound_fast` -- Algorithm
  4.1 evaluated on the candidate instants with prefix-sum lookups
  instead of one O(m) inverse scan per candidate.

The streams the admission path handles are small (tens of
breakpoints), so the kernels work on each stream's tuples directly:
at that size a ``bisect`` per point beats building arrays.  Every sum
is accumulated left to right and every point-wise value is computed
with the same operations in the same order as the NumPy kernels these
replaced, so results are bit-identical to them (pinned by a golden
digest in ``tests/test_properties_kernels.py``).

Selection policy (see ``docs/performance.md``): a kernel is built for a
stream exactly when no rate or time is a :class:`~fractions.Fraction`
and at least one value is a float.  Exact (int/Fraction) streams never
get a kernel, so the exact code paths are untouched and the
Fraction-based property tests keep their bit-exact guarantees.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import accumulate, chain, compress
from operator import mul, ne, sub
from typing import List, Optional, Sequence, Tuple

from ..exceptions import BitStreamError

__all__ = [
    "StreamKernel",
    "build_kernel",
    "aggregate_fast",
    "patch_fast",
    "merge_fast",
    "delay_bound_fast",
    "backlog_bound_fast",
]

#: Tolerance used to forgive floating-point noise when validating the
#: non-increasing invariant and when clamping tiny negative rates produced
#: by demultiplexing.  Shared by ``BitStream.__init__`` and the kernels'
#: canonicalization, which must agree on which streams are valid.
_RATE_TOLERANCE = 1e-9

_INF = math.inf


def _prefix_sums(slopes: Sequence[float],
                 times: Sequence[float]) -> List[float]:
    """``[0.0, s0*(t1-t0), s0*(t1-t0) + s1*(t2-t1), ...]``, summed in order."""
    sums = [0.0]
    sums += accumulate(map(mul, slopes, map(sub, times[1:], times)))
    return sums


class StreamKernel:
    """The float view of one canonical bit stream.

    Attributes
    ----------
    rates / times:
        The canonical segments as tuples of Python floats -- the
        stream's own tuples when they already hold only floats.
    cumbits:
        ``A(t(k))`` -- cumulative bits at each breakpoint, summed once
        on first use so every later lookup is O(log m).
    """

    __slots__ = ("rates", "times", "_cumbits", "_service")

    def __init__(self, rates: Tuple[float, ...], times: Tuple[float, ...]):
        self.rates = rates
        self.times = times
        self._cumbits: Optional[List[float]] = None
        #: lazily-built ``(values, slopes)`` of the leftover-service curve
        #: ``C(t) = integral of (1 - r)`` when this stream acts as the
        #: higher-priority interference of Algorithm 4.1.
        self._service: Optional[Tuple[List[float], List[float]]] = None

    @property
    def cumbits(self) -> List[float]:
        """Cumulative arrivals ``A(t(k))`` at every breakpoint."""
        if self._cumbits is None:
            self._cumbits = _prefix_sums(self.rates, self.times)
        return self._cumbits

    # ------------------------------------------------------------------
    # Point lookups
    # ------------------------------------------------------------------

    def segment_index(self, t) -> int:
        """Index of the segment containing ``t``."""
        return bisect_right(self.times, t) - 1

    def bits(self, t) -> float:
        """Cumulative arrivals ``A(t)``."""
        index = bisect_right(self.times, t) - 1
        return (self.cumbits[index]
                + self.rates[index] * (t - self.times[index]))

    def time_of_bits(self, amount) -> float:
        """Earliest ``t`` with ``A(t) >= amount`` (inf if never)."""
        if amount <= 0:
            return 0.0
        cumbits = self.cumbits
        position = bisect_left(cumbits, amount)
        if position >= len(cumbits):
            rate = self.rates[-1]
            if rate == 0.0:
                return _INF
            return self.times[-1] + (amount - cumbits[-1]) / rate
        segment = position - 1
        # rates[segment] > 0 because cumbits strictly increased across it.
        return (self.times[segment]
                + (amount - cumbits[segment]) / self.rates[segment])

    # ------------------------------------------------------------------
    # The leftover-service view (Algorithm 4.1 interference)
    # ------------------------------------------------------------------

    @property
    def service(self) -> Tuple[List[float], List[float]]:
        """``(values, slopes)`` of ``C(t) = integral of (1 - r)``.

        ``values[j] = C(t(j))`` at this stream's breakpoints and
        ``slopes[j] = 1 - r(j)``; cached because one interference
        aggregate serves many delay-bound evaluations.
        """
        if self._service is None:
            slopes = [1.0 - rate for rate in self.rates]
            self._service = (_prefix_sums(slopes, self.times), slopes)
        return self._service


def build_kernel(rates: Sequence, times: Sequence) -> Optional[StreamKernel]:
    """A kernel for the stream, or ``None`` when exactness must rule.

    The float path engages only for streams that actually carry floats:
    any :class:`~fractions.Fraction` disables it (exact arithmetic
    requested), and all-int streams (e.g. the zero stream or a
    saturated ``constant(1)``) stay on the exact path so integer results
    keep their types.  Ints mixed into a float stream are converted, so
    the kernels compute in floats throughout.
    """
    kinds = set(map(type, chain(rates, times)))
    if kinds == {float}:
        return StreamKernel(tuple(rates), tuple(times))
    if (any(issubclass(kind, Fraction) for kind in kinds)
            or not any(issubclass(kind, float) for kind in kinds)):
        return None
    return StreamKernel(tuple(map(float, rates)), tuple(map(float, times)))


# ----------------------------------------------------------------------
# Canonicalization (mirrors BitStream.__init__ semantics)
# ----------------------------------------------------------------------


def _canonical(rates: List[float], times: List[float]) -> StreamKernel:
    """Clamp/validate/merge exactly like ``BitStream.__init__`` does.

    Expects strictly increasing ``times``; enforces the non-negative and
    non-increasing rate invariants with the shared tolerance and merges
    equal-rate neighbours.  Negative noise is clamped to ``0.0`` before
    the step check, so a clamped residue never counts as a rise.
    """
    low = min(rates)
    if low < 0.0:
        if low < -_RATE_TOLERANCE:
            index = rates.index(low)
            raise BitStreamError(
                f"negative rate {rates[index]} at t={times[index]}"
            )
        rates = [rate if rate > 0.0 else 0.0 for rate in rates]
    if len(rates) > 1:
        later = rates[1:]
        if max(map(sub, later, rates)) > _RATE_TOLERANCE:
            steps = list(map(sub, later, rates))
            index = steps.index(max(steps))
            raise BitStreamError(
                f"rate function must be non-increasing, got step "
                f"{rates[index]} -> {rates[index + 1]}"
            )
        keep = [True, *map(ne, later, rates)]
        if not all(keep):
            rates = list(compress(rates, keep))
            times = list(compress(times, keep))
    return StreamKernel(tuple(rates), tuple(times))


# ----------------------------------------------------------------------
# Multiplexing kernels
# ----------------------------------------------------------------------


def aggregate_fast(kernels: List[StreamKernel]) -> StreamKernel:
    """K-way Algorithm 3.2 as one sort and one running sum.

    Each stream contributes its rate *deltas* at its breakpoints
    (``r(0) - 0.0``, then ``r(k) - r(k-1)``); after a single stable sort
    of the union by time, the aggregate's step function is one
    left-to-right running sum, and equal breakpoints collapse to their
    last (fully-summed) value.  O(B log B) in the total breakpoint
    count B.
    """
    times: List[float] = []
    deltas: List[float] = []
    for kernel in kernels:
        times += kernel.times
        deltas.append(kernel.rates[0] - 0.0)
        deltas += map(sub, kernel.rates[1:], kernel.rates)
    order = sorted(range(len(times)), key=times.__getitem__)
    times = list(map(times.__getitem__, order))
    rates = list(accumulate(map(deltas.__getitem__, order)))
    keep = [*map(ne, times[1:], times), True]
    if not all(keep):
        times = list(compress(times, keep))
        rates = list(compress(rates, keep))
    return _canonical(rates, times)


def patch_fast(base: StreamKernel, old: StreamKernel,
               new: StreamKernel) -> StreamKernel:
    """``base - old + new`` over one breakpoint union.

    The patch operation behind every incremental update of a port's
    two aggregate sums: the admission check's what-if sums (which the
    reserve that follows installs) and every add or release the check
    did not compute.
    Point-wise it evaluates the same left-to-right ``(a - b) + c`` the
    two pairwise merges would, but the union is built once and no
    intermediate stream is canonicalized or allocated -- one pass
    instead of two on the hottest admission path.
    """
    times = sorted({*base.times, *old.times, *new.times})
    base_rates, base_times = base.rates, base.times
    old_rates, old_times = old.rates, old.times
    new_rates, new_times = new.rates, new.times
    rates = [base_rates[bisect_right(base_times, t) - 1]
             - old_rates[bisect_right(old_times, t) - 1]
             + new_rates[bisect_right(new_times, t) - 1]
             for t in times]
    return _canonical(rates, times)


def merge_fast(first: StreamKernel, second: StreamKernel,
               subtract: bool) -> StreamKernel:
    """Pairwise Algorithms 3.2/3.3 on the breakpoint union.

    Samples both step functions at every union breakpoint and combines
    point-wise -- the same floating-point additions in the same order as
    the generic ``_merge``.
    """
    times = sorted({*first.times, *second.times})
    rates_a, times_a = first.rates, first.times
    rates_b, times_b = second.rates, second.times
    if subtract:
        rates = [rates_a[bisect_right(times_a, t) - 1]
                 - rates_b[bisect_right(times_b, t) - 1] for t in times]
    else:
        rates = [rates_a[bisect_right(times_a, t) - 1]
                 + rates_b[bisect_right(times_b, t) - 1] for t in times]
    return _canonical(rates, times)


# ----------------------------------------------------------------------
# Worst-case analysis kernels (Algorithm 4.1)
# ----------------------------------------------------------------------


def _peak_excess(stream: StreamKernel) -> float:
    """``max(0, max_k (A(t(k)) - t(k)))``: the bound when ``C(t) = t``.

    With no interference both the delay and the backlog bound reduce to
    this, attained at an arrival breakpoint by concavity.
    """
    return max(0.0, max(map(sub, stream.cumbits, stream.times)))


def delay_bound_fast(stream: StreamKernel,
                     higher: Optional[StreamKernel]) -> float:
    """Algorithm 4.1 on prefix sums; caller has already checked stability.

    The candidate instants are the arrival breakpoints plus the finite
    pre-images under ``A`` of every service breakpoint.  ``A(t)`` comes
    from the arrival prefix sums, the sup-inverse of the service curve
    from a search of the service prefix sums.
    """
    if higher is None:
        return _peak_excess(stream)

    times, rates, cumbits = stream.times, stream.rates, stream.cumbits
    values, slopes = higher.service
    # ``(t, A(t))`` of every candidate: each arrival breakpoint, then
    # the pre-image of each service breakpoint (``A(0) = 0`` for a
    # non-positive service level; none where ``A`` never gets there).
    candidates = list(zip(times, cumbits))
    for amount in values:
        if amount <= 0.0:
            candidates.append((0.0, 0.0))
            continue
        segment = bisect_left(cumbits, amount) - 1
        rate = rates[segment]
        if rate <= 0.0:
            continue
        instant = times[segment] + (amount - cumbits[segment]) / rate
        if instant != _INF:
            index = bisect_right(times, instant) - 1
            candidates.append((instant, cumbits[index]
                               + rates[index] * (instant - times[index])))

    # Sup-inverse of C: the first segment whose *end* value exceeds the
    # arrival count, i.e. a right-side search of ``values``.  Where the
    # interference rate exceeds 1 by float noise, ``values`` dips and is
    # not sorted, and the search result then depends on its bounds.
    # They carry from one candidate to the next as in NumPy's batched
    # ``searchsorted``: kept from the last result after a key that did
    # not decrease, reopened from 0 after one that did.  The golden
    # digest in ``tests/test_properties_kernels.py`` pins this.
    higher_times = higher.times
    count = len(values)
    low = 0
    high = count
    previous = -_INF
    best = 0.0
    for instant, arrived in candidates:
        if previous <= arrived:
            high = count
        else:
            low = 0
            if high < count:
                high += 1
        previous = arrived
        low = high = bisect_right(values, arrived, low, high)
        segment = low - 1
        slope = slopes[segment]
        if slope <= 0.0:
            # A zero-slope selection means the service curve never
            # exceeds the required level: unbounded delay despite
            # balanced rates.
            return _INF
        delay = (higher_times[segment] + (arrived - values[segment]) / slope
                 - instant)
        if delay > best:
            best = delay
    return best


def backlog_bound_fast(stream: StreamKernel,
                       higher: Optional[StreamKernel]) -> float:
    """Worst-case backlog ``max_u (A(u) - C(u))`` over both breakpoint sets."""
    if higher is None:
        return _peak_excess(stream)
    times, rates, cumbits = stream.times, stream.rates, stream.cumbits
    higher_times = higher.times
    values, slopes = higher.service
    best = 0.0
    for point in chain(times, higher_times):
        index = bisect_right(times, point) - 1
        arrived = cumbits[index] + rates[index] * (point - times[index])
        segment = bisect_right(higher_times, point) - 1
        served = (values[segment]
                  + slopes[segment] * (point - higher_times[segment]))
        backlog = arrived - served
        if backlog > best:
            best = backlog
    return best
