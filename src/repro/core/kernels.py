"""NumPy fast-path kernels for the bit-stream algebra.

The pure-Python implementations in :mod:`repro.core.bitstream` and
:mod:`repro.core.delay_bound` are linear (or worse) scans over segment
lists, generic over :class:`float` and :class:`fractions.Fraction`.
That generality is what the exact property tests rely on, but it makes
every hot admission-check primitive O(m)..O(m^2) in the number of
breakpoints -- and the paper itself flags admission-check latency as
the limit on how fast switched real-time VCs can be established
(Section 4.3, discussion 2).

This module provides the float fast path:

* :class:`StreamKernel` -- a stream as ``(rates, times, cumbits)``
  float64 arrays with the cumulative-arrival prefix sums computed once,
  so ``A(t)``, ``A^{-1}(b)`` and ``r(t)`` become
  :func:`numpy.searchsorted` lookups (scalar *and* vectorized);
* :func:`aggregate_fast` -- k-way multiplexing as
  concatenate-sort-prefix-sum over per-stream rate deltas;
* :func:`merge_fast` -- pairwise multiplex/demultiplex as a vectorized
  point-wise combination on the breakpoint union (bit-for-bit the same
  arithmetic as the scalar ``_merge``);
* :func:`delay_bound_fast` / :func:`backlog_bound_fast` -- Algorithm
  4.1 evaluated on *all* candidate instants at once instead of one
  O(m) inverse scan per candidate.

Selection policy (see ``docs/performance.md``): a kernel is built for a
stream exactly when NumPy is importable, no rate or time is a
:class:`~fractions.Fraction`, and at least one value is a float.
Exact (int/Fraction) streams never get a kernel, so the existing exact
code paths are untouched and the Fraction-based property tests keep
their bit-exact guarantees.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from ..exceptions import BitStreamError

try:  # NumPy is an optional (dev/perf) dependency; degrade gracefully.
    import numpy as np
except ImportError:  # pragma: no cover - exercised only without numpy
    np = None  # type: ignore[assignment]

__all__ = [
    "StreamKernel",
    "kernels_enabled",
    "build_kernel",
    "aggregate_fast",
    "merge_fast",
    "delay_bound_fast",
    "backlog_bound_fast",
]

#: Mirror of :data:`repro.core.bitstream._RATE_TOLERANCE`; duplicated to
#: avoid an import cycle (bitstream imports this module lazily).
_RATE_TOLERANCE = 1e-9


def kernels_enabled() -> bool:
    """True when the NumPy fast path is available in this environment."""
    return np is not None


class StreamKernel:
    """Array representation of one canonical bit stream.

    Attributes
    ----------
    rates / times:
        The canonical segments as float64 arrays.
    cumbits:
        ``A(t(k))`` -- cumulative bits at each breakpoint, prefix-summed
        once at construction so every later lookup is O(log m).
    """

    __slots__ = ("rates", "times", "cumbits", "_service", "_deltas")

    def __init__(self, rates, times, cumbits=None):
        self.rates = np.asarray(rates, dtype=np.float64)
        self.times = np.asarray(times, dtype=np.float64)
        if cumbits is None:
            cumbits = np.empty_like(self.times)
            cumbits[0] = 0.0
            if len(self.times) > 1:
                np.cumsum(self.rates[:-1] * np.diff(self.times),
                          out=cumbits[1:])
        self.cumbits = cumbits
        #: lazily-built ``(values, slopes)`` of the leftover-service curve
        #: ``C(t) = integral of (1 - r)`` when this stream acts as the
        #: higher-priority interference of Algorithm 4.1.
        self._service = None
        #: lazily-built rate deltas for :func:`aggregate_fast`.
        self._deltas = None

    @property
    def deltas(self):
        """Rate steps at each breakpoint (``rates[k] - rates[k-1]``).

        Cached because :func:`aggregate_fast` re-reads the deltas of the
        same component streams on every re-aggregation; per-call
        ``np.diff`` on dozens of tiny arrays would dominate its cost.
        """
        if self._deltas is None:
            self._deltas = np.diff(self.rates, prepend=0.0)
        return self._deltas

    # ------------------------------------------------------------------
    # Point lookups (scalar or vectorized -- searchsorted handles both)
    # ------------------------------------------------------------------

    def segment_index(self, t):
        """Index of the segment containing ``t`` (scalar or array)."""
        return self.times.searchsorted(t, side="right") - 1

    def bits(self, t):
        """Cumulative arrivals ``A(t)``; accepts a scalar or an array."""
        index = self.times.searchsorted(t, side="right") - 1
        return (self.cumbits[index]
                + self.rates[index] * (t - self.times[index]))

    def time_of_bits(self, amount: float) -> float:
        """Scalar earliest ``t`` with ``A(t) >= amount`` (inf if never)."""
        if amount <= 0:
            return 0.0
        position = int(np.searchsorted(self.cumbits, amount, side="left"))
        if position >= len(self.cumbits):
            rate = float(self.rates[-1])
            if rate == 0.0:
                return math.inf
            return float(self.times[-1]
                         + (amount - self.cumbits[-1]) / rate)
        segment = position - 1
        # rates[segment] > 0 because cumbits strictly increased across it.
        return float(self.times[segment]
                     + (amount - self.cumbits[segment]) / self.rates[segment])

    def time_of_bits_array(self, amounts):
        """Vectorized :meth:`time_of_bits` over an array of amounts."""
        amounts = np.asarray(amounts, dtype=np.float64)
        position = self.cumbits.searchsorted(amounts, side="left")
        segment = np.maximum(position - 1, 0)
        rates = self.rates[segment]
        unreachable = rates <= 0.0
        out = (self.times[segment]
               + (amounts - self.cumbits[segment])
               / np.where(unreachable, 1.0, rates))
        out[unreachable] = math.inf
        out[amounts <= 0.0] = 0.0
        return out

    # ------------------------------------------------------------------
    # The leftover-service view (Algorithm 4.1 interference)
    # ------------------------------------------------------------------

    @property
    def service(self):
        """``(values, slopes)`` of ``C(t) = integral of (1 - r)``.

        ``values[j] = C(t(j))`` at this stream's breakpoints and
        ``slopes[j] = 1 - r(j)``; cached because one interference
        aggregate serves many delay-bound evaluations.
        """
        if self._service is None:
            slopes = 1.0 - self.rates
            values = np.empty_like(self.times)
            values[0] = 0.0
            if len(self.times) > 1:
                np.cumsum(slopes[:-1] * np.diff(self.times), out=values[1:])
            self._service = (values, slopes)
        return self._service

    def service_values(self, t):
        """Vectorized ``C(t)`` over an array of instants."""
        values, slopes = self.service
        index = self.times.searchsorted(t, side="right") - 1
        return values[index] + slopes[index] * (t - self.times[index])


def build_kernel(rates: Sequence, times: Sequence) -> Optional[StreamKernel]:
    """A kernel for the stream, or ``None`` when exactness must rule.

    The float fast path engages only for streams that actually carry
    floats: any :class:`~fractions.Fraction` disables it (exact
    arithmetic requested), and all-int streams (e.g. the zero stream or
    a saturated ``constant(1)``) stay on the exact path so integer
    results keep their types.
    """
    if np is None:
        return None
    has_float = False
    for value in rates:
        if isinstance(value, Fraction):
            return None
        if isinstance(value, float):
            has_float = True
    for value in times:
        if isinstance(value, Fraction):
            return None
        if isinstance(value, float):
            has_float = True
    if not has_float:
        return None
    return StreamKernel(rates, times)


# ----------------------------------------------------------------------
# Canonicalization on arrays (mirrors BitStream.__init__ semantics)
# ----------------------------------------------------------------------


def _canonical_arrays(rates, times):
    """Clamp/validate/merge exactly like ``BitStream.__init__`` does.

    Expects strictly increasing ``times``; enforces the non-negative and
    non-increasing rate invariants with the shared tolerance and merges
    equal-rate neighbours.
    """
    low = rates.min(initial=0.0)
    if low < -_RATE_TOLERANCE:
        index = int(np.argmin(rates))
        raise BitStreamError(
            f"negative rate {rates[index]} at t={times[index]}"
        )
    if low < 0.0:
        rates = np.clip(rates, 0.0, None)
    if len(rates) > 1:
        steps = np.diff(rates)
        if np.any(steps > _RATE_TOLERANCE):
            index = int(np.argmax(steps))
            raise BitStreamError(
                f"rate function must be non-increasing, got step "
                f"{rates[index]} -> {rates[index + 1]}"
            )
        keep = np.empty(len(rates), dtype=bool)
        keep[0] = True
        np.not_equal(rates[1:], rates[:-1], out=keep[1:])
        if not keep.all():
            rates = rates[keep]
            times = times[keep]
    return rates, times


def _finish_stream(rates, times):
    """Build a canonical ``BitStream`` (kernel attached) from arrays."""
    from .bitstream import BitStream
    rates, times = _canonical_arrays(rates, times)
    kernel = StreamKernel(rates, times)
    return BitStream._from_canonical(rates.tolist(), times.tolist(), kernel)


# ----------------------------------------------------------------------
# Multiplexing kernels
# ----------------------------------------------------------------------


def aggregate_fast(kernels: List[StreamKernel]):
    """K-way Algorithm 3.2 as concatenate-sort-prefix-sum.

    Each stream contributes its rate *deltas* at its breakpoints; after
    a single stable sort of the union, the aggregate's step function is
    one cumulative sum.  O(B log B) in the total breakpoint count,
    against the O(B * k) cursor walk of the scalar path.
    """
    times = np.concatenate([kernel.times for kernel in kernels])
    deltas = np.concatenate([kernel.deltas for kernel in kernels])
    order = np.argsort(times, kind="stable")
    times = times[order]
    rates = np.cumsum(deltas[order])
    if len(times) > 1:
        # Equal breakpoints collapse to the last (fully-summed) value.
        keep = np.empty(len(times), dtype=bool)
        np.not_equal(times[1:], times[:-1], out=keep[:-1])
        keep[-1] = True
        times = times[keep]
        rates = rates[keep]
    return _finish_stream(rates, times)


def patch_fast(base: StreamKernel, old: StreamKernel, new: StreamKernel):
    """``base - old + new`` over one breakpoint union.

    The patch operation behind every incremental update of a port's
    two aggregate sums and every ``soa(replace=...)`` /
    ``sof_higher(extra=...)`` substitution.
    Point-wise it evaluates the same left-to-right ``(a - b) + c`` the
    two pairwise merges would, but the union is built once and no
    intermediate stream is canonicalized or allocated -- one pass
    instead of two on the hottest admission path.
    """
    times = np.union1d(np.union1d(base.times, old.times), new.times)
    rates = (base.rates[np.searchsorted(base.times, times,
                                        side="right") - 1]
             - old.rates[np.searchsorted(old.times, times,
                                         side="right") - 1]
             + new.rates[np.searchsorted(new.times, times,
                                         side="right") - 1])
    return _finish_stream(rates, times)


def merge_fast(first: StreamKernel, second: StreamKernel, subtract: bool):
    """Pairwise Algorithms 3.2/3.3 on the breakpoint union.

    Evaluates both step functions at every union breakpoint and
    combines point-wise -- the same floating-point additions in the
    same order as the scalar ``_merge``, so results are bit-identical
    while the scan itself is vectorized.
    """
    times = np.union1d(first.times, second.times)
    rates_a = first.rates[np.searchsorted(first.times, times,
                                          side="right") - 1]
    rates_b = second.rates[np.searchsorted(second.times, times,
                                           side="right") - 1]
    rates = rates_a - rates_b if subtract else rates_a + rates_b
    return _finish_stream(rates, times)


# ----------------------------------------------------------------------
# Worst-case analysis kernels (Algorithm 4.1)
# ----------------------------------------------------------------------


def delay_bound_fast(stream: StreamKernel,
                     higher: Optional[StreamKernel]) -> float:
    """Vectorized Algorithm 4.1; caller has already checked stability.

    All candidate instants -- the arrival breakpoints plus the
    pre-images under ``A`` of every service breakpoint -- are evaluated
    in one batch: ``A(t)`` by searchsorted into the arrival prefix
    sums, then the sup-inverse of the service curve by searchsorted
    into the service prefix sums.
    """
    if higher is None:
        # C(t) = t: the bound degenerates to max_t (A(t) - t), attained
        # at an arrival breakpoint by concavity.
        return max(0.0, float((stream.cumbits - stream.times).max()))

    values, slopes = higher.service
    preimages = stream.time_of_bits_array(values)
    # Duplicates are harmless under a max-reduction, so no dedupe/sort.
    candidates = np.concatenate(
        (stream.times, preimages[np.isfinite(preimages)])
    )
    arrived = stream.bits(candidates)

    # Sup-inverse of C: the first segment whose *end* value exceeds the
    # arrival count; ``side="right"`` lands on the right edge of any
    # plateau, matching ServiceCurve.inverse.
    position = values.searchsorted(arrived, side="right")
    segment = position - 1  # position >= 1 because values[0] = 0 <= arrived
    segment_slopes = slopes[segment]
    if (segment_slopes <= 0.0).any():
        # A zero-slope selection means the service curve never exceeds
        # the required level: unbounded delay despite balanced rates.
        return math.inf
    leave = (higher.times[segment]
             + (arrived - values[segment]) / segment_slopes)
    return max(0.0, float((leave - candidates).max()))


def backlog_bound_fast(stream: StreamKernel,
                       higher: Optional[StreamKernel]) -> float:
    """Vectorized worst-case backlog ``max_u (A(u) - C(u))``."""
    if higher is None:
        return max(0.0, float((stream.cumbits - stream.times).max()))
    points = np.concatenate((stream.times, higher.times))
    backlog = stream.bits(points) - higher.service_values(points)
    return max(0.0, float(backlog.max()))
