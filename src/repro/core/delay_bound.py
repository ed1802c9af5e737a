"""Worst-case queueing analysis for static-priority FIFO ports (Section 4.2).

A static-priority FIFO output port serves, at every instant, the
highest-priority queue that holds cells; within a queue cells leave in
arrival order.  For a priority level ``p`` the analysis takes two inputs:

* ``S`` -- the aggregated worst-case arrival stream of priority ``p``;
* ``S1`` -- the *filtered* aggregated arrival stream of all priorities
  strictly higher than ``p`` (filtered because it already passed the
  output link model; its rate never exceeds 1).

The service available to priority ``p`` up to time ``t`` is then

    ``C(t) = integral of (1 - r1(tau)) dtau``

and a bit of ``S`` arriving at time ``t`` leaves at

    ``g(t) = inf { u : C(u) >= A(t) }``

where ``A`` is the cumulative arrival curve of ``S``.  The worst-case
queueing delay bound is ``D = max_t (g(t) - t)`` (Algorithm 4.1,
Figure 8).  Because ``A`` and ``C`` are piecewise linear -- ``A`` concave,
``C`` convex (``r1`` non-increasing makes ``1 - r1`` non-decreasing) --
``D(t)`` is piecewise linear and its maximum is attained either at a
breakpoint of ``S`` or at a pre-image under ``A`` of a breakpoint of
``S1``.  We evaluate exactly those finitely many candidates, which gives
the same bound as the paper's forward scan while remaining robust when
``r1`` has an initial full-rate plateau or when ties occur.

When the long-run arrival rates satisfy ``r + r1 > 1`` the backlog grows
without bound and the delay bound is ``math.inf`` (such a configuration
is what the CAC rejects).
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

from ..exceptions import BitStreamError
from ..obs import metrics as _om
from . import kernels as _kernels
from .bitstream import BitStream, Number

__all__ = [
    "delay_bound",
    "delay_at",
    "departure_time",
    "backlog_bound_with_higher",
    "is_stable",
    "ServiceCurve",
]


class ServiceCurve:
    """The cumulative service ``C(t)`` left over by higher priorities.

    Wraps the filtered higher-priority stream ``S1`` and exposes the
    piecewise-linear curve ``C(t) = integral of (1 - r1)`` together with
    its (left-continuous) inverse.  With no higher-priority traffic the
    curve degenerates to ``C(t) = t``.
    """

    def __init__(self, higher: Optional[BitStream] = None):
        if higher is None:
            higher = BitStream.zero()
        if higher.peak_rate > 1:
            raise BitStreamError(
                "the higher-priority stream must be filtered (rate <= 1) "
                f"before computing delay bounds; got peak rate "
                f"{higher.peak_rate}"
            )
        self._higher = higher
        #: service accumulated by each breakpoint of S1
        self._values: Tuple[Number, ...] = self._cumulative()

    @property
    def higher(self) -> BitStream:
        """The filtered higher-priority stream this curve derives from."""
        return self._higher

    @property
    def tail_rate(self) -> Number:
        """Service rate available after the last breakpoint, ``1 - r1``."""
        return 1 - self._higher.long_run_rate

    def _cumulative(self) -> Tuple[Number, ...]:
        values = []
        total: Number = 0
        times = self._higher.times
        rates = self._higher.rates
        for index, start in enumerate(times):
            if index > 0:
                gap = start - times[index - 1]
                total += (1 - rates[index - 1]) * gap
            values.append(total)
        return tuple(values)

    def value(self, t: Number) -> Number:
        """Cumulative service ``C(t)`` available to priority ``p``."""
        if t < 0:
            raise ValueError(f"time must be non-negative, got {t}")
        index = self._higher._segment_index(t)
        start = self._higher.times[index]
        return self._values[index] + (1 - self._higher.rates[index]) * (t - start)

    def inverse(self, amount: Number) -> Number:
        """Latest time at which cumulative service still equals ``amount``.

        This is the *sup*-inverse ``inf { u : C(u) > amount }``: when the
        service curve plateaus at ``amount`` (higher priorities hold the
        link), the inverse lands on the *right* edge of the plateau.
        The sup-inverse is what makes the delay bound tight from above --
        a priority-``p`` bit arriving just after the plateau level is
        reached waits out the whole plateau, and ``D(t)`` has an upward
        jump there that a left-inverse would miss.

        Returns ``math.inf`` when the required service level is never
        exceeded (higher priorities saturate the link forever).
        """
        if amount < 0:
            raise ValueError(f"amount must be non-negative, got {amount}")
        times = self._higher.times
        rates = self._higher.rates
        for index, start in enumerate(times):
            slope = 1 - rates[index]
            base = self._values[index]
            end_value = (
                self._values[index + 1] if index + 1 < len(times) else None
            )
            if end_value is not None and end_value <= amount:
                continue  # C has not exceeded ``amount`` by this segment's end
            if slope == 0:
                return math.inf  # final plateau: never exceeds ``amount``
            return start + (amount - base) / slope
        raise AssertionError("unreachable")  # pragma: no cover

    def breakpoints(self) -> Sequence[Tuple[Number, Number]]:
        """``(time, C(time))`` pairs at the breakpoints of ``S1``."""
        return list(zip(self._higher.times, self._values))


def is_stable(stream: BitStream, higher: Optional[BitStream] = None) -> bool:
    """True when the worst-case backlog of priority ``p`` stays bounded.

    Stability requires the long-run arrival rate of ``S`` plus the
    long-run rate of the higher-priority interference to stay at or
    below the link rate.  Equality is allowed: the backlog then stops
    growing and the delay bound is still finite.
    """
    interference = higher.long_run_rate if higher is not None else 0
    return stream.long_run_rate + interference <= 1


def departure_time(stream: BitStream, service: ServiceCurve, t: Number) -> Number:
    """Worst-case departure time ``g(t)`` of a bit arriving at time ``t``.

    The bit leaves once the port, always busy with higher-priority cells
    first, has served all ``A(t)`` priority-``p`` bits that arrived no
    later than it did.  Never earlier than ``t`` itself.
    """
    leave = service.inverse(stream.bits(t))
    return leave if leave > t else t


def delay_at(stream: BitStream, higher: Optional[BitStream], t: Number) -> Number:
    """Worst-case queueing delay ``D(t) = g(t) - t`` of a bit arriving at ``t``.

    A diagnostic helper; :func:`delay_bound` maximizes this function.
    """
    service = ServiceCurve(higher)
    return departure_time(stream, service, t) - t


#: ``(generation, {(op, path): Counter})`` -- the kernel-path counters,
#: bound lazily and re-bound when the global registry changes.
_path_counters = (-1, {})


def _note_path(op: str, fast: bool) -> None:
    """Count one bound evaluation on the float-kernel or scalar path.

    The float-kernel path keeps its original label, ``path="numpy"``.
    """
    global _path_counters
    generation, counters = _path_counters
    if generation != _om._generation:
        counters = {}
        _path_counters = (_om._generation, counters)
    key = (op, "numpy" if fast else "scalar")
    counter = counters.get(key)
    if counter is None:
        counter = _om.get_registry().counter(
            "kernel_path_total", op=op, path=key[1])
        counters[key] = counter
    counter.inc()


def _fast_kernels(stream: BitStream, higher: Optional[BitStream]):
    """``(stream_kernel, higher_kernel)`` when the float path applies.

    The fast path engages when the arrival stream has a float kernel
    and the interference either is absent/zero or has one too; exact
    (Fraction) inputs on either side keep the scalar algorithms.
    Returns ``None`` when the exact path must run.
    """
    stream_kernel = stream.kernel
    if stream_kernel is None:
        return None
    if higher is None or higher.is_zero:
        return stream_kernel, None
    higher_kernel = higher.kernel
    if higher_kernel is None:
        return None
    return stream_kernel, higher_kernel


def delay_bound(stream: BitStream,
                higher: Optional[BitStream] = None) -> Number:
    """Algorithm 4.1: the worst-case queueing delay bound for ``stream``.

    Parameters
    ----------
    stream:
        Aggregated priority-``p`` arrival stream ``S`` at the queueing
        point (may exceed rate 1; several incoming links can feed one
        output port).
    higher:
        Filtered aggregated stream ``S1`` of all higher priorities, or
        ``None`` when ``p`` is the highest priority level.  For the
        highest priority the bound degenerates to the maximum backlog of
        Figure 7, as the paper notes.

    Returns
    -------
    The maximum of ``D(t)`` over all arrival instants, in cell times;
    ``math.inf`` when the system is unstable.
    """
    if stream.is_zero:
        return 0
    if not is_stable(stream, higher):
        return math.inf
    fast = _fast_kernels(stream, higher)
    if _om._registry.enabled:
        _note_path("delay_bound", fast is not None)
    if fast is not None:
        return _kernels.delay_bound_fast(*fast)
    service = ServiceCurve(higher)

    candidates: set[Number] = set(stream.times)
    for _, served in service.breakpoints():
        # g(t) crosses this service breakpoint when A(t) == C(t1_j);
        # the earliest such arrival instant is a vertex of D(t).
        preimage = stream.time_of_bits(served)
        if preimage != math.inf:
            candidates.add(preimage)

    best: Number = 0
    for t in sorted(candidates):
        arrived = stream.bits(t)
        leave = service.inverse(arrived)
        if leave == math.inf:
            # Service saturates before clearing these arrivals even
            # though long-run rates balance: unbounded delay.
            return math.inf
        delay = leave - t
        if delay > best:
            best = delay
    return best


def backlog_bound_with_higher(stream: BitStream,
                              higher: Optional[BitStream] = None) -> Number:
    """Worst-case priority-``p`` queue occupancy, in cells.

    The backlog at time ``u`` is ``A(u) - C(u)`` whenever positive (all
    leftover service is consumed while a backlog exists).  The maximum
    over ``u`` sizes the FIFO buffer needed to guarantee zero loss --
    what Section 5 uses to pick RTnet's 32-cell queues.  Returns
    ``math.inf`` when unstable.
    """
    if stream.is_zero:
        return 0
    if not is_stable(stream, higher):
        return math.inf
    fast = _fast_kernels(stream, higher)
    if _om._registry.enabled:
        _note_path("backlog_bound", fast is not None)
    if fast is not None:
        return _kernels.backlog_bound_fast(*fast)
    service = ServiceCurve(higher)
    points = sorted(set(stream.times) | set(service.higher.times))
    best: Number = 0
    for point in points:
        backlog = stream.bits(point) - service.value(point)
        if backlog > best:
            best = backlog
    return best
