"""Baseline admission-control schemes the paper argues against.

Section 1 motivates the bit-stream CAC by the failure of the
"straightforward" scheme: **peak bandwidth allocation**, which admits
CBR connections as long as the summed peak rates on every link stay
within the link bandwidth.  It keeps links from being oversubscribed on
average, but -- as the motivation bench demonstrates with the cell-level
simulator -- jitter introduced at upstream nodes clumps cells, the
instantaneous arrival rate exceeds the link rate, and queueing delays
become unpredictable (and finite buffers overflow).

Three baselines are provided:

* :class:`PeakBandwidthCAC`  -- admit while ``sum PCR <= capacity``;
* :class:`SustainedBandwidthCAC` -- admit while ``sum SCR <= capacity``
  (even laxer: the classic "average allocation" that ignores bursts);
* :func:`rate_function_delay_bound` -- the delay analysis in the style
  of Raha et al. [9], the scheme the paper improves on: traffic is
  described by a maximum-rate function, upstream distortion is modelled
  by *shifting* that function by the accumulated CDV (an instantaneous
  release of the whole clump, rather than the paper's exact
  released-at-link-rate envelope), and per-input link filtering is not
  applied.  Sound but looser -- the A1/A3 benches quantify by how much.

The bandwidth schemes expose the same ``setup`` / ``teardown`` /
``would_admit`` surface as :class:`~repro.core.admission.NetworkCAC` so
benches can swap schemes.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from ..exceptions import AdmissionError
from ..network.connection import ConnectionRequest
from ..network.topology import Network
from .bitstream import BitStream, Number

__all__ = [
    "BandwidthAllocationCAC",
    "PeakBandwidthCAC",
    "SustainedBandwidthCAC",
    "rate_function_delay_bound",
]


def rate_function_delay_bound(
        components: Sequence[Tuple[BitStream, Number]]) -> Number:
    """Worst-case delay in the maximum-rate-function style of [9].

    ``components`` pairs each connection's *source* envelope with the
    CDV accumulated over its upstream switches.  The rate-function
    model bounds the distorted arrivals of a connection by shifting its
    cumulative curve left: ``A'_i(t) = A_i(t + cdv_i)`` -- as if the
    entire clump were released instantaneously at full aggregate rate
    -- and sums connections without modelling the smoothing of the
    incoming links.  The bound is then the classic busy-period maximum

        ``D = max_t ( sum_i A_i(t + cdv_i) - t )``

    evaluated at the (finitely many) shifted breakpoints.  Always at
    least the bit-stream bound for the same traffic; the gap is the
    value of the paper's two refinements (exact clump envelopes and
    link filtering).  Returns ``math.inf`` when the sustained rates
    reach the link rate with a clump outstanding.
    """
    if not components:
        return 0
    tail_rate: Number = 0
    for stream, cdv in components:
        if cdv < 0:
            raise ValueError(f"cdv must be non-negative, got {cdv}")
        tail_rate += stream.long_run_rate

    def total_arrivals(t: Number) -> Number:
        total: Number = 0
        for stream, cdv in components:
            total += stream.bits(t + cdv)
        return total

    candidates = {0}
    for stream, cdv in components:
        for breakpoint in stream.times:
            shifted = breakpoint - cdv
            if shifted > 0:
                candidates.add(shifted)

    if tail_rate > 1:
        # Sustained overload: the busy-period function grows forever.
        return math.inf
    best: Number = 0
    for t in sorted(candidates):
        backlog = total_arrivals(t) - t
        if backlog > best:
            best = backlog
    return best


class BandwidthAllocationCAC:
    """Shared bookkeeping: one scalar rate per connection, summed per link.

    Subclasses choose which rate of the traffic contract is allocated.
    No delay bounds are computed or guaranteed -- that is the point of
    the comparison.
    """

    #: human-readable scheme name used in reports
    name = "bandwidth-allocation"

    def __init__(self, network: Network):
        self.network = network
        self._allocated: Dict[str, Number] = {}   # link -> allocated rate
        self._connections: Dict[str, ConnectionRequest] = {}

    def rate_of(self, request: ConnectionRequest) -> Number:
        """The scalar rate this scheme allocates for a connection."""
        raise NotImplementedError  # pragma: no cover

    def allocated(self, link_name: str) -> Number:
        """Rate currently allocated on a link."""
        return self._allocated.get(link_name, 0)

    def would_admit(self, request: ConnectionRequest) -> bool:
        """True when :meth:`setup` would reserve the connection.

        That needs a name not yet established and headroom for the rate
        on every link of the route.
        """
        if request.name in self._connections:
            return False
        rate = self.rate_of(request)
        for link in request.route.links:
            if self.allocated(link.name) + rate > link.capacity:
                return False
        return True

    def setup(self, request: ConnectionRequest) -> None:
        """Reserve the rate on every link of the route, or raise."""
        if request.name in self._connections:
            raise AdmissionError(
                f"connection {request.name!r} is already established"
            )
        rate = self.rate_of(request)
        for link in request.route.links:
            if self.allocated(link.name) + rate > link.capacity:
                raise AdmissionError(
                    f"{self.name} CAC: link {link.name!r} has "
                    f"{self.allocated(link.name)} allocated; adding {rate} "
                    f"would exceed capacity {link.capacity}"
                )
        for link in request.route.links:
            self._allocated[link.name] = self.allocated(link.name) + rate
        self._connections[request.name] = request

    def teardown(self, name: str) -> None:
        """Release a connection's reservation on every link."""
        try:
            request = self._connections.pop(name)
        except KeyError:
            raise AdmissionError(f"no established connection {name!r}") from None
        rate = self.rate_of(request)
        for link in request.route.links:
            self._allocated[link.name] -= rate

    def setup_all(self, requests: Iterable[ConnectionRequest]) -> None:
        """Reserve several connections; unwind all on the first failure."""
        done: List[str] = []
        try:
            for request in requests:
                self.setup(request)
                done.append(request.name)
        except AdmissionError:
            for name in reversed(done):
                self.teardown(name)
            raise

    @property
    def established(self) -> Mapping[str, ConnectionRequest]:
        """The currently reserved connections."""
        return dict(self._connections)


class PeakBandwidthCAC(BandwidthAllocationCAC):
    """Admit while the summed *peak* rates fit each link.

    The conventional CBR admission rule.  Guarantees no long-run
    oversubscription but no worst-case delay: upstream jitter can clump
    peak-allocated traffic beyond the link rate transiently.
    """

    name = "peak-bandwidth"

    def rate_of(self, request: ConnectionRequest) -> Number:
        return request.traffic.pcr


class SustainedBandwidthCAC(BandwidthAllocationCAC):
    """Admit while the summed *sustained* rates fit each link.

    Average-rate allocation: the laxest plausible rule, admitting
    everything stable.  Useful as the upper envelope in capacity plots
    (no CAC that guarantees stability can admit more).
    """

    name = "sustained-bandwidth"

    def rate_of(self, request: ConnectionRequest) -> Number:
        return request.traffic.scr
