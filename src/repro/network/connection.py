"""Connection requests and established connections.

A request carries the QoS tuple the paper's SETUP message carries --
``(PCR, SCR, MBS, D)`` -- plus the preselected route and the priority
level the source asks for.  An established connection records what the
network actually committed: the per-hop advertised bounds, the CDV each
hop's check assumed, and the end-to-end guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..core.bitstream import Number
from ..core.traffic import VBRParameters
from ..exceptions import TrafficModelError
from .routing import Route

__all__ = ["ConnectionRequest", "EstablishedConnection", "HopCommitment"]


@dataclass(frozen=True)
class ConnectionRequest:
    """A request to establish a hard (or soft) real-time connection.

    Attributes
    ----------
    name:
        Network-unique identifier of the connection (the VC).
    traffic:
        The ``(PCR, SCR, MBS)`` descriptor policed at the source.
    route:
        The preselected route the SETUP message walks.
    priority:
        Requested static priority (0 = highest).
    delay_bound:
        Requested end-to-end queueing delay bound ``D`` in cell times,
        or ``None`` to accept whatever the route's advertised bounds
        add up to.
    """

    name: str
    traffic: VBRParameters
    route: Route
    priority: int = 0
    delay_bound: Optional[Number] = None

    def __post_init__(self) -> None:
        if self.delay_bound is not None and self.delay_bound <= 0:
            raise TrafficModelError(
                f"requested delay bound must be positive, got "
                f"{self.delay_bound}"
            )
        if self.priority < 0:
            raise TrafficModelError(
                f"priority must be >= 0, got {self.priority}"
            )


@dataclass(frozen=True)
class HopCommitment:
    """What one switch committed to for one connection.

    ``cdv_in`` is the accumulated delay variation the admission check
    assumed for the arrival stream at this hop; ``advertised_bound`` is
    the fixed guarantee the hop contributes to the end-to-end bound and
    to downstream CDV accumulation; ``computed_bound`` is the worst-case
    bound of the whole priority class at this port right after this
    admission (a diagnostic -- it may shrink when connections leave and
    grow as later ones join, but never beyond the advertised bound).
    """

    switch: str
    in_link: str
    out_link: str
    cdv_in: Number
    advertised_bound: Number
    computed_bound: Number


@dataclass(frozen=True)
class EstablishedConnection:
    """A connection the network admitted end to end.

    The hard guarantee is :attr:`e2e_bound`: no cell will be queued for
    longer than this many cell times in total, as long as the source
    honours its traffic contract.  Every switch on the route books the
    connection's leg under :attr:`name`.
    """

    request: ConnectionRequest
    hops: Tuple[HopCommitment, ...]

    @property
    def name(self) -> str:
        """The connection identifier."""
        return self.request.name

    @property
    def e2e_bound(self) -> Number:
        """End-to-end queueing delay guarantee (sum of advertised bounds)."""
        total: Number = 0
        for hop in self.hops:
            total += hop.advertised_bound
        return total

    @property
    def e2e_computed_bound(self) -> Number:
        """Sum of the per-hop computed bounds at establishment time."""
        total: Number = 0
        for hop in self.hops:
            total += hop.computed_bound
        return total

    def __repr__(self) -> str:
        return (
            f"EstablishedConnection({self.name!r}, hops={len(self.hops)}, "
            f"e2e_bound={self.e2e_bound})"
        )
