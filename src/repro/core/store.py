"""The store behind a switch's CAC state.

:class:`~repro.core.switch_cac.SwitchCAC` is the admission *protocol*
(checks, two-phase transitions, journaling, recovery); this module is
where its *state* lives.  An :class:`AdmissionStore` owns

* one :class:`~repro.core.port_state.PortState` per configured
  ``(out_link, priority)`` port;
* the committed and pending (reserved-but-uncommitted) leg maps of the
  two-phase walk, plus the replayable per-reservation check results;
* the *in-link rate ledger*: a running sum of the admitted long-run
  rate entering via each incoming link, patched by the same deltas as
  the port aggregates.  It is the single source of truth behind
  ``SwitchCAC.in_link_utilization`` -- shared by the exact path and the
  admission fast path, so the two can never disagree on in-link
  feasibility.

Everything the switch does -- admission checks, incremental deltas,
journal replay, :meth:`SwitchCAC.verify_consistency` -- goes through
this class.  Iteration everywhere is **deterministic**: ports, links
and priorities come back sorted, and committed/pending legs iterate in
insertion order, so serialization, ground-truth rebuilds and Prometheus
exposition are reproducible across runs regardless of configuration or
admission order.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from ..exceptions import AdmissionError
from .bitstream import Number
from .port_state import CacheObserver, PortState

__all__ = ["AdmissionStore"]


class AdmissionStore:
    """Ports, legs and the in-link ledger of one switch, in plain dicts."""

    def __init__(self) -> None:
        self._bounds: Dict[str, Dict[int, Number]] = {}
        self._ports: Dict[Tuple[str, int], PortState] = {}
        self._committed: Dict[str, Any] = {}
        self._pending: Dict[str, Any] = {}
        self._pending_results: Dict[str, Any] = {}
        #: admitted long-run rate per incoming link (exact + fast path).
        self._in_link_rate: Dict[str, Number] = {}
        self._filter_per_input = True
        self._on_cache: Optional[CacheObserver] = None

    # -- ports ----------------------------------------------------------

    def configure_link(self, out_link: str,
                       bounds: Mapping[int, Number]) -> None:
        """Create (or reconfigure) the ports of one output link.

        A link that carries committed or pending legs may change its
        bounds but not its set of priorities: a port added next to live
        traffic would start without the interference already admitted
        above it, and a dropped one would strand its legs.
        """
        current = self._bounds.get(out_link)
        if current is not None and set(current) != set(bounds) and any(
                leg.out_link == out_link
                for legs in (self._committed, self._pending)
                for leg in legs.values()):
            raise AdmissionError(
                f"link {out_link!r} carries connections; its priorities "
                f"{sorted(current)} cannot change to {sorted(bounds)}"
            )
        self._bounds[out_link] = dict(bounds)
        for priority, bound in bounds.items():
            key = (out_link, priority)
            existing = self._ports.get(key)
            if existing is not None:
                existing.advertised_bound = bound
                continue
            self._ports[key] = PortState(
                out_link, priority, bound,
                filter_per_input=self._filter_per_input,
                on_cache=self._on_cache,
            )
        # A reconfiguration may drop priorities; their ports go too.
        for key in [k for k in self._ports
                    if k[0] == out_link and k[1] not in bounds]:
            del self._ports[key]

    def has_link(self, out_link: str) -> bool:
        """Is this output link configured?"""
        return out_link in self._bounds

    def out_links(self) -> List[str]:
        """Configured output links, sorted."""
        return sorted(self._bounds)

    def priorities(self, out_link: str) -> List[int]:
        """Priorities served on one link, highest (smallest) first."""
        return sorted(self._bounds[out_link])

    def port(self, out_link: str, priority: int) -> PortState:
        """The :class:`PortState` of one ``(out_link, priority)`` port."""
        try:
            return self._ports[(out_link, priority)]
        except KeyError:
            raise AdmissionError(
                f"no port for priority {priority} on link {out_link!r}"
            ) from None

    def ports(self) -> List[PortState]:
        """Every port, sorted by ``(out_link, priority)``."""
        return [port for _key, port in sorted(self._ports.items())]

    def ports_for(self, out_link: str) -> List[PortState]:
        """The ports of one output link, highest priority first."""
        return [self.port(out_link, priority)
                for priority in self.priorities(out_link)]

    def ports_below(self, out_link: str, priority: int) -> List[PortState]:
        """Same-link ports of strictly lower priority (larger number)."""
        return [port for port in self.ports_for(out_link)
                if port.priority > priority]

    def attach(self, filter_per_input: bool,
               on_cache: Optional[CacheObserver] = None) -> None:
        """Bind the owning switch's filtering mode and cache observer.

        Applies to already-configured ports and to every port
        configured later.
        """
        self._filter_per_input = filter_per_input
        self._on_cache = on_cache
        for port in self._ports.values():
            port.filter_per_input = filter_per_input
            if on_cache is not None:
                port.on_cache = on_cache

    # -- legs -----------------------------------------------------------

    def committed(self) -> Mapping[str, Any]:
        """Committed legs by connection id, in insertion order."""
        return dict(self._committed)

    def pending(self) -> Mapping[str, Any]:
        """Reserved-but-uncommitted legs, in insertion order."""
        return dict(self._pending)

    def get_committed(self, connection_id: str) -> Optional[Any]:
        """One committed leg, or ``None``."""
        return self._committed.get(connection_id)

    def get_pending(self, connection_id: str) -> Optional[Any]:
        """One pending leg, or ``None``."""
        return self._pending.get(connection_id)

    def put_committed(self, connection_id: str, leg: Any) -> None:
        """Record a committed leg."""
        self._committed[connection_id] = leg

    def put_pending(self, connection_id: str, leg: Any,
                    result: Any = None) -> None:
        """Record a reservation (with its replayable check result)."""
        self._pending[connection_id] = leg
        if result is not None:
            self._pending_results[connection_id] = result

    def pop_committed(self, connection_id: str) -> Optional[Any]:
        """Remove and return a committed leg, or ``None``."""
        return self._committed.pop(connection_id, None)

    def pop_pending(self, connection_id: str) -> Optional[Any]:
        """Remove and return a pending leg (and its result), or ``None``."""
        self._pending_results.pop(connection_id, None)
        return self._pending.pop(connection_id, None)

    def pending_result(self, connection_id: str) -> Optional[Any]:
        """The stored check result of one reservation, or ``None``."""
        return self._pending_results.get(connection_id)

    # -- incremental deltas --------------------------------------------

    def apply_delta(self, in_link: str, out_link: str, priority: int,
                    stream: Any, add: bool) -> None:
        """Patch every affected port for one admit/release delta.

        The stream is added to (or removed from) the in-link ledger, the
        ``higher`` aggregate of every lower-priority port on the link,
        and the port's own ``own`` aggregate -- one ``+``/``-`` each.
        No port reads another, so each port's floats depend only on the
        sequence of deltas it sees: the incremental arithmetic
        :meth:`~repro.core.switch_cac.SwitchCAC.recover` relies on for
        bit-identical replay.
        """
        rate = stream.long_run_rate
        base = self._in_link_rate.get(in_link, 0)
        self._in_link_rate[in_link] = (base + rate) if add else (base - rate)
        for lower in self.ports_below(out_link, priority):
            lower.apply_higher(in_link, stream, add)
        self.port(out_link, priority).apply_same(in_link, stream, add)

    def in_link_rate(self, in_link: str) -> Number:
        """Total admitted long-run rate entering via one incoming link."""
        return self._in_link_rate.get(in_link, 0)

    # -- lifecycle ------------------------------------------------------

    def clear_volatile(self) -> None:
        """Drop legs, reservations and every port aggregate.

        Port *configuration* (advertised bounds) survives -- it is boot
        configuration, not run-time state.  Models a node crash.
        """
        self._committed.clear()
        self._pending.clear()
        self._pending_results.clear()
        self._in_link_rate.clear()
        for port in self._ports.values():
            port.clear()

    def snapshot(self) -> Dict[str, List[Any]]:
        """The state-determining legs, as ``{"committed", "pending"}``.

        Legs fully determine every aggregate, so this is the whole
        story; :meth:`restore` rebuilds the rest deterministically.
        The lists preserve insertion (admission) order.
        """
        return {
            "committed": list(self._committed.values()),
            "pending": list(self._pending.values()),
        }

    def restore(self, snapshot: Mapping[str, Iterable[Any]]) -> None:
        """Rebuild the store from a :meth:`snapshot`.

        Clears the volatile state, then re-applies every leg in the
        snapshot's order through the same incremental arithmetic as
        live admission, so the rebuilt aggregates are deterministic.
        """
        self.clear_volatile()
        for kind in ("committed", "pending"):
            for leg in snapshot.get(kind, ()):
                if kind == "committed":
                    self.put_committed(leg.connection_id, leg)
                else:
                    self.put_pending(leg.connection_id, leg)
                self.apply_delta(leg.in_link, leg.out_link, leg.priority,
                                 leg.stream, add=True)

    def __repr__(self) -> str:
        return (
            f"AdmissionStore(links={self.out_links()}, "
            f"committed={len(self._committed)}, "
            f"pending={len(self._pending)})"
        )
