"""The append-only admit/release journal backing switch crash recovery.

Each :class:`~repro.core.switch_cac.SwitchCAC` writes one entry per
state transition -- ``reserve``, ``commit``, ``abort``, one-shot
``admit``, ``release`` -- to an :class:`AdmissionJournal`.  The journal
models the switch's stable storage: a crash wipes the incremental
aggregate caches but never the journal, and ``SwitchCAC.recover()``
replays its :attr:`entries` op-for-op -- through the same switch method
that ran each op live -- to rebuild a state bit-identical to the
pre-crash committed state (reservations that never committed are
discarded after the replay, exactly as a real transaction log discards
in-flight transactions).

The journal stores the opaque ``leg`` payload the switch gives it
(``reserve``/``admit`` entries carry the full leg, the others only the
connection id) and enforces append-only discipline: entries can be
added and read, never removed or reordered.  Each entry is kept as a
plain ``(op, connection_id, leg)`` tuple, its sequence number being its
position; :class:`JournalEntry` views are built only when the log is
read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..obs import events as _oevents
from ..obs import metrics as _om

__all__ = ["JournalEntry", "AdmissionJournal", "JOURNAL_OPS"]

#: The legal journal operations, in the order a connection moves through
#: them (``admit`` is the one-shot reserve+commit the legacy API uses).
JOURNAL_OPS = ("reserve", "commit", "abort", "admit", "release")


@dataclass(frozen=True)
class JournalEntry:
    """One durable record: what happened to which connection.

    ``leg`` carries the admitted leg for ``reserve``/``admit`` entries
    (everything replay needs to redo the aggregate delta) and is
    ``None`` for the id-only operations.
    """

    sequence: int
    op: str
    connection_id: str
    leg: Optional[Any] = None

    def __post_init__(self) -> None:
        _validate(self.op, self.leg)


def _validate(op: str, leg: Optional[Any]) -> None:
    """Refuse an unknown op, or a ``reserve``/``admit`` without its leg."""
    if op not in JOURNAL_OPS:
        raise ValueError(
            f"unknown journal op {op!r}; expected one of {JOURNAL_OPS}"
        )
    if leg is None and op in ("reserve", "admit"):
        raise ValueError(f"a {op!r} entry must carry its leg")


class AdmissionJournal:
    """Append-only sequence of ``(op, connection_id, leg)`` records,
    read as :class:`JournalEntry` views."""

    def __init__(self) -> None:
        self._records: List[Tuple[str, str, Optional[Any]]] = []

    def append(self, op: str, connection_id: str,
               leg: Optional[Any] = None) -> int:
        """Write one entry; returns its sequence number."""
        _validate(op, leg)
        sequence = len(self._records)
        self._records.append((op, connection_id, leg))
        registry = _om._registry
        if registry.enabled:
            registry.counter("journal_ops_total", op=op).inc()
        bus = _oevents._bus
        if bus.has_subscribers:
            bus.emit("journal", op, connection_id=connection_id,
                     sequence=sequence)
        return sequence

    @property
    def entries(self) -> Tuple[JournalEntry, ...]:
        """Immutable snapshot of the whole log, one view per entry."""
        return tuple(JournalEntry(sequence, *record)
                     for sequence, record in enumerate(self._records))

    def replay(self) -> Tuple[Dict[str, Any], Dict[str, Any]]:
        """Fold the log into ``(committed, pending)`` leg maps.

        Pure bookkeeping (no aggregate math): the reference fold for
        audits and for asserting what :meth:`SwitchCAC.recover` should
        reconstruct.
        """
        committed: Dict[str, Any] = {}
        pending: Dict[str, Any] = {}
        for op, connection_id, leg in self._records:
            if op == "reserve":
                pending[connection_id] = leg
            elif op == "commit":
                committed[connection_id] = pending.pop(connection_id)
            elif op == "abort":
                pending.pop(connection_id, None)
            elif op == "admit":
                committed[connection_id] = leg
            elif op == "release":
                committed.pop(connection_id, None)
        return committed, pending

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[JournalEntry]:
        return iter(self.entries)

    def __repr__(self) -> str:
        return f"AdmissionJournal(entries={len(self._records)})"
