"""Declarative fault plans and the injector the signaling channel consults.

A :class:`FaultSpec` names one thing that goes wrong: a signaling
message dropped, delayed or duplicated at hop *k* of a walk phase, a
switch that crashes when the message reaches it, or a link that fails
permanently mid-walk.  A :class:`FaultPlan` is an ordered bag of specs;
the :class:`FaultInjector` consumes them as deliveries match and keeps
the cross-setup state a plan cannot express statically (which links
have failed so far, what was actually injected).

The injector is deliberately ignorant of the CAC machinery -- it only
answers "what happens to this delivery attempt?".  The interpretation
(advancing the clock past a timeout, crashing the target switch,
re-processing a duplicate) lives in
:class:`repro.network.signaling.SignalingChannel`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Set, Tuple

__all__ = [
    "DROP",
    "DELAY",
    "DUPLICATE",
    "CRASH",
    "LINK_FAIL",
    "FAULT_KINDS",
    "FaultSpec",
    "FaultPlan",
    "FaultInjector",
]

#: The message is lost; the sender sees silence and retries.
DROP = "drop"
#: The message (and its response) arrive ``delay`` time units late; a
#: delay beyond the hop timeout is processed *and* retransmitted, which
#: exercises receiver idempotency.
DELAY = "delay"
#: The message is delivered twice (e.g. a retransmission races a slow
#: first copy); receivers must treat the second copy as a no-op.
DUPLICATE = "duplicate"
#: The target switch crashes before processing the message: its volatile
#: CAC state is lost (the journal survives) and it answers nothing until
#: recovered.
CRASH = "crash"
#: The link the message travels over fails permanently from this attempt
#: on; every later delivery over it is lost.
LINK_FAIL = "link-fail"

FAULT_KINDS = frozenset({DROP, DELAY, DUPLICATE, CRASH, LINK_FAIL})

#: Walk phases a fault can target (and the random harness draws from).
PHASES = ("reserve", "commit", "abort", "release")


@dataclass(frozen=True)
class FaultSpec:
    """One declarative fault.

    Attributes
    ----------
    kind:
        One of :data:`FAULT_KINDS`.
    phase:
        Which walk phase the fault targets (``"reserve"``, ``"commit"``,
        ``"abort"`` or ``"release"``), or ``"*"`` for any.
    hop:
        Hop index on the route (0-based) whose delivery is affected.
    connection:
        Restrict to one connection name, or ``None`` for any.
    delay:
        Lateness in time units (``DELAY`` only).
    count:
        How many matching delivery attempts the fault consumes (a
        ``DROP`` with ``count=3`` loses three consecutive attempts).
    """

    kind: str
    phase: str = "reserve"
    hop: int = 0
    connection: Optional[str] = None
    delay: float = 0.0
    count: int = 1

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{sorted(FAULT_KINDS)}"
            )
        if self.phase != "*" and self.phase not in PHASES:
            raise ValueError(
                f"unknown phase {self.phase!r}; expected '*' or one of "
                f"{PHASES}"
            )
        if self.hop < 0:
            raise ValueError(f"hop index must be >= 0, got {self.hop}")
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")
        if self.kind == DELAY and self.delay <= 0:
            raise ValueError("a DELAY fault needs a positive delay")

    def matches(self, phase: str, hop: int,
                connection: Optional[str]) -> bool:
        """Does this spec apply to the given delivery attempt?"""
        if self.phase != "*" and self.phase != phase:
            return False
        if self.hop != hop:
            return False
        if self.connection is not None and self.connection != connection:
            return False
        return True


@dataclass(frozen=True)
class FaultPlan:
    """An ordered, immutable schedule of faults for one experiment."""

    faults: Tuple[FaultSpec, ...] = ()

    def __init__(self, faults: Iterable[FaultSpec] = ()):
        object.__setattr__(self, "faults", tuple(faults))

    def __len__(self) -> int:
        return len(self.faults)

    def __iter__(self):
        return iter(self.faults)


class FaultInjector:
    """Consumes a :class:`FaultPlan`, one delivery attempt at a time.

    Instances are stateful: each spec is good for ``count`` matching
    attempts, failed links stay failed for the injector's lifetime, and
    :attr:`injected` records every fault actually fired (spec plus the
    ``(phase, hop, connection)`` context) for post-hoc inspection.
    """

    def __init__(self, plan: Optional[FaultPlan] = None):
        self.plan = plan or FaultPlan()
        self._remaining: List[List[object]] = [
            [spec, spec.count] for spec in self.plan
        ]
        self._failed_links: Set[str] = set()
        self.injected: List[Tuple[FaultSpec, Tuple[str, int, Optional[str]]]] = []

    def intercept(self, phase: str, hop: int,
                  connection: Optional[str]) -> List[FaultSpec]:
        """The faults striking this delivery attempt (consuming them)."""
        struck: List[FaultSpec] = []
        for entry in self._remaining:
            spec, left = entry
            if left > 0 and spec.matches(phase, hop, connection):
                entry[1] = left - 1
                struck.append(spec)
                self.injected.append((spec, (phase, hop, connection)))
        return struck

    def fail_link(self, link: str) -> None:
        """Mark a link as down: every later delivery over it is lost."""
        self._failed_links.add(link)

    def link_down(self, link: str) -> bool:
        """Has this link failed so far?"""
        return link in self._failed_links

    def exhausted(self) -> bool:
        """True when every planned fault has fired."""
        return all(left == 0 for _spec, left in self._remaining)
