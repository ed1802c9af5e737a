"""Randomized fault-schedule property harness.

The robustness contract of the two-phase walk is an *equivalence*: no
matter which faults strike a batch of setups -- drops, delays,
duplicates, switch crashes, link failures -- the network must end up in
exactly the state a fault-free replay of only the successfully
committed connections produces, every switch's incremental caches
must still verify against a from-scratch rebuild, and no switch may
hold a leg the network does not account for
(:func:`no_double_booking`).

:func:`run_schedule` executes one seeded schedule end to end (generate
a random :class:`~repro.robustness.faults.FaultPlan`, attempt every
request, recover crashed switches, compare against the clean replay)
and returns a :class:`ScheduleReport`; the property suite and the CI
stress job run hundreds of them with fixed seeds.  A failed link stays
down for the rest of its schedule.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.admission import NetworkCAC
from ..exceptions import AdmissionError
from ..network.connection import ConnectionRequest
from ..network.signaling import SignalingTrace
from ..network.topology import Network
from .faults import (
    CRASH,
    DELAY,
    DROP,
    DUPLICATE,
    LINK_FAIL,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    PHASES,
)
from .retry import RetryPolicy

__all__ = [
    "ScheduleReport",
    "random_fault_plan",
    "run_schedule",
    "committed_states_equal",
    "no_double_booking",
]

#: Per-switch journal digest: ``(switch, ((op, connection_id), ...))``
#: rows in sorted switch order -- a fingerprint of the exact op-for-op
#: journal each switch wrote during the schedule.
JournalDigest = Tuple[Tuple[str, Tuple[Tuple[str, str], ...]], ...]

#: Drops are the common failure; crashes and link failures are rare but
#: must still be survived, so they stay in the draw.
_KIND_WEIGHTS = (
    (DROP, 4),
    (DELAY, 3),
    (DUPLICATE, 3),
    (CRASH, 1),
    (LINK_FAIL, 1),
)


def random_fault_plan(rng: random.Random, max_hops: int,
                      connections: Optional[Sequence[str]] = None,
                      max_faults: int = 4,
                      phases: Sequence[str] = PHASES,
                      hop_timeout: float = 8.0) -> FaultPlan:
    """Draw a seeded fault schedule.

    Delays straddle the timeout boundary (``0.25x .. 2.5x``) so both the
    merely-slow and the processed-late-then-retransmitted paths get
    exercised; drop bursts of 1-3 probe the retry budget from both
    sides.
    """
    if max_hops < 1:
        raise ValueError(f"max_hops must be >= 1, got {max_hops}")
    kinds = [kind for kind, weight in _KIND_WEIGHTS for _ in range(weight)]
    faults: List[FaultSpec] = []
    for _ in range(rng.randint(0, max_faults)):
        kind = rng.choice(kinds)
        connection = None
        if connections and rng.random() < 0.7:
            connection = rng.choice(list(connections))
        faults.append(FaultSpec(
            kind=kind,
            phase=rng.choice(list(phases)),
            hop=rng.randrange(max_hops),
            connection=connection,
            delay=rng.uniform(0.25 * hop_timeout, 2.5 * hop_timeout)
            if kind == DELAY else 0.0,
            count=rng.randint(1, 3) if kind == DROP else 1,
        ))
    return FaultPlan(faults)


@dataclass
class ScheduleReport:
    """What one seeded schedule did and whether the invariants held."""

    seed: int
    plan: FaultPlan
    attempted: Tuple[str, ...]
    established: Tuple[str, ...]
    errors: Dict[str, str]
    recovered: Tuple[str, ...]
    consistent: bool
    equivalent: bool
    trace: SignalingTrace
    #: Exact per-switch journal op sequences (see :data:`JournalDigest`);
    #: two runs of one seed must write the same ones.
    journals: JournalDigest = field(default=())
    #: Did every switch's committed legs match exactly the established
    #: connections crossing it after the schedule?
    booking_safe: bool = True

    @property
    def ok(self) -> bool:
        """All acceptance properties held for this schedule."""
        return self.consistent and self.equivalent and self.booking_safe

    def __repr__(self) -> str:
        return (
            f"ScheduleReport(seed={self.seed}, faults={len(self.plan)}, "
            f"established={len(self.established)}/{len(self.attempted)}, "
            f"recovered={list(self.recovered)}, ok={self.ok})"
        )


def no_double_booking(cac: NetworkCAC) -> bool:
    """The booking safety invariant.

    Every switch's committed legs must be *exactly* the established
    connections whose route crosses it -- a leg the network unwound, a
    connection booked at a switch its route does not visit, a crashed
    switch or any leftover reservation all fail the check.  Capacity
    can then be neither double-booked nor leaked.
    """
    expected: Dict[str, set] = {name: set() for name in cac.switches()}
    for connection in cac.established.values():
        for hop in connection.hops:
            expected[hop.switch].add(connection.name)
    for name, switch in cac.switches().items():
        if switch.crashed:
            return False
        if switch.pending:
            return False
        if set(switch.legs) != expected[name]:
            return False
    return True


def committed_states_equal(faulted: NetworkCAC, clean: NetworkCAC,
                           tolerance: float = 1e-9) -> bool:
    """Is the post-fault network state the clean replay's state?

    Compares, per switch: the committed leg sets, the absence of
    leftover reservations, and every ``Sia`` aggregate; plus the
    established-connection sets and their end-to-end guarantees.
    """
    if set(faulted.established) != set(clean.established):
        return False
    for name, connection in faulted.established.items():
        if connection.e2e_bound != clean.established[name].e2e_bound:
            return False
    for name, cac in faulted.switches().items():
        reference = clean.switch(name)
        if set(cac.legs) != set(reference.legs):
            return False
        if cac.pending:
            return False
        keys = set(cac.recompute_aggregates())
        keys.update(reference.recompute_aggregates())
        for key in keys:
            if not cac.sia(*key).approx_equal(reference.sia(*key),
                                              tolerance):
                return False
    return True


def run_schedule(seed: int,
                 network_factory: Callable[[], Network],
                 request_factory: Callable[[Network],
                                           Iterable[ConnectionRequest]],
                 retry_policy: Optional[RetryPolicy] = None,
                 hop_timeout: float = 8.0,
                 max_faults: int = 4) -> ScheduleReport:
    """Run one seeded fault schedule and check the acceptance properties.

    ``network_factory`` must build a fresh, identical topology on every
    call (it is invoked twice: once for the faulted run, once for the
    clean replay); ``request_factory`` maps a network to the ordered
    connection requests to attempt.  Besides replay equivalence and
    cache consistency, the report checks :func:`no_double_booking`.
    """
    rng = random.Random(seed)
    network = network_factory()
    requests = list(request_factory(network))
    if not requests:
        raise ValueError("request_factory produced no requests")
    max_hops = max(len(request.route.hops()) for request in requests)
    plan = random_fault_plan(
        rng, max_hops, [request.name for request in requests],
        max_faults=max_faults, hop_timeout=hop_timeout,
    )
    injector = FaultInjector(plan)
    policy = retry_policy or RetryPolicy(
        max_attempts=3, base_delay=0.5, max_delay=4.0,
    )
    faulted = NetworkCAC(
        network, fault_injector=injector, retry_policy=policy,
        hop_timeout=hop_timeout, rng=random.Random(seed + 1),
    )
    trace = SignalingTrace()
    errors: Dict[str, str] = {}
    for request in requests:
        try:
            faulted.setup(request, trace=trace)
        except AdmissionError as refused:
            errors[request.name] = f"{type(refused).__name__}: {refused}"

    recovered = tuple(sorted(
        name for name, cac in faulted.switches().items() if cac.crashed
    ))
    for name in recovered:
        faulted.recover_switch(name)

    consistent = all(
        cac.verify_consistency() for cac in faulted.switches().values()
    )
    booking_safe = no_double_booking(faulted)

    clean = NetworkCAC(network_factory())
    for request in requests:
        if request.name in faulted.established:
            clean.setup(request)
    equivalent = committed_states_equal(faulted, clean)

    journals: JournalDigest = tuple(
        (name, tuple((entry.op, entry.connection_id)
                     for entry in cac.journal.entries))
        for name, cac in sorted(faulted.switches().items())
    )

    return ScheduleReport(
        seed=seed,
        plan=plan,
        attempted=tuple(request.name for request in requests),
        established=tuple(faulted.established),
        errors=errors,
        recovered=recovered,
        consistent=consistent,
        equivalent=equivalent,
        trace=trace,
        journals=journals,
        booking_safe=booking_safe,
    )

