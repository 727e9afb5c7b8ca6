"""An independent reference implementation of the communication model.

A deliberately naive executor — plain list-of-set hold sets, explicit
per-round receive maps, no bitsets and no arrays — kept here, outside
the package, only as a differential oracle for
:func:`repro.simulator.engine.execute_schedule` (which answers from the
lint arrival matrix).  ``tests/property/test_property_executors.py``
asserts that both, the null-model lossy executor and the lint oracle
agree on every generated and every deliberately broken schedule; a bug
would have to be introduced twice, identically, to slip through.

:func:`reference_execute_with_faults` is the lossy executor as it was
written before it moved to columns: a walk over the ``Round`` /
``Transmission`` object view with a small per-processor hold-set
object.  The same harness checks the package's column walk against it
under seeded, non-null fault models, field for field.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.schedule import Schedule
from repro.exceptions import ModelViolationError, SimulationError
from repro.networks.graph import Graph
from repro.simulator.engine import ArrivalEvent, id_range_violation
from repro.simulator.lossy import (
    FaultModel,
    FaultyExecutionResult,
    LostDelivery,
    SuppressedSend,
)
from repro.simulator.state import initial_holdings

__all__ = ["ReferenceResult", "reference_execute", "reference_execute_with_faults"]


@dataclass(frozen=True)
class ReferenceResult:
    """Outcome of a reference execution (mirrors ExecutionResult's core)."""

    complete: bool
    completion_times: Tuple[Optional[int], ...]
    final_holds: Tuple[frozenset, ...]
    duplicate_deliveries: int


def reference_execute(
    graph: Graph,
    schedule: Schedule,
    initial_holds: Optional[Sequence[Set[int]]] = None,
    n_messages: Optional[int] = None,
) -> ReferenceResult:
    """Execute ``schedule`` with the naive reference semantics.

    ``initial_holds`` is a list of *sets* of message ids (default:
    processor ``v`` holds ``{v}``).  Raises
    :class:`~repro.exceptions.ModelViolationError` on any rule violation
    (ids out of range included), phrased independently from the engine
    but always ending in ``at {t}``, the send round.
    """
    n = graph.n
    total = n if n_messages is None else n_messages
    universe = set(range(total))
    holds: List[Set[int]] = (
        [{v} for v in range(n)]
        if initial_holds is None
        else [set(h) for h in initial_holds]
    )
    completion: List[Optional[int]] = [
        0 if holds[v] == universe else None for v in range(n)
    ]
    duplicates = 0
    # in_flight[receiver] = (message) delivered at the *next* round start
    in_flight: Dict[int, int] = {}

    def land(t: int) -> int:
        dups = 0
        for receiver, message in in_flight.items():
            if message in holds[receiver]:
                dups += 1
            holds[receiver].add(message)
            if completion[receiver] is None and holds[receiver] == universe:
                completion[receiver] = t
        return dups

    for t, rnd in enumerate(schedule):
        # deliveries from round t - 1 land now (receive before send)
        duplicates += land(t)
        in_flight = {}
        senders_seen: Set[int] = set()
        receivers_seen: Set[int] = set()
        for tx in rnd:
            if not 0 <= tx.sender < n:
                raise ModelViolationError(f"reference: no processor {tx.sender} at {t}")
            if not 0 <= tx.message < total:
                raise ModelViolationError(f"reference: no message {tx.message} at {t}")
            if tx.sender in senders_seen:
                raise ModelViolationError(
                    f"reference: double send by {tx.sender} at {t}"
                )
            senders_seen.add(tx.sender)
            if tx.message not in holds[tx.sender]:
                raise ModelViolationError(
                    f"reference: {tx.sender} lacks message {tx.message} at {t}"
                )
            for d in tx.destinations:
                if d in receivers_seen:
                    raise ModelViolationError(
                        f"reference: {d} receives twice at {t}"
                    )
                receivers_seen.add(d)
                if not (0 <= d < n and graph.has_edge(tx.sender, d)):
                    raise ModelViolationError(
                        f"reference: {tx.sender} -> {d} is not a link at {t}"
                    )
                in_flight[d] = tx.message
    duplicates += land(schedule.total_time)

    return ReferenceResult(
        complete=all(h == universe for h in holds),
        completion_times=tuple(completion),
        final_holds=tuple(frozenset(h) for h in holds),
        duplicate_deliveries=duplicates,
    )


class _Holds:
    """Hold bitsets plus first-completion times and the duplicate count."""

    def __init__(self, n: int, initial: Optional[Sequence[int]], n_messages: int) -> None:
        self.n_messages = n_messages
        self.full = (1 << n_messages) - 1
        self.bits = initial_holdings(n, initial, n_messages)
        self.completion: List[Optional[int]] = [
            0 if h == self.full else None for h in self.bits
        ]
        self.duplicates = 0

    def holds(self, v: int, m: int) -> bool:
        return bool(self.bits[v] >> m & 1)

    def deliver(self, v: int, m: int, time: int) -> None:
        if not 0 <= m < self.n_messages:
            raise SimulationError(f"message {m} out of range")
        bit = 1 << m
        if self.bits[v] & bit:
            self.duplicates += 1
            return
        self.bits[v] |= bit
        if self.bits[v] == self.full and self.completion[v] is None:
            self.completion[v] = time


def reference_execute_with_faults(
    graph: Graph,
    schedule: Schedule,
    model: FaultModel,
    initial_holds: Optional[Sequence[int]] = None,
    n_messages: Optional[int] = None,
    record_arrivals: bool = False,
) -> FaultyExecutionResult:
    """The object-walking lossy executor, kept as a differential oracle.

    Same contract as :func:`repro.simulator.lossy.execute_with_faults`:
    receive-before-send, id ranges checked before the first round,
    adjacency errors raised, fault draws in the model's hazard order,
    destinations ascending.
    """
    state = _Holds(graph.n, initial_holds, graph.n if n_messages is None else n_messages)
    rounds = list(schedule)
    for t, rnd in enumerate(rounds):
        for tx in rnd:
            bad = id_range_violation(t, tx.sender, tx.message, graph.n, state.n_messages)
            if bad:
                raise ModelViolationError(bad)
    init_snapshot = tuple(state.bits)
    arrivals: List[ArrivalEvent] = []
    lost: List[LostDelivery] = []
    suppressed: List[SuppressedSend] = []
    pending: List[Tuple[int, int, int]] = []  # (receiver, sender, message)
    neighbour_sets: Dict[int, frozenset] = {}
    null_model = model.is_null

    for t, rnd in enumerate(rounds):
        for receiver, sender, message in pending:
            state.deliver(receiver, message, t)
            if record_arrivals:
                arrivals.append(ArrivalEvent(t, receiver, sender, message))
        pending = []
        for tx in rnd:
            neighbours = neighbour_sets.get(tx.sender)
            if neighbours is None:
                neighbours = frozenset(graph.neighbors(tx.sender))
                neighbour_sets[tx.sender] = neighbours
            dests = sorted(tx.destinations)
            for d in dests:
                if d not in neighbours:
                    raise ModelViolationError(
                        f"at time {t} processor {tx.sender} multicasts to {d}, "
                        "which is not an adjacent processor"
                    )
            if not null_model:
                reason = model.send_fault(t, tx.sender)
                if reason:
                    suppressed.append(SuppressedSend(t, tx.sender, tx.message, reason))
                    continue
            if not state.holds(tx.sender, tx.message):
                suppressed.append(
                    SuppressedSend(t, tx.sender, tx.message, "not-held")
                )
                continue
            for d in dests:
                if not null_model:
                    reason = model.delivery_fault(t, tx.sender, d)
                    if reason:
                        lost.append(LostDelivery(t, d, tx.sender, tx.message, reason))
                        continue
                pending.append((d, tx.sender, tx.message))
    final_time = schedule.total_time
    for receiver, sender, message in pending:
        state.deliver(receiver, message, final_time)
        if record_arrivals:
            arrivals.append(ArrivalEvent(final_time, receiver, sender, message))

    return FaultyExecutionResult(
        complete=all(h == state.full for h in state.bits),
        total_time=final_time,
        completion_times=list(state.completion),
        duplicate_deliveries=state.duplicates,
        final_holds=list(state.bits),
        arrivals=arrivals,
        lost=tuple(lost),
        suppressed=tuple(suppressed),
        model=model,
        initial_holds=init_snapshot,
        n_messages=state.n_messages,
    )
