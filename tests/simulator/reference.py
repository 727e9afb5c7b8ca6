"""An independent reference implementation of the communication model.

A deliberately naive executor — plain list-of-set hold sets, explicit
per-round receive maps, no bitsets and no arrays — kept here, outside
the package, only as a differential oracle for
:func:`repro.simulator.engine.execute_schedule` (which answers from the
lint arrival matrix).  ``tests/property/test_property_executors.py``
asserts that both, the null-model lossy executor and the lint oracle
agree on every generated and every deliberately broken schedule; a bug
would have to be introduced twice, identically, to slip through.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.schedule import Schedule
from repro.exceptions import ModelViolationError
from repro.networks.graph import Graph

__all__ = ["ReferenceResult", "reference_execute"]


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
