"""Synchronous round-based execution of communication schedules.

This is the library's ground truth: a schedule is *correct* iff this
engine, which enforces exactly the communication rules of Section 1,
executes it without violations and ends with every processor holding
every message.

Model recap (paper Section 1):

1. per round each processor receives at most one message — enforced
   structurally by :class:`~repro.core.schedule.Schedule`;
2. per round each processor sends at most one held message, multicast to
   a subset of its *adjacent* processors — adjacency and possession are
   enforced here;
3. receive happens before send: a message delivered at time ``t`` (sent
   in round ``t - 1``) may be forwarded in round ``t``.

Under these rules possession is monotone and every delivery sent in
round ``t`` lands at ``t + 1``, so "processor ``v`` holds message ``m``
at round ``t``" is exactly ``A[v, m] <= t``, where ``A`` is the
first-arrival matrix.  The engine therefore does not walk rounds: it
builds ``A`` with :func:`repro.lint.arrival_pass` (the pass the linter
and the validator use) restricted to the execution rules, and reads
every result field and every error off it.  The first violation is the
first finding in (round, row) order, with id ranges and possession
checked before the destinations (ascending); completion times, the
duplicate count, final holds and the delivery log come from ``A``, the
redundant delivery pairs and the schedule columns.
``tests/property/test_property_executors.py`` checks all of it against
the lossy executor under a null fault model and two test oracles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from ..core.schedule import Schedule
from ..exceptions import IncompleteGossipError, ModelViolationError
from ..lint import ArrivalPass, Diagnostic, arrival_pass
from ..lint import rules as R
from ..networks.graph import Graph
from .state import initial_holdings

__all__ = ["ExecutionResult", "execute_schedule", "ArrivalEvent"]

#: The lint rules that decide whether a schedule executes.
EXECUTION_RULES = (
    R.VERTEX_RANGE.id,
    R.MESSAGE_RANGE.id,
    R.SEND_WITHOUT_HOLD.id,
    R.NON_EDGE.id,
)


@dataclass(frozen=True)
class ArrivalEvent:
    """One delivery: ``message`` reached ``receiver`` from ``sender`` at ``time``."""

    time: int
    receiver: int
    sender: int
    message: int


@dataclass
class ExecutionResult:
    """Everything observable about one schedule execution.

    Attributes
    ----------
    complete:
        Whether every processor ended up holding every message.
    total_time:
        The schedule's total communication time (number of rounds).
    completion_times:
        Per-processor first time holding all messages (``None`` if never).
    duplicate_deliveries:
        Deliveries of messages the receiver already had (model-legal waste).
    final_holds:
        Final hold bitsets, one per processor.
    arrivals:
        Full delivery log when ``record_arrivals=True`` was requested,
        otherwise empty.  This is what the table reproductions consume.
    """

    complete: bool
    total_time: int
    completion_times: List[Optional[int]]
    duplicate_deliveries: int
    final_holds: List[int]
    arrivals: List[ArrivalEvent] = field(default_factory=list)

    @property
    def makespan(self) -> Optional[int]:
        """Latest completion time over all processors.

        ``None`` when the run is incomplete (some processor never held
        every message) — distinguishable from the legitimate ``0`` of a
        trivial run where every processor starts complete.
        """
        if not self.complete:
            return None
        return max(t for t in self.completion_times if t is not None)


def execute_schedule(
    graph: Graph,
    schedule: Schedule,
    initial_holds: Optional[Sequence[int]] = None,
    n_messages: Optional[int] = None,
    require_complete: bool = False,
    record_arrivals: bool = False,
) -> ExecutionResult:
    """Run ``schedule`` on ``graph`` and report what happened.

    Parameters
    ----------
    graph:
        The communication network.  Every transmission must travel along
        edges of this graph (multicast = one message to any subset of the
        sender's neighbours).
    schedule:
        The rounds to execute.  Structural per-round rules were already
        checked at :class:`~repro.core.schedule.Schedule` construction.
    initial_holds:
        Initial hold bitsets; defaults to "processor ``v`` holds message
        ``v``".  Pass :func:`repro.simulator.state.labeled_holdings` when
        executing schedules that use DFS labels as message ids.
    n_messages:
        Total number of distinct messages (defaults to ``graph.n``).
    require_complete:
        When true, raise :class:`~repro.exceptions.IncompleteGossipError`
        unless gossip finished.
    record_arrivals:
        When true, log every delivery (needed by the table benchmarks),
        by send round, then transmission, then destination ascending.

    Raises
    ------
    ModelViolationError
        A sender or message id is out of range, or a sender transmits a
        message it does not hold, or to a non-neighbour.
    IncompleteGossipError
        Only with ``require_complete=True``.
    SimulationError
        ``initial_holds`` has the wrong length or a bit at or past
        ``n_messages``.
    """
    n_msgs = graph.n if n_messages is None else n_messages
    holds = initial_holdings(graph.n, initial_holds, n_msgs)
    run = arrival_pass(graph, schedule, EXECUTION_RULES, holds=holds, n_messages=n_msgs)
    return execution_result(
        run, require_complete=require_complete, record_arrivals=record_arrivals
    )


def execution_result(
    run: ArrivalPass,
    *,
    require_complete: bool = False,
    record_arrivals: bool = False,
) -> ExecutionResult:
    """Read an execution off an arrival pass that ran :data:`EXECUTION_RULES`.

    The pass may run more rules (the validator adds the static ones);
    only the execution findings decide.  Raises exactly as
    :func:`execute_schedule` does.
    """
    found = [d for d in run.diagnostics() if d.rule in EXECUTION_RULES]
    if found:
        raise _violation(run, found[0])

    held = run.arrival <= run.total
    complete = bool((run.complete_at >= 0).all())
    if require_complete and not complete:
        missing = {
            v: np.flatnonzero(~held[v]).tolist()
            for v in np.flatnonzero(run.complete_at < 0).tolist()
        }
        raise IncompleteGossipError(
            f"gossip incomplete after {run.total} rounds; missing: {missing}"
        )
    packed = np.packbits(held, axis=1, bitorder="little")
    arrivals: List[ArrivalEvent] = []
    if record_arrivals:
        arrivals = [
            ArrivalEvent(*event)
            for event in zip(
                (run.pt + 1).tolist(), run.cols.d.tolist(),
                run.ps.tolist(), run.pm.tolist(),
            )
        ]
    return ExecutionResult(
        complete=complete,
        total_time=run.total,
        completion_times=[t if t >= 0 else None for t in run.complete_at.tolist()],
        duplicate_deliveries=len(run.redundant),
        final_holds=[int.from_bytes(row.tobytes(), "little") for row in packed],
        arrivals=arrivals,
    )


def id_range_violation(
    time: int, sender: int, message: int, n: int, n_messages: int
) -> Optional[str]:
    """The error text for an out-of-range sender or message id, if any.

    Shared with :func:`repro.simulator.lossy.execute_with_faults`, which
    rejects the same ids before its round loop.
    """
    if not 0 <= sender < n:
        return f"at time {time} sender {sender} is not one of the {n} processors"
    if not 0 <= message < n_messages:
        return (
            f"at time {time} processor {sender} sends message {message}, "
            f"not one of the {n_messages} message ids"
        )
    return None


def _violation(run: ArrivalPass, first: Diagnostic) -> ModelViolationError:
    """The engine's error for the first execution finding."""
    t, s, m, d = first.round, first.sender, first.message_id, first.destination
    assert t is not None and s is not None and m is not None
    if first.rule == R.SEND_WITHOUT_HOLD.id:
        holds = np.flatnonzero(run.arrival[s] <= t).tolist()
        text = f"at time {t} processor {s} sends message {m} it does not hold (holds {holds})"
    elif d is not None:
        # A non-edge, or a destination outside the network.
        text = f"at time {t} processor {s} multicasts to {d}, which is not an adjacent processor"
    else:
        bad_id = id_range_violation(t, s, m, run.n, run.n_messages)
        assert bad_id is not None  # the remaining execution rules are the id ranges
        text = bad_id
    return ModelViolationError(text)
