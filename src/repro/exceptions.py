"""Exception hierarchy for the :mod:`repro` package.

All library-raised errors derive from :class:`ReproError` so callers can
catch the whole family with a single ``except`` clause while still being
able to distinguish graph-construction problems from schedule violations.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Sequence, Tuple

__all__ = [
    "ReproError",
    "GraphError",
    "DisconnectedGraphError",
    "TreeError",
    "LabelingError",
    "MessageClassError",
    "ScheduleError",
    "ScheduleConflictError",
    "ModelViolationError",
    "IncompleteGossipError",
    "ScheduleLintError",
    "SimulationError",
    "UnknownTimelineRowError",
    "RecoveryExhaustedError",
    "PartitionedNetworkError",
    "SurvivorSetError",
    "PlanTimeoutError",
    "CircuitOpenError",
    "SweepTimeoutError",
    "GossipRuntimeError",
    "WireFormatError",
    "PeerDeadError",
    "RuntimeDeadlineError",
    "SupervisorError",
    "JournalFormatError",
    "ProtocolCheckError",
]


class ReproError(Exception):
    """Base class for every error raised by the :mod:`repro` library."""


class GraphError(ReproError):
    """Malformed graph input (bad vertex ids, self-loops, duplicate edges, ...)."""


class DisconnectedGraphError(GraphError):
    """The operation requires a connected graph but the input is not connected.

    Gossiping is impossible on a disconnected network: a message can never
    cross between components, so every algorithm in :mod:`repro.core`
    rejects disconnected inputs with this error.
    """


class TreeError(ReproError):
    """Malformed tree structure (cycle, multiple roots, orphan vertices, ...)."""


class LabelingError(TreeError):
    """DFS labelling invariants are violated (non-contiguous subtree interval...)."""


class MessageClassError(TreeError, ValueError):
    """A message id does not belong to any s/l/r/o class at a vertex.

    Also a :class:`ValueError` for backwards compatibility: the message
    classification helpers historically raised ``ValueError`` for
    out-of-range ids.
    """


class ScheduleError(ReproError):
    """A communication schedule is structurally invalid."""


class ScheduleConflictError(ScheduleError):
    """Two transmissions in one round violate the communication rules.

    Raised when a round contains two tuples whose destination sets
    intersect (a processor would receive two messages at once) or two
    tuples with the same sender (a processor would send two messages at
    once).
    """


class ModelViolationError(ScheduleError):
    """A transmission breaks the multicasting communication model.

    Examples: sending a message the sender does not hold yet, multicasting
    to a non-neighbour, or sending to the sender itself.
    """


class IncompleteGossipError(ScheduleError):
    """After executing the whole schedule some processor misses a message."""


class ScheduleLintError(ScheduleError):
    """Static analysis found error-severity diagnostics in a schedule.

    Raised by :class:`repro.service.GossipService` (with ``lint="error"``)
    when :func:`repro.lint.lint_schedule` refuses to certify a plan before
    cache admission.  Carries the offending diagnostics so callers can
    render them without re-running the analyzer.

    Attributes
    ----------
    diagnostics:
        The error-severity :class:`repro.lint.Diagnostic` objects, in
        emission (round) order.
    """

    def __init__(self, message: str, *, diagnostics: Iterable[object] = ()) -> None:
        super().__init__(message)
        self.diagnostics = tuple(diagnostics)


class SimulationError(ReproError):
    """The round-based simulator was driven into an inconsistent state."""


class UnknownTimelineRowError(SimulationError, KeyError):
    """A paper-table timeline row was requested under an unknown caption.

    Also a :class:`KeyError` for backwards compatibility: the trace
    helpers historically raised ``KeyError`` for unknown row names.
    """

    def __str__(self) -> str:
        # KeyError.__str__ would repr() the message; keep it readable.
        return str(self.args[0]) if self.args else ""


class RecoveryExhaustedError(ReproError):
    """Recovery scheduling ran out of repair-round budget before completion.

    Raised by :func:`repro.core.recovery.recover` when the fault model
    keeps destroying repair deliveries faster than the round budget
    allows retransmitting them.  Carries the diagnosis of the last
    attempt so callers can report how close recovery got:

    Attributes
    ----------
    attempts:
        Number of execute -> diagnose -> repair iterations performed.
    repair_rounds:
        Total repair rounds appended across all attempts.
    missing:
        Per-processor missing message ids after the final attempt.
    """

    def __init__(self, message: str, *, attempts: int = 0,
                 repair_rounds: int = 0,
                 missing: Optional[Mapping[int, Sequence[int]]] = None) -> None:
        super().__init__(message)
        self.attempts = attempts
        self.repair_rounds = repair_rounds
        self.missing = dict(missing or {})


class PartitionedNetworkError(ReproError):
    """Permanent failures severed the network; full gossip is impossible.

    Raised *before* any repair budget is spent, by
    :func:`repro.core.recovery.recover` when some missing
    ``(processor, message)`` pair has no live holder reachable over the
    surviving repair substrate, and by
    :func:`repro.core.survival.survive` (with ``allow_partition=False``)
    when the residual network splits into several surviving components.

    Attributes
    ----------
    pairs:
        The offending ``(processor, message)`` pairs — each names a live
        processor and a message no live, reachable holder can supply.
    components:
        The surviving connected components (tuples of vertex ids) of the
        residual network, ordered by smallest member.
    dead:
        The permanently fail-stopped processors at diagnosis time.
    """

    def __init__(self, message: str, *,
                 pairs: Iterable[Sequence[int]] = (),
                 components: Iterable[Sequence[int]] = (),
                 dead: Iterable[int] = ()) -> None:
        super().__init__(message)
        self.pairs: Tuple[Tuple[int, ...], ...] = tuple(tuple(p) for p in pairs)
        self.components: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(c) for c in components
        )
        self.dead = tuple(dead)


class SurvivorSetError(ReproError):
    """The survivor set cannot satisfy the degraded completion semantics.

    Raised by :mod:`repro.core.survival` when no processor survived at
    all, or when the strict :func:`~repro.core.survival.validate_survival`
    check finds a live processor missing a message whose origin is live
    and reachable in its own component (which the survival schedule
    guarantees to deliver).

    Attributes
    ----------
    pairs:
        Offending ``(processor, message)`` pairs (empty when the error
        is about an empty survivor set).
    """

    def __init__(self, message: str, *, pairs: Iterable[Sequence[int]] = ()) -> None:
        super().__init__(message)
        self.pairs: Tuple[Tuple[int, ...], ...] = tuple(tuple(p) for p in pairs)


class PlanTimeoutError(ReproError):
    """A service plan request exceeded its planner timeout.

    Raised by :class:`repro.service.GossipService` when the primary
    planner times out (and, if configured, the degraded fallback could
    not produce a plan either).
    """


class CircuitOpenError(ReproError):
    """A plan request was fast-failed by an open circuit breaker.

    Raised by :class:`repro.service.GossipService` when the per-key
    breaker is open (too many consecutive planner failures/timeouts) and
    no degraded fallback is configured — the typed signal that the
    planner for this key is considered down until the cooldown elapses.

    Attributes
    ----------
    algorithm:
        The algorithm whose planner the breaker is protecting.
    retry_after:
        Seconds until the breaker will allow a half-open probe (0.0 when
        a probe is already in flight).
    """

    def __init__(self, message: str, *, algorithm: str = "",
                 retry_after: float = 0.0) -> None:
        super().__init__(message)
        self.algorithm = algorithm
        self.retry_after = retry_after


class SweepTimeoutError(ReproError):
    """A fault-injection sweep exceeded its wall-clock budget.

    Raised by :func:`repro.analysis.chaos.run_chaos_sweep` and
    :func:`repro.analysis.survival.run_survival_sweep` when a
    ``deadline`` (seconds) was given and the sweep could not finish every
    trial inside it — the typed fail-fast signal a pathological
    configuration produces instead of stalling CI.

    Attributes
    ----------
    elapsed:
        Seconds spent before giving up.
    completed_cells:
        Fully finished (family, rate) cells at the time of the timeout.
    """

    def __init__(self, message: str, *, elapsed: float = 0.0,
                 completed_cells: int = 0) -> None:
        super().__init__(message)
        self.elapsed = elapsed
        self.completed_cells = completed_cells


class GossipRuntimeError(ReproError):
    """Base class for errors raised by the real-network asyncio runtime."""


class WireFormatError(GossipRuntimeError):
    """A datagram could not be decoded as a runtime protocol message."""


class PeerDeadError(GossipRuntimeError):
    """An operation targeted a peer the failure detector declared dead.

    Attributes
    ----------
    peer:
        The dead peer's vertex id.
    """

    def __init__(self, message: str, *, peer: int = -1) -> None:
        super().__init__(message)
        self.peer = peer


class RuntimeDeadlineError(GossipRuntimeError):
    """A real-network gossip run missed a round or whole-run deadline.

    Mirrors the simulator's partial-completion convention
    (:attr:`repro.simulator.engine.ExecutionResult.makespan` being
    ``None``): the run degrades to a typed error carrying the partial
    :class:`repro.runtime.supervisor.RuntimeResult` instead of hanging.

    Attributes
    ----------
    partial:
        The partial-completion result collected at the deadline (or
        ``None`` when not even peer state could be gathered).
    phase:
        ``"round"`` or ``"run"`` — which deadline fired.
    """

    def __init__(self, message: str, *, partial: Optional[object] = None,
                 phase: str = "run") -> None:
        super().__init__(message)
        self.partial = partial
        self.phase = phase


class SupervisorError(GossipRuntimeError):
    """The multi-process supervisor could not run or resolve the fleet.

    Raised by :class:`repro.runtime.supervisor.Supervisor` for
    control-plane failures that are *not* ordinary peer deaths: a child
    that errors (rather than crashes) mid-protocol, a rendezvous that a
    child abandons before reporting its socket, or a resolution step
    whose preconditions the fleet state violates.  Carries the incident
    journal gathered so far so operators see the whole story.

    Attributes
    ----------
    incidents:
        The :class:`repro.runtime.incidents.Incident` records gathered
        up to the failure, in detection order.
    """

    def __init__(self, message: str, *, incidents: Iterable[object] = ()) -> None:
        super().__init__(message)
        self.incidents = tuple(incidents)


class JournalFormatError(GossipRuntimeError):
    """An incident-journal JSONL document could not be parsed back.

    Raised by :meth:`repro.runtime.incidents.Incident.from_json` /
    :meth:`repro.runtime.incidents.IncidentJournal.from_jsonl` for a line
    that is not valid JSON, is not an object, or lacks (or mistypes) one
    of the incident fields.  Forensics tooling reading a journal written
    by an earlier run must get a typed, catchable error naming the bad
    line — never a bare ``json.JSONDecodeError`` escaping the library.

    Attributes
    ----------
    line_number:
        1-based position of the offending line (0 for a single-object
        parse outside a JSONL document).
    """

    def __init__(self, message: str, *, line_number: int = 0) -> None:
        super().__init__(message)
        self.line_number = line_number


class ProtocolCheckError(ReproError):
    """The protocol model checker could not run as requested.

    Raised by :mod:`repro.check` for *infrastructure* failures — an
    unparseable family spec, a state-space budget exceeded mid-search, a
    conformance recording that cannot be replayed.  Protocol *bugs* are
    never exceptions: the explorer reports those as
    :class:`repro.check.explore.Counterexample` records so the trace
    survives for rendering.
    """
