"""Recovery scheduling — repairing lossy executions with model-legal rounds.

The paper's ``n + r`` guarantee assumes every delivery lands.  When a
:class:`~repro.simulator.lossy.FaultModel` destroys some of them, the
execution ends with per-processor *missing sets* — and because hold sets
only ever grow, the union of all hold sets always covers every message
(each message's origin still holds it).  On a connected tree that means
a *nearest holder* exists for every missing ``(processor, message)``
pair, so gossip is always finishable by appending more rounds.

That contract holds for *transient* faults only.  Permanent fail-stop
crashes and severed links (``fail_stop_rate`` / ``link_fail_rate``) can
make a missing pair unreachable forever; :func:`recover` detects this
*before* entering its repair loop and raises a typed
:class:`~repro.exceptions.PartitionedNetworkError` naming the offending
pairs, instead of burning the whole exponential budget on doomed
retransmissions.  The degraded "gossip among survivors" guarantee for
that regime lives in :mod:`repro.core.survival`.

:func:`recover` is the execute → diagnose → repair loop:

1. diagnose the missing sets of the latest lossy execution;
2. plan *repair rounds* fault-free from the faulty hold state —
   nearest-holder retransmission over **tree edges**: every round, each
   processor holding something a tree-neighbour misses multicasts the
   message covering the most starved neighbours (so messages flow
   hop-by-hop from their nearest holders, and the two communication
   rules hold by construction: one send and one receive per processor
   per round, every transmission along a tree edge);
3. append the repair rounds and re-execute the *whole* schedule under
   the same fault model.  Fault decisions are pure functions of
   ``(seed, round, endpoints)``, so the original prefix replays
   identically and only the new rounds take fresh fault draws — a
   retransmission is never doomed to repeat the loss it repairs;
4. repeat with an exponentially growing per-attempt round budget until
   gossip completes or ``max_repair_rounds`` is exhausted, in which
   case a typed :class:`~repro.exceptions.RecoveryExhaustedError` is
   raised.

Because faults only ever *remove* deliveries, the fault-free execution
of a repaired schedule holds a superset of the lossy hold state at every
time step; a repaired schedule that completes under faults therefore
always passes ``execute_schedule(..., require_complete=True)`` on the
fault-free engine (repairs at worst become duplicate deliveries, which
are model-legal waste).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from ..exceptions import (
    PartitionedNetworkError,
    RecoveryExhaustedError,
    ReproError,
)
from .schedule import ArraySchedule, Schedule

if TYPE_CHECKING:  # runtime imports are lazy to avoid core <-> simulator cycles
    from ..networks.graph import Graph
    from ..simulator.lossy import FaultModel, FaultyExecutionResult
    from .gossip import GossipPlan

__all__ = [
    "RecoveryResult",
    "recover",
    "execute_plan_with_faults",
    "plan_repair_rounds",
    "REPAIR_POLICIES",
]

#: Supported repair policies: ``"nearest-holder"`` multicasts each
#: repair message to every starved tree-neighbour at once; ``"unicast"``
#: restricts repairs to one receiver per send (a telephone-style
#: baseline the benchmarks contrast overhead against).
REPAIR_POLICIES = ("nearest-holder", "unicast")


def execute_plan_with_faults(
    plan: "GossipPlan",
    model: "FaultModel",
    *,
    schedule: Optional[Schedule] = None,
    record_arrivals: bool = False,
) -> "FaultyExecutionResult":
    """Run a :class:`GossipPlan`'s schedule under ``model``.

    Convenience wrapper supplying the plan's labelled initial holdings
    (message ids in plan schedules are DFS labels).  ``schedule``
    overrides the executed schedule — the recovery loop passes the
    repaired extension here.
    """
    from ..simulator.lossy import execute_with_faults
    from ..simulator.state import labeled_holdings

    return execute_with_faults(
        plan.graph,
        plan.schedule if schedule is None else schedule,
        model,
        initial_holds=labeled_holdings(plan.labeled.labels()),
        n_messages=plan.graph.n,
        record_arrivals=record_arrivals,
    )


@dataclass(frozen=True)
class RecoveryResult:
    """Outcome of a successful :func:`recover` run.

    Attributes
    ----------
    schedule:
        The repaired schedule (original rounds plus appended repairs).
    result:
        The final lossy execution — always ``complete``.
    attempts:
        Number of execute → diagnose → repair iterations.
    repair_rounds:
        Rounds appended beyond the original schedule.
    baseline_total:
        The fault-free schedule length (the paper's ``n + r`` regime).
    overhead_rounds:
        Extra rounds beyond the fault-free baseline
        (``schedule.total_time - baseline_total``).
    """

    schedule: Schedule
    result: "FaultyExecutionResult"
    attempts: int
    repair_rounds: int
    baseline_total: int

    @property
    def overhead_rounds(self) -> int:
        return self.schedule.total_time - self.baseline_total

    @property
    def overhead_ratio(self) -> float:
        """Overhead as a fraction of the fault-free schedule length."""
        if self.baseline_total == 0:
            return 0.0
        return self.overhead_rounds / self.baseline_total


def plan_repair_rounds(
    adjacency: Dict[int, Tuple[int, ...]],
    holds: List[int],
    n_messages: int,
    *,
    max_rounds: int,
    policy: str = "nearest-holder",
) -> ArraySchedule:
    """Plan fault-free repair rounds from the hold state ``holds``.

    Greedy nearest-holder propagation: every round, each processor (in
    ascending id order, for determinism) that holds a message some
    neighbour in ``adjacency`` misses multicasts the message covering
    the most not-yet-served neighbours (ties break to the smallest
    message id).  Each planned delivery updates the planning state, so
    messages flood outward from their holders one hop per round — the
    hop-by-hop realisation of nearest-holder retransmission.

    Stops early once everyone is complete; returns at most
    ``max_rounds`` rounds, numbered from 0, as columns over
    ``len(holds)`` processors.  Every round satisfies the two
    communication rules by construction (and is re-checked by the
    packer).
    """
    if policy not in REPAIR_POLICIES:
        raise ReproError(
            f"unknown repair policy {policy!r}; choose from {REPAIR_POLICIES}"
        )
    full = (1 << n_messages) - 1
    holds = list(holds)
    sends: List[Tuple[int, int, int, List[int]]] = []
    for t in range(max_rounds):
        if all(h == full for h in holds):
            break
        receiving: set = set()
        deliveries: List[Tuple[int, int]] = []
        for u in sorted(adjacency):
            # message -> starved neighbours it would serve this round
            candidates: Dict[int, List[int]] = {}
            for v in adjacency[u]:
                if v in receiving:
                    continue
                need = holds[u] & ~holds[v] & full
                m = need
                while m:
                    low = m & -m
                    candidates.setdefault(low.bit_length() - 1, []).append(v)
                    m ^= low
            if not candidates:
                continue
            message, dests = max(
                candidates.items(), key=lambda kv: (len(kv[1]), -kv[0])
            )
            if policy == "unicast":
                dests = dests[:1]
            sends.append((t, u, message, dests))
            receiving.update(dests)
            deliveries.extend((d, message) for d in dests)
        if not deliveries:
            break  # nobody can make progress (single vertex, or complete)
        for d, message in deliveries:
            holds[d] |= 1 << message
    return ArraySchedule.from_sends(sends, n=len(holds), n_messages=n_messages)


def recover(
    graph: "Graph",
    plan: "GossipPlan",
    result: "FaultyExecutionResult",
    *,
    max_repair_rounds: int = 256,
    policy: str = "nearest-holder",
    model: Optional["FaultModel"] = None,
) -> RecoveryResult:
    """Repair a lossy execution of ``plan`` until gossip completes.

    Parameters
    ----------
    graph:
        The communication network (used to re-execute; repairs
        themselves only use tree edges of ``plan.tree``).
    plan:
        The plan whose schedule was executed.
    result:
        The lossy execution to repair (as returned by
        :func:`execute_plan_with_faults` /
        :func:`~repro.simulator.lossy.execute_with_faults`).
    max_repair_rounds:
        Hard budget of appended rounds across all attempts.
    policy:
        One of :data:`REPAIR_POLICIES`.
    model:
        Fault model for re-execution; defaults to ``result.model`` (the
        model that produced the losses being repaired).

    Returns
    -------
    RecoveryResult
        With ``result.complete`` true.  Returns immediately (zero
        attempts, zero overhead) when ``result`` is already complete.

    Raises
    ------
    RecoveryExhaustedError
        The budget ran out with processors still missing messages.
    PartitionedNetworkError
        The fault model killed processors or links for good and some
        missing ``(processor, message)`` pair has no live holder
        reachable over the surviving repair substrate — full recovery is
        *impossible*, so the error is raised before a single repair
        round is planned (use :func:`repro.core.survival.survive` for
        the degraded guarantee instead).
    """
    from ..simulator.lossy import execute_with_faults

    if model is None:
        model = result.model
    if max_repair_rounds < 1:
        raise ReproError("max_repair_rounds must be >= 1")

    tree_adjacency = _tree_adjacency(plan.tree)
    if not result.complete and model.has_permanent:
        _check_recoverable(tree_adjacency, result, model)
    baseline_total = plan.schedule.total_time
    schedule = plan.schedule
    current = result
    appended = 0
    attempts = 0
    # Exponential round-budget backoff: early attempts append just the
    # fault-free repair need; later attempts get geometrically more
    # headroom so persistent loss cannot stall the loop round-by-round.
    attempt_budget = max(4, plan.tree.height)

    while not current.complete:
        if appended >= max_repair_rounds:
            raise RecoveryExhaustedError(
                f"recovery exhausted after {attempts} attempts / "
                f"{appended} repair rounds (budget {max_repair_rounds}); "
                f"still missing: {current.missing_sets()}",
                attempts=attempts,
                repair_rounds=appended,
                missing=current.missing_sets(),
            )
        attempts += 1
        budget_now = min(attempt_budget, max_repair_rounds - appended)
        repairs = plan_repair_rounds(
            tree_adjacency,
            list(current.final_holds),
            current.n_messages,
            max_rounds=budget_now,
            policy=policy,
        )
        if not repairs.n_transmissions:
            raise RecoveryExhaustedError(
                "repair planner made no progress (disconnected repair "
                f"substrate?); still missing: {current.missing_sets()}",
                attempts=attempts,
                repair_rounds=appended,
                missing=current.missing_sets(),
            )
        schedule = _append_rounds(
            schedule,
            repairs,
            name=f"{plan.schedule.name}+repair" if plan.schedule.name else "repair",
        )
        appended += repairs.total_time
        attempt_budget *= 2
        current = execute_with_faults(
            graph,
            schedule,
            model,
            initial_holds=list(result.initial_holds),
            n_messages=current.n_messages,
        )

    return RecoveryResult(
        schedule=schedule,
        result=current,
        attempts=attempts,
        repair_rounds=appended,
        baseline_total=baseline_total,
    )


def _append_rounds(schedule: Schedule, repairs: ArraySchedule, name: str) -> Schedule:
    """``schedule`` followed by ``repairs``, whose round 0 becomes round
    ``schedule.total_time``."""
    base = schedule.arrays()
    n = max(base.n, repairs.n)
    base, repairs = base.widen(n), repairs.widen(n)
    return Schedule.from_arrays(
        ArraySchedule.from_events(
            np.concatenate([base.round, repairs.round + base.total_time]),
            np.concatenate([base.sender, repairs.sender]),
            np.concatenate([base.message, repairs.message]),
            np.vstack([base.dest_mask, repairs.dest_mask]),
            n=n,
            n_messages=max(base.n_messages, repairs.n_messages),
            name=name,
        )
    )


def _check_recoverable(
    tree_adjacency: Dict[int, Tuple[int, ...]],
    result: "FaultyExecutionResult",
    model: "FaultModel",
) -> None:
    """Raise :class:`PartitionedNetworkError` when full recovery is doomed.

    Walks the repair substrate (the tree edges) restricted to processors
    and links still alive at the diagnosis horizon.  A missing
    ``(processor, message)`` pair is *unrecoverable* when the processor
    is dead (it will never receive again) or when no live holder of the
    message is reachable from it over live links.  Permanent failures
    are monotone, so an unrecoverable pair at the horizon stays
    unrecoverable no matter how many repair rounds are appended.
    """
    horizon = result.total_time
    dead = {
        v for v in tree_adjacency if model.fail_stopped(horizon, v)
    }
    live_adjacency: Dict[int, Tuple[int, ...]] = {
        v: tuple(
            u
            for u in nbrs
            if u not in dead and not model.link_failed(horizon, v, u)
        )
        for v, nbrs in tree_adjacency.items()
        if v not in dead
    }
    holds = [int(h) for h in result.final_holds]
    offending: List[Tuple[int, int]] = []
    reach_union: Dict[int, int] = {}
    for v, missing in sorted(result.missing_sets().items()):
        if v in dead:
            offending.extend((v, m) for m in missing)
            continue
        union = reach_union.get(v)
        if union is None:
            union = 0
            stack, seen = [v], {v}
            while stack:
                u = stack.pop()
                union |= holds[u]
                for w in live_adjacency[u]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            for u in seen:  # one traversal answers every member's query
                reach_union[u] = union
        offending.extend((v, m) for m in missing if not union >> m & 1)
    if offending:
        raise PartitionedNetworkError(
            f"permanent failures make {len(offending)} missing "
            f"(processor, message) pairs unrecoverable "
            f"({len(dead)} fail-stopped processors); first few: "
            f"{offending[:8]} — full recovery is impossible, consider "
            "repro.core.survival.survive for the degraded guarantee",
            pairs=offending,
            dead=tuple(sorted(dead)),
        )


def _tree_adjacency(tree) -> Dict[int, Tuple[int, ...]]:
    """Adjacency view of a :class:`~repro.tree.tree.Tree` (both directions)."""
    adj: Dict[int, List[int]] = {v: [] for v in tree.vertices()}
    for parent, child in tree.edges():
        adj[parent].append(child)
        adj[child].append(parent)
    return {v: tuple(sorted(nbrs)) for v, nbrs in adj.items()}
