"""Survivability — gossiping on whatever the permanent failures left.

:mod:`repro.core.recovery` repairs *transient* losses: it assumes every
missing ``(processor, message)`` pair still has a nearest holder
reachable over the tree, which is true exactly as long as nothing died
for good.  Permanent fail-stop crashes and severed links
(:class:`~repro.simulator.lossy.FaultModel` with ``fail_stop_rate`` /
``link_fail_rate``) break that contract: a dead processor can never
complete, and a partitioned survivor can never hear from the far side.
This module is the layer that handles the residue:

1. :func:`diagnose_survival` reads the residual network off a faulty
   execution — which processors fail-stopped, which links failed, and
   the connected components the survivors split into;
2. :func:`survive` re-plans *degraded gossip per surviving component*
   over the residual edges, using the same fast planner the service
   uses (pruned center sweep + the paper's tree algorithms), translates
   each component schedule back into original vertex/message ids, and
   merges the components side by side (they are vertex-disjoint, so the
   two communication rules hold by construction);
3. :func:`validate_survival` strictly checks the **degraded completion
   semantics**: *every live processor ends holding every message whose
   origin is live and in its own component* ("gossip among survivors"),
   and no dead processor's hold set ever grows (nothing is delivered to
   the dead).

Messages from dead origins are *not* guaranteed — a survivor may happen
to hold one (it leaked out before the crash), but the residual network
cannot promise to spread what may no longer exist anywhere alive.

Because each component's schedule is a fresh, paper-exact gossip plan on
the induced survivor subgraph, the paper's ``n + r`` bound degrades
gracefully to ``n_i + r_i`` per surviving component ``i`` (component
size and residual-tree height), and the merged survival schedule takes
``max_i (n_i + r_i)`` rounds.

The survival rounds are executed on the fault-free engine: the permanent
residue is exactly what the diagnosis captured, and transient re-losses
during repair remain :func:`~repro.core.recovery.recover`'s department.
This is what makes the completion semantics *deterministic* — a single
diagnose pass either yields full survivor coverage or raises the typed
:class:`~repro.exceptions.PartitionedNetworkError` /
:class:`~repro.exceptions.SurvivorSetError`, never an exhausted budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..exceptions import PartitionedNetworkError, ReproError, SurvivorSetError
from .schedule import ArraySchedule, Schedule

if TYPE_CHECKING:  # runtime imports are lazy to avoid core <-> simulator cycles
    from ..networks.graph import Graph
    from ..simulator.engine import ExecutionResult
    from ..simulator.lossy import FaultModel, FaultyExecutionResult
    from .gossip import GossipPlan

__all__ = [
    "SurvivalDiagnosis",
    "ComponentPlan",
    "SurvivalResult",
    "diagnose_survival",
    "survive",
    "validate_survival",
    "survivor_coverage",
]


@dataclass(frozen=True)
class SurvivalDiagnosis:
    """The residual network read off one faulty execution.

    Attributes
    ----------
    n:
        Processor count of the original network.
    horizon:
        The round the diagnosis was taken at (permanent failures are
        monotone, so this is "everything that died by ``horizon``").
    dead:
        Fail-stopped processors, ascending.
    failed_links:
        Permanently failed links ``(u, v)`` with ``u < v``, ascending
        (including links whose endpoints also died).
    components:
        Connected components of the *live* residual network (live
        processors over intact links), each a sorted tuple, ordered by
        smallest member.
    """

    n: int
    horizon: int
    dead: Tuple[int, ...]
    failed_links: Tuple[Tuple[int, int], ...]
    components: Tuple[Tuple[int, ...], ...]

    @property
    def live(self) -> Tuple[int, ...]:
        """Surviving processors, ascending."""
        gone = set(self.dead)
        return tuple(v for v in range(self.n) if v not in gone)

    @property
    def partitioned(self) -> bool:
        """Whether the survivors split into more than one component."""
        return len(self.components) > 1

    @property
    def intact(self) -> bool:
        """Whether nothing permanent happened at all."""
        return not self.dead and not self.failed_links

    def component_of(self, v: int) -> Optional[Tuple[int, ...]]:
        """The component containing live processor ``v`` (None if dead)."""
        for comp in self.components:
            if v in comp:
                return comp
        return None


@dataclass(frozen=True)
class ComponentPlan:
    """One surviving component's degraded gossip plan.

    ``rounds`` is the component schedule length; Theorem 1 degrades to
    ``rounds <= n_i + r_i`` where ``n_i = len(vertices)`` and ``r_i =
    tree_height`` (the residual spanning tree's height).
    """

    vertices: Tuple[int, ...]
    rounds: int
    tree_height: int

    @property
    def degraded_bound(self) -> int:
        """The per-component Theorem 1 guarantee ``n_i + r_i``."""
        return len(self.vertices) + self.tree_height


@dataclass(frozen=True)
class SurvivalResult:
    """Outcome of a :func:`survive` run (coverage is always complete).

    Attributes
    ----------
    diagnosis:
        The residual network the schedule was planned against.
    schedule:
        The appended survival rounds (components merged side by side;
        empty when the faulty run already satisfied the semantics).
    component_plans:
        Per-component plan summaries (only components that needed
        rounds; singletons and already-covered components are omitted).
    final_holds:
        Hold bitsets of every processor after the survival rounds ran.
    labels:
        The original plan's DFS labels (``labels[v]`` is the message id
        vertex ``v`` originated) — what coverage is measured against.
    """

    diagnosis: SurvivalDiagnosis
    schedule: Schedule
    component_plans: Tuple[ComponentPlan, ...]
    final_holds: Tuple[int, ...]
    labels: Tuple[int, ...]

    @property
    def appended_rounds(self) -> int:
        """Survival rounds appended beyond the faulty execution."""
        return self.schedule.total_time

    @property
    def survivor_coverage(self) -> float:
        """Fraction of guaranteed (live processor, message) pairs held."""
        return survivor_coverage(self.diagnosis, self.labels, self.final_holds)


def diagnose_survival(
    graph: "Graph",
    result: "FaultyExecutionResult",
    *,
    model: Optional["FaultModel"] = None,
    horizon: Optional[int] = None,
) -> SurvivalDiagnosis:
    """Read the residual network off a faulty execution.

    ``model`` defaults to the model that produced ``result``;
    ``horizon`` defaults to the execution's total time.  Everything is a
    pure function of the model's seed, so diagnosing twice (or on a
    replayed prefix) gives identical answers.
    """
    if model is None:
        model = result.model
    if horizon is None:
        horizon = result.total_time
    dead = tuple(v for v in range(graph.n) if model.fail_stopped(horizon, v))
    gone = set(dead)
    failed = tuple(
        (u, v) for u, v in graph.edges() if model.link_failed(horizon, u, v)
    )
    failed_set = set(failed)
    # Connected components of the live residual network.
    seen: set = set()
    components: List[Tuple[int, ...]] = []
    for start in range(graph.n):
        if start in gone or start in seen:
            continue
        stack = [start]
        seen.add(start)
        members = []
        while stack:
            u = stack.pop()
            members.append(u)
            for w in graph.neighbors(u):
                if w in gone or w in seen:
                    continue
                key = (u, w) if u < w else (w, u)
                if key in failed_set:
                    continue
                seen.add(w)
                stack.append(w)
        components.append(tuple(sorted(members)))
    return SurvivalDiagnosis(
        n=graph.n,
        horizon=horizon,
        dead=dead,
        failed_links=failed,
        components=tuple(components),
    )


def _guarantee_masks(
    diagnosis: SurvivalDiagnosis, labels: Sequence[int]
) -> Dict[int, int]:
    """Per-live-processor bitmask of the messages survival guarantees.

    A live processor is owed exactly the origin messages of the live
    members of its own component (its own included).
    """
    masks: Dict[int, int] = {}
    for comp in diagnosis.components:
        mask = 0
        for v in comp:
            mask |= 1 << int(labels[v])
        for v in comp:
            masks[v] = mask
    return masks


def survivor_coverage(
    diagnosis: SurvivalDiagnosis, labels: Sequence[int], holds: Sequence[int]
) -> float:
    """Fraction of guaranteed (live processor, message) pairs in ``holds``.

    1.0 means the degraded completion semantics are fully satisfied
    (vacuously so when nobody survived).
    """
    owed = held = 0
    for v, mask in _guarantee_masks(diagnosis, labels).items():
        owed += mask.bit_count()
        held += (int(holds[v]) & mask).bit_count()
    return held / owed if owed else 1.0


def validate_survival(
    diagnosis: SurvivalDiagnosis,
    labels: Sequence[int],
    holds: Sequence[int],
    *,
    before: Optional[Sequence[int]] = None,
) -> None:
    """Strictly check the degraded completion semantics on ``holds``.

    Raises :class:`~repro.exceptions.SurvivorSetError` listing every
    offending ``(processor, message)`` pair when a live processor misses
    a guaranteed message, or when (with ``before`` given) a dead
    processor's hold set grew — survival schedules must never deliver to
    the dead.
    """
    pairs: List[Tuple[int, int]] = []
    for v, mask in sorted(_guarantee_masks(diagnosis, labels).items()):
        missing = mask & ~int(holds[v])
        while missing:
            low = missing & -missing
            pairs.append((v, low.bit_length() - 1))
            missing ^= low
    if pairs:
        raise SurvivorSetError(
            f"{len(pairs)} guaranteed (processor, message) pairs are missing "
            f"after survival: {pairs[:8]}{'...' if len(pairs) > 8 else ''}",
            pairs=pairs,
        )
    if before is not None:
        grown = [
            (v, int(holds[v]) & ~int(before[v]))
            for v in diagnosis.dead
            if int(holds[v]) & ~int(before[v])
        ]
        if grown:
            pairs = [
                (v, b)
                for v, extra in grown
                for b in range(extra.bit_length())
                if extra >> b & 1
            ]
            raise SurvivorSetError(
                f"survival delivered to dead processors: {pairs}",
                pairs=pairs,
            )


def _cross_partition_pairs(
    diagnosis: SurvivalDiagnosis, labels: Sequence[int]
) -> List[Tuple[int, int]]:
    """Every (live processor, live-origin message) pair full gossip loses.

    These are the witnesses a partition makes full coverage impossible:
    each pair names a survivor and a message whose (live) origin sits in
    a different component.
    """
    pairs: List[Tuple[int, int]] = []
    for comp in diagnosis.components:
        for other in diagnosis.components:
            if other is comp:
                continue
            for v in comp:
                pairs.extend((v, int(labels[u])) for u in other)
    pairs.sort()
    return pairs


def survive(
    graph: "Graph",
    plan: "GossipPlan",
    result: "FaultyExecutionResult",
    *,
    model: Optional["FaultModel"] = None,
    allow_partition: bool = True,
    algorithm: Optional[str] = None,
) -> SurvivalResult:
    """Re-plan degraded gossip for the survivors of a faulty run.

    Diagnoses the residual network once, plans fresh gossip per
    surviving component over the residual edges with the fast planner,
    merges the (vertex-disjoint) component schedules round by round, and
    executes them on the fault-free engine from the faulty hold state.
    The returned result always satisfies :func:`validate_survival`.

    Parameters
    ----------
    graph / plan / result:
        The network, the plan whose schedule was executed, and the
        faulty execution to survive (as returned by
        :func:`~repro.core.recovery.execute_plan_with_faults`).
    model:
        Fault model to diagnose with; defaults to ``result.model``.
    allow_partition:
        With ``False``, a residual network split into several components
        raises :class:`~repro.exceptions.PartitionedNetworkError`
        (carrying the offending pairs) instead of degrading — for
        callers that need the *full* gossip guarantee or a typed refusal.
    algorithm:
        Tree-gossiping algorithm for the component plans; defaults to
        the original plan's algorithm.

    Raises
    ------
    SurvivorSetError
        No processor survived.
    PartitionedNetworkError
        Survivors are partitioned and ``allow_partition`` is false.
    """
    from ..networks.graph import Graph as GraphType
    from ..simulator.engine import execute_schedule
    from .gossip import gossip

    if model is None:
        model = result.model
    if result.n_messages != graph.n:
        raise ReproError(
            "survive() needs the standard one-message-per-processor gossip "
            f"instance (n_messages={result.n_messages}, n={graph.n})"
        )
    labels = tuple(int(x) for x in plan.labeled.labels())
    diagnosis = diagnose_survival(graph, result, model=model)

    if not diagnosis.components:
        raise SurvivorSetError(
            f"no survivors: all {graph.n} processors fail-stopped by round "
            f"{diagnosis.horizon}"
        )
    if diagnosis.partitioned and not allow_partition:
        pairs = _cross_partition_pairs(diagnosis, labels)
        raise PartitionedNetworkError(
            f"residual network is partitioned into {len(diagnosis.components)} "
            f"components ({len(diagnosis.dead)} dead processors, "
            f"{len(diagnosis.failed_links)} failed links); full gossip is "
            f"impossible for {len(pairs)} (processor, message) pairs",
            pairs=pairs,
            components=diagnosis.components,
            dead=diagnosis.dead,
        )

    holds = [int(h) for h in result.final_holds]
    masks = _guarantee_masks(diagnosis, labels)
    alg = plan.algorithm if algorithm is None else algorithm

    component_plans: List[ComponentPlan] = []
    sends: List[Tuple[int, int, int, Tuple[int, ...]]] = []
    for comp in diagnosis.components:
        if len(comp) == 1 or all(holds[v] & masks[v] == masks[v] for v in comp):
            continue  # singleton, or the faults never hurt this component
        local_of = {v: i for i, v in enumerate(comp)}
        failed = set(diagnosis.failed_links)
        local_edges = [
            (local_of[u], local_of[v])
            for u, v in graph.edges()
            if u in local_of and v in local_of and (u, v) not in failed
        ]
        sub = GraphType(len(comp), local_edges, name=f"survivors[{comp[0]}..]")
        sub_plan = gossip(sub, algorithm=alg)
        sub_labels = sub_plan.labeled.labels()
        # local DFS label -> original message id of the originating vertex.
        message_of = {
            int(sub_labels[lv]): labels[comp[lv]] for lv in range(len(comp))
        }
        sends.extend(
            (t, comp[s], message_of[m], tuple(comp[d] for d in ds))
            for t, s, m, ds in sub_plan.arrays().sends()
        )
        component_plans.append(
            ComponentPlan(
                vertices=comp,
                rounds=sub_plan.total_time,
                tree_height=sub_plan.tree.height,
            )
        )

    # The components are vertex-disjoint, so their rows merge side by
    # side without a conflict.
    name = plan.schedule.name
    schedule = Schedule.from_arrays(
        ArraySchedule.from_sends(
            sends, n=graph.n, name=f"{name}+survival" if name else "survival"
        )
    )

    if sends:
        survived: "ExecutionResult" = execute_schedule(
            graph,
            schedule,
            initial_holds=holds,
            n_messages=result.n_messages,
        )
        final_holds = tuple(int(h) for h in survived.final_holds)
    else:
        final_holds = tuple(holds)

    outcome = SurvivalResult(
        diagnosis=diagnosis,
        schedule=schedule,
        component_plans=tuple(component_plans),
        final_holds=final_holds,
        labels=labels,
    )
    validate_survival(diagnosis, labels, final_holds, before=result.final_holds)
    return outcome
