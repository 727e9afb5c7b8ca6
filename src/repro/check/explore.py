"""Exhaustive explorer for :class:`~repro.check.model.ProtocolModel`.

Breadth-first search over canonical hashable states with a visited set,
so the first path reaching a violation is a *minimal* one (fewest
actions), which is what the rendered counterexample traces print.

Partial-order reduction
-----------------------
In the abstract model every pair of actions commutes: a delivery only
moves a token from the shared flight set into one peer's buffer, and a
step only consumes from its own buffer and appends fresh tokens.  The
explorer exploits this with an *ample set*: whenever any delivery is
enabled, it explores just the least one.  Rather than assuming the
commutation argument, it certifies it per state — for the chosen
delivery ``a`` and every other enabled action ``b`` it executes both
``a·b`` and ``b·a`` and compares the resulting states (the diamond
check).  If any diamond fails to close, or any probe reports a
violation, the state falls back to full expansion, so the reduction is
self-certifying: a mutated model that breaks commutativity (e.g. the
``fence_skew`` off-by-one, where *which* round's token a barrier
consumes depends on delivery order) automatically loses the reduction
exactly where it matters and the violating interleaving is searched.
Steps are always fully interleaved, so the committed state counts track
genuine protocol nondeterminism.

Exactly-once delivery is checked constructively: after every delivery
the explorer re-delivers a straggler copy of the same wire record and
asserts the state is unchanged — at-least-once at the datagram layer,
exactly-once at the processor.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.gossip import GossipPlan, gossip
from ..analysis.sweep import FAMILIES, family_instance
from ..exceptions import ProtocolCheckError
from .model import (
    Action,
    ModelState,
    ProtocolModel,
    Token,
    check_rejoin,
    render_token,
)

__all__ = [
    "Counterexample",
    "ExplorationReport",
    "FamilyCheck",
    "explore",
    "check_family",
    "check_matrix",
    "parse_family_spec",
    "render_trace",
]

#: Visited-set ceiling per scenario; a blowup is an infrastructure error
#: (the committed budgets in CHECK_protocol.json are far below this).
DEFAULT_BUDGET = 250_000


@dataclass(frozen=True)
class Counterexample:
    """A minimal violating run: the actions from the initial state."""

    violation: str
    trace: Tuple[Action, ...]
    scenario: Tuple[Tuple[int, int], ...]

    def render(self, model: ProtocolModel) -> str:
        """Render the trace as the wire-message sequence that exhibits it."""
        header = [
            f"counterexample ({len(self.trace)} actions, "
            f"crashes={dict(self.scenario) or 'none'}):"
        ]
        return "\n".join(header + render_trace(model, self.trace)
                         + [f"VIOLATION: {self.violation}"])


@dataclass
class ExplorationReport:
    """What one scenario's exhaustive exploration established."""

    scenario: Tuple[Tuple[int, int], ...]
    states: int = 0
    transitions: int = 0
    ample_states: int = 0
    fallback_states: int = 0
    quiescent: Dict[str, int] = field(default_factory=dict)
    counterexample: Optional[Counterexample] = None
    abort_state: Optional[ModelState] = None

    @property
    def ok(self) -> bool:
        return self.counterexample is None


def render_trace(model: ProtocolModel, trace: Sequence[Action]) -> List[str]:
    """Render actions as wire messages by re-executing them."""
    lines: List[str] = []
    state = model.initial()
    for action in trace:
        kind, arg = action
        if kind == "deliver":
            assert isinstance(arg, Token)
            lines.append(f"  deliver {render_token(arg)}")
        else:
            assert isinstance(arg, int)
            t = state.peers[arg].t
            lines.append(f"  step    peer {arg} runs round {t}:")
        state, violations = model.apply(state, action)
        if kind == "step":
            for token in sorted(state.flight):
                if token.sender == arg and token.round == t:
                    lines.append(f"            send {render_token(token)}")
        for violation in violations:
            lines.append(f"            !! {violation}")
    return lines


def _successors(
    model: ProtocolModel, state: ModelState, enabled: Sequence[Action]
) -> Tuple[List[Tuple[Action, ModelState, Tuple[str, ...]]], str]:
    """Expand one state; the mode records whether the reduction applied.

    ``"ample"``: a delivery was enabled and certified independent — only
    it is explored.  ``"fallback"``: a delivery was enabled but a diamond
    failed to close (or the probe itself surfaced a violation) — full
    expansion.  ``"steps"``: no delivery enabled; steps always branch.
    """
    delivers = [a for a in enabled if a[0] == "deliver"]
    if delivers:
        chosen = delivers[0]
        succ, violations = model.apply(state, chosen)
        if (
            not violations
            and _diamonds_close(model, state, chosen, succ, enabled)
            and _saturation_closes(model, state, chosen)
        ):
            return [(chosen, succ, violations)], "ample"
        mode = "fallback"
    else:
        mode = "steps"
    return [
        (action, *model.apply(state, action)) for action in enabled
    ], mode


def _diamonds_close(
    model: ProtocolModel,
    state: ModelState,
    chosen: Action,
    after_chosen: ModelState,
    enabled: Sequence[Action],
) -> bool:
    """Certify that ``chosen`` commutes with every other enabled action."""
    for other in enabled:
        if other == chosen:
            continue
        # a then b: b must still be enabled and still reach the same state
        # as b then a, with no violations surfacing along either order.
        try:
            if other[0] == "step":
                assert isinstance(other[1], int)
                if not model.step_enabled(after_chosen, other[1]):
                    return False
            ab, v1 = model.apply(after_chosen, other)
            ba_mid, v2 = model.apply(state, other)
            ba, v3 = model.apply(ba_mid, chosen)
        except ProtocolCheckError:
            return False
        if v1 or v2 or v3 or ab != ba:
            return False
    return True


def _saturation_closes(
    model: ProtocolModel, state: ModelState, chosen: Action
) -> bool:
    """Lookahead diamond: the receiver's step must not be buffer-sensitive.

    Pairwise diamonds at the current state cannot see a dependency that
    only materialises after *other* deliveries land: with the
    ``fence_skew`` mutation, whether a barrier consumes the right token
    depends on which of two tokens from the same sender is in the buffer
    — and the receiver's step may only become enabled once the rest of
    its barrier arrives.  So: deliver every other in-flight token bound
    for the same receiver, and if its step is then enabled *without* the
    chosen token, require the chosen delivery to still commute with that
    step.  In the clean model a barrier consumes exactly the round-(t-1)
    tokens whatever else is buffered, so this always closes and the
    reduction is kept; a buffer-sensitive mutation fails it and the state
    falls back to full expansion, which walks straight into the
    violating interleaving.
    """
    _, token = chosen
    assert isinstance(token, Token)
    v = token.dst
    saturated = state
    try:
        for other in sorted(state.flight):
            if other != token and other.dst == v:
                saturated, viol = model.apply(saturated, ("deliver", other))
                if viol:
                    return False
        if not model.step_enabled(saturated, v):
            return True
        with_token, v1 = model.apply(saturated, chosen)
        if not model.step_enabled(with_token, v):
            return False
        ab, v2 = model.apply(with_token, ("step", v))
        ba_mid, v3 = model.apply(saturated, ("step", v))
        ba, v4 = model.apply(ba_mid, chosen)
    except ProtocolCheckError:
        return False
    return not (v1 or v2 or v3 or v4) and ab == ba


def explore(
    model: ProtocolModel,
    *,
    budget: int = DEFAULT_BUDGET,
    rejoin: bool = True,
) -> ExplorationReport:
    """Exhaustively explore ``model``; first violation wins (minimal trace).

    Checks, beyond the per-transition invariants rendered by
    :meth:`ProtocolModel.apply`:

    * exactly-once delivery (duplicate-closure after every delivery);
    * quiescent-state classification — fault-free explorations must end
      in the unique all-hold-all terminal state whose transcript equals
      the offline schedule; crash scenarios must end in wavefront
      starvation states, all identical (the runner's deterministic
      abort snapshot), with the victim's holds matching the
      supervisor's truncated-schedule reconstruction;
    * with ``rejoin=True``, single-victim abort states must re-complete
      full gossip within the supervisor's repair budget from *every*
      possible RESYNC source (:func:`~repro.check.model.check_rejoin`).
    """
    report = ExplorationReport(
        scenario=tuple(sorted(model.crash_round.items()))
    )
    initial = model.initial()
    parents: Dict[ModelState, Optional[Tuple[ModelState, Action]]] = {
        initial: None
    }
    frontier: deque[ModelState] = deque([initial])

    def trace_to(state: ModelState, extra: Action) -> Tuple[Action, ...]:
        actions: List[Action] = [extra]
        cursor: Optional[Tuple[ModelState, Action]] = parents[state]
        while cursor is not None:
            prev, action = cursor
            actions.append(action)
            cursor = parents[prev]
        return tuple(reversed(actions))

    def fail(state: ModelState, action: Action, violation: str) -> None:
        report.states = len(parents)
        report.counterexample = Counterexample(
            violation=violation,
            trace=trace_to(state, action),
            scenario=report.scenario,
        )

    while frontier:
        state = frontier.popleft()
        enabled = model.enabled(state)
        if not enabled:
            kind, violations = model.classify_quiescent(state)
            report.quiescent[kind] = report.quiescent.get(kind, 0) + 1
            if violations:
                last = parents[state]
                if last is None:
                    raise ProtocolCheckError(
                        "initial state is quiescent — empty model?"
                    )
                fail(last[0], last[1], violations[0])
                return report
            problem = self_check_quiescent(model, state, kind, report,
                                           rejoin=rejoin)
            if problem is not None:
                last = parents[state]
                assert last is not None
                fail(last[0], last[1], problem)
                return report
            continue
        for action in enabled:
            if action[0] == "step":
                assert isinstance(action[1], int)
                problem = model.barrier_overadmission(state, action[1])
                if problem is not None:
                    fail(state, action, problem)
                    return report
        successors, mode = _successors(model, state, enabled)
        if mode == "ample":
            report.ample_states += 1
        elif mode == "fallback":
            report.fallback_states += 1
        for action, succ, violations in successors:
            report.transitions += 1
            if violations:
                fail(state, action, violations[0])
                return report
            if action[0] == "deliver":
                assert isinstance(action[1], Token)
                problem = _duplicate_closure(model, succ, action[1])
                if problem is not None:
                    fail(state, action, problem)
                    return report
            if succ not in parents:
                parents[succ] = (state, action)
                if len(parents) > budget:
                    raise ProtocolCheckError(
                        f"state-space budget exceeded: more than {budget} "
                        f"states for scenario {report.scenario!r}"
                    )
                frontier.append(succ)
    report.states = len(parents)
    return report


def _duplicate_closure(
    model: ProtocolModel, state: ModelState, token: Token
) -> Optional[str]:
    """Exactly-once: re-delivering a straggler copy must be a no-op."""
    redelivered, violations = model.apply_duplicate(state, token)
    if violations:
        return violations[0]
    if redelivered != state:
        return (
            f"exactly-once delivery violated: a duplicate copy of "
            f"{render_token(token)} changed peer {token.dst}'s state"
        )
    return None


def self_check_quiescent(
    model: ProtocolModel,
    state: ModelState,
    kind: str,
    report: ExplorationReport,
    *,
    rejoin: bool,
) -> Optional[str]:
    """Scenario-level checks on a violation-free quiescent state."""
    if kind == "complete":
        if state.sent != model.offline_records():
            missing = sorted(model.offline_records() - state.sent)
            extra = sorted(state.sent - model.offline_records())
            return (
                f"fault-free transcript diverges from the offline schedule "
                f"(missing {missing[:3]}, extra {extra[:3]})"
            )
        return None
    if kind == "wavefront":
        if report.abort_state is None:
            report.abort_state = state
        elif report.abort_state != state:
            return (
                "wavefront nondeterminism: two different quiescent abort "
                "states are reachable under the same crash scenario"
            )
        for victim, peer in enumerate(state.peers):
            if peer.died_at is None:
                continue
            expected = model.plan.holds_at(victim, peer.died_at)
            if peer.holds != expected:
                return (
                    f"victim {victim} died at round {peer.died_at} holding "
                    f"{peer.holds:#x}, but the supervisor's truncated-"
                    f"schedule reconstruction expects {expected:#x}"
                )
        if rejoin:
            problems = check_rejoin(model, state)
            if problems:
                return problems[0]
    return None


def parse_family_spec(spec: str) -> Tuple[str, int]:
    """Parse ``"path:4"`` into ``("path", 4)`` with typed errors."""
    family, _, size = spec.partition(":")
    if not size:
        raise ProtocolCheckError(
            f"family spec {spec!r} must look like 'path:4'"
        )
    try:
        n = int(size)
    except ValueError as exc:
        raise ProtocolCheckError(
            f"family spec {spec!r} has a non-integer size"
        ) from exc
    if not 2 <= n <= 8:
        raise ProtocolCheckError(
            f"family spec {spec!r}: explicit-state exploration is bounded "
            f"to n in 2..8"
        )
    if family not in FAMILIES:
        raise ProtocolCheckError(
            f"family spec {spec!r}: unknown family {family!r} "
            f"(choose from {', '.join(sorted(FAMILIES))})"
        )
    return family, n


def plan_for(family: str, n: int) -> GossipPlan:
    """The plan the runtime would execute for one family instance."""
    graph = family_instance(family, n)
    return gossip(graph, algorithm="concurrent-updown")


@dataclass
class FamilyCheck:
    """Aggregated exploration results for one ``family:n`` instance."""

    family: str
    n: int
    horizon: int
    scenarios: int = 0
    states: int = 0
    transitions: int = 0
    ample_states: int = 0
    fallback_states: int = 0
    fault_free_states: int = 0
    max_scenario_states: int = 0
    complete_terminals: int = 0
    wavefront_terminals: int = 0
    counterexample: Optional[Counterexample] = None
    reports: List[ExplorationReport] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.counterexample is None

    def summary(self) -> Dict[str, int]:
        return {
            "scenarios": self.scenarios,
            "states": self.states,
            "transitions": self.transitions,
            "fault_free_states": self.fault_free_states,
            "max_scenario_states": self.max_scenario_states,
            "ample_states": self.ample_states,
            "fallback_states": self.fallback_states,
        }


def crash_scenarios(
    model_horizon: int, n: int, crashes: int
) -> List[Tuple[Tuple[int, int], ...]]:
    """All crash scenarios up to ``crashes`` victims (0 = fault-free only).

    Single-victim scenarios quantify over every (victim, round) pair up
    to the horizon — a victim crashing past the horizon is the fault-free
    run.  The fault-free scenario is always first.
    """
    scenarios: List[Tuple[Tuple[int, int], ...]] = [()]
    if crashes >= 1:
        for victim in range(n):
            for rnd in range(model_horizon + 1):
                scenarios.append(((victim, rnd),))
    return scenarios


def check_family(
    family: str,
    n: int,
    *,
    crashes: int = 1,
    budget: int = DEFAULT_BUDGET,
    rejoin: bool = True,
    fence_skew: int = 0,
) -> FamilyCheck:
    """Explore every crash scenario of one family instance."""
    plan = plan_for(family, n)
    result = FamilyCheck(family=family, n=n, horizon=plan.schedule.total_time)
    for scenario in crash_scenarios(plan.schedule.total_time, plan.labeled.n,
                                    crashes):
        model = ProtocolModel(plan, crash=scenario, fence_skew=fence_skew)
        report = explore(model, budget=budget, rejoin=rejoin)
        result.reports.append(report)
        result.scenarios += 1
        result.states += report.states
        result.transitions += report.transitions
        result.ample_states += report.ample_states
        result.fallback_states += report.fallback_states
        result.max_scenario_states = max(result.max_scenario_states,
                                         report.states)
        if not scenario:
            result.fault_free_states = report.states
        result.complete_terminals += report.quiescent.get("complete", 0)
        result.wavefront_terminals += report.quiescent.get("wavefront", 0)
        if report.counterexample is not None and result.counterexample is None:
            result.counterexample = report.counterexample
            break
    return result


#: The committed small-scope matrix (ISSUE 10 acceptance criteria).
MATRIX_FAMILIES: Tuple[str, ...] = ("path", "star", "complete")
MATRIX_SIZES: Tuple[int, ...] = (3, 4, 5)


def check_matrix(
    *,
    families: Sequence[str] = MATRIX_FAMILIES,
    sizes: Sequence[int] = MATRIX_SIZES,
    crashes: int = 1,
    budget: int = DEFAULT_BUDGET,
    rejoin: bool = True,
) -> Dict[str, FamilyCheck]:
    """Run the whole small-scope matrix; keyed ``"family:n"``."""
    results: Dict[str, FamilyCheck] = {}
    for family in families:
        for n in sizes:
            results[f"{family}:{n}"] = check_family(
                family, n, crashes=crashes, budget=budget, rejoin=rejoin
            )
    return results
