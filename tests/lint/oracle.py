"""The object-walk reference implementation of the static analyzer.

This is the per-destination, per-neighbour possession walk the lint
driver used before it became one array pass over the canonical
columns.  It materialises the ``Transmission`` object view and
propagates one integer bitmask per processor, round by round.  It is
kept here, outside the package, only as a differential oracle:
``tests/lint/test_oracle_differential.py`` asserts that
:func:`repro.lint.lint_schedule` returns exactly the
:class:`~repro.lint.LintReport` of :func:`oracle_lint_schedule` —
same diagnostics in the same order with the same text, same
``rules_run`` and ``name``.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.gossip import GossipPlan
from repro.core.schedule import ArraySchedule, Round, Schedule, Transmission
from repro.exceptions import ReproError
from repro.lint import rules as R
from repro.lint.diagnostics import Diagnostic, LintReport
from repro.networks.graph import Graph

__all__ = ["oracle_lint_schedule"]


def _normalize(schedule) -> Tuple[Tuple[Transmission, ...], ...]:
    """Flatten a schedule-like object into tuples of transmissions."""
    if isinstance(schedule, ArraySchedule):
        return tuple(rnd.transmissions for rnd in schedule.build_rounds())
    if isinstance(schedule, Schedule):
        return tuple(rnd.transmissions for rnd in schedule)
    out: List[Tuple[Transmission, ...]] = []
    for rnd in schedule:
        if isinstance(rnd, Round):
            out.append(rnd.transmissions)
        else:
            txs = tuple(rnd)
            for tx in txs:
                if not isinstance(tx, Transmission):
                    raise ReproError(
                        f"cannot lint {tx!r}: rounds must contain Transmission objects"
                    )
            out.append(txs)
    return tuple(out)


def _initial_holds(
    n: int,
    plan: Optional[GossipPlan],
    initial_holds: Optional[Sequence[int]],
) -> List[int]:
    """Initial possession bitmasks (mirrors the engine's defaults)."""
    if initial_holds is not None:
        holds = [int(h) for h in initial_holds]
        if len(holds) != n:
            raise ReproError(
                f"initial_holds has {len(holds)} entries for a {n}-vertex network"
            )
        return holds
    if plan is not None:
        # Message ids are DFS labels: processor v starts holding label(v).
        return [1 << plan.labeled.label_of(v) for v in range(n)]
    return [1 << v for v in range(n)]


def oracle_lint_schedule(
    graph: Graph,
    schedule,
    *,
    plan: Optional[GossipPlan] = None,
    initial_holds: Optional[Sequence[int]] = None,
    n_messages: Optional[int] = None,
    select: Optional[Iterable[str]] = None,
    ignore: Iterable[str] = (),
    require_complete: bool = True,
) -> LintReport:
    """The object-walk reference for :func:`repro.lint.lint_schedule`."""
    rounds = _normalize(schedule)
    n = graph.n
    n_msgs = int(n_messages) if n_messages is not None else n

    default_tiers = [R.MODEL, R.EFFICIENCY]
    if plan is not None and plan.algorithm == "concurrent-updown":
        default_tiers.append(R.PAPER)
    active = R.expand_selection(select, default_tiers=default_tiers)
    active -= R.expand_selection(ignore, default_tiers=())
    if plan is None and any(R.RULES[r].tier == R.PAPER for r in active):
        # Paper rules can only be active here via an explicit selection
        # (the default only adds them when a ConcurrentUpDown plan is
        # given), and they are meaningless without the producing plan.
        raise ReproError(
            "paper-invariant rules need the producing plan; "
            "pass plan= to lint_schedule"
        )
    if not require_complete:
        active -= {R.INCOMPLETE_GOSSIP.id}

    ctx = _Pass(graph, rounds, n_msgs, _initial_holds(n, plan, initial_holds), active)
    ctx.run()
    if plan is not None and any(R.RULES[r].tier == R.PAPER for r in active):
        ctx.check_paper(plan)
    ctx.check_budget(plan)

    name = (
        schedule.name
        if isinstance(schedule, (Schedule, ArraySchedule))
        else ""
    )
    return LintReport(
        diagnostics=tuple(ctx.diagnostics),
        rules_run=tuple(sorted(active)),
        name=name,
    )


class _Pass:
    """One abstract-possession propagation pass over the rounds."""

    def __init__(
        self,
        graph: Graph,
        rounds: Tuple[Tuple[Transmission, ...], ...],
        n_messages: int,
        holds: List[int],
        active: FrozenSet[str],
    ) -> None:
        self.graph = graph
        self.rounds = rounds
        self.n = graph.n
        self.n_messages = n_messages
        self.holds = holds
        self.active = active
        self.diagnostics: List[Diagnostic] = []
        #: per-round receiver sets (who is targeted in round t).
        self.receivers: List[Set[int]] = []
        #: per-round sender sets.
        self.senders: List[Set[int]] = []
        #: (sender, message) -> [(round, destinations)], for merge lints.
        self.sends_of: Dict[Tuple[int, int], List[Tuple[int, FrozenSet[int]]]] = {}
        #: first time each processor held every message (None = never).
        self.complete_at: List[Optional[int]] = [None] * self.n
        self._full = (1 << n_messages) - 1
        self._neighbour_sets: Dict[int, FrozenSet[int]] = {}
        for v in range(self.n):
            if holds[v] == self._full:
                self.complete_at[v] = 0

    # ------------------------------------------------------------------
    def emit(
        self,
        rule: R.Rule,
        message: str,
        *,
        round: Optional[int] = None,
        sender: Optional[int] = None,
        message_id: Optional[int] = None,
        destination: Optional[int] = None,
    ) -> None:
        """Record a finding if the rule is active."""
        if rule.id not in self.active:
            return
        self.diagnostics.append(
            Diagnostic(
                rule=rule.id,
                severity=rule.severity,
                message=message,
                round=round,
                sender=sender,
                message_id=message_id,
                destination=destination,
            )
        )

    def _neighbours(self, v: int) -> FrozenSet[int]:
        cached = self._neighbour_sets.get(v)
        if cached is None:
            cached = self._neighbour_sets[v] = frozenset(self.graph.neighbors(v))
        return cached

    # ------------------------------------------------------------------
    def run(self) -> None:
        """The single chronological pass (model + per-round efficiency)."""
        pending: List[Tuple[int, int, int, int]] = []  # (dest, msg, sender, round)
        for t, txs in enumerate(self.rounds):
            self._land(pending, t)
            pending = self._check_round(t, txs)
        self._land(pending, len(self.rounds))
        self._check_completeness()
        self._check_mergeable()

    def _land(self, pending: List[Tuple[int, int, int, int]], now: int) -> None:
        """Apply the previous round's deliveries (receive-before-send)."""
        for dest, msg, sender, sent_round in pending:
            if (self.holds[dest] >> msg) & 1:
                self.emit(
                    R.REDUNDANT_DELIVERY,
                    f"round {sent_round}: processor {sender} delivers message "
                    f"{msg} to {dest}, which already holds it",
                    round=sent_round,
                    sender=sender,
                    message_id=msg,
                    destination=dest,
                )
            else:
                self.holds[dest] |= 1 << msg
                if self.holds[dest] == self._full and self.complete_at[dest] is None:
                    self.complete_at[dest] = now

    def _check_round(
        self, t: int, txs: Tuple[Transmission, ...]
    ) -> List[Tuple[int, int, int, int]]:
        """Model-check one round's sends; return its pending deliveries."""
        seen_senders: Dict[int, int] = {}
        seen_receivers: Dict[int, int] = {}
        receivers: Set[int] = set()
        senders: Set[int] = set()
        pending: List[Tuple[int, int, int, int]] = []

        if not txs and t + 1 < len(self.rounds):
            self.emit(
                R.IDLE_ROUND,
                f"round {t} performs no communication but later rounds do",
                round=t,
            )

        for tx in txs:
            s, m = tx.sender, tx.message
            sender_ok = 0 <= s < self.n
            message_ok = 0 <= m < self.n_messages
            if not sender_ok:
                self.emit(
                    R.VERTEX_RANGE,
                    f"round {t}: sender {s} out of range for n={self.n}",
                    round=t, sender=s, message_id=m,
                )
            elif s in seen_senders:
                self.emit(
                    R.SENDER_COLLISION,
                    f"round {t}: processor {s} sends two messages in one round: "
                    f"{seen_senders[s]} and {m}",
                    round=t, sender=s, message_id=m,
                )
            if sender_ok:
                seen_senders.setdefault(s, m)
                senders.add(s)
            if not message_ok:
                self.emit(
                    R.MESSAGE_RANGE,
                    f"round {t}: message {m} out of range for "
                    f"n_messages={self.n_messages}",
                    round=t, sender=s, message_id=m,
                )
            if sender_ok and message_ok and not (self.holds[s] >> m) & 1:
                self.emit(
                    R.SEND_WITHOUT_HOLD,
                    f"round {t}: processor {s} sends message {m} it cannot "
                    f"hold yet",
                    round=t, sender=s, message_id=m,
                )
            neighbours = self._neighbours(s) if sender_ok else frozenset()
            for d in sorted(tx.destinations):
                if not 0 <= d < self.n:
                    self.emit(
                        R.VERTEX_RANGE,
                        f"round {t}: destination {d} out of range for n={self.n}",
                        round=t, sender=s, message_id=m, destination=d,
                    )
                    continue
                if d in seen_receivers:
                    self.emit(
                        R.RECEIVER_COLLISION,
                        f"round {t}: processor {d} receives two messages in "
                        f"one round: {seen_receivers[d]} and {m}",
                        round=t, sender=s, message_id=m, destination=d,
                    )
                seen_receivers.setdefault(d, m)
                receivers.add(d)
                if sender_ok and d not in neighbours:
                    self.emit(
                        R.NON_EDGE,
                        f"round {t}: transmission {s} -> {d} does not follow "
                        f"an edge of the network",
                        round=t, sender=s, message_id=m, destination=d,
                    )
                if message_ok:
                    pending.append((d, m, s, t))
            if sender_ok and message_ok:
                self.sends_of.setdefault((s, m), []).append(
                    (t, frozenset(tx.destinations))
                )

        self.receivers.append(receivers)
        self.senders.append(senders)
        if R.IDLE_SENDER.id in self.active:
            self._check_idle_senders(t, senders, receivers)
        return pending

    def _check_idle_senders(
        self, t: int, senders: Set[int], receivers: Set[int]
    ) -> None:
        """Flag processors that could legally deliver this round but don't."""
        if not self.rounds[t]:
            return  # the idle-round lint already covers fully-silent rounds
        for v in range(self.n):
            if v in senders:
                continue
            have = self.holds[v]
            for u in self._neighbours(v):
                if u in receivers:
                    continue
                missing = have & ~self.holds[u]
                if missing:
                    self.emit(
                        R.IDLE_SENDER,
                        f"round {t}: processor {v} is idle but holds message "
                        f"{_lowest_bit(missing)} its free neighbour {u} misses",
                        round=t, sender=v,
                    )
                    break  # one finding per idle processor per round

    def _check_completeness(self) -> None:
        if R.INCOMPLETE_GOSSIP.id not in self.active:
            return
        missing = {
            v: _bits_missing(self.holds[v], self._full)
            for v in range(self.n)
            if self.holds[v] != self._full
        }
        if missing:
            self.emit(
                R.INCOMPLETE_GOSSIP,
                f"gossip incomplete after {len(self.rounds)} rounds; "
                f"missing: {missing}",
            )

    def _check_mergeable(self) -> None:
        """Repeat sends of one (sender, message) that an earlier multicast
        could have absorbed — fan-out waste, not a model violation."""
        if R.UNICAST_MERGEABLE.id not in self.active:
            return
        for (s, m), sends in self.sends_of.items():
            if len(sends) < 2:
                continue
            t0, dests0 = sends[0]
            free_at_t0 = self.receivers[t0]
            for t1, dests1 in sends[1:]:
                extra = dests1 - dests0
                if extra and all(d not in free_at_t0 for d in extra):
                    self.emit(
                        R.UNICAST_MERGEABLE,
                        f"round {t1}: processor {s} re-sends message {m}; the "
                        f"destinations {sorted(extra)} were free in round {t0} "
                        f"and could have joined that multicast",
                        round=t1, sender=s, message_id=m,
                    )

    # ------------------------------------------------------------------
    def check_budget(self, plan: Optional[GossipPlan]) -> None:
        """The ``n + r`` certificate lint (efficiency tier)."""
        if R.OVER_BUDGET.id not in self.active or not self.rounds:
            return
        if plan is not None:
            r = plan.tree.height
        else:
            from repro.networks.properties import radius

            r = radius(self.graph)
        budget = self.n + r
        total = len(self.rounds)
        if total > budget:
            self.emit(
                R.OVER_BUDGET,
                f"schedule takes {total} rounds, beyond the n + r = "
                f"{self.n} + {r} = {budget} certificate",
                round=budget,
            )

    # ------------------------------------------------------------------
    # Paper-invariant tier (ConcurrentUpDown structural rules)
    # ------------------------------------------------------------------
    def check_paper(self, plan: GossipPlan) -> None:
        tree, labeled = plan.tree, plan.labeled
        self._check_label_contiguity(plan)

        parent = [tree.parent(v) for v in range(tree.n)]
        children = {v: frozenset(tree.children(v)) for v in range(tree.n)}
        blocks = labeled.blocks()
        up_events: Dict[int, List[Tuple[int, int]]] = {}

        for t, txs in enumerate(self.rounds):
            for tx in txs:
                s, m = tx.sender, tx.message
                if not (0 <= s < tree.n and 0 <= m < self.n_messages):
                    continue  # already a model error
                blk = blocks[s]
                for d in tx.destinations:
                    if not 0 <= d < tree.n:
                        continue
                    if d == parent[s]:
                        if not blk.i <= m <= blk.j:
                            self.emit(
                                R.UP_MONOTONE,
                                f"round {t}: processor {s} sends message {m} "
                                f"up to its parent, outside its subtree "
                                f"interval [{blk.i}, {blk.j}]",
                                round=t, sender=s, message_id=m, destination=d,
                            )
                        up_events.setdefault(s, []).append((t, m))
                    elif d in children[s]:
                        db = blocks[d]
                        if db.i <= m <= db.j:
                            self.emit(
                                R.DOWN_NO_BACKFLOW,
                                f"round {t}: processor {s} sends message {m} "
                                f"down into the subtree of child {d} that "
                                f"originated it (interval [{db.i}, {db.j}])",
                                round=t, sender=s, message_id=m, destination=d,
                            )
                    else:
                        self.emit(
                            R.TREE_EDGE,
                            f"round {t}: transmission {s} -> {d} is not a "
                            f"tree parent-child edge",
                            round=t, sender=s, message_id=m, destination=d,
                        )

        for v, events in up_events.items():
            events.sort()
            for (t_prev, m_prev), (t_next, m_next) in zip(events, events[1:]):
                if m_next <= m_prev:
                    self.emit(
                        R.UP_MONOTONE,
                        f"round {t_next}: processor {v} sends message {m_next} "
                        f"up after message {m_prev} (round {t_prev}); the "
                        f"up-phase must be label-monotone",
                        round=t_next, sender=v, message_id=m_next,
                    )

        if R.ROOT_COMPLETE.id in self.active and tree.n >= 1:
            root_done = self.complete_at[tree.root]
            if root_done is None or root_done > tree.n:
                when = "never" if root_done is None else f"at round {root_done}"
                self.emit(
                    R.ROOT_COMPLETE,
                    f"root {tree.root} holds all {self.n_messages} messages "
                    f"{when}, not by round n = {tree.n}",
                    round=None if root_done is None else root_done,
                )

        if R.LENGTH_CERTIFICATE.id in self.active:
            expected = tree.n + tree.height if tree.n >= 2 else 0
            total = len(self.rounds)
            if total != expected:
                self.emit(
                    R.LENGTH_CERTIFICATE,
                    f"schedule takes {total} rounds; Theorem 1 certifies "
                    f"exactly n + r = {tree.n} + {tree.height} = {expected}",
                    round=total,
                )

    def _check_label_contiguity(self, plan: GossipPlan) -> None:
        """Re-derive the DFS interval invariants instead of trusting them."""
        if R.LABEL_CONTIGUITY.id not in self.active:
            return
        tree, labeled = plan.tree, plan.labeled
        labels = labeled.labels()
        if sorted(labels) != list(range(tree.n)):
            self.emit(
                R.LABEL_CONTIGUITY,
                f"labels {labels} are not a permutation of 0..{tree.n - 1}",
            )
            return
        # Independent j (max label in subtree), deepest-first aggregation.
        j_of = list(labels)
        for v in sorted(range(tree.n), key=tree.level, reverse=True):
            p = tree.parent(v)
            if p >= 0 and j_of[v] > j_of[p]:
                j_of[p] = j_of[v]
        for v in range(tree.n):
            blk = labeled.block(v)
            if blk.i != labels[v] or blk.j != j_of[v]:
                self.emit(
                    R.LABEL_CONTIGUITY,
                    f"vertex {v} advertises interval [{blk.i}, {blk.j}] but "
                    f"its subtree spans [{labels[v]}, {j_of[v]}]",
                    sender=v,
                )
                continue
            cursor = blk.i + 1
            for c in tree.children(v):
                cb = labeled.block(c)
                if cb.i != cursor:
                    self.emit(
                        R.LABEL_CONTIGUITY,
                        f"child {c} of vertex {v} starts at label {cb.i}, "
                        f"expected {cursor} (intervals must be contiguous)",
                        sender=v, destination=c,
                    )
                    break
                cursor = cb.j + 1
            else:
                if tree.children(v) and cursor != blk.j + 1:
                    self.emit(
                        R.LABEL_CONTIGUITY,
                        f"children of vertex {v} end at label {cursor - 1}, "
                        f"expected {blk.j}",
                        sender=v,
                    )


def _lowest_bit(mask: int) -> int:
    """Index of the lowest set bit of a non-zero mask."""
    return (mask & -mask).bit_length() - 1


def _bits_missing(held: int, full: int) -> Tuple[int, ...]:
    """Message ids present in ``full`` but absent from ``held``."""
    missing = full & ~held
    out: List[int] = []
    while missing:
        b = _lowest_bit(missing)
        out.append(b)
        missing &= missing - 1
    return tuple(out)
