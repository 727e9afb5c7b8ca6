"""The static analysis driver: :func:`lint_schedule`.

The driver never executes a schedule.  It reads the schedule as flat
columns — one ``(round, sender, message)`` row per transmission plus the
``(row, destination)`` delivery pairs, the
:class:`~repro.core.schedule.Schedule` form — and answers every rule
as a vectorised query over one **arrival matrix**: ``A[v, m]`` is the
first time processor ``v`` holds message ``m`` (0 for initial holdings,
``t + 1`` for the earliest delivery sent in round ``t``).  This is exact
for the multicasting model because possession is monotone, every
in-range delivery lands at ``t + 1`` whether or not it was legal, and
receive-before-send means round ``t``'s sends see exactly the deliveries
of rounds ``< t``: ``v`` holds ``m`` at round ``t`` iff ``A[v, m] <= t``,
the engine's judgement bit for bit, without importing the engine (the
differential tests in ``tests/lint`` prove both claims).  The same pass,
built by :func:`arrival_pass` with only the execution rules active, is
what :func:`repro.simulator.engine.execute_schedule` answers from: the
simulator imports this module, never the other way round.

A :class:`~repro.core.schedule.Schedule` is read straight from its
columns; the ``Transmission`` object view is never built.  A raw
sequence of rounds (each a ``Round`` or an iterable of
``Transmission``) is packed into the same columns by one loop.  Only raw
rounds can reach the ``model/sender-collision`` /
``model/receiver-collision`` rules, since ``Schedule`` refuses
them — which is how the test suite proves the lint layer agrees with
the packer's conflict checks.

Diagnostics are built only for findings, each with an emission key that
reproduces a round-by-round walk: round ``t - 1``'s landings, then round
``t``'s idle-round finding, its per-transmission model findings (row
order, destinations ascending) and its idle senders by processor; after
the last round, completeness, mergeable sends, the paper tier and the
budget certificate.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..core.gossip import GossipPlan
from ..core.schedule import Round, Schedule, Transmission
from ..exceptions import (
    IncompleteGossipError,
    ModelViolationError,
    ReproError,
    ScheduleConflictError,
    ScheduleError,
)
from ..networks.graph import Graph
from .diagnostics import Diagnostic, LintReport
from . import rules as R

__all__ = [
    "ArrivalPass",
    "ScheduleLike",
    "arrival_pass",
    "diagnostic_exception",
    "lint_schedule",
]

#: Anything the driver understands as a schedule: a :class:`Schedule`,
#: or a raw sequence of rounds (each a ``Round`` or iterable of
#: transmissions) that may carry the collisions a ``Schedule`` refuses.
ScheduleLike = Union[Schedule, Sequence[Union[Round, Iterable[Transmission]]]]

#: Exception class the dynamic layer raises for each model rule —
#: :func:`repro.simulator.validator.check_static` uses this table so the
#: static and dynamic layers cannot drift.
_EXCEPTION_OF_RULE: Dict[str, type] = {
    R.SENDER_COLLISION.id: ScheduleConflictError,
    R.RECEIVER_COLLISION.id: ScheduleConflictError,
    R.VERTEX_RANGE.id: ScheduleError,
    R.MESSAGE_RANGE.id: ScheduleError,
    R.NON_EDGE.id: ModelViolationError,
    R.SEND_WITHOUT_HOLD.id: ModelViolationError,
    R.INCOMPLETE_GOSSIP.id: IncompleteGossipError,
}

#: Arrival time of a message a processor never holds.
_NEVER = np.iinfo(np.int64).max

#: Word budget of the idle-sender scan: one round block of packed hold
#: bitsets (rounds x n x words) and one candidate batch each stay near it.
_BATCH = 1 << 18


def diagnostic_exception(diag: Diagnostic) -> ScheduleError:
    """The typed exception equivalent to one model diagnostic.

    Lets exception-based callers (:mod:`repro.simulator.validator`)
    re-raise lint findings with the historical exception types.
    """
    exc_type = _EXCEPTION_OF_RULE.get(diag.rule, ScheduleError)
    return exc_type(diag.message)


class _Columns(NamedTuple):
    """Rows ``t, s, m`` in round order; pairs ``row, d`` sorted by row,
    then destination.  ``set_pos``: each pair's position in its
    destination set's iteration order (``None``: the frozenset of the
    ascending destinations, as the array form materialises it)."""

    t: np.ndarray
    s: np.ndarray
    m: np.ndarray
    row: np.ndarray
    d: np.ndarray
    total: int
    set_pos: Optional[np.ndarray]


def _columns(schedule: ScheduleLike) -> _Columns:
    """Read a schedule-like object as flat columns."""
    if isinstance(schedule, Schedule):
        row, d = schedule.destination_pairs()
        return _Columns(
            schedule.round.astype(np.int64), schedule.sender.astype(np.int64),
            schedule.message.astype(np.int64), row, d, schedule.total_time, None,
        )
    ts: List[int] = []
    ss: List[int] = []
    ms: List[int] = []
    fan: List[int] = []
    dests: List[int] = []
    total = 0
    for t, rnd in enumerate(schedule):
        total = t + 1
        for tx in rnd.transmissions if isinstance(rnd, Round) else rnd:
            if not isinstance(tx, Transmission):
                raise ReproError(
                    f"cannot lint {tx!r}: rounds must contain Transmission objects"
                )
            ts.append(t)
            ss.append(tx.sender)
            ms.append(tx.message)
            fan.append(len(tx.destinations))
            dests.extend(tx.destinations)
    try:
        t_col, s_col, m_col, d = (np.array(c, dtype=np.int64) for c in (ts, ss, ms, dests))
    except OverflowError as exc:
        raise ReproError("cannot lint ids that do not fit in 64 bits") from exc
    row = np.repeat(np.arange(len(ts), dtype=np.int64), fan)
    order = np.lexsort((d, row))
    set_pos = np.arange(len(row)) - np.searchsorted(row, row)
    return _Columns(t_col, s_col, m_col, row[order], d[order], total, set_pos[order])


def _repeats(keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Positions whose key already occurred earlier, and that first position."""
    order = np.argsort(keys, kind="stable")
    ranked = keys[order]
    new = np.ones(len(ranked), dtype=bool)
    new[1:] = ranked[1:] != ranked[:-1]
    head = order[np.flatnonzero(new)[np.cumsum(new) - 1]]
    return order[~new], head[~new]


def _hold_bits(holds: List[int], n_messages: int) -> np.ndarray:
    """Initial possession bitmasks as an ``(n, W)`` bool matrix.

    ``W >= n_messages``: columns past ``n_messages`` keep any initial bits
    outside the message range, and a negative mask's infinite tail sets
    the last column, so set differences and equality with the full mask
    behave as the integer arithmetic does.
    """
    negative = any(h < 0 for h in holds)
    top = max(((~h if h < 0 else h).bit_length() for h in holds), default=0)
    width = max(n_messages, top) + negative
    size = (width + 7) // 8
    low = (1 << width) - 1
    raw = b"".join((h & low).to_bytes(size, "little") for h in holds)
    bits = np.unpackbits(
        np.frombuffer(raw, dtype=np.uint8).reshape(len(holds), size),
        axis=1, bitorder="little",
    )
    return bits[:, :width].astype(bool)


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


def lint_schedule(
    graph: Graph,
    schedule: ScheduleLike,
    *,
    plan: Optional[GossipPlan] = None,
    initial_holds: Optional[Sequence[int]] = None,
    n_messages: Optional[int] = None,
    select: Optional[Iterable[str]] = None,
    ignore: Iterable[str] = (),
    require_complete: bool = True,
) -> LintReport:
    """Statically analyze ``schedule`` on ``graph`` without executing it.

    Parameters
    ----------
    graph:
        The communication network the schedule claims to run on.
    schedule:
        A :class:`~repro.core.schedule.Schedule`, or a raw sequence
        of rounds (each a ``Round`` or an iterable of ``Transmission``)
        for material the constructors would reject outright.
    plan:
        The :class:`~repro.core.gossip.GossipPlan` that produced the
        schedule, when available.  Supplies the DFS labelling (initial
        holdings and message-id semantics), the tree (the ``n + r``
        certificate), and — for ``concurrent-updown`` plans — enables
        the ``paper`` rule tier.
    initial_holds:
        Explicit initial possession bitmasks (overrides the plan's
        labelling; defaults to "processor ``v`` holds message ``v``").
    n_messages:
        Total distinct messages (defaults to ``graph.n``, like the
        engine).
    select / ignore:
        Rule ids or tier names to run / to skip.  ``select=None`` runs
        the ``model`` and ``efficiency`` tiers, plus ``paper`` when
        ``plan`` is a ConcurrentUpDown plan.  Selecting a ``paper`` rule
        explicitly without a ``plan`` raises
        :class:`~repro.exceptions.ReproError`.
    require_complete:
        Whether ``model/incomplete-gossip`` may fire (mirrors the
        dynamic validator's flag).

    Returns
    -------
    LintReport
        Every finding of every active rule, in round order.
    """
    n_msgs = int(n_messages) if n_messages is not None else graph.n

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

    ctx = arrival_pass(
        graph, schedule, active,
        holds=_initial_holds(graph.n, plan, initial_holds), n_messages=n_msgs,
        plan=plan,
    )
    return LintReport(
        diagnostics=ctx.diagnostics(),
        rules_run=tuple(sorted(active)),
        name=schedule.name if isinstance(schedule, Schedule) else "",
    )


def arrival_pass(
    graph: Graph,
    schedule: ScheduleLike,
    rules: Iterable[str],
    *,
    holds: Sequence[int],
    n_messages: int,
    plan: Optional[GossipPlan] = None,
) -> "ArrivalPass":
    """Build the arrival matrix of ``schedule`` and run ``rules`` over it.

    The one entry point to the pass: :func:`lint_schedule` calls it with
    the resolved selection, the engine with the execution rules only.
    ``holds`` are the initial possession bitmasks (one per processor);
    the ``paper`` tier runs only when ``plan`` is given.  Work that no
    requested rule reads (the per-round receiving matrix, the collision
    sorts, the idle-sender scan) is skipped.
    """
    ctx = ArrivalPass(graph, _columns(schedule), n_messages, list(holds),
                      frozenset(rules))
    ctx.run()
    if plan is not None and any(R.RULES[r].tier == R.PAPER for r in ctx.active):
        ctx.check_paper(plan)
    ctx.check_budget(plan)
    return ctx


class ArrivalPass:
    """Every rule as a vectorised query over the columns and ``A``.

    Attributes read by callers: ``cols`` (the flat schedule columns),
    ``pt`` / ``ps`` / ``pm`` (round, sender and message of each delivery
    pair), ``total`` (rounds), ``arrival`` (``A``; the int32 maximum
    where a message never arrives), ``redundant`` (positions of the
    redundant delivery pairs, ascending), ``complete_at`` (first time
    each processor held every message, ``-1`` = never) and
    :meth:`diagnostics`.
    """

    def __init__(
        self,
        graph: Graph,
        cols: _Columns,
        n_messages: int,
        holds: List[int],
        active: FrozenSet[str],
    ) -> None:
        self.graph = graph
        self.cols = cols
        self.n = n = graph.n
        self.n_messages = n_messages
        self.total = cols.total
        self.active = active
        self._found: List[Tuple[Tuple[int, ...], Diagnostic]] = []
        self.sender_ok = (cols.s >= 0) & (cols.s < n)
        self.message_ok = (cols.m >= 0) & (cols.m < n_messages)
        self.dest_ok = (cols.d >= 0) & (cols.d < n)
        # Per-pair views of the row columns.
        self.pt, self.ps, self.pm = cols.t[cols.row], cols.s[cols.row], cols.m[cols.row]
        held = _hold_bits(holds, n_messages)
        # int64: a send in the last int32 round lands at 2**31.
        self.arrival = np.where(held, 0, _NEVER)
        self.redundant = self._land()
        inner = self.arrival[:, :n_messages]
        full = (inner < _NEVER).all(axis=1) & ~held[:, n_messages:].any(axis=1)
        #: first time each processor held every message (-1 = never).
        self.complete_at = np.where(full, inner.max(axis=1, initial=0), -1)

    @cached_property
    def receiving(self) -> np.ndarray:
        """``receiving[v, t]``: some delivery targets ``v`` in round ``t``."""
        out = np.zeros((self.n, self.total), dtype=bool)
        out[self.cols.d[self.dest_ok], self.pt[self.dest_ok]] = True
        return out

    # ------------------------------------------------------------------
    def emit(
        self, rule: R.Rule, message: str, key: Optional[Tuple[int, ...]] = None,
        **locus: Optional[int],
    ) -> None:
        """Record a finding if the rule is active.  ``key`` places a
        round-walk finding; keyless ones follow every round, in order."""
        if rule.id in self.active:
            key = key or (self.total + 1, len(self._found))
            self._found.append(
                (key, Diagnostic(rule.id, rule.severity, message, **locus))
            )

    def diagnostics(self) -> Tuple[Diagnostic, ...]:
        """All findings in emission order."""
        return tuple(d for _, d in sorted(self._found, key=lambda f: f[0]))

    def _row(self, e: int) -> Tuple[int, int, int]:
        c = self.cols
        return int(c.t[e]), int(c.s[e]), int(c.m[e])

    def _land(self) -> np.ndarray:
        """Fill ``A`` from the deliveries; return the redundant pairs.

        A delivery is redundant iff its destination held the message
        from the start or an earlier pair (round, then pair order)
        already delivered it — only the first lands.
        """
        cols = self.cols
        live = np.flatnonzero(self.dest_ok & self.message_ok[cols.row])
        again, _ = _repeats(cols.d[live] * self.arrival.shape[1] + self.pm[live])
        first = np.ones(len(live), dtype=bool)
        first[again] = False
        lead = live[first]
        d, m = cols.d[lead], self.pm[lead]
        held = self.arrival[d, m] == 0
        self.arrival[d[~held], m[~held]] = self.pt[lead[~held]] + 1
        return np.sort(np.concatenate([live[again], lead[held]]))

    # ------------------------------------------------------------------
    def run(self) -> None:
        """The model and efficiency tiers."""
        self._check_model()
        if R.REDUNDANT_DELIVERY.id in self.active:
            for p in self.redundant.tolist():
                t, s, m = self._row(int(self.cols.row[p]))
                d = int(self.cols.d[p])
                self.emit(
                    R.REDUNDANT_DELIVERY,
                    f"round {t}: processor {s} delivers message {m} to {d}, "
                    f"which already holds it",
                    (t + 1, 0, p), round=t, sender=s, message_id=m, destination=d,
                )
        # ``busy`` is one flag per round: build it only for the idle
        # rules, so a sparse schedule costs nothing per idle round here.
        if {R.IDLE_ROUND.id, R.IDLE_SENDER.id} & self.active:
            busy = np.bincount(self.cols.t, minlength=self.total) > 0
            if R.IDLE_ROUND.id in self.active:
                for t in np.flatnonzero(~busy[:-1]).tolist():
                    self.emit(
                        R.IDLE_ROUND,
                        f"round {t} performs no communication but later rounds do",
                        (t, 1), round=t,
                    )
            if R.IDLE_SENDER.id in self.active and busy.any():
                self._check_idle_senders(busy)
        self._check_completeness()
        self._check_mergeable()

    def _check_model(self) -> None:
        """Per-transmission and per-destination model findings."""
        c, n = self.cols, self.n

        def at(rule: R.Rule, e: int, slot: int, text: str, p: Optional[int] = None) -> None:
            t, s, m = self._row(e)
            d = None if p is None else int(c.d[p])
            key = (t, 2, e, slot if p is None else 3 + 2 * p + slot)
            self.emit(
                rule, f"round {t}: " + text.format(s=s, m=m, d=d), key,
                round=t, sender=s, message_id=m, destination=d,
            )

        for e in np.flatnonzero(~self.sender_ok).tolist():
            at(R.VERTEX_RANGE, e, 0, f"sender {{s}} out of range for n={n}")
        if R.SENDER_COLLISION.id in self.active:
            ok = np.flatnonzero(self.sender_ok)
            for e, h in zip(*(ok[i].tolist() for i in _repeats(c.t[ok] * n + c.s[ok]))):
                at(R.SENDER_COLLISION, e, 0, "processor {s} sends two messages in "
                   f"one round: {int(c.m[h])} and {{m}}")
        for e in np.flatnonzero(~self.message_ok).tolist():
            at(R.MESSAGE_RANGE, e, 1, f"message {{m}} out of range for "
               f"n_messages={self.n_messages}")
        ok = np.flatnonzero(self.sender_ok & self.message_ok)
        for e in ok[self.arrival[c.s[ok], c.m[ok]] > c.t[ok]].tolist():
            at(R.SEND_WITHOUT_HOLD, e, 2, "processor {s} sends message {m} it cannot hold yet")

        for p in np.flatnonzero(~self.dest_ok).tolist():
            at(R.VERTEX_RANGE, int(c.row[p]), 0, f"destination {{d}} out of range for n={n}", p)
        if R.RECEIVER_COLLISION.id in self.active:
            ok = np.flatnonzero(self.dest_ok)
            for p, h in zip(*(ok[i].tolist() for i in _repeats(self.pt[ok] * n + c.d[ok]))):
                at(R.RECEIVER_COLLISION, int(c.row[p]), 0, "processor {d} receives "
                   f"two messages in one round: {int(self.pm[h])} and {{m}}", p)
        ok = np.flatnonzero(self.dest_ok & self.sender_ok[c.row])
        edges = np.repeat(np.arange(n), self.graph.degrees()) * n + self.graph.indices
        for p in ok[~np.isin(self.ps[ok] * n + c.d[ok], edges)].tolist():
            at(R.NON_EDGE, int(c.row[p]), 1,
               "transmission {s} -> {d} does not follow an edge of the network", p)

    def _check_idle_senders(self, busy: np.ndarray) -> None:
        """Flag processors that could legally deliver this round but don't.

        A finding at round ``t`` needs an idle ``v`` (``t`` busy, ``v``
        not sending), a free neighbour ``u`` (not receiving, and not yet
        holding every message anyone ever holds) and a message ``v``
        holds that ``u`` lacks.  Free ``(u, t)`` slots are rare, so only
        they are expanded over their neighbours: candidates ``(v, u, t)``
        run in rank-major order of ``frozenset(graph.neighbors(v))`` and
        test the packed hold bitsets ``hold[t, v] & ~hold[t, u]``.  An
        idle slot's first hit names the witness neighbour, the lowest
        set bit of the difference the witness message, and retires the
        slot.  Hold bitsets exist only for rounds with a free slot, built
        in blocks of rounds and tested in candidate batches, each about
        ``_BATCH`` words.
        """
        c, n, total, arrival = self.cols, self.n, self.total, self.arrival
        width = arrival.shape[1]
        ever = (arrival < _NEVER).any(axis=0)
        full_at = np.where(ever, arrival, 0).max(axis=1, initial=0)
        free = busy & ~self.receiving & (np.arange(total) < full_at[:, None])
        ptr = np.asarray(self.graph.indptr)
        if not (free.any() and ptr[-1]):
            return
        idle = np.repeat(busy[None, :], n, axis=0)
        idle[c.s[self.sender_ok], c.t[self.sender_ok]] = False
        # Directed edges (v, u) by rank of u in v's neighbour set, then v.
        tail = np.repeat(np.arange(n, dtype=np.int64), np.diff(ptr))
        head = np.fromiter(
            chain.from_iterable(frozenset(self.graph.neighbors(v)) for v in range(n)),
            dtype=np.int64, count=int(ptr[-1]),
        )
        by_rank = np.argsort(np.arange(len(tail)) - ptr[tail], kind="stable")
        tail, head = tail[by_rank], head[by_rank]
        # Only rounds with a free slot get hold bitsets: row k holds round
        # rounds[k].  An arrival lands in the first row at or after its
        # time; keys row * size + cell (cell = v * width + m) sort the
        # arrivals by row, cut into blocks of ``span`` rows.
        rounds = np.flatnonzero(free.any(axis=0))
        row_of = np.searchsorted(rounds, np.arange(rounds[-1] + 1))
        words = -(-width // 64)
        span = max(1, _BATCH // (n * words))
        when = arrival.ravel()
        keys = np.flatnonzero(when <= rounds[-1])
        keys = np.sort(row_of[when[keys]] * np.int64(when.size) + keys)
        cuts = np.searchsorted(keys, np.arange(0, len(rounds) + span, span) * when.size)
        block = np.zeros((min(span, len(rounds)), n, words), dtype=np.uint64)
        for lo, hi, k0 in zip(cuts[:-1], cuts[1:], range(0, len(rounds), span)):
            # hold[k - k0, v]: v's messages at round rounds[k], 64 per
            # word.  Row 0 starts from the previous (full) block's last row.
            hold = block[:min(span, len(rounds) - k0)]
            hold[0] = block[-1]
            hold[1:] = 0
            row, cell = np.divmod(keys[lo:hi], when.size)
            v, m = np.divmod(cell, width)
            bit = np.left_shift(np.uint64(1), (m & 63).astype(np.uint64))
            # Each (v, m) arrives once, so adding its bit is OR-ing it.
            np.add.at(block.reshape(-1), ((row - k0) * n + v) * words + (m >> 6), bit)
            for j in range(1, len(hold)):
                np.bitwise_or(hold[j - 1], hold[j], out=hold[j])
            at = rounds[k0:k0 + span]
            self._idle_block(hold, at, idle[:, at], free[:, at], tail, head)

    def _idle_block(
        self, hold: np.ndarray, at: np.ndarray, idle: np.ndarray, free: np.ndarray,
        tail: np.ndarray, head: np.ndarray,
    ) -> None:
        """The idle-sender findings of one block of rounds ``at``: column
        ``k`` of ``idle`` / ``free`` and row ``k`` of ``hold`` describe
        round ``at[k]``, and ``idle`` slots retire as they find a witness."""
        fu, ft = np.nonzero(free)
        start = np.searchsorted(fu, np.arange(len(free) + 1))
        count = np.diff(start)[head] * idle.any(axis=1)[tail]
        ends = np.cumsum(count)
        # About _BATCH words per batch: two word rows and a few indices each.
        step = max(1, _BATCH // (2 * hold.shape[2] + 4))
        cuts = np.searchsorted(ends, np.arange(0, ends[-1], step), side="right")
        cuts = np.unique(np.concatenate([[0], cuts, [len(ends)]]))
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            k = count[lo:hi]
            size = int(k.sum())
            if not size:
                continue
            # Ragged expansion: every free slot of each edge's head.
            edge = np.repeat(np.arange(lo, hi), k)
            t = ft[np.repeat(start[head[lo:hi]] - (np.cumsum(k) - k), k) + np.arange(size)]
            live = idle[tail[edge], t]
            edge, t = edge[live], t[live]
            diff = hold[t, head[edge]]
            np.invert(diff, out=diff)
            diff &= hold[t, tail[edge]]
            hit = np.flatnonzero(diff.any(axis=1))
            _, first = np.unique(tail[edge[hit]] * idle.shape[1] + t[hit], return_index=True)
            hit = hit[first]
            v, u, t, diff = tail[edge[hit]], head[edge[hit]], t[hit], diff[hit]
            idle[v, t] = False
            # Lowest set bit: x & -x of the first nonzero word, whose log2
            # is exact in float64 (a power of two).
            word = np.argmax(diff != 0, axis=1)
            low = diff[np.arange(len(hit)), word]
            low &= ~low + np.uint64(1)
            witness = word * 64 + np.log2(low).astype(np.int64)
            for vv, uu, tt, w in zip(v.tolist(), u.tolist(), at[t].tolist(),
                                     witness.tolist()):
                self.emit(
                    R.IDLE_SENDER,
                    f"round {tt}: processor {vv} is idle but holds message "
                    f"{w} its free neighbour {uu} misses",
                    (tt, 3, vv), round=tt, sender=vv,
                )

    def _check_completeness(self) -> None:
        if R.INCOMPLETE_GOSSIP.id not in self.active:
            return
        inner = self.arrival[:, : self.n_messages]
        missing = {
            v: tuple(np.flatnonzero(inner[v] == _NEVER).tolist())
            for v in np.flatnonzero(self.complete_at < 0).tolist()
        }
        if missing:
            self.emit(
                R.INCOMPLETE_GOSSIP,
                f"gossip incomplete after {self.total} rounds; "
                f"missing: {missing}",
            )

    def _check_mergeable(self) -> None:
        """Repeat sends of one (sender, message) that an earlier multicast
        could have absorbed — fan-out waste, not a model violation."""
        c = self.cols
        if R.UNICAST_MERGEABLE.id not in self.active or not len(c.d):
            return
        ok = np.flatnonzero(self.sender_ok & self.message_ok)
        later, first = _repeats(c.s[ok] * self.n_messages + c.m[ok])
        order = np.lexsort((ok[later], ok[first]))
        later, first = ok[later][order], ok[first][order]
        # The destination pairs of every repeat send, and whether each
        # destination also received the first send of its (s, m).
        ptr = np.searchsorted(c.row, np.arange(len(c.t) + 1))
        size = ptr[later + 1] - ptr[later]
        bounds = np.concatenate([[0], np.cumsum(size)])
        owner = np.repeat(np.arange(len(later)), size)
        q = np.arange(bounds[-1]) + np.repeat(ptr[later] - bounds[:-1], size)
        _, code = np.unique(c.d, return_inverse=True)
        span = int(code.max()) + 1
        keys = c.row * span + code
        probe = first[owner] * span + code[q]
        extra = keys[np.searchsorted(keys, probe).clip(max=len(keys) - 1)] != probe
        t0 = c.t[first[owner]]
        blocked = extra & self.dest_ok[q]
        blocked[blocked] = self.receiving[c.d[q[blocked]], t0[blocked]]
        n_extra = np.bincount(owner[extra], minlength=len(later))
        n_blocked = np.bincount(owner[blocked], minlength=len(later))
        for i in np.flatnonzero((n_extra > 0) & (n_blocked == 0)).tolist():
            t1, s, m = self._row(int(later[i]))
            sl = slice(bounds[i], bounds[i + 1])
            dests = c.d[q[sl][extra[sl]]].tolist()
            self.emit(
                R.UNICAST_MERGEABLE,
                f"round {t1}: processor {s} re-sends message {m}; the "
                f"destinations {dests} were free in round {int(c.t[first[i]])} "
                f"and could have joined that multicast",
                round=t1, sender=s, message_id=m,
            )

    # ------------------------------------------------------------------
    def check_budget(self, plan: Optional[GossipPlan]) -> None:
        """The ``n + r`` certificate lint (efficiency tier)."""
        if R.OVER_BUDGET.id not in self.active or not self.total:
            return
        if plan is not None:
            r = plan.tree.height
        else:
            from ..networks.properties import radius

            r = radius(self.graph)
        budget = self.n + r
        if self.total > budget:
            self.emit(
                R.OVER_BUDGET,
                f"schedule takes {self.total} rounds, beyond the n + r = "
                f"{self.n} + {r} = {budget} certificate",
                round=budget,
            )

    # ------------------------------------------------------------------
    # Paper-invariant tier (ConcurrentUpDown structural rules)
    # ------------------------------------------------------------------
    def check_paper(self, plan: GossipPlan) -> None:
        tree, c = plan.tree, self.cols
        self._check_label_contiguity(plan)

        blocks = plan.labeled.blocks()
        lo = np.array([b.i for b in blocks], dtype=np.int64)
        hi = np.array([b.j for b in blocks], dtype=np.int64)
        parent = np.array(tree.parents(), dtype=np.int64)
        on_tree = (
            (self.ps >= 0) & (self.ps < tree.n) & self.message_ok[c.row]
            & (c.d >= 0) & (c.d < tree.n)
        )
        q = np.flatnonzero(on_tree)
        s, m, d = self.ps[q], self.pm[q], c.d[q]
        up = d == parent[s]
        down = ~up & (parent[d] == s)
        outside = up & ((m < lo[s]) | (m > hi[s]))
        backflow = down & (lo[d] <= m) & (m <= hi[d])
        hits = np.flatnonzero(outside | backflow | ~(up | down))
        pos = self._set_positions(q[hits])
        for k in np.lexsort((pos, c.row[q[hits]])).tolist():
            i = int(hits[k])
            t, sv, mv, dv = int(self.pt[q[i]]), int(s[i]), int(m[i]), int(d[i])
            locus = dict(round=t, sender=sv, message_id=mv, destination=dv)
            if outside[i]:
                self.emit(
                    R.UP_MONOTONE,
                    f"round {t}: processor {sv} sends message {mv} up to its "
                    f"parent, outside its subtree interval [{lo[sv]}, {hi[sv]}]",
                    **locus,
                )
            elif backflow[i]:
                self.emit(
                    R.DOWN_NO_BACKFLOW,
                    f"round {t}: processor {sv} sends message {mv} down into "
                    f"the subtree of child {dv} that originated it (interval "
                    f"[{lo[dv]}, {hi[dv]}])",
                    **locus,
                )
            else:
                self.emit(
                    R.TREE_EDGE,
                    f"round {t}: transmission {sv} -> {dv} is not a tree "
                    f"parent-child edge",
                    **locus,
                )

        # Up sends per vertex (vertices by first up send), by (round, message).
        us, ut, um = s[up], self.pt[q[up]], m[up]
        first_up = np.full(tree.n, len(c.t), dtype=np.int64)
        np.minimum.at(first_up, us, c.row[q[up]])
        order = np.lexsort((um, ut, first_up[us]))
        us, ut, um = us[order].tolist(), ut[order].tolist(), um[order].tolist()
        for k in range(1, len(us)):
            if us[k] == us[k - 1] and um[k] <= um[k - 1]:
                self.emit(
                    R.UP_MONOTONE,
                    f"round {ut[k]}: processor {us[k]} sends message {um[k]} "
                    f"up after message {um[k - 1]} (round {ut[k - 1]}); the "
                    f"up-phase must be label-monotone",
                    round=ut[k], sender=us[k], message_id=um[k],
                )

        if R.ROOT_COMPLETE.id in self.active and tree.n >= 1:
            done = int(self.complete_at[tree.root])
            if done < 0 or done > tree.n:
                when = "never" if done < 0 else f"at round {done}"
                self.emit(
                    R.ROOT_COMPLETE,
                    f"root {tree.root} holds all {self.n_messages} messages "
                    f"{when}, not by round n = {tree.n}",
                    round=None if done < 0 else done,
                )

        if R.LENGTH_CERTIFICATE.id in self.active:
            expected = tree.n + tree.height if tree.n >= 2 else 0
            if self.total != expected:
                self.emit(
                    R.LENGTH_CERTIFICATE,
                    f"schedule takes {self.total} rounds; Theorem 1 certifies "
                    f"exactly n + r = {tree.n} + {tree.height} = {expected}",
                    round=self.total,
                )

    def _set_positions(self, pairs: np.ndarray) -> np.ndarray:
        """Each pair's position in its destination set's iteration order."""
        c = self.cols
        if c.set_pos is not None:
            return c.set_pos[pairs]
        out: List[int] = []
        for p in pairs.tolist():
            r = c.row[p]
            lo, hi = np.searchsorted(c.row, [r, r + 1])
            out.append(list(frozenset(c.d[lo:hi].tolist())).index(int(c.d[p])))
        return np.array(out, dtype=np.int64)

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
