"""Abstract model of the runtime's online protocol state machines.

The model is the :mod:`repro.runtime` peer protocol with the *transport
erased*: the ack/retransmit machinery of
:class:`~repro.runtime.peer.GossipPeer` exists to turn at-least-once
datagram delivery into exactly-once token delivery, so the abstract
network holds a set of undelivered wire records ("tokens") and an
adversary chooses the delivery order.  Reordering, duplication and
bounded dropping at the wire all collapse onto that choice: a dropped
reliable record is retransmitted (same token, later delivery), and a
duplicated record is suppressed by the receiver's dedup — an equality
the explorer re-verifies at every delivery via
:meth:`ProtocolModel.apply_duplicate`.

What is *not* abstracted is the protocol logic itself.  A model peer is
the same fence-barrier loop as :meth:`GossipPeer.run_online`, and its
round-``t`` transmission is computed by replaying its delivered-token
history through a real :class:`~repro.core.online.OnlineProcessor` — the
model cannot drift from the (U3)/(U4)/(D2)/(D3) rules because it *runs*
them.  The conformance driver (:mod:`repro.check.replay`) closes the
remaining gap by comparing model executions against recorded
:class:`~repro.runtime.transport.NetChaos` runtime runs.

A step reads only the stepping peer's own :class:`PeerView` plus model
constants (tree, horizon, crash rounds, ``fence_skew``), so its
peer-local part — barrier, fence and monotonicity checks, crash and
horizon cases, the processor's multicast, the possession check — is
memoised per model keyed ``(v, view)``, and memoising it is exact.  The
real processor still runs on the peer's ``(delivered, t)``, once per
distinct view that reaches the send.  The sender/receiver clash checks
against the global send log stay per call.  Deliveries, step
enabledness and the barrier over-admission probe are memoised the same
way; the explorer's certificates, which re-apply the same peer-local
steps many times, mostly hit these caches.

States are canonical hashable tuples (:class:`ModelState`), so the
explorer's visited set is a plain ``set``.  Safety invariants are
checked *inside* :meth:`ProtocolModel.apply` and returned as rendered
violation strings naming the offending wire record — the explorer turns
the first one into a :class:`~repro.check.explore.Counterexample`.

The ``fence_skew`` knob exists only so the checker can be proven able to
fail: ``fence_skew=1`` re-creates the classic off-by-one fence bug (a
barrier for round ``t`` also admits round-``t`` tokens), which the
fence-isolation invariant must catch with a minimal trace.  Production
code paths never set it.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, NamedTuple, Optional, Tuple

from ..core.gossip import GossipPlan
from ..core.online import OnlineProcessor, _ChildInfo
from ..core.recovery import _tree_adjacency, plan_repair_rounds
from ..exceptions import ProtocolCheckError, ScheduleConflictError, SimulationError
from ..runtime.wire import DATA, FENCE, PHASE_ONLINE

__all__ = [
    "Token",
    "SentRecord",
    "PeerView",
    "ModelState",
    "Action",
    "ProtocolModel",
    "check_rejoin",
    "render_token",
]

#: Abstract wire record: the header fields of one reliable datagram.
#: ``payload`` is the DFS message label for DATA and ``None`` for FENCE
#: (mirroring the peer's token store, where a FENCE stores ``None``).
class Token(NamedTuple):
    kind: int
    phase: int
    round: int
    sender: int
    dst: int
    payload: Optional[int]


class SentRecord(NamedTuple):
    """One emitted multicast, in offline-schedule coordinates."""

    round: int
    sender: int
    message: int
    destinations: Tuple[int, ...]


class PeerView(NamedTuple):
    """Canonical state of one model peer (hashable, immutable).

    ``t`` is the next round-loop iteration to execute, exactly the loop
    variable of :meth:`~repro.runtime.peer.GossipPeer.run_online`;
    ``done`` marks a normal return, ``died_at`` a fail-stop.  ``tokens``
    is the post-dedup token store keyed ``(round, sender)``; ``delivered``
    the exact ``(time, sender, message)`` triples fed to the online
    processor — the same key :class:`OnlineProcessor` uses for its own
    duplicate detection, and sufficient to rebuild the processor.
    """

    t: int
    done: bool
    died_at: Optional[int]
    holds: int
    tokens: FrozenSet[Tuple[int, int, Optional[int]]]
    delivered: FrozenSet[Tuple[int, int, int]]


class ModelState(NamedTuple):
    """One global state: all peers, the in-flight tokens, the transcript."""

    peers: Tuple[PeerView, ...]
    flight: FrozenSet[Token]
    sent: FrozenSet[SentRecord]


#: ("deliver", token) or ("step", vertex) — the adversary's alphabet.
Action = Tuple[str, object]


class _ProcSpec(NamedTuple):
    """Constructor arguments of one vertex's :class:`OnlineProcessor`."""

    vertex: int
    n: int
    i: int
    j: int
    k: int
    parent: Optional[int]
    is_first_child: bool
    children: Tuple[_ChildInfo, ...]


class _LocalStep(NamedTuple):
    """The peer-local part of one step: all of it but the clash checks."""

    peer: PeerView
    record: Optional[SentRecord]
    tokens: FrozenSet[Token]
    violations: Tuple[str, ...]


class ProtocolModel:
    """The explorable model of one plan under one crash scenario.

    Parameters
    ----------
    plan:
        The offline :class:`~repro.core.gossip.GossipPlan` the runtime
        would execute; supplies the labelled tree, the horizon and the
        reference schedule.
    crash:
        ``(victim, round)`` pairs: each victim fail-stops upon reaching
        the given round, mirroring
        :meth:`~repro.runtime.transport.NetChaos.kill_round_of`
        semantics (deliveries already in flight still land; the victim
        neither sends nor receives afterwards).
    fence_skew:
        Test-only fault injection; see the module docstring.  Must stay
        0 everywhere outside the checker's own mutation tests.
    """

    def __init__(
        self,
        plan: GossipPlan,
        *,
        crash: Tuple[Tuple[int, int], ...] = (),
        fence_skew: int = 0,
    ) -> None:
        self.plan = plan
        self.n = plan.labeled.n
        self.horizon = plan.schedule.total_time
        self.fence_skew = fence_skew
        self.crash_round: Dict[int, int] = {}
        for victim, rnd in crash:
            if not 0 <= victim < self.n:
                raise ProtocolCheckError(
                    f"crash victim {victim} outside vertex range 0..{self.n - 1}"
                )
            self.crash_round[victim] = min(
                rnd, self.crash_round.get(victim, rnd)
            )

        labeled = plan.labeled
        tree = labeled.tree
        self._specs: List[_ProcSpec] = []
        self.neighbours: List[Tuple[int, ...]] = []
        self.labels: List[int] = []
        for v in range(self.n):
            block = labeled.block(v)
            children = tuple(
                _ChildInfo(
                    vertex=c,
                    i=labeled.block(c).i,
                    j=labeled.block(c).j,
                )
                for c in tree.children(v)
            )
            parent = None if tree.is_root(v) else tree.parent(v)
            self._specs.append(
                _ProcSpec(
                    vertex=v,
                    n=self.n,
                    i=block.i,
                    j=block.j,
                    k=block.k,
                    parent=parent,
                    is_first_child=block.is_first_child,
                    children=children,
                )
            )
            nbrs = [c.vertex for c in children]
            if parent is not None:
                nbrs.append(parent)
            self.neighbours.append(tuple(sorted(nbrs)))
            self.labels.append(block.i)

        # The offline schedule, read once from the canonical columns (rows
        # in round order, each row's destinations ascending).
        arrays = plan.arrays()
        rounds = arrays.round.tolist()
        messages = arrays.message.tolist()
        dest_lists: List[List[int]] = [[] for _ in rounds]
        rows, dests = arrays.destination_pairs()
        for row, d in zip(rows.tolist(), dests.tolist()):
            dest_lists[row].append(d)
        self._offline = frozenset(
            SentRecord(round=rnd, sender=sender, message=message,
                       destinations=tuple(ds))
            for rnd, sender, message, ds in zip(
                rounds, arrays.sender.tolist(), messages, dest_lists)
        )

        # Peer-local memos: each maps a peer's own view (plus the action's
        # argument) to what the model computes from that view alone.
        self._step_memo: Dict[Tuple[int, PeerView], _LocalStep] = {}
        self._deliver_memo: Dict[Tuple[Token, PeerView], Optional[PeerView]] = {}
        self._enabled_memo: Dict[Tuple[int, PeerView], bool] = {}
        self._overadmission_memo: Dict[Tuple[int, PeerView], Optional[str]] = {}

    # -- construction ---------------------------------------------------
    def initial(self) -> ModelState:
        """Every peer at round 0 holding its own message, nothing in flight."""
        peers = tuple(
            PeerView(
                t=0,
                done=False,
                died_at=None,
                holds=1 << self.labels[v],
                tokens=frozenset(),
                delivered=frozenset(),
            )
            for v in range(self.n)
        )
        return ModelState(peers=peers, flight=frozenset(), sent=frozenset())

    def _processor(self, v: int) -> OnlineProcessor:
        s = self._specs[v]
        return OnlineProcessor(
            vertex=s.vertex,
            n=s.n,
            i=s.i,
            j=s.j,
            k=s.k,
            parent=s.parent,
            is_first_child=s.is_first_child,
            children=list(s.children),
        )

    def _rebuild(self, v: int, delivered: FrozenSet[Tuple[int, int, int]],
                 upto: int) -> OnlineProcessor:
        """Replay ``v``'s delivery history through a fresh real processor.

        Interleaves receives and per-round transmission computation in
        the exact order :meth:`GossipPeer.run_online` produced them, so
        the stateful (D2) delay bookkeeping is bit-identical.  After the
        call, ``send(upto)`` is the next thing the peer would compute.
        """
        proc = self._processor(v)
        by_time: Dict[int, List[Tuple[int, int]]] = {}
        for time, sender, message in delivered:
            by_time.setdefault(time, []).append((sender, message))
        for tau in range(upto + 1):
            for sender, message in sorted(by_time.get(tau, ())):
                proc.receive(tau, sender, message)
            if tau < upto:
                proc.send(tau)
        return proc

    # -- enabledness ----------------------------------------------------
    def _barrier_tokens(
        self, peer: PeerView, v: int, t: int
    ) -> Optional[List[Token]]:
        """The tokens barrier ``t`` would consume, or None if unsatisfied.

        The real barrier (:meth:`GossipPeer._await_tokens`) admits only
        round ``t - 1`` tokens.  With the test-only ``fence_skew``
        mutation a round ``t - 1 + skew`` token also satisfies the
        barrier — the off-by-one the fence-isolation invariant exists to
        catch.
        """
        have = {(rnd, sender): payload for rnd, sender, payload in peer.tokens}
        chosen: List[Token] = []
        for u in self.neighbours[v]:
            rounds = [t - 1]
            if self.fence_skew:
                rounds.append(t - 1 + self.fence_skew)
            for rnd in rounds:
                if (rnd, u) in have:
                    payload = have[(rnd, u)]
                    kind = FENCE if payload is None else DATA
                    chosen.append(
                        Token(kind=kind, phase=PHASE_ONLINE, round=rnd,
                              sender=u, dst=v, payload=payload)
                    )
                    break
            else:
                return None
        return chosen

    def barrier_overadmission(self, state: ModelState, v: int) -> Optional[str]:
        """Check the fence-isolation hypothesis at a step-enabled state.

        The partial-order reduction (and the protocol's round fencing)
        rests on barriers being *exact*: barrier ``t`` is satisfied by
        the round-``t - 1`` token from each neighbour and by nothing
        else.  This probe removes each neighbour's round-``t - 1`` token
        in turn and asserts the barrier goes unsatisfied — if it stays
        satisfied, some other buffered record (necessarily of a
        different round) is being admitted, which is exactly the
        off-by-one fence bug: were that round-``t - 1`` delivery merely
        reordered to arrive later, the barrier would consume the wrong
        round's message.  Returns the rendered violation, or ``None``.
        """
        peer = state.peers[v]
        key = (v, peer)
        try:
            return self._overadmission_memo[key]
        except KeyError:
            found = self._overadmission_memo[key] = self._overadmission(peer, v)
            return found

    def _overadmission(self, peer: PeerView, v: int) -> Optional[str]:
        t = peer.t
        if t == 0 or peer.done or peer.died_at is not None:
            return None
        for u in self.neighbours[v]:
            reduced = peer._replace(
                tokens=frozenset(
                    tok for tok in peer.tokens
                    if not (tok[0] == t - 1 and tok[1] == u)
                )
            )
            chosen = self._barrier_tokens(reduced, v, t)
            if chosen is None:
                continue
            culprit = next(tok for tok in chosen if tok.sender == u)
            return (
                f"fence isolation broken at peer {v}: with the round-{t - 1} "
                f"record from peer {u} still in flight, the barrier for round "
                f"{t} is satisfied by {render_token(culprit)} — a "
                f"round-{culprit.round} message admitted into round {t}"
            )
        return None

    def step_enabled(self, state: ModelState, v: int) -> bool:
        """Whether peer ``v`` can execute its next round-loop iteration."""
        peer = state.peers[v]
        key = (v, peer)
        try:
            return self._enabled_memo[key]
        except KeyError:
            enabled = self._enabled_memo[key] = (
                not peer.done and peer.died_at is None and (
                    peer.t == 0
                    or self._barrier_tokens(peer, v, peer.t) is not None
                )
            )
            return enabled

    def enabled(self, state: ModelState) -> List[Action]:
        """All enabled actions, in canonical (deterministic) order."""
        actions: List[Action] = [
            ("deliver", token) for token in sorted(state.flight)
        ]
        actions.extend(
            ("step", v) for v in range(self.n) if self.step_enabled(state, v)
        )
        return actions

    # -- transitions ----------------------------------------------------
    def apply(self, state: ModelState,
              action: Action) -> Tuple[ModelState, Tuple[str, ...]]:
        """Execute one action; returns the successor and any violations.

        Violations are rendered strings naming the offending wire record
        — protocol bugs are counterexample *data*, never exceptions
        (:class:`~repro.exceptions.ProtocolCheckError` is reserved for
        checker misuse, e.g. applying a disabled action).
        """
        kind, arg = action
        if kind == "deliver":
            assert isinstance(arg, Token)
            return self._apply_deliver(state, arg)
        if kind == "step":
            assert isinstance(arg, int)
            return self._apply_step(state, arg)
        raise ProtocolCheckError(f"unknown model action kind {kind!r}")

    def _apply_deliver(
        self, state: ModelState, token: Token
    ) -> Tuple[ModelState, Tuple[str, ...]]:
        if token not in state.flight:
            raise ProtocolCheckError(f"delivering a token not in flight: {token}")
        flight = state.flight - {token}
        peer = state.peers[token.dst]
        key = (token, peer)
        try:
            new = self._deliver_memo[key]
        except KeyError:
            new = self._deliver_memo[key] = self._receive(peer, token)
        if new is None:
            return ModelState(state.peers, flight, state.sent), ()
        peers = _replace_peer(state.peers, token.dst, new)
        return ModelState(peers, flight, state.sent), ()

    @staticmethod
    def _receive(peer: PeerView, token: Token) -> Optional[PeerView]:
        """The receiver's view after ``token`` lands; None if absorbed."""
        if peer.died_at is not None:
            # A fail-stopped transport hears nothing (PeerProtocol drops
            # receives after kill); the copy is consumed by the void.
            return None
        key = (token.round, token.sender)
        if any((rnd, sender) == key for rnd, sender, _ in peer.tokens):
            # Duplicate of an already-buffered record: dedup suppresses.
            return None
        tokens = peer.tokens | {(token.round, token.sender, token.payload)}
        return peer._replace(tokens=tokens)

    def apply_duplicate(self, state: ModelState,
                        token: Token) -> Tuple[ModelState, Tuple[str, ...]]:
        """Deliver a straggler *copy* of an already-delivered record.

        The exactly-once invariant in constructive form: the explorer
        calls this after every real delivery and asserts the state is
        unchanged — at-least-once at the wire, exactly-once at the
        processor.
        """
        shadow = ModelState(state.peers, state.flight | {token}, state.sent)
        return self._apply_deliver(shadow, token)

    def _apply_step(
        self, state: ModelState, v: int
    ) -> Tuple[ModelState, Tuple[str, ...]]:
        peer = state.peers[v]
        key = (v, peer)
        try:
            local = self._step_memo[key]
        except KeyError:
            local = self._step_memo[key] = self._local_step(peer, v)
        peers = _replace_peer(state.peers, v, local.peer)
        flight = state.flight | local.tokens if local.tokens else state.flight
        record = local.record
        if record is None:
            return ModelState(peers, flight, state.sent), local.violations

        # The only checks that read beyond the peer's own view: this
        # multicast against everything already sent in the same round.
        violations = list(local.violations)
        t, message = record.round, record.message
        dests = set(record.destinations)
        for other in state.sent:
            if other.round != t:
                continue
            clash = dests.intersection(other.destinations)
            if clash:
                violations.append(
                    f"receiver clash at round {t}: peers {sorted(clash)} "
                    f"receive both message {other.message} from "
                    f"{other.sender} and message {message} from {v} (one "
                    f"receive per round)"
                )
            if other.sender == v:
                violations.append(
                    f"sender clash at round {t}: peer {v} multicasts "
                    f"twice ({other.message} and {message})"
                )
        sent = state.sent | {record}
        return ModelState(peers, flight, sent), tuple(violations)

    def _local_step(self, peer: PeerView, v: int) -> _LocalStep:
        """One round-loop iteration of ``v``, as a function of its view."""
        violations: List[str] = []
        if peer.done or peer.died_at is not None:
            raise ProtocolCheckError(f"stepping finished/dead peer {v}")
        t = peer.t
        holds = peer.holds
        delivered = peer.delivered

        # 1. Fence barrier: consume one round-(t-1) token per neighbour
        #    and feed the DATA payloads into the processor at time t
        #    (GossipPeer._await_tokens + _deliver_online).
        if t > 0:
            chosen = self._barrier_tokens(peer, v, t)
            if chosen is None:
                raise ProtocolCheckError(f"stepping peer {v} with open barrier")
            new_triples: List[Tuple[int, int, int]] = []
            for token in chosen:
                if token.round != t - 1:
                    violations.append(
                        f"fence violation at peer {v}: barrier for round {t - 1} "
                        f"admitted {render_token(token)} into round {t} — a "
                        f"round-{token.round} message may only be delivered at "
                        f"round {token.round + 1}"
                    )
                if token.payload is not None:
                    triple = (t, token.sender, token.payload)
                    if triple not in delivered:
                        new_triples.append(triple)
                        holds |= 1 << token.payload
            delivered = delivered | frozenset(new_triples)
        if holds & peer.holds != peer.holds:
            violations.append(
                f"possession monotonicity violated at peer {v}: holds "
                f"{peer.holds:#x} shrank to {holds:#x} at round {t}"
            )

        # 2. Fail-stop check (before sending, mirroring run_online: the
        #    victim consumes in-flight deliveries, then goes dark).
        crash = self.crash_round.get(v)
        if crash is not None and t >= crash:
            # transport.kill() discards the socket and everything buffered;
            # clearing the token store canonicalises the abort state (what a
            # dead peer had buffered is unobservable).
            dead = peer._replace(holds=holds, delivered=delivered, died_at=t,
                                 tokens=frozenset())
            return _LocalStep(dead, None, frozenset(), tuple(violations))

        # 3. Horizon: the final barrier has been consumed; nothing to send.
        if t == self.horizon:
            done = peer._replace(holds=holds, delivered=delivered, done=True)
            return _LocalStep(done, None, frozenset(), tuple(violations))

        # 4. Compute the round-t multicast with the real processor.
        message: Optional[int] = None
        dests: Tuple[int, ...] = ()
        try:
            proc = self._rebuild(v, delivered, t)
            sent = proc.send(t)
        except SimulationError as exc:
            violations.append(
                f"online-protocol violation at peer {v}, round {t}: {exc}"
            )
            sent = None
        if sent is not None:
            message, dests = sent

        record: Optional[SentRecord] = None
        if message is not None:
            if not holds >> message & 1:
                violations.append(
                    f"possession violation at peer {v}: sends message "
                    f"{message} at round {t} without holding it "
                    f"(receive-before-send)"
                )
            record = SentRecord(round=t, sender=v, message=message,
                                destinations=dests)
        new_tokens: List[Token] = []
        for u in self.neighbours[v]:
            if message is not None and u in dests:
                new_tokens.append(
                    Token(kind=DATA, phase=PHASE_ONLINE, round=t, sender=v,
                          dst=u, payload=message)
                )
            else:
                new_tokens.append(
                    Token(kind=FENCE, phase=PHASE_ONLINE, round=t, sender=v,
                          dst=u, payload=None)
                )
        stepped = peer._replace(t=t + 1, holds=holds, delivered=delivered)
        return _LocalStep(stepped, record, frozenset(new_tokens),
                          tuple(violations))

    # -- quiescence -----------------------------------------------------
    def classify_quiescent(self, state: ModelState) -> Tuple[str, Tuple[str, ...]]:
        """Classify a state with no enabled actions.

        Returns ``("complete", ())`` for the fault-free all-done terminal
        state, ``("wavefront", ())`` for the deterministic starvation
        front behind a fail-stop (every blocked peer waits, transitively,
        on a dead one — the state the runner's abort snapshots), and
        ``("deadlock", violations)`` for anything else.
        """
        violations: List[str] = []
        full = (1 << self.n) - 1
        blocked = [
            v for v, p in enumerate(state.peers)
            if not p.done and p.died_at is None
        ]
        if state.flight:
            violations.append(
                f"quiescent state with undelivered tokens: "
                f"{sorted(state.flight)}"
            )
        if not blocked:
            if any(p.died_at is not None for p in state.peers):
                return "wavefront", tuple(violations)
            incomplete = [
                v for v, p in enumerate(state.peers) if p.holds != full
            ]
            if incomplete:
                violations.append(
                    f"fault-free terminal state without all-hold-all: peers "
                    f"{incomplete} are incomplete"
                )
                return "deadlock", tuple(violations)
            return "complete", tuple(violations)
        # Blocked peers must each be starved by a dead or blocked
        # neighbour whose progress lags the barrier — the wavefront.
        blocked_set = set(blocked)
        for v in blocked:
            peer = state.peers[v]
            t = peer.t
            have = {(rnd, sender) for rnd, sender, _ in peer.tokens}
            missing = [
                u for u in self.neighbours[v] if (t - 1, u) not in have
            ]
            if not missing:
                violations.append(
                    f"deadlock: peer {v} has a satisfied barrier for round "
                    f"{t - 1} but cannot step"
                )
                continue
            for u in missing:
                up = state.peers[u]
                starved = (
                    (up.died_at is not None and up.died_at <= t - 1)
                    or (u in blocked_set and up.t <= t - 1)
                )
                if not starved:
                    violations.append(
                        f"deadlock: peer {v} waits at round {t - 1} for a "
                        f"token from peer {u}, which is neither dead before "
                        f"round {t - 1} nor blocked behind it"
                    )
        if violations:
            return "deadlock", tuple(violations)
        if not self.crash_round:
            violations.append(
                "fault-free exploration reached a blocked state: peers "
                f"{blocked} cannot step and nothing is in flight"
            )
            return "deadlock", tuple(violations)
        return "wavefront", tuple(violations)

    # -- reference predictions (real-code cross-checks) -----------------
    def offline_records(self) -> FrozenSet[SentRecord]:
        """The offline schedule as :class:`SentRecord` rows (fault-free ref)."""
        return self._offline

def _replace_peer(peers: Tuple[PeerView, ...], v: int,
                  new: PeerView) -> Tuple[PeerView, ...]:
    return peers[:v] + (new,) + peers[v + 1:]


def render_token(token: Token) -> str:
    """Render a token the way it would appear on the wire (for traces)."""
    kind = {DATA: "DATA", FENCE: "FENCE"}.get(token.kind, f"kind={token.kind}")
    payload = "" if token.payload is None else f", message={token.payload}"
    return (
        f"{kind}(round={token.round}, {token.sender}->{token.dst}{payload})"
    )


def check_rejoin(
    model: ProtocolModel, state: ModelState, *, max_rounds: Optional[int] = None
) -> Tuple[str, ...]:
    """Verify the rejoin path from one crash-scenario abort state.

    Mirrors the supervisor's restart resolution: the (single) victim is
    reborn owning nothing but its own message, pulls a live tree
    neighbour's hold bitset in 16-bit ``RESYNC`` chunks, and the whole
    fleet runs a :func:`~repro.core.recovery.plan_repair_rounds`
    completion schedule inside the supervisor's ``4n + 16`` budget.

    Checks, for *every* possible resync source (the supervisor picks
    one; the model quantifies over the choice):

    * each RESYNC chunk is a subset of the serving peer's true holds at
      serve time (the state transfer can never fabricate possession);
    * every repair-round send satisfies receive-before-send and the
      one-send/one-receive communication rules;
    * full gossip re-completes within the budget.

    Returns rendered violations (empty = the rejoin contract holds).
    """
    violations: List[str] = []
    dead = [v for v, p in enumerate(state.peers) if p.died_at is not None]
    if len(dead) != 1:
        return ()
    victim = dead[0]
    n = model.n
    full = (1 << n) - 1
    budget = max_rounds if max_rounds is not None else 4 * n + 16
    adjacency = _tree_adjacency(model.plan.tree)
    live_neighbours = [
        u for u in model.neighbours[victim]
        if state.peers[u].died_at is None
    ]
    if not live_neighbours:
        violations.append(
            f"rejoin: victim {victim} has no live tree neighbour to resync from"
        )
    for source in live_neighbours:
        source_holds = state.peers[source].holds
        merged = 1 << model.labels[victim]
        for c in range((n + 15) // 16):
            chunk = source_holds >> (16 * c) & 0xFFFF
            if chunk & ~(source_holds >> (16 * c)) & 0xFFFF:
                violations.append(
                    f"RESYNC chunk {c} from peer {source} carries bits "
                    f"{chunk:#x} outside its true holds "
                    f"{source_holds:#x}"
                )
            merged |= chunk << (16 * c)
        if merged & ~(source_holds | 1 << model.labels[victim]):
            violations.append(
                f"rejoin: victim {victim} resynced to {merged:#x}, more than "
                f"source {source}'s holds plus its own message"
            )
        holds = [p.holds for p in state.peers]
        holds[victim] = merged
        try:
            repairs = plan_repair_rounds(adjacency, holds, n, max_rounds=budget)
        except ScheduleConflictError as exc:
            violations.append(f"rejoin repair schedule breaks a round rule: {exc}")
            continue
        rows = repairs.sends()
        ptr = repairs.round_ptr.tolist()
        for t in range(repairs.total_time):
            for _, sender, message, _ in rows[ptr[t] : ptr[t + 1]]:
                if not holds[sender] >> message & 1:
                    violations.append(
                        f"rejoin repair round {t}: peer {sender} sends "
                        f"message {message} without holding it"
                    )
            for _, _, message, dests in rows[ptr[t] : ptr[t + 1]]:
                for d in dests:
                    holds[d] |= 1 << message
        if repairs.total_time > budget or any(h != full for h in holds):
            short = [v for v, h in enumerate(holds) if h != full]
            violations.append(
                f"rejoin from source {source} did not re-complete full gossip "
                f"within {budget} repair rounds (incomplete peers: {short})"
            )
    return tuple(violations)
