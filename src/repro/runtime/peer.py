"""One gossiping peer: a UDP endpoint driving local protocol state.

A :class:`GossipPeer` is what the paper's Section 4 promises can exist:
a processor that schedules its own transmissions from nothing but its
``(i, j, k)`` block and the messages that have arrived on its links.
The peer owns an :class:`~repro.core.online.OnlineProcessor` and a
datagram socket; **no peer ever inspects another peer's memory** — every
bit of remote knowledge arrives as a datagram.

Round synchronisation (phase 1, the online protocol)
----------------------------------------------------
The synchronous model says a round-``t`` multicast lands at ``t + 1``.
On a real network the peers re-create that lockstep with a *local
fence barrier*: in every round each peer sends, to every tree
neighbour, exactly one reliable datagram — the round's DATA if the
neighbour is among its destinations, an empty FENCE otherwise (the
model's one-send-per-round rule makes one datagram per neighbour per
round sufficient).  A peer enters round ``t + 1`` once it holds a
round-``t`` token from every live tree neighbour, so deliveries are
processed at exactly the logical time the offline schedule assigns
them — which is why the emitted transcript is *identical* to the
offline ConcurrentUpDown schedule, datagram reordering and all.

Ack/retransmit state machine
----------------------------
Every DATA/FENCE is retransmitted until acknowledged::

    SEND ──> WAIT(backoff) ──ack──> DONE
      ^          │
      └──timeout─┘   backoff_t = min(cap, base * factor^attempt) * jitter

``base`` is the peer's estimated retransmit timeout (RTO), kept by one
RFC 6298 estimator per peer (Jacobson/Karels: ``SRTT``/``RTTVAR`` with
α = 1/8, β = 1/4, ``RTO = SRTT + 4·RTTVAR``).  Its samples are the
send→ack times of records acked on their *first* copy; under Karn's
rule a retransmitted record gives no sample, since its ack cannot be
matched to one copy.  ``RuntimeConfig.ack_timeout`` is both the RTO
before any sample and the RTO's ceiling, so a retransmit only ever
fires *earlier* than a fixed ``ack_timeout`` timer would — never later,
even when a loaded host inflates the samples.  Samples are read from
the injectable :class:`~repro.runtime.clock.Clock` in virtual seconds,
so a :class:`~repro.runtime.clock.ScaledClock` run stays
scale-invariant.  The timer sets the pace of every lossy round: a fence
barrier waits for the round's slowest reliable record, and the default
``ack_timeout`` is about 20 loopback round trips.

``jitter`` is a seeded splitmix64 draw keyed by
``(seed, src, dst, phase, round, attempt)``, so two peers' retry storms
decorrelate deterministically.  Receivers acknowledge *every* copy
(acks are idempotent) and deduplicate by ``(sender, phase, round)``
before touching protocol state, so at-least-once delivery at the wire
becomes exactly-once delivery at the processor.

Failure detection
-----------------
A heartbeat task beacons to every tree neighbour each
``heartbeat_interval`` and watches last-heard timestamps (any datagram
counts as liveness).  A neighbour silent for longer than ``fail_after``
is *suspected*: the peer marks it dead locally, abandons reliable sends
to it, and reports the suspicion upward — the orchestrator aborts the online
phase and routes the residue through the survival replanner.  The
retransmit loop itself is a second detector: a destination that has
swallowed ``max_attempts`` copies without one ack is reported through
the same suspicion path instead of being retried forever.

Rejoin (phase REJOIN, the supervised-restart state transfer)
------------------------------------------------------------
A peer restarted by the :class:`~repro.runtime.supervisor.Supervisor`
owns nothing but its own message; before it can take part in a repair
schedule it pulls a live neighbour's hold bitset over the same socket:
``RESYNC_REQ`` is retransmitted (fresh loss draws per copy) until every
16-bit ``RESYNC`` chunk of the bitset has landed, on the same
estimated-RTO backoff as every other reliable send.  Chunks are
idempotent, so the responder simply re-answers every request copy.

Phase 2 (survival) replays a :func:`repro.core.survival.survive`
schedule: the orchestrator hands each surviving peer its own slice (what it
sends, what it will receive, round by round) and the same ack/fence
machinery drives it to completion among the survivors.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..core.online import OnlineProcessor
from ..core.rng import keyed_uniform
from ..exceptions import (
    GossipRuntimeError,
    PeerDeadError,
    RuntimeDeadlineError,
    WireFormatError,
)
from .clock import Clock
from .transport import LossyDatagramTransport
from .wire import (
    ACK,
    DATA,
    FENCE,
    HEARTBEAT,
    PHASE_ONLINE,
    PHASE_REJOIN,
    PHASE_SURVIVAL,
    RESYNC,
    RESYNC_REQ,
    Datagram,
    decode,
    encode,
)

__all__ = [
    "RuntimeConfig",
    "RttEstimator",
    "PeerScript",
    "TranscriptEntry",
    "GossipPeer",
    "PeerProtocol",
]

_TAG_BACKOFF = 0xBAC0

#: Poll quantum for waits that must also observe aborts (virtual seconds).
_WAIT_QUANTUM = 0.05

#: How many rounds of attempt state the transport keeps behind the
#: peer's current round.  Lockstep peers can lag each other by only a
#: couple of fences, so 8 rounds of slack is already generous — far
#: smaller than an unbounded table, still wide enough that a re-ack of
#: a straggling duplicate never restarts its draw sequence.
_ATTEMPT_EXPIRE_LAG = 8


@dataclass(frozen=True)
class RuntimeConfig:
    """Tunable timing of the runtime (all in the injectable clock's seconds).

    Attributes
    ----------
    ack_timeout:
        Initial and maximum retransmit timeout (RTO) for unacknowledged
        DATA/FENCE.  Before a peer has measured a round trip its RTO is
        ``ack_timeout`` (RFC 6298's "before any sample"); afterwards it
        is the peer's :class:`RttEstimator` value, capped here, so an
        estimate inflated by a loaded host never waits longer than a
        fixed ``ack_timeout`` timer would.
    backoff_factor / backoff_cap:
        Exponential backoff growth and ceiling (``backoff_cap`` must be
        at least ``ack_timeout``).
    heartbeat_interval:
        Beacon period of the failure detector (positive).
    fail_after:
        Silence after which a neighbour is suspected dead.  Must exceed
        a handful of heartbeat intervals or healthy-but-lossy links get
        falsely accused.
    round_timeout:
        Per-round deadline: how long a peer waits at one fence barrier
        before declaring the round dead (typed
        :class:`~repro.exceptions.RuntimeDeadlineError`, ``phase="round"``).
        Keep it above ``fail_after`` so real deaths are *detected and
        survived* rather than surfacing as bare deadline errors.
    run_timeout:
        Whole-run deadline enforced by the orchestrator.
    max_attempts:
        Retransmission budget of one reliable record.  A destination
        that swallows this many copies without acking one is reported
        to the suspicion path (and marked dead locally) instead of
        being retried forever — the cap turns a live-but-unresponsive
        peer from an infinite loop into an ordinary detected failure.
    seed:
        Seed for the deterministic backoff jitter draws.
    """

    ack_timeout: float = 0.02
    backoff_factor: float = 2.0
    backoff_cap: float = 0.5
    heartbeat_interval: float = 0.25
    fail_after: float = 1.5
    round_timeout: float = 8.0
    run_timeout: float = 60.0
    max_attempts: int = 64
    seed: int = 0

    def __post_init__(self) -> None:
        if self.ack_timeout <= 0 or self.backoff_factor < 1.0:
            raise GossipRuntimeError("backoff parameters must be positive/growing")
        if self.backoff_cap < self.ack_timeout:
            raise GossipRuntimeError(
                f"backoff_cap must be >= ack_timeout "
                f"({self.backoff_cap} < {self.ack_timeout})"
            )
        if self.heartbeat_interval <= 0:
            raise GossipRuntimeError(
                f"heartbeat_interval must be positive, got {self.heartbeat_interval}"
            )
        if self.max_attempts < 1:
            raise GossipRuntimeError("max_attempts must be >= 1")
        if self.fail_after <= 2 * self.heartbeat_interval:
            raise GossipRuntimeError(
                "fail_after must exceed two heartbeat intervals "
                f"({self.fail_after} <= 2 * {self.heartbeat_interval})"
            )
        if self.round_timeout <= self.fail_after:
            raise GossipRuntimeError(
                "round_timeout must exceed fail_after so failure detection "
                "wins the race against the round deadline"
            )

    def backoff(self, attempt: int, *, src: int, dst: int, phase: int,
                rnd: int, rto: Optional[float] = None) -> float:
        """Seeded-exponential backoff before retransmission ``attempt + 1``.

        Grows from ``rto``, the sender's estimated retransmit timeout
        (``None`` before any round-trip sample), capped at
        ``ack_timeout``.
        """
        initial = self.ack_timeout if rto is None else min(self.ack_timeout, rto)
        base = min(self.backoff_cap, initial * self.backoff_factor ** attempt)
        jitter = keyed_uniform(self.seed, _TAG_BACKOFF, src, dst, phase, rnd, attempt)
        return base * (0.5 + jitter)


class RttEstimator:
    """RFC 6298 round-trip estimator (Jacobson/Karels, α = 1/8, β = 1/4).

    Fed only by records acked on their first copy (Karn's rule is the
    caller's side: a retransmitted record is never sampled).  :attr:`rto`
    is ``SRTT + 4·RTTVAR``, or ``None`` until the first sample;
    :meth:`RuntimeConfig.backoff` caps it at ``ack_timeout``.
    """

    __slots__ = ("srtt", "rttvar")

    ALPHA = 1 / 8
    BETA = 1 / 4
    K = 4

    def __init__(self) -> None:
        self.srtt: Optional[float] = None
        self.rttvar = 0.0

    def sample(self, rtt: float) -> None:
        """Fold one measured round trip ``rtt`` (clock seconds) in."""
        if self.srtt is None:
            self.srtt = rtt
            self.rttvar = rtt / 2
        else:
            self.rttvar += self.BETA * (abs(self.srtt - rtt) - self.rttvar)
            self.srtt += self.ALPHA * (rtt - self.srtt)

    @property
    def rto(self) -> Optional[float]:
        """Estimated retransmit timeout, uncapped; ``None`` before a sample."""
        if self.srtt is None:
            return None
        return self.srtt + self.K * self.rttvar


@dataclass(frozen=True, slots=True)
class TranscriptEntry:
    """One executed multicast, in offline-schedule coordinates."""

    round: int
    sender: int
    message: int
    destinations: Tuple[int, ...]


@dataclass(frozen=True)
class PeerScript:
    """One survivor's slice of a survival schedule (phase 2).

    ``sends[t]`` is the ``(message, destinations)`` multicast the peer
    performs in round ``t``; ``expects[t]`` the ``(sender, message)``
    delivery landing at time ``t`` (sent at ``t - 1``).  Both exploit
    the model's one-send/one-receive-per-round rules, so a dict entry is
    a single tuple, never a list.
    """

    horizon: int
    sends: Dict[int, Tuple[int, Tuple[int, ...]]] = field(default_factory=dict)
    expects: Dict[int, Tuple[int, int]] = field(default_factory=dict)


class PeerProtocol(asyncio.DatagramProtocol):
    """Datagram layer of one peer: dedup, acks, token buffering, liveness.

    Deliberately independent of the peer's round-driving task: a peer
    whose protocol task has finished (or aborted) keeps acknowledging
    retransmissions and feeding the failure detector, so a slow
    neighbour is never mistaken for a dead one.
    """

    def __init__(self, peer: "GossipPeer") -> None:
        self.peer = peer
        self.malformed = 0

    def datagram_received(self, data: bytes, addr: Tuple[str, int]) -> None:
        peer = self.peer
        transport = peer.transport
        if transport is None:
            return  # rendezvous still in progress; retransmits will land
        if transport.killed:
            return  # a fail-stopped process hears nothing
        try:
            dgram = decode(data)
        except WireFormatError:
            self.malformed += 1
            return
        peer.note_alive(dgram.sender)
        if dgram.kind == ACK:
            event = peer.ack_events.get((dgram.sender, dgram.phase, dgram.round))
            if event is not None:
                event.set()
            return
        if dgram.kind == HEARTBEAT:
            return
        if dgram.kind == RESYNC_REQ:
            peer.serve_resync(dgram.sender)
            return
        if dgram.kind == RESYNC:
            peer.resync_chunks[dgram.round] = dgram.payload
            peer.token_arrived.set()
            return
        # DATA / FENCE: always (re-)ack, deliver into the token store once.
        peer.send_ack(dgram)
        key = (dgram.phase, dgram.round, dgram.sender)
        if key in peer.tokens:
            peer.duplicates_suppressed += 1
            return
        peer.tokens[key] = dgram.payload if dgram.kind == DATA else None
        peer.token_arrived.set()


class GossipPeer:
    """One vertex of the running network (see module docstring)."""

    def __init__(
        self,
        vertex: int,
        proc: OnlineProcessor,
        *,
        config: RuntimeConfig,
        clock: Clock,
        suspect: Callable[[int, int], None],
        kill_round: Optional[int] = None,
        kill_via: Optional[Callable[[], None]] = None,
    ) -> None:
        self.vertex = vertex
        self.proc = proc
        self.config = config
        self.clock = clock
        self._suspect_cb = suspect
        self.kill_round = kill_round
        #: How the peer dies at ``kill_round``: ``None`` silences the
        #: transport in-process (the simulated fail-stop of ``kill``); the
        #: supervisor's children install ``os.kill(self, SIGKILL)`` here
        #: so the whole interpreter dies for real.
        self.kill_via = kill_via

        neighbours: List[int] = [c.vertex for c in proc.children]
        if proc.parent is not None:
            neighbours.append(proc.parent)
        self.tree_neighbours: Tuple[int, ...] = tuple(sorted(neighbours))

        self.transport: Optional[LossyDatagramTransport] = None
        self.addr_of: Dict[int, Tuple[str, int]] = {}

        #: (phase, round, sender) -> message id (DATA) or None (FENCE).
        self.tokens: Dict[Tuple[int, int, int], Optional[int]] = {}
        self.token_arrived = asyncio.Event()
        #: (dest, phase, round) -> ack event for one in-flight reliable send.
        self.ack_events: Dict[Tuple[int, int, int], asyncio.Event] = {}
        #: chunk index -> 16-bit slice of a rejoin state transfer.
        self.resync_chunks: Dict[int, int] = {}

        self.holds = 1 << proc.i
        self.dead: Set[int] = set()
        self.last_heard: Dict[int, float] = {}
        self.transcript: List[TranscriptEntry] = []
        self.survival_transcript: List[TranscriptEntry] = []
        self.rounds_completed = 0
        self.retransmissions = 0
        self.duplicates_suppressed = 0
        self.died_at: Optional[int] = None
        #: Round-trip estimate behind every retransmit timeout.
        self.rtt = RttEstimator()

        self._abort = asyncio.Event()
        self._stopped = False

    # -- wiring --------------------------------------------------------
    def attach(self, transport: LossyDatagramTransport,
               addr_of: Dict[int, Tuple[str, int]]) -> None:
        """Give the peer its (chaos-wrapped) socket and the address book."""
        self.transport = transport
        self.addr_of = dict(addr_of)
        now = self.clock.time()
        for u in self.tree_neighbours:
            self.last_heard[u] = now

    def abort(self) -> None:
        """Ask the round-driving task to stop at its next await point."""
        self._abort.set()
        self.token_arrived.set()

    def resume(self) -> None:
        """Clear an earlier abort so the peer can run the survival phase."""
        self._abort.clear()
        self.token_arrived.clear()

    def stop(self) -> None:
        """Stop background loops (heartbeats) permanently."""
        self._stopped = True
        self.abort()

    def note_alive(self, sender: int) -> None:
        """Record datagram-level liveness evidence for ``sender``."""
        self.last_heard[sender] = self.clock.time()

    # -- raw sends -----------------------------------------------------
    def _sendto(self, dgram: Datagram, dest: int) -> None:
        if self.transport is None:
            raise GossipRuntimeError(f"peer {self.vertex} has no transport")
        addr = self.addr_of.get(dest)
        if addr is None:
            raise GossipRuntimeError(
                f"peer {self.vertex} has no address for peer {dest}"
            )
        self.transport.sendto(encode(dgram), addr)

    def send_ack(self, received: Datagram) -> None:
        """Acknowledge one DATA/FENCE datagram (idempotent, unreliable)."""
        self._sendto(
            Datagram(kind=ACK, phase=received.phase, round=received.round,
                     sender=self.vertex, payload=received.kind),
            received.sender,
        )

    # -- reliable delivery --------------------------------------------
    async def _send_reliable(self, dgram: Datagram, dest: int) -> bool:
        """Retransmit until acked; give up on abort or a dead destination.

        A destination that swallows ``max_attempts`` copies without one
        ack is handed to the suspicion path — the retransmit loop is a
        failure detector too, never an infinite loop.  A record acked on
        its first copy feeds its round trip to :attr:`rtt` (Karn's rule:
        a retransmitted one does not).
        """
        key = (dest, dgram.phase, dgram.round)
        event = asyncio.Event()
        self.ack_events[key] = event
        attempt = 0
        sent_at = self.clock.time()
        try:
            while not event.is_set():
                if self._abort.is_set() and dgram.phase == PHASE_ONLINE:
                    return False
                if dest in self.dead:
                    return False
                if attempt >= self.config.max_attempts:
                    self.dead.add(dest)
                    self.token_arrived.set()
                    self._suspect_cb(self.vertex, dest)
                    return False
                self._sendto(dgram, dest)
                if attempt:
                    self.retransmissions += 1
                timeout = self.config.backoff(
                    attempt, src=self.vertex, dst=dest,
                    phase=dgram.phase, rnd=dgram.round, rto=self.rtt.rto,
                )
                try:
                    await self.clock.wait_for(event.wait(), timeout)
                except asyncio.TimeoutError:
                    attempt += 1
            if not attempt:
                self.rtt.sample(self.clock.time() - sent_at)
            return True
        finally:
            self.ack_events.pop(key, None)
            if self.transport is not None:
                self.transport.forget(dest, dgram.kind, dgram.phase, dgram.round)

    async def _send_round(self, phase: int, rnd: int, message: Optional[int],
                          dests: Sequence[int], fence_to: Sequence[int]) -> None:
        """One round's outgoing datagrams: DATA to ``dests``, FENCE elsewhere."""
        sends = []
        if message is not None:
            data = Datagram(kind=DATA, phase=phase, round=rnd,
                            sender=self.vertex, payload=message)
            sends.extend(self._send_reliable(data, d) for d in dests)
        fence = Datagram(kind=FENCE, phase=phase, round=rnd,
                         sender=self.vertex, payload=0)
        sends.extend(self._send_reliable(fence, u) for u in fence_to)
        if sends:
            await asyncio.gather(*sends)

    # -- barrier waits -------------------------------------------------
    async def _await_tokens(self, phase: int, rnd: int,
                            senders: Sequence[int]) -> None:
        """Block until every sender's round-``rnd`` token is here.

        Deliberately does *not* skip senders the local detector marked
        dead: the lockstep protocol cannot proceed without a neighbour's
        input (skipping would trade a missing delivery for a possession
        violation).  A peer starved by a death simply stays blocked until
        the orchestrator aborts the phase and replans — that is the wavefront
        that makes holds-at-abort deterministic.
        """
        deadline = self.clock.time() + self.config.round_timeout
        while True:
            missing = [
                u for u in senders if (phase, rnd, u) not in self.tokens
            ]
            if not missing:
                return
            if self._abort.is_set():
                raise _Aborted()
            now = self.clock.time()
            if now >= deadline:
                raise RuntimeDeadlineError(
                    f"peer {self.vertex} round {rnd}: no token from "
                    f"{missing} within {self.config.round_timeout:.2f}s",
                    phase="round",
                )
            self.token_arrived.clear()
            try:
                await self.clock.wait_for(
                    self.token_arrived.wait(),
                    min(_WAIT_QUANTUM, deadline - now),
                )
            except asyncio.TimeoutError:
                pass

    def _deliver_online(self, time: int) -> None:
        """Feed round ``time - 1`` DATA tokens into the online processor."""
        for u in self.tree_neighbours:
            payload = self.tokens.get((PHASE_ONLINE, time - 1, u))
            if payload is not None:
                self.proc.receive(time, u, payload)
                self.holds |= 1 << payload

    # -- phase 1: the online protocol on sockets ----------------------
    async def run_online(self, horizon: int) -> None:
        """Drive rounds ``0 .. horizon`` of ConcurrentUpDown from local state.

        Mirrors :func:`repro.core.online.run_online_gossip` exactly,
        with datagram fences standing in for the simulator's global
        round loop.  A configured kill round turns the peer into a
        fail-stop corpse: deliveries already in flight land (matching
        :class:`~repro.simulator.lossy.FaultModel` semantics), then the
        transport goes dark and the task returns.
        """
        try:
            for t in range(horizon + 1):
                if t > 0:
                    await self._await_tokens(PHASE_ONLINE, t - 1,
                                             self.tree_neighbours)
                    self._deliver_online(t)
                if self.kill_round is not None and t >= self.kill_round:
                    self.died_at = t
                    if self.kill_via is not None:
                        self.kill_via()  # SIGKILL path: does not return
                    if self.transport is not None:
                        self.transport.kill()
                    return
                if t == horizon:
                    break
                sent = self.proc.send(t)
                message: Optional[int] = None
                dests: Tuple[int, ...] = ()
                if sent is not None:
                    message, dests = sent
                    self.transcript.append(
                        TranscriptEntry(round=t, sender=self.vertex,
                                        message=message, destinations=dests)
                    )
                fence_to = [u for u in self.tree_neighbours if u not in dests]
                await self._send_round(PHASE_ONLINE, t, message, dests, fence_to)
                self.rounds_completed = t + 1
                if self.transport is not None:
                    self.transport.expire_before(
                        PHASE_ONLINE, t - _ATTEMPT_EXPIRE_LAG
                    )
        except _Aborted:
            return

    # -- phase 2: scripted survival rounds ----------------------------
    async def run_script(self, script: PeerScript) -> None:
        """Execute this peer's slice of a survival schedule.

        Expectations are exact (the orchestrator derived them from the
        replanned schedule), so no fences are needed: the peer waits for
        precisely the deliveries it is owed, then performs its own
        sends.  Retransmission still rides underneath, so transient
        socket loss cannot stall the replay.
        """
        for t in range(script.horizon + 1):
            expected = script.expects.get(t)
            if expected is not None:
                sender, message = expected
                if sender in self.dead:
                    raise PeerDeadError(
                        f"peer {self.vertex} is scripted to receive from "
                        f"dead peer {sender} at time {t}",
                        peer=sender,
                    )
                await self._await_tokens(PHASE_SURVIVAL, t - 1, (sender,))
                payload = self.tokens.get((PHASE_SURVIVAL, t - 1, sender))
                if payload != message:
                    raise GossipRuntimeError(
                        f"peer {self.vertex} expected message {message} from "
                        f"{sender} at time {t}, wire carried {payload!r}"
                    )
                self.holds |= 1 << message
            if t == script.horizon:
                break
            send = script.sends.get(t)
            if send is not None:
                message, dests = send
                if not self.holds >> message & 1:
                    raise GossipRuntimeError(
                        f"peer {self.vertex} scripted to send {message} at "
                        f"round {t} without holding it"
                    )
                self.survival_transcript.append(
                    TranscriptEntry(round=t, sender=self.vertex,
                                    message=message, destinations=dests)
                )
                await self._send_round(PHASE_SURVIVAL, t, message, dests, ())
            if self.transport is not None:
                self.transport.expire_before(
                    PHASE_SURVIVAL, t - _ATTEMPT_EXPIRE_LAG
                )

    # -- rejoin state transfer (phase REJOIN) --------------------------
    def serve_resync(self, requester: int) -> None:
        """Answer one ``RESYNC_REQ``: ship the hold bitset in u16 chunks.

        Unreliable and idempotent by design — the requester keeps
        retransmitting its request until every chunk landed, and every
        request copy is answered in full.
        """
        holds = self.holds
        for c in range((self.proc.n + 15) // 16):
            self._sendto(
                Datagram(kind=RESYNC, phase=PHASE_REJOIN, round=c,
                         sender=self.vertex, payload=holds >> (16 * c) & 0xFFFF),
                requester,
            )

    async def fetch_resync(self, source: int) -> int:
        """Pull ``source``'s hold bitset (the rejoin state transfer).

        Retransmits the request with the usual seeded, estimated-RTO
        backoff until all chunks are here, folds them into
        ``self.holds``, and returns the merged bitset.  Bounded by
        ``round_timeout`` (:class:`~repro.exceptions.RuntimeDeadlineError`,
        ``phase="rejoin"``).
        """
        chunks = (self.proc.n + 15) // 16
        req = Datagram(kind=RESYNC_REQ, phase=PHASE_REJOIN, round=0,
                       sender=self.vertex, payload=0)
        deadline = self.clock.time() + self.config.round_timeout
        attempt = 0
        while any(c not in self.resync_chunks for c in range(chunks)):
            now = self.clock.time()
            if now >= deadline:
                raise RuntimeDeadlineError(
                    f"peer {self.vertex}: resync from {source} incomplete "
                    f"within {self.config.round_timeout:.2f}s",
                    phase="rejoin",
                )
            self._sendto(req, source)
            if attempt:
                self.retransmissions += 1
            timeout = self.config.backoff(
                attempt, src=self.vertex, dst=source,
                phase=PHASE_REJOIN, rnd=0, rto=self.rtt.rto,
            )
            self.token_arrived.clear()
            try:
                await self.clock.wait_for(
                    self.token_arrived.wait(), min(timeout, deadline - now)
                )
            except asyncio.TimeoutError:
                pass
            attempt += 1
        for c in range(chunks):
            self.holds |= self.resync_chunks[c] << (16 * c)
        if self.transport is not None:
            self.transport.forget(source, RESYNC_REQ, PHASE_REJOIN, 0)
        return self.holds

    # -- failure detector ---------------------------------------------
    async def heartbeat_loop(self) -> None:
        """Beacon to tree neighbours and suspect the silent ones."""
        seq = 0
        while not self._stopped:
            await self.clock.sleep(self.config.heartbeat_interval)
            if self._stopped:
                return
            if self.transport is not None and self.transport.killed:
                return  # dead processes beacon nothing
            for u in self.tree_neighbours:
                if u not in self.dead:
                    self._sendto(
                        Datagram(kind=HEARTBEAT, phase=PHASE_ONLINE,
                                 round=seq, sender=self.vertex, payload=0),
                        u,
                    )
            seq += 1
            now = self.clock.time()
            for u in self.tree_neighbours:
                if u in self.dead:
                    continue
                if now - self.last_heard.get(u, now) > self.config.fail_after:
                    self.dead.add(u)
                    self.token_arrived.set()
                    self._suspect_cb(self.vertex, u)


class _Aborted(Exception):
    """Internal control flow: the orchestrator aborted the online phase."""
