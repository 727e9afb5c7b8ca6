"""Deterministic fault injection at the datagram-transport layer.

The simulator injects faults inside the execution loop
(:mod:`repro.simulator.lossy`); the runtime injects them where a real
deployment meets them — between ``sendto`` and the wire.
:class:`LossyDatagramTransport` wraps an asyncio datagram transport and
applies a :class:`NetChaos` profile to every outgoing datagram:

* **drop** — the datagram is silently destroyed;
* **delay** — the datagram is held back a drawn latency before the real
  send (consecutive datagrams with different draws *reorder*);
* **kill-peer** — once the owning peer reaches its configured kill
  round, the transport goes dark: every later send is swallowed and the
  peer protocol drops every later receive (a fail-stop process death,
  observable only as silence);
* **sigkill** — the multi-process analogue: the supervisor-spawned peer
  process sends itself ``SIGKILL`` upon reaching the configured round,
  so the whole interpreter dies abruptly (no cleanup, no goodbye) and
  the :class:`~repro.runtime.supervisor.Supervisor` must detect and
  resolve a *real* process death.

Attempt tracking (the retransmission index) is keyed by
``(dst, kind, phase, round)`` — the logical identity of a reliable
record — never by raw datagram bytes: the sender prunes an entry via
:meth:`LossyDatagramTransport.forget` the moment the record is acked,
and sweeps stale rounds with
:meth:`LossyDatagramTransport.expire_before`, so the table stays
bounded by the handful of in-flight rounds regardless of run length.
Heartbeats are deliberately *not* tracked: their sequence number already
rides in the ``round`` field, so every beacon is a fresh draw without
any table entry (the untracked, ever-growing heartbeat keys were
exactly the old leak).

Determinism mirrors the :class:`~repro.simulator.lossy.FaultModel`
contract exactly and uses the same keyed draw,
:func:`repro.core.rng.keyed_uniform`: every draw is a pure function
of ``(seed, tag, src, dst, kind, phase, round, attempt)``, where
``attempt`` counts identical retransmissions of the same record.
So:

* the same seed reproduces the same drops and delays on real sockets,
  on any platform, regardless of event-loop scheduling;
* a *retransmission* is a fresh, independent draw (the attempt index is
  part of the key) — retries are not doomed to repeat the original
  loss, the property the ack/retransmit layer's liveness rests on;
* heartbeats are drawn per sequence number, so loss of one beacon never
  implies loss of the next.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Set, Tuple

from ..core.rng import keyed_uniform
from ..exceptions import GossipRuntimeError
from .clock import Clock
from .wire import ACK, DATA, FENCE, RESYNC, RESYNC_REQ, WIRE_SIZE, decode

__all__ = ["NetChaos", "TransportStats", "LossyDatagramTransport"]

# Domain-separation tags (disjoint from the simulator FaultModel's) so a
# socket-level draw never collides with a simulator draw on one seed.
_TAG_NET_DROP = 0x7D09
_TAG_NET_DELAY = 0x7DE1


@dataclass(frozen=True)
class NetChaos:
    """A seeded, deterministic socket-level chaos profile.

    Attributes
    ----------
    seed:
        Root seed; every drop/delay decision is a pure function of it.
    drop_rate:
        Per-send-attempt probability that a datagram is destroyed.
    delay_rate:
        Per-send-attempt probability that a datagram is delayed (and
        thus possibly reordered past its successors).
    delay_max:
        Upper bound, in seconds, of the drawn extra latency.
    kill:
        ``(victim, round)`` pairs: ``victim`` fail-stops (stops sending
        *and* receiving) upon reaching protocol round ``round``.
    sigkill:
        ``(victim, round)`` pairs for the multi-process runtime:
        ``victim``'s OS process sends itself ``SIGKILL`` upon reaching
        round ``round`` — an abrupt, real process death the supervisor
        must detect.  Ignored by the in-process host.
    rejoin_crashes:
        How many restart attempts of a sigkilled victim die again on
        boot (before saying hello).  Exercises the supervisor's capped
        restart/backoff ladder and its fail-stop declaration; 0 means
        the first restart survives.
    """

    seed: int = 0
    drop_rate: float = 0.0
    delay_rate: float = 0.0
    delay_max: float = 0.0
    kill: Tuple[Tuple[int, int], ...] = ()
    sigkill: Tuple[Tuple[int, int], ...] = ()
    rejoin_crashes: int = 0

    def __post_init__(self) -> None:
        for name in ("drop_rate", "delay_rate"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise GossipRuntimeError(f"{name}={p} is not a probability")
        if self.delay_max < 0.0:
            raise GossipRuntimeError("delay_max must be >= 0")
        if self.delay_rate > 0.0 and self.delay_max == 0.0:
            raise GossipRuntimeError("delay_rate > 0 needs delay_max > 0")
        if self.rejoin_crashes < 0:
            raise GossipRuntimeError("rejoin_crashes must be >= 0")

    @property
    def is_null(self) -> bool:
        """Whether this profile can never perturb a datagram."""
        return (
            self.drop_rate == 0.0
            and self.delay_rate == 0.0
            and not self.kill
            and not self.sigkill
        )

    def kill_round_of(self, vertex: int) -> Optional[int]:
        """The round at which ``vertex`` fail-stops (None = never)."""
        for victim, rnd in self.kill:
            if victim == vertex:
                return rnd
        return None

    def sigkill_round_of(self, vertex: int) -> Optional[int]:
        """The round at which ``vertex``'s *process* SIGKILLs itself."""
        for victim, rnd in self.sigkill:
            if victim == vertex:
                return rnd
        return None

    # -- deterministic draws ------------------------------------------
    def drops(self, src: int, dst: int, kind: int, phase: int,
              rnd: int, attempt: int) -> bool:
        """Whether this send attempt is destroyed."""
        if self.drop_rate == 0.0:
            return False
        u = keyed_uniform(self.seed, _TAG_NET_DROP, src, dst, kind, phase, rnd, attempt)
        return u < self.drop_rate

    def delay_of(self, src: int, dst: int, kind: int, phase: int,
                 rnd: int, attempt: int) -> float:
        """Extra latency in seconds for this send attempt (0.0 = none)."""
        if self.delay_rate == 0.0:
            return 0.0
        u = keyed_uniform(self.seed, _TAG_NET_DELAY, src, dst, kind, phase, rnd, attempt)
        if u >= self.delay_rate:
            return 0.0
        # Rescale the accepting draw to [0, 1) for the latency magnitude:
        # one hash serves both the accept/reject and the jitter amount.
        return (u / self.delay_rate) * self.delay_max


@dataclass
class TransportStats:
    """Counters one :class:`LossyDatagramTransport` accumulates."""

    sent: int = 0
    dropped: int = 0
    delayed: int = 0
    suppressed_after_kill: int = 0

    def merged(self, other: "TransportStats") -> "TransportStats":
        """Element-wise sum (for fleet-level reporting)."""
        return TransportStats(
            sent=self.sent + other.sent,
            dropped=self.dropped + other.dropped,
            delayed=self.delayed + other.delayed,
            suppressed_after_kill=(
                self.suppressed_after_kill + other.suppressed_after_kill
            ),
        )


#: Reliable-record kinds whose retransmission attempts are tracked
#: (fresh loss draw per copy).  HEARTBEAT is deliberately absent: the
#: beacon's sequence number already lives in the wire ``round`` field,
#: so every beacon is a fresh draw with no table entry to leak.
_TRACKED_KINDS = frozenset({DATA, FENCE, ACK, RESYNC_REQ, RESYNC})

#: (dst vertex, kind, phase, round) — the logical identity of one
#: reliable record, the attempt-table key.
_AttemptKey = Tuple[int, int, int, int]


class LossyDatagramTransport:
    """A chaos-injecting facade over one peer's datagram transport.

    Exposes the one method the peer protocol needs (``sendto``) plus the
    kill switch.  Draw keys are read straight off the wire header, so
    the wrapper needs no cooperation from the caller beyond well-formed
    protocol datagrams; the destination vertex id comes from the address
    table built from the address book (and refreshed via :meth:`update_route`
    when a supervised peer rejoins on a new port).
    """

    def __init__(
        self,
        inner: asyncio.DatagramTransport,
        *,
        chaos: NetChaos,
        src: int,
        vertex_of_addr: Mapping[Tuple[str, int], int],
        clock: Clock,
    ) -> None:
        self._inner = inner
        self._chaos = chaos
        self._src = src
        self._vertex_of_addr = dict(vertex_of_addr)
        self._clock = clock
        self._attempts: Dict[_AttemptKey, int] = {}
        self._pending: Set[asyncio.Task] = set()
        self.killed = False
        self.stats = TransportStats()

    def kill(self) -> None:
        """Fail-stop this endpoint: swallow every subsequent send."""
        self.killed = True

    def update_route(self, addr: Tuple[str, int], vertex: int) -> None:
        """Bind ``addr`` to ``vertex`` (a rejoined peer's fresh port)."""
        self._vertex_of_addr[addr] = vertex

    # -- attempt-table hygiene (satellite: the table must not grow) ----
    @property
    def attempts_tracked(self) -> int:
        """How many reliable records currently have attempt state."""
        return len(self._attempts)

    def forget(self, dst: int, kind: int, phase: int, rnd: int) -> None:
        """Drop attempt state for one acked/settled reliable record."""
        self._attempts.pop((dst, kind, phase, rnd), None)

    def expire_before(self, phase: int, rnd: int) -> None:
        """Sweep attempt state for ``phase`` rounds strictly below ``rnd``.

        Re-acks of very old duplicates keep their entries until the
        caller's sweep horizon passes them, so the sweep must trail the
        live round window (peers can lag a few rounds, never many — a
        neighbour stuck at round ``t`` starves everyone else of its
        round-``t`` token within two fences).
        """
        stale = [
            key for key in self._attempts if key[2] == phase and key[3] < rnd
        ]
        for key in stale:
            del self._attempts[key]

    def sendto(self, data: bytes, addr: Tuple[str, int]) -> None:
        """Send one protocol datagram through the chaos profile."""
        if self.killed:
            self.stats.suppressed_after_kill += 1
            return
        if self._chaos.is_null or len(data) != WIRE_SIZE:
            self.stats.sent += 1
            self._inner.sendto(data, addr)
            return
        dgram = decode(data)
        dst = self._vertex_of_addr.get(addr, -1)
        attempt = 0
        if dgram.kind in _TRACKED_KINDS:
            key = (dst, dgram.kind, dgram.phase, dgram.round)
            attempt = self._attempts.get(key, 0)
            self._attempts[key] = attempt + 1
        if self._chaos.drops(self._src, dst, dgram.kind, dgram.phase,
                             dgram.round, attempt):
            self.stats.dropped += 1
            return
        delay = self._chaos.delay_of(self._src, dst, dgram.kind, dgram.phase,
                                     dgram.round, attempt)
        if delay <= 0.0:
            self.stats.sent += 1
            self._inner.sendto(data, addr)
            return
        self.stats.delayed += 1
        task = asyncio.ensure_future(self._send_later(data, addr, delay))
        self._pending.add(task)
        task.add_done_callback(self._pending.discard)

    async def _send_later(self, data: bytes, addr: Tuple[str, int],
                          delay: float) -> None:
        await self._clock.sleep(delay)
        if not self.killed and not self._inner.is_closing():
            self.stats.sent += 1
            self._inner.sendto(data, addr)

    def close(self) -> None:
        """Cancel in-flight delayed sends and close the real transport."""
        for task in tuple(self._pending):
            task.cancel()
        self._pending.clear()
        if not self._inner.is_closing():
            self._inner.close()
