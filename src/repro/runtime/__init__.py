"""Real-network asyncio gossip runtime.

Executes the paper's *online* ConcurrentUpDown protocol
(:mod:`repro.core.online`) over actual UDP sockets on localhost: one
asyncio task per vertex, each owning an
:class:`~repro.core.online.OnlineProcessor` and learning about the rest
of the network only through datagrams.  The robustness layer — acks with
seeded-exponential-backoff retransmission, heartbeat failure detection,
round/run deadlines, and a survival replan driven by
:func:`repro.core.survival.survive` — turns the lossless synchronous
model into something that completes on a lossy asynchronous medium and
degrades to *gossip among survivors* when peers die.

One orchestrator, two hosts: :class:`Supervisor`
(:mod:`repro.runtime.supervisor`) owns rendezvous, death detection,
the freeze, the survival replan or restart-with-rejoin, deadlines and
result assembly, and drives every peer — the one peer driver of
:mod:`repro.runtime.proc` — through a :class:`PeerHost`.  Front doors:
:func:`run_gossip_network` (the in-process host, :mod:`repro.runtime.runner`:
one asyncio task per vertex in this interpreter) and
:func:`run_gossip_processes` (the process host: one supervised OS
process per vertex).  Fault injection: :class:`NetChaos` (deterministic
per seed, byte-for-byte reproducible — see
:mod:`repro.runtime.transport`), including *real* process crashes
(``sigkill``) on the process host.
"""

from .clock import Clock, RealClock, ScaledClock
from .incidents import Incident, IncidentJournal
from .peer import (
    GossipPeer,
    PeerProtocol,
    PeerScript,
    RuntimeConfig,
    TranscriptEntry,
)
from .runner import run_gossip_network
from .supervisor import (
    ObservedDeaths,
    PeerHost,
    ProcResult,
    RestartPolicy,
    RuntimeResult,
    Supervisor,
    run_gossip_processes,
)
from .transport import LossyDatagramTransport, NetChaos, TransportStats
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
    WIRE_SIZE,
    Datagram,
    decode,
    encode,
)

__all__ = [
    "Clock",
    "RealClock",
    "ScaledClock",
    "GossipPeer",
    "PeerProtocol",
    "PeerScript",
    "RuntimeConfig",
    "TranscriptEntry",
    "ObservedDeaths",
    "RuntimeResult",
    "run_gossip_network",
    "Supervisor",
    "PeerHost",
    "RestartPolicy",
    "ProcResult",
    "run_gossip_processes",
    "Incident",
    "IncidentJournal",
    "LossyDatagramTransport",
    "NetChaos",
    "TransportStats",
    "DATA",
    "FENCE",
    "ACK",
    "HEARTBEAT",
    "RESYNC_REQ",
    "RESYNC",
    "PHASE_ONLINE",
    "PHASE_SURVIVAL",
    "PHASE_REJOIN",
    "WIRE_SIZE",
    "Datagram",
    "encode",
    "decode",
]
