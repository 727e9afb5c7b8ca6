"""The peer driver both runtime hosts run, behind a control channel.

:func:`run_peer` drives one :class:`~repro.runtime.peer.GossipPeer` from
boot to shutdown over a UDP socket it binds itself.  The orchestrator
(:class:`~repro.runtime.supervisor.Supervisor`) talks to it over a pure
**control plane** — rendezvous, start, abort, revive, scripts, shutdown
— that never carries gossip payload.  In-process
(:mod:`repro.runtime.runner`) commands arrive on an
:class:`asyncio.Queue` and reports are function calls; on the process
host, :func:`_child_entry` runs in a spawned interpreter (picklable
:class:`PeerSpec`, one end of a duplex pipe) and a reader thread feeds
the pipe into the same queue.

Control protocol (tag-first tuples, both directions)
----------------------------------------------------
Peer → orchestrator::

    (HELLO, vertex, udp_port)            bound and listening
    (SUSPECT, reporter, victim)          failure detector fired
    (PHASE1, vertex, snapshot)           online phase over (done/aborted)
    (RESYNCED, vertex, holds)            rejoin state transfer complete
    (PHASE2, vertex, snapshot)           scripted phase over
    (DEADLINE, vertex, phase, message)   a typed deadline expired
    (ERROR, vertex, repr)                a typed error (not a crash)
    (BYE, vertex)                        clean exit imminent

Orchestrator → peer::

    (ADDRS, {vertex: (host, port)})      address book (re-broadcast on rejoin)
    (START,)                             begin phase 1 (or rejoin idle loop)
    (ABORT,)                             freeze phase 1, snapshot holds
    (REVIVE, vertex)                     clear a rejoined peer from dead sets
    (RESYNC, source)                     rejoined child: pull state from source
    (SCRIPT, peer_script, dead)          run one scripted phase slice
    (SHUTDOWN,)                          stop loops, close socket, exit

Crash injection is *real* on the process host: a ``NetChaos.sigkill``
round makes the child send **itself** ``SIGKILL`` (via the peer's
``kill_via`` hook), so the interpreter vanishes mid-protocol with no
cleanup — the supervisor must notice via the process sentinel and the
survivors' heartbeat detectors, exactly like an OOM kill in production.
The in-process host ignores ``sigkill`` rounds (``kill_via=None``);
``kill`` rounds silence a peer's transport on both hosts.  ``rejoin_crashes``
additionally kills the first N restart attempts at boot, exercising the
capped restart ladder.

A watchdog (``2 * run_timeout`` on the peer's clock) bounds every
peer's lifetime, so an orphaned process exits by itself even if the
supervisor died without saying shutdown.
"""

from __future__ import annotations

import asyncio
import functools
import os
import signal
import threading
from dataclasses import dataclass, replace
from multiprocessing.connection import Connection
from typing import Callable, Dict, Optional, Set, Tuple

from ..core.online import build_processor
from ..exceptions import GossipRuntimeError, RuntimeDeadlineError
from ..tree.labeling import LabeledTree
from .clock import Clock, RealClock, ScaledClock
from .peer import GossipPeer, PeerProtocol, PeerScript, RuntimeConfig
from .transport import LossyDatagramTransport, NetChaos, TransportStats

__all__ = ["PeerSpec", "run_peer", "_child_entry"]

#: How a peer reports one tuple to the orchestrator (best effort).
Report = Callable[[Tuple[object, ...]], None]

# Peer → orchestrator tags.
HELLO = "hello"
SUSPECT = "suspect"
PHASE1 = "phase1"
RESYNCED = "resynced"
PHASE2 = "phase2"
DEADLINE = "deadline"
ERROR = "error"
BYE = "bye"

# Orchestrator → peer tags.
ADDRS = "addrs"
START = "start"
ABORT = "abort"
REVIVE = "revive"
RESYNC = "resync"
SCRIPT = "script"
SHUTDOWN = "shutdown"


@dataclass(frozen=True)
class PeerSpec:
    """Everything one peer needs (picklable by construction).

    Carries the :class:`~repro.tree.labeling.LabeledTree` rather than a
    :class:`~repro.core.gossip.GossipPlan` — the child rebuilds its own
    :class:`~repro.core.online.OnlineProcessor` from the tree, which is
    also the honest architecture: a real processor owns its ``(i, j, k)``
    block, not the global schedule.
    """

    vertex: int
    horizon: int
    labeled: LabeledTree
    config: RuntimeConfig
    chaos: NetChaos
    rejoin: bool = False
    rejoin_attempt: int = 0


class _ControlState:
    """Mutable, loop-local state the control pump feeds."""

    def __init__(self) -> None:
        self.addrs: Dict[int, Tuple[str, int]] = {}
        self.addr_event = asyncio.Event()
        self.start_event = asyncio.Event()
        self.wake = asyncio.Event()
        self.resync_event = asyncio.Event()
        self.resync_source: Optional[int] = None
        self.pending_script: Optional[PeerScript] = None
        self.script_dead: Set[int] = set()
        self.shutdown = False
        self.transport: Optional[LossyDatagramTransport] = None


def _safe_send(ctrl: Connection, message: object) -> None:
    """Best-effort control send (the supervisor may already be gone)."""
    try:
        ctrl.send(message)
    except (BrokenPipeError, OSError, ValueError):
        pass


def _pump_ctrl(
    ctrl: Connection,
    loop: asyncio.AbstractEventLoop,
    inbox: "asyncio.Queue[Tuple[object, ...]]",
    stop: threading.Event,
) -> None:
    """Reader thread: pipe → asyncio inbox (the loop thread owns state)."""
    while not stop.is_set():
        try:
            if not ctrl.poll(0.05):
                continue
            message = ctrl.recv()
        except (EOFError, OSError):
            message = (SHUTDOWN,)
        try:
            loop.call_soon_threadsafe(inbox.put_nowait, message)
        except RuntimeError:
            return  # loop already closed; nothing left to deliver to
        if isinstance(message, tuple) and message and message[0] == SHUTDOWN:
            return


async def _control_loop(
    peer: GossipPeer,
    state: _ControlState,
    inbox: "asyncio.Queue[Tuple[object, ...]]",
) -> None:
    """Apply supervisor commands to the peer, in arrival order."""
    while True:
        message = await inbox.get()
        tag = message[0]
        if tag == ADDRS:
            addrs = {
                int(v): (str(host), int(port))
                for v, (host, port) in dict(message[1]).items()  # type: ignore[call-overload]
            }
            state.addrs = addrs
            peer.addr_of.update(addrs)
            if state.transport is not None:
                for v, addr in addrs.items():
                    state.transport.update_route(addr, v)
            state.addr_event.set()
        elif tag == START:
            state.start_event.set()
        elif tag == ABORT:
            peer.abort()
        elif tag == REVIVE:
            victim = int(message[1])  # type: ignore[call-overload]
            peer.dead.discard(victim)
            peer.note_alive(victim)
        elif tag == RESYNC:
            state.resync_source = int(message[1])  # type: ignore[call-overload]
            state.resync_event.set()
        elif tag == SCRIPT:
            state.pending_script = message[1]  # type: ignore[assignment]
            state.script_dead = set(message[2])  # type: ignore[arg-type]
            state.wake.set()
        elif tag == SHUTDOWN:
            state.shutdown = True
            state.wake.set()
            state.addr_event.set()
            state.start_event.set()
            state.resync_event.set()
            peer.stop()
            return


def _snapshot(peer: GossipPeer) -> Dict[str, object]:
    """One peer's reportable state: picklable copies, never live views."""
    return {
        "holds": peer.holds,
        "rounds_completed": peer.rounds_completed,
        "complete": peer.holds == (1 << peer.proc.n) - 1,
        "died_at": peer.died_at,
        "transcript": list(peer.transcript),
        "survival_transcript": list(peer.survival_transcript),
        "retransmissions": peer.retransmissions,
        "duplicates_suppressed": peer.duplicates_suppressed,
        "stats": (
            replace(peer.transport.stats)
            if peer.transport is not None else TransportStats()
        ),
    }


def _sigkill_self() -> None:
    """Die like production dies: abruptly, with no cleanup whatsoever."""
    os.kill(os.getpid(), signal.SIGKILL)


async def _run_phases(
    spec: PeerSpec,
    peer: GossipPeer,
    state: _ControlState,
    report: Report,
) -> None:
    """Drive the peer through its phases until the orchestrator says stop."""
    if spec.rejoin:
        await state.resync_event.wait()
        if state.shutdown:
            return
        if state.resync_source is None:
            raise GossipRuntimeError(
                f"peer {spec.vertex}: resync command without a source"
            )
        try:
            await peer.fetch_resync(state.resync_source)
        except RuntimeDeadlineError as err:
            report((DEADLINE, spec.vertex, err.phase, str(err)))
            return
        report((RESYNCED, spec.vertex, peer.holds))
    else:
        try:
            await peer.run_online(spec.horizon)
        except RuntimeDeadlineError as err:
            report((DEADLINE, spec.vertex, err.phase, str(err)))
        report((PHASE1, spec.vertex, _snapshot(peer)))

    while True:
        if state.shutdown:
            return
        script = state.pending_script
        if script is not None:
            state.pending_script = None
            peer.resume()
            peer.dead.update(state.script_dead)
            try:
                await peer.run_script(script)
            except RuntimeDeadlineError as err:
                report((DEADLINE, spec.vertex, err.phase, str(err)))
            except GossipRuntimeError as err:
                report((ERROR, spec.vertex, repr(err)))
            report((PHASE2, spec.vertex, _snapshot(peer)))
        state.wake.clear()
        if state.pending_script is None and not state.shutdown:
            await state.wake.wait()


async def run_peer(
    spec: PeerSpec,
    clock: Clock,
    report: Report,
    inbox: "asyncio.Queue[Tuple[object, ...]]",
    *,
    kill_via: Optional[Callable[[], None]] = None,
) -> None:
    """Drive one peer from boot to shutdown: the body both hosts run.

    ``report`` hands one tuple to the orchestrator and never raises;
    ``inbox`` yields the orchestrator's commands in order.  ``kill_via``
    is how the peer dies at its ``NetChaos.sigkill`` round: the process
    host passes a real ``SIGKILL``, the in-process host ``None``, which
    ignores ``sigkill`` rounds.  An exception inside the peer is reported
    as ERROR, and BYE always ends the conversation.
    """
    try:
        await _drive(spec, clock, report, inbox, kill_via)
    except Exception as exc:  # noqa: BLE001 — report it, the orchestrator decides
        report((ERROR, spec.vertex, repr(exc)))
    finally:
        report((BYE, spec.vertex))


async def _drive(
    spec: PeerSpec,
    clock: Clock,
    report: Report,
    inbox: "asyncio.Queue[Tuple[object, ...]]",
    kill_via: Optional[Callable[[], None]],
) -> None:
    loop = asyncio.get_running_loop()

    def report_suspect(reporter: int, victim: int) -> None:
        report((SUSPECT, reporter, victim))

    kill_round = (
        spec.chaos.sigkill_round_of(spec.vertex) if kill_via is not None else None
    )
    if kill_round is None:
        kill_via = None
        kill_round = spec.chaos.kill_round_of(spec.vertex)

    peer = GossipPeer(
        spec.vertex,
        build_processor(spec.labeled, spec.vertex),
        config=spec.config,
        clock=clock,
        suspect=report_suspect,
        kill_round=kill_round,
        kill_via=kill_via,
    )

    state = _ControlState()
    control = asyncio.ensure_future(_control_loop(peer, state, inbox))

    raw_transport, _ = await loop.create_datagram_endpoint(
        lambda: PeerProtocol(peer), local_addr=("127.0.0.1", 0)
    )
    wrapped: Optional[LossyDatagramTransport] = None
    heartbeat: Optional["asyncio.Task[None]"] = None
    try:
        port = raw_transport.get_extra_info("sockname")[1]
        report((HELLO, spec.vertex, int(port)))
        budget = 2.0 * spec.config.run_timeout
        try:
            await clock.wait_for(state.addr_event.wait(), budget)
        except asyncio.TimeoutError:
            report((DEADLINE, spec.vertex, "rendezvous",
                    "no address book within the peer watchdog"))
            return
        if state.shutdown:
            return
        wrapped = LossyDatagramTransport(
            raw_transport,
            chaos=spec.chaos,
            src=spec.vertex,
            vertex_of_addr={addr: v for v, addr in state.addrs.items()},
            clock=clock,
        )
        state.transport = wrapped
        peer.attach(wrapped, state.addrs)
        try:
            await clock.wait_for(state.start_event.wait(), budget)
        except asyncio.TimeoutError:
            report((DEADLINE, spec.vertex, "rendezvous",
                    "no start signal within the peer watchdog"))
            return
        if state.shutdown:
            return
        heartbeat = asyncio.ensure_future(peer.heartbeat_loop())
        try:
            await clock.wait_for(
                _run_phases(spec, peer, state, report), budget
            )
        except asyncio.TimeoutError:
            report((DEADLINE, spec.vertex, "child",
                    "peer watchdog expired; exiting as an orphan"))
    finally:
        peer.stop()
        control.cancel()
        if heartbeat is not None:
            heartbeat.cancel()
        await asyncio.gather(control, *((heartbeat,) if heartbeat else ()),
                             return_exceptions=True)
        if wrapped is not None:
            wrapped.close()
        elif not raw_transport.is_closing():
            raw_transport.close()


async def _child_main(
    spec: PeerSpec, time_scale: float, ctrl: Connection
) -> None:
    """The process host's side of :func:`run_peer`: pipe in, pipe out."""
    loop = asyncio.get_running_loop()
    inbox: "asyncio.Queue[Tuple[object, ...]]" = asyncio.Queue()
    stop_pump = threading.Event()
    threading.Thread(
        target=_pump_ctrl, args=(ctrl, loop, inbox, stop_pump),
        name=f"ctrl-pump-{spec.vertex}", daemon=True,
    ).start()
    clock: Clock = RealClock() if time_scale >= 1.0 else ScaledClock(time_scale)
    try:
        await run_peer(
            spec, clock, functools.partial(_safe_send, ctrl), inbox,
            kill_via=_sigkill_self,
        )
    finally:
        stop_pump.set()


def _child_entry(spec: PeerSpec, time_scale: float, ctrl: Connection) -> None:
    """Process entry point (target of the spawn context).

    Children cannot share a Python object, so the clock scale — not a
    clock — is what travels.
    """
    if spec.rejoin and spec.rejoin_attempt <= spec.chaos.rejoin_crashes:
        # Seeded rejoin-chaos: this restart attempt dies on boot.
        os.kill(os.getpid(), signal.SIGKILL)
    try:
        asyncio.run(_child_main(spec, time_scale, ctrl))
    finally:
        try:
            ctrl.close()
        except OSError:
            pass
