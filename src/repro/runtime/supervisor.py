"""The one runtime orchestrator, its result types, and the process host.

:class:`Supervisor` orchestrates every real-network gossip run.  It
drives peers — each running :func:`repro.runtime.proc.run_peer` behind
a control channel — through a :class:`PeerHost`:

* the **in-process host** (:mod:`repro.runtime.runner`, front door
  ``run_gossip_network``): every peer is an asyncio task in the
  orchestrator's own event loop;
* the **process host** (here, front door :func:`run_gossip_processes`):
  every peer is a spawned OS process; the orchestrator watches each
  control pipe **and** process sentinel with ``loop.add_reader``.

After the rendezvous (peers bind their own UDP sockets and report
ports; the orchestrator broadcasts the address book) it watches phase
1.  Death shows on two channels: the **process sentinel** (a real
``SIGKILL`` exits with code ``-9``; process host only) and the
**heartbeat detector** of the victim's live neighbours.  Both go to an
:class:`~repro.runtime.incidents.IncidentJournal`, but the orchestrator
freezes phase 1 only once the *peers'* detector has fired (or a grace
lapsed): holds at the freeze are the deterministic stall wavefront of
the fence barriers, not a race with the host scheduler.  A SIGKILLed
victim's holds are reconstructed from the offline schedule truncated at
its death round (:meth:`GossipPlan.holds_at`).  The death is then
resolved by policy (:class:`RestartPolicy`):

* ``"replan"`` — an :class:`ObservedDeaths` fault model and a fabricated
  :class:`~repro.simulator.lossy.FaultyExecutionResult` go to the
  existing :func:`repro.core.survival.survive`; the replan is sliced
  into per-peer scripts (:func:`script_slices`) and run among the
  survivors, then checked by
  :func:`~repro.core.survival.validate_survival`;
* ``"restart"`` (process host only) — restart the victim with capped
  exponential backoff, re-rendezvous it on a fresh port, resync its
  holds from a live neighbour over UDP, and run a
  :func:`repro.core.recovery.plan_repair_rounds` completion schedule:
  **full gossip re-completes**.  A victim that keeps dying is declared
  fail-stop after ``max_restarts`` attempts and the run replans.

Every deadline is kept in the virtual seconds of one
:class:`~repro.runtime.clock.Clock`.  A round that misses
``round_timeout`` (``phase="round"``) or a run that misses
``run_timeout`` (``phase="run"``) raises
:class:`~repro.exceptions.RuntimeDeadlineError` carrying the partial
result — the orchestrator never hangs on a lost fleet.

Everything in :meth:`RuntimeResult.deterministic_summary` is a pure
function of ``(network, algorithm, chaos profile, seed)``; wall-clock
fields (``wall_seconds``, retransmissions, transport stats, incidents)
are excluded — they measure the machine, not the protocol.
"""

from __future__ import annotations

import asyncio
import functools
import multiprocessing
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
from typing import (
    Callable,
    Dict,
    List,
    Optional,
    Protocol,
    Sequence,
    Set,
    Tuple,
    cast,
)

from ..core.gossip import GossipPlan, NetworkSpec, gossip
from ..core.recovery import _tree_adjacency, plan_repair_rounds
from ..core.schedule import ArraySchedule
from ..core.survival import survive, survivor_coverage, validate_survival
from ..exceptions import (
    GossipRuntimeError,
    PeerDeadError,
    RuntimeDeadlineError,
    SupervisorError,
)
from ..simulator.lossy import FaultModel, FaultyExecutionResult
from ..simulator.state import labeled_holdings
from .clock import Clock, RealClock, ScaledClock
from .incidents import Incident, IncidentJournal
from .peer import PeerScript, RuntimeConfig, TranscriptEntry
from .proc import (
    ABORT,
    ADDRS,
    BYE,
    DEADLINE,
    ERROR,
    HELLO,
    PHASE1,
    PHASE2,
    RESYNC,
    RESYNCED,
    REVIVE,
    SCRIPT,
    SHUTDOWN,
    START,
    SUSPECT,
    PeerSpec,
    Report,
    _child_entry,
)
from .transport import NetChaos, TransportStats

__all__ = [
    "ObservedDeaths",
    "PeerHost",
    "ProcResult",
    "RestartPolicy",
    "RuntimeResult",
    "Supervisor",
    "run_gossip_processes",
    "script_slices",
]

#: Virtual-seconds budget for the cooperative part of shutdown before
#: the host force-stops stragglers.
_SHUTDOWN_GRACE = 5.0


@dataclass(frozen=True)
class ObservedDeaths(FaultModel):
    """A scripted fault model replaying deaths the runtime observed.

    Bridges the runtime's failure detector into the simulator-stack
    survival machinery: :func:`repro.core.survival.diagnose_survival`
    only ever asks :meth:`fail_stopped` / :meth:`link_failed`, so a
    model that answers from an explicit death list makes
    :func:`~repro.core.survival.survive` replan for exactly the peers the
    detector buried.
    """

    dead_from: Tuple[Tuple[int, int], ...] = ()

    def fail_stopped(self, time: int, v: int) -> bool:
        for victim, rnd in self.dead_from:
            if victim == v and time >= rnd:
                return True
        return False


@dataclass(frozen=True)
class RuntimeResult:
    """Everything observable about one real-network gossip run.

    Attributes
    ----------
    n / horizon:
        Network size and the offline schedule's total time (the phase-1
        round budget).
    complete:
        Whether *full* gossip finished — every processor holds every
        message.  False whenever anyone died, even if the survivors
        reached full degraded coverage.
    coverage:
        Fraction of guaranteed (live processor, message) pairs held at
        the end — 1.0 for a complete run, the plain fill ratio of the
        hold matrix for an incomplete fault-free one, and the survivors'
        coverage when the survival replan ran.
    wall_seconds:
        Real-network makespan (injectable-clock seconds); measures the
        machine, excluded from :meth:`deterministic_summary`.
    rounds_completed:
        Highest phase-1 round any live peer fully executed.
    transcript / survival_transcript:
        Every phase-1 / phase-2 multicast actually performed, in
        ``(round, sender)`` order — phase 1 is byte-for-byte the offline
        schedule on a fault-free run.
    final_holds:
        Per-vertex hold bitsets at the end (dead peers keep their
        at-death snapshot).
    dead / components:
        The failure diagnosis (empty / one full component when nothing
        died).
    survival_rounds:
        Rounds of the phase-2 replan (0 when phase 2 never ran).
    retransmissions / duplicates_suppressed / stats:
        Reliability-layer work: datagrams retransmitted, duplicate
        deliveries absorbed by dedup, transport chaos counters.
    """

    n: int
    horizon: int
    complete: bool
    coverage: float
    wall_seconds: float
    rounds_completed: int
    transcript: Tuple[TranscriptEntry, ...]
    survival_transcript: Tuple[TranscriptEntry, ...]
    final_holds: Tuple[int, ...]
    dead: Tuple[int, ...]
    components: Tuple[Tuple[int, ...], ...]
    survival_rounds: int
    retransmissions: int
    duplicates_suppressed: int
    stats: TransportStats = field(default_factory=TransportStats)

    @property
    def makespan(self) -> Optional[float]:
        """Wall-clock completion time, ``None`` when gossip degraded.

        The runtime mirror of
        :attr:`repro.simulator.engine.ExecutionResult.makespan`.
        """
        return self.wall_seconds if self.complete else None

    def deterministic_summary(self) -> Dict[str, object]:
        """The per-seed-reproducible view of this run.

        Byte-for-byte identical across repeated runs with the same
        ``(network, algorithm, chaos, seed)``; excludes every field that
        depends on scheduling latency or the host machine.
        """
        return {
            "n": self.n,
            "horizon": self.horizon,
            "complete": self.complete,
            "coverage": round(self.coverage, 12),
            "rounds_completed": self.rounds_completed,
            "transcript": [
                (e.round, e.sender, e.message, e.destinations)
                for e in self.transcript
            ],
            "survival_transcript": [
                (e.round, e.sender, e.message, e.destinations)
                for e in self.survival_transcript
            ],
            "final_holds": list(self.final_holds),
            "dead": list(self.dead),
            "components": [list(c) for c in self.components],
            "survival_rounds": self.survival_rounds,
        }


@dataclass(frozen=True)
class ProcResult(RuntimeResult):
    """A :class:`RuntimeResult` plus the supervision story.

    Attributes
    ----------
    mode:
        How the run resolved: ``"fault-free"``, ``"rejoin"`` (victims
        restarted and full gossip re-completed), ``"replan"`` (gossip
        among survivors), or ``"partial"`` (deadline expired; carried
        by the :class:`~repro.exceptions.RuntimeDeadlineError`).
    restarts:
        Total restart attempts performed across all victims.
    incidents:
        The structured incident journal, in detection order.  Incidents
        carry wall-clock offsets, so they are *excluded* from
        :meth:`deterministic_summary`; ``mode`` and ``restarts`` are
        pure functions of the seed and are included.
    """

    mode: str = "fault-free"
    restarts: int = 0
    incidents: Tuple[Incident, ...] = ()

    def deterministic_summary(self) -> Dict[str, object]:
        summary = super().deterministic_summary()
        summary["mode"] = self.mode
        summary["restarts"] = self.restarts
        return summary


@dataclass(frozen=True)
class RestartPolicy:
    """How the supervisor resolves a detected peer death.

    Attributes
    ----------
    mode:
        ``"replan"`` — re-schedule around the dead with :func:`survive`
        (gossip among survivors); ``"restart"`` — restart the victim,
        resync its state from a live neighbour, and re-complete full
        gossip.
    max_restarts:
        Restart attempts per victim before declaring it fail-stop and
        falling back to the replan path.
    backoff_base / backoff_cap:
        Capped exponential backoff between restart attempts, in the
        run's virtual seconds: attempt ``k`` waits
        ``min(cap, base * 2**(k-1))``.
    """

    mode: str = "replan"
    max_restarts: int = 3
    backoff_base: float = 0.05
    backoff_cap: float = 1.0

    def __post_init__(self) -> None:
        if self.mode not in ("replan", "restart"):
            raise GossipRuntimeError(
                f"unknown restart policy mode {self.mode!r}; "
                "choose 'replan' or 'restart'"
            )
        if self.max_restarts < 1:
            raise GossipRuntimeError("max_restarts must be >= 1")
        if self.backoff_base <= 0 or self.backoff_cap < self.backoff_base:
            raise GossipRuntimeError(
                "restart backoff must satisfy 0 < base <= cap"
            )

    def backoff(self, attempt: int) -> float:
        """Virtual seconds to wait before restart ``attempt`` (1-based)."""
        return min(self.backoff_cap, self.backoff_base * 2 ** (attempt - 1))


def script_slices(schedule: ArraySchedule, horizon: int) -> Dict[int, PeerScript]:
    """Slice a merged schedule into per-peer send/expect scripts.

    Every peer receives *only its own rows*: what it sends each round
    and what will land on it each time step — the same locality
    discipline phase 1 gets from
    :class:`~repro.core.online.OnlineProcessor`.  The orchestrator
    slices :func:`survive` replans and
    :func:`repro.core.recovery.plan_repair_rounds` rejoin-completion
    schedules, reading their columns.
    """
    scripts: Dict[int, PeerScript] = {}

    def script_of(v: int) -> PeerScript:
        if v not in scripts:
            scripts[v] = PeerScript(horizon=horizon)
        return scripts[v]

    for t, sender, message, dests in schedule.sends():
        script_of(sender).sends[t] = (message, dests)
        for d in dests:
            script_of(d).expects[t + 1] = (sender, message)
    return scripts


# ---------------------------------------------------------------------------
# Hosts: where peers run
# ---------------------------------------------------------------------------

#: Sends one control command to a peer (best effort, never raises).
Send = Report


class PeerHost(Protocol):
    """Where the peers run; the orchestrator's only view of them."""

    def start(
        self,
        spec: PeerSpec,
        report: Report,
        exited: Callable[[Optional[int]], None],
    ) -> Send:
        """Run one peer and return its command channel; ``report`` gets
        its messages in order, then ``exited`` its exit code."""
        ...

    async def close(self) -> None:
        """Force-stop every peer still running and release resources."""
        ...


class _ProcessLink:
    """One spawned peer process: its pipe end and its sentinel."""

    def __init__(
        self,
        process: "multiprocessing.process.BaseProcess",
        conn: "mp_connection.Connection",
        report: Report,
        exited: Callable[[Optional[int]], None],
    ) -> None:
        self.process = process
        self.conn: Optional["mp_connection.Connection"] = conn
        self.report = report
        self.exited = exited
        self.loop = asyncio.get_running_loop()
        self.loop.add_reader(conn.fileno(), self.drain)
        self.loop.add_reader(process.sentinel, self.on_sentinel)

    def send(self, message: Tuple[object, ...]) -> None:
        if self.conn is None:
            return
        try:
            self.conn.send(message)
        except (BrokenPipeError, OSError, ValueError):
            self.close_conn()

    def drain(self) -> None:
        """Dispatch everything the child has said so far."""
        conn = self.conn
        try:
            while conn is not None and conn.poll(0):
                self.report(conn.recv())
        except (EOFError, OSError):
            self.close_conn()

    def on_sentinel(self) -> None:
        """The child exited: collect its last words, then report the exit."""
        self.loop.remove_reader(self.process.sentinel)
        self.process.join(timeout=1.0)
        self.drain()
        self.exited(self.process.exitcode)

    def close_conn(self) -> None:
        if self.conn is not None:
            self.loop.remove_reader(self.conn.fileno())
            try:
                self.conn.close()
            except OSError:
                pass
            self.conn = None

    def release(self) -> None:
        """Kill the child if it still runs; free its fds."""
        self.loop.remove_reader(self.process.sentinel)
        if self.process.is_alive():
            self.process.kill()
            self.process.join(timeout=1.0)
        self.close_conn()
        try:
            self.process.close()
        except ValueError:
            pass  # still not reaped; the daemon flag covers us


class _ProcessHost:
    """Each peer is a spawned OS process; its control channel a pipe."""

    def __init__(self, time_scale: float) -> None:
        self.time_scale = time_scale
        self._ctx = multiprocessing.get_context("spawn")
        self._links: List[_ProcessLink] = []

    def start(
        self,
        spec: PeerSpec,
        report: Report,
        exited: Callable[[Optional[int]], None],
    ) -> Send:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_child_entry,
            args=(spec, self.time_scale, child_conn),
            name=f"gossip-peer-{spec.vertex}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        link = _ProcessLink(process, parent_conn, report, exited)
        self._links.append(link)
        return link.send

    async def close(self) -> None:
        for link in self._links:
            link.release()


# ---------------------------------------------------------------------------
# The orchestrator
# ---------------------------------------------------------------------------

class _PeerHandle:
    """The orchestrator's ledger entry for one peer incarnation."""

    send: Send  # the host's command channel, set when the peer starts

    def __init__(self, vertex: int, *, rejoin: bool = False) -> None:
        self.vertex = vertex
        self.rejoin = rejoin
        self.alive = True
        self.exitcode: Optional[int] = None
        self.port: Optional[int] = None
        self.phase1: Optional[Dict[str, object]] = None
        self.phase2: Optional[Dict[str, object]] = None
        self.resynced: Optional[int] = None
        self.deadline: Optional[Tuple[str, str]] = None
        self.error: Optional[str] = None
        self.bye = False


class Supervisor:
    """The one orchestrator of a gossip run (see module docstring).

    ``policy=None`` marks an unsupervised run: deaths are always
    resolved by the replan, and the result is a plain
    :class:`RuntimeResult`.  With a :class:`RestartPolicy` the result is
    a :class:`ProcResult` carrying the supervision story.
    """

    def __init__(
        self,
        plan: GossipPlan,
        host: PeerHost,
        *,
        chaos: NetChaos,
        config: RuntimeConfig,
        clock: Clock,
        policy: Optional[RestartPolicy] = None,
    ) -> None:
        self.plan = plan
        self.host = host
        self.chaos = chaos
        self.config = config
        self.clock = clock
        self.policy = policy
        self.n = plan.labeled.n
        self.horizon = plan.schedule.total_time
        self.journal = IncidentJournal()

        self._handles: Dict[int, _PeerHandle] = {}
        self._crashed: Set[int] = set()
        self._suspected: Set[int] = set()
        self._resolved: Set[int] = set()
        self._restarts = 0
        self._shutting_down = False
        self._started = 0.0
        self._deadline = 0.0
        self._changed = asyncio.Event()

    # -- journal helpers ------------------------------------------------
    def _elapsed(self) -> float:
        """Virtual seconds since the run started."""
        return self.clock.time() - self._started

    def _record(self, kind: str, **kwargs: object) -> Incident:
        return self.journal.record(
            kind, wall_seconds=self._elapsed(), **kwargs  # type: ignore[arg-type]
        )

    # -- peer plumbing -----------------------------------------------------
    def _spawn(self, vertex: int, *, rejoin: bool = False,
               attempt: int = 0) -> _PeerHandle:
        spec = PeerSpec(
            vertex=vertex,
            horizon=self.horizon,
            labeled=self.plan.labeled,
            config=self.config,
            chaos=self.chaos,
            rejoin=rejoin,
            rejoin_attempt=attempt,
        )
        handle = _PeerHandle(vertex, rejoin=rejoin)
        self._handles[vertex] = handle
        handle.send = self.host.start(
            spec,
            functools.partial(self._dispatch, handle),
            functools.partial(self._on_exit, handle),
        )
        return handle

    def _broadcast(self, message: Tuple[object, ...]) -> None:
        for handle in self._handles.values():
            if handle.alive:
                handle.send(message)

    def _dispatch(self, handle: _PeerHandle, message: object) -> None:
        self._changed.set()
        if not isinstance(message, tuple) or not message:
            return
        tag = message[0]
        if tag == HELLO:
            handle.port = int(message[2])
        elif tag == SUSPECT:
            reporter, victim = int(message[1]), int(message[2])
            if victim not in self._suspected and victim not in self._resolved:
                self._suspected.add(victim)
                self._record(
                    "suspicion", vertex=victim,
                    detected_by=f"peer:{reporter}",
                    details=f"peer {reporter} reported {victim} silent/unresponsive",
                )
        elif tag == PHASE1:
            handle.phase1 = dict(message[2])  # type: ignore[call-overload]
        elif tag == PHASE2:
            handle.phase2 = dict(message[2])  # type: ignore[call-overload]
        elif tag == RESYNCED:
            handle.resynced = int(message[2])
        elif tag == DEADLINE:
            handle.deadline = (str(message[2]), str(message[3]))
            self._record(
                "deadline", vertex=int(message[1]),
                details=f"{message[2]}: {message[3]}",
            )
        elif tag == ERROR:
            handle.error = str(message[2])
            self._record("child-error", vertex=int(message[1]),
                         details=str(message[2]))
        elif tag == BYE:
            handle.bye = True

    def _on_exit(self, handle: _PeerHandle, exitcode: Optional[int]) -> None:
        self._changed.set()
        handle.alive = False
        handle.exitcode = exitcode
        unexpected = (
            not handle.bye
            and not self._shutting_down
            and not handle.rejoin
            and handle.vertex not in self._crashed
            and handle.vertex not in self._resolved
        )
        if unexpected:
            self._crashed.add(handle.vertex)
            self._record(
                "crash-detected", vertex=handle.vertex,
                detected_by="sentinel",
                details=f"exitcode {handle.exitcode}",
            )

    # -- bounded waits -----------------------------------------------------
    async def _settle(self, predicate: Callable[[], bool], until: float) -> bool:
        """Wait until ``predicate()`` holds or the clock reaches ``until``."""
        while not predicate():
            remaining = until - self.clock.time()
            if remaining <= 0.0:
                return False
            self._changed.clear()
            try:
                await self.clock.wait_for(self._changed.wait(), remaining)
            except asyncio.TimeoutError:
                pass
        return True

    async def _await(self, predicate: Callable[[], bool], what: str,
                     *, until: Optional[float] = None) -> None:
        """Wait for ``predicate()`` (or ``until``); the run deadline raises."""
        end = self._deadline if until is None else min(until, self._deadline)
        if not await self._settle(predicate, end) and (
            self.clock.time() >= self._deadline
        ):
            raise self._run_deadline(what)

    def _run_deadline(self, what: str) -> RuntimeDeadlineError:
        """Journal and build the whole-run deadline error (with partial)."""
        self._record("deadline", details=f"run: {what}")
        return RuntimeDeadlineError(
            f"gossip run exceeded "
            f"run_timeout={self.config.run_timeout:.2f}s during {what}",
            partial=self._partial_result(),
            phase="run",
        )

    def _raise_reported(self, handles: Sequence[_PeerHandle], *,
                        deadlines: bool = True) -> None:
        """Raise the first deadline or error a peer reported."""
        for handle in handles:
            if deadlines and handle.deadline is not None:
                raise RuntimeDeadlineError(
                    f"peer {handle.vertex} missed a deadline: "
                    f"{handle.deadline[1]}",
                    partial=self._partial_result(),
                    phase=handle.deadline[0],
                )
            if handle.error is not None:
                raise SupervisorError(
                    f"peer {handle.vertex} reported an error: {handle.error}",
                    incidents=self.journal.incidents,
                )

    # -- the run -------------------------------------------------------------
    async def run(self) -> RuntimeResult:
        """Start, rendezvous, execute, and resolve one run."""
        self._started = self.clock.time()
        self._deadline = self._started + self.config.run_timeout
        try:
            for vertex in range(self.n):
                self._spawn(vertex)
            await self._rendezvous()
            return await self._run_phases()
        finally:
            await self._shutdown_all()

    async def _rendezvous(self) -> None:
        await self._await(
            lambda: all(h.port is not None for h in self._handles.values())
            or bool(self._crashed),
            "rendezvous",
        )
        if self._crashed:
            raise SupervisorError(
                f"peer(s) {sorted(self._crashed)} died during rendezvous, "
                "before the protocol started",
                incidents=self.journal.incidents,
            )
        book = {
            v: ("127.0.0.1", h.port) for v, h in self._handles.items()
        }
        self._broadcast((ADDRS, book))
        self._broadcast((START,))

    async def _run_phases(self) -> RuntimeResult:
        handles = self._handles

        def phase1_settled() -> bool:
            return all(
                h.phase1 is not None or not h.alive for h in handles.values()
            )

        await self._await(
            lambda: phase1_settled() or bool(self._crashed or self._suspected),
            "phase 1",
        )
        if not self._crashed and not self._suspected:
            return self._finish_fault_free()

        # -- a death was detected: wait for the peers' detector to agree.
        # Sentinels are instant but scheduling-dependent; the heartbeat
        # detector fires on the deterministic fail_after staleness, and
        # the freeze only happens after it (or a bounded grace), so
        # holds-at-abort stay a pure function of the seed.
        await self._await(
            lambda: not (self._crashed - self._suspected),
            "failure detection",
            until=self.clock.time() + 2 * self.config.fail_after,
        )
        victims = set(self._crashed) | set(self._suspected)
        self._resolved |= victims
        self._record(
            "abort",
            details=f"freezing phase 1 around dead={sorted(victims)}",
        )
        self._broadcast((ABORT,))
        await self._await(
            lambda: all(
                h.phase1 is not None or v in victims or not h.alive
                for v, h in handles.items()
            ),
            "phase-1 freeze",
        )
        # Phase-1 deadlines are superseded by the resolution; errors are not.
        self._raise_reported(list(handles.values()), deadlines=False)

        holds_at_abort, dead_rounds = self._holds_at_abort(victims)
        if self.policy is not None and self.policy.mode == "restart":
            result = await self._resolve_restart(
                self.policy, victims, holds_at_abort
            )
            if result is not None:
                return result
        return await self._resolve_replan(victims, dead_rounds, holds_at_abort)

    def _finish_fault_free(self) -> RuntimeResult:
        self._raise_reported(list(self._handles.values()))
        complete = all(
            bool(h.phase1 and h.phase1["complete"])
            for h in self._handles.values()
        )
        holds = [
            int(h.phase1["holds"]) if h.phase1 else 0
            for h in self._handles.values()
        ]
        return self._result(
            mode="fault-free",
            complete=complete,
            coverage=1.0 if complete else self._fill(holds),
            final_holds=holds,
            dead=(),
            components=(),
            survival_rounds=0,
        )

    # -- failure accounting -------------------------------------------------
    def _holds_at_abort(
        self, victims: Set[int]
    ) -> Tuple[List[int], Dict[int, int]]:
        """Hold bitsets at the freeze, reconstructing lost victims.

        A SIGKILLed process takes its memory with it; its holds are
        reconstructed from the offline schedule truncated at the seeded
        death round (:meth:`GossipPlan.holds_at`) — sound because phase
        1 is in lockstep with the offline schedule (the fence barriers
        deliver exactly the offline rounds, in order, until the death).
        """
        holds: List[int] = []
        dead_rounds: Dict[int, int] = {}
        for v in range(self.n):
            snap = self._handles[v].phase1
            if snap is not None:
                holds.append(int(snap["holds"]))
                if snap["died_at"] is not None:
                    dead_rounds[v] = int(snap["died_at"])  # type: ignore[arg-type]
            else:
                death_round = self.chaos.sigkill_round_of(v) or 0
                holds.append(self.plan.holds_at(v, death_round))
                dead_rounds[v] = death_round
        for v in victims:
            snap = self._handles[v].phase1
            dead_rounds.setdefault(
                v, int(snap["rounds_completed"]) if snap else 0
            )
        return holds, dead_rounds

    async def _run_scripts(
        self,
        scripts: Dict[int, PeerScript],
        dead: Tuple[int, ...],
        holds: Sequence[int],
        what: str,
    ) -> List[int]:
        """Drive one scripted phase 2; return the holds it ends with."""
        for v, script in scripts.items():
            self._handles[v].deadline = None
            self._handles[v].send((SCRIPT, script, dead))
        await self._await(
            lambda: all(
                self._handles[v].phase2 is not None
                or not self._handles[v].alive
                for v in scripts
            ),
            what,
        )
        final_holds = list(holds)
        for v in scripts:
            snap = self._handles[v].phase2
            if snap is None:
                raise SupervisorError(
                    f"peer {v} died during the {what}",
                    incidents=self.journal.incidents,
                )
            final_holds[v] = int(snap["holds"])
        self._raise_reported([self._handles[v] for v in scripts])
        return final_holds

    # -- resolution: restart-with-rejoin -------------------------------------
    async def _resolve_restart(
        self, policy: RestartPolicy, victims: Set[int], holds_at_abort: List[int]
    ) -> Optional[RuntimeResult]:
        """Restart victims, resync state, re-complete full gossip.

        Returns ``None`` when any victim exhausted its restart budget
        (declared fail-stop) — the caller then degrades to the replan
        path around *all* victims.
        """
        rejoined: Dict[int, _PeerHandle] = {}
        for victim in sorted(victims):
            handle: Optional[_PeerHandle] = None
            for attempt in range(1, policy.max_restarts + 1):
                self._restarts += 1
                backoff = policy.backoff(attempt)
                self._record(
                    "restart", vertex=victim, attempt=attempt,
                    details=f"backoff {backoff:.3f}s",
                )
                await self._await(
                    lambda: False, "restart backoff",
                    until=self.clock.time() + backoff,
                )
                candidate = self._spawn(victim, rejoin=True, attempt=attempt)
                if await self._await_hello(candidate):
                    handle = candidate
                    break
                self._record(
                    "rejoin-failed", vertex=victim, attempt=attempt,
                    detected_by="sentinel",
                    details=f"exitcode {candidate.exitcode}",
                )
            if handle is None:
                self._record(
                    "fail-stop-declared", vertex=victim,
                    attempt=policy.max_restarts,
                    details="restart budget exhausted",
                )
                return None
            rejoined[victim] = handle

        # Re-rendezvous: fresh ports for the rejoined, revive everywhere.
        book = {
            v: ("127.0.0.1", h.port)
            for v, h in self._handles.items()
            if h.port is not None
        }
        self._broadcast((ADDRS, book))
        for victim in sorted(rejoined):
            self._broadcast((REVIVE, victim))
        self._broadcast((START,))

        adjacency = _tree_adjacency(self.plan.tree)
        live = [v for v in range(self.n) if v not in victims]
        for victim, handle in sorted(rejoined.items()):
            neighbours = [u for u in adjacency[victim] if u not in victims]
            source = neighbours[0] if neighbours else min(live)
            self._record("resync", vertex=victim,
                         details=f"state transfer from peer {source}")
            handle.send((RESYNC, source))
        await self._await(
            lambda: all(
                h.resynced is not None or not h.alive
                for h in rejoined.values()
            ),
            "rejoin state transfer",
        )
        if any(h.resynced is None for h in rejoined.values()):
            self._record(
                "fail-stop-declared",
                vertex=next(
                    v for v, h in rejoined.items() if h.resynced is None
                ),
                details="rejoined process died during state transfer",
            )
            return None

        # Completion: plan fault-free repair rounds from the merged
        # state and script them across the whole fleet.
        holds = list(holds_at_abort)
        for victim, handle in rejoined.items():
            holds[victim] = int(handle.resynced or 0)
        repairs = plan_repair_rounds(
            adjacency, holds, self.n, max_rounds=4 * self.n + 16
        )
        final_holds = await self._run_scripts(
            script_slices(repairs, repairs.total_time), (), holds,
            "rejoin completion schedule",
        )
        full = (1 << self.n) - 1
        complete = all(h == full for h in final_holds)
        if complete:
            self._record(
                "recovered",
                details=f"full gossip re-completed in {repairs.total_time} rounds",
            )
        return self._result(
            mode="rejoin",
            complete=complete,
            coverage=1.0 if complete else self._fill(final_holds),
            final_holds=final_holds,
            dead=(),
            components=(),
            survival_rounds=repairs.total_time,
        )

    async def _await_hello(self, handle: _PeerHandle) -> bool:
        await self._await(
            lambda: handle.port is not None or not handle.alive,
            "rejoin rendezvous",
        )
        return handle.port is not None

    # -- resolution: the survival replan ------------------------------------
    async def _resolve_replan(
        self,
        victims: Set[int],
        dead_rounds: Dict[int, int],
        holds_at_abort: List[int],
    ) -> RuntimeResult:
        """Gossip among survivors: :func:`survive`, driven on the sockets."""
        diag_horizon = max([self.horizon, *dead_rounds.values()])
        model = ObservedDeaths(dead_from=tuple(sorted(dead_rounds.items())))
        faulty = FaultyExecutionResult(
            complete=False,
            total_time=diag_horizon,
            completion_times=[None] * self.n,
            duplicate_deliveries=0,
            final_holds=list(holds_at_abort),
            model=model,
            initial_holds=tuple(labeled_holdings(self.plan.labeled.labels())),
            n_messages=self.n,
        )
        outcome = survive(self.plan.graph, self.plan, faulty)
        scripts = script_slices(
            outcome.schedule.arrays(), outcome.schedule.total_time
        )
        dead = set(outcome.diagnosis.dead)
        for victim in dead & set(scripts):
            raise PeerDeadError(
                f"survival schedule assigns work to dead peer {victim}",
                peer=victim,
            )
        self._record(
            "failover-replan",
            details=(
                f"{outcome.schedule.total_time} survival rounds around "
                f"dead={sorted(dead)}"
            ),
        )
        final_holds = await self._run_scripts(
            scripts, tuple(sorted(dead)), holds_at_abort, "survival replay"
        )
        validate_survival(
            outcome.diagnosis, outcome.labels, final_holds,
            before=holds_at_abort,
        )
        for v in outcome.diagnosis.live:
            if final_holds[v] != outcome.final_holds[v]:
                raise GossipRuntimeError(
                    f"determinism breach: peer {v} ended holding "
                    f"{final_holds[v]:#x}, the replan predicted "
                    f"{outcome.final_holds[v]:#x}"
                )
        return self._result(
            mode="replan",
            complete=False,
            coverage=survivor_coverage(
                outcome.diagnosis, outcome.labels, final_holds
            ),
            final_holds=final_holds,
            dead=outcome.diagnosis.dead,
            components=outcome.diagnosis.components,
            survival_rounds=outcome.schedule.total_time,
        )

    # -- result assembly -------------------------------------------------------
    def _fill(self, holds: Sequence[int]) -> float:
        held = sum(h.bit_count() for h in holds)
        return held / (self.n * self.n) if self.n else 1.0

    def _result(
        self,
        *,
        mode: str,
        complete: bool,
        coverage: float,
        final_holds: Sequence[int],
        dead: Tuple[int, ...],
        components: Tuple[Tuple[int, ...], ...],
        survival_rounds: int,
    ) -> RuntimeResult:
        if not components and not dead:
            components = (tuple(range(self.n)),)
        transcript: List[TranscriptEntry] = []
        survival: List[TranscriptEntry] = []
        retransmissions = 0
        duplicates = 0
        stats = TransportStats()
        rounds_completed = 0
        dead_set = set(dead)
        for v, handle in self._handles.items():
            snap = handle.phase2 or handle.phase1
            if snap is None:
                continue
            transcript.extend(snap["transcript"])  # type: ignore[arg-type]
            survival.extend(snap["survival_transcript"])  # type: ignore[arg-type]
            retransmissions += int(snap["retransmissions"])  # type: ignore[arg-type]
            duplicates += int(snap["duplicates_suppressed"])  # type: ignore[arg-type]
            stats = stats.merged(snap["stats"])  # type: ignore[arg-type]
            if v not in dead_set:
                rounds_completed = max(
                    rounds_completed, int(snap["rounds_completed"])  # type: ignore[arg-type]
                )
        result = RuntimeResult(
            n=self.n,
            horizon=self.horizon,
            complete=complete,
            coverage=coverage,
            wall_seconds=self._elapsed(),
            rounds_completed=rounds_completed,
            transcript=tuple(sorted(transcript, key=lambda e: (e.round, e.sender))),
            survival_transcript=tuple(
                sorted(survival, key=lambda e: (e.round, e.sender))
            ),
            final_holds=tuple(final_holds),
            dead=dead,
            components=components,
            survival_rounds=survival_rounds,
            retransmissions=retransmissions,
            duplicates_suppressed=duplicates,
            stats=stats,
        )
        if self.policy is None:
            return result
        return ProcResult(
            **vars(result),
            mode=mode,
            restarts=self._restarts,
            incidents=self.journal.incidents,
        )

    def _partial_result(self) -> RuntimeResult:
        labels = self.plan.labeled.labels()
        holds: List[int] = []
        for v in range(self.n):
            handle = self._handles.get(v)
            snap = (handle.phase2 or handle.phase1) if handle else None
            holds.append(int(snap["holds"]) if snap else 1 << labels[v])
        return self._result(
            mode="partial",
            complete=False,
            coverage=self._fill(holds),
            final_holds=holds,
            dead=tuple(sorted(self._crashed | self._suspected)),
            components=(),
            survival_rounds=0,
        )

    # -- teardown ------------------------------------------------------------
    async def _shutdown_all(self) -> None:
        self._shutting_down = True
        for handle in self._handles.values():
            handle.send((SHUTDOWN,))
        await self._settle(
            lambda: not any(h.alive for h in self._handles.values()),
            self.clock.time() + _SHUTDOWN_GRACE,
        )
        await self.host.close()


def run_gossip_processes(
    network: "NetworkSpec | GossipPlan",
    *,
    algorithm: str = "concurrent-updown",
    chaos: Optional[NetChaos] = None,
    config: Optional[RuntimeConfig] = None,
    policy: Optional[RestartPolicy] = None,
    time_scale: float = 1.0,
) -> ProcResult:
    """Gossip with one OS process per peer, under supervision.

    The multi-process front door, mirroring
    :func:`~repro.runtime.runner.run_gossip_network`:

    Parameters
    ----------
    network:
        Anything :func:`repro.core.gossip.resolve_network` accepts, or a
        ready-made :class:`~repro.core.gossip.GossipPlan`.
    algorithm:
        Tree-gossiping algorithm for the plan (ignored when a plan is
        passed).
    chaos:
        Socket-level fault profile, including real-crash injection
        (``sigkill``); default none.
    config:
        Runtime timing knobs, shipped to every child.
    policy:
        Death-resolution policy (:class:`RestartPolicy`); default
        ``mode="replan"``.
    time_scale:
        Clock scale in ``(0, 1]`` (1.0 = real time).  Children cannot
        share a Python object, so the scale — not a clock — is what
        travels; the orchestrator keeps a clock of the same scale.

    Raises
    ------
    RuntimeDeadlineError
        A round or the whole-run deadline expired; carries the partial
        :class:`ProcResult`.
    SupervisorError
        A control-plane failure that is not an ordinary peer death.
    """
    if not 0.0 < time_scale <= 1.0:
        raise GossipRuntimeError(f"time_scale {time_scale} not in (0, 1]")
    plan = network if isinstance(network, GossipPlan) else gossip(
        network, algorithm=algorithm
    )
    clock: Clock = RealClock() if time_scale >= 1.0 else ScaledClock(time_scale)

    async def supervise() -> RuntimeResult:
        return await Supervisor(
            plan,
            _ProcessHost(time_scale),
            chaos=chaos if chaos is not None else NetChaos(),
            config=config if config is not None else RuntimeConfig(),
            clock=clock,
            policy=policy if policy is not None else RestartPolicy(),
        ).run()

    return cast(ProcResult, asyncio.run(supervise()))
