"""The in-process host: one asyncio task per peer, in this interpreter.

:func:`run_gossip_network` is the runtime's in-process front door.  It
plans gossip with the offline pipeline (:func:`repro.core.gossip`) and
hands the run to the one orchestrator,
:class:`~repro.runtime.supervisor.Supervisor`, over :class:`_TaskHost`:
every peer runs :func:`~repro.runtime.proc.run_peer` as an asyncio task
in the orchestrator's event loop, on its own localhost UDP socket.  Its
control channel is an :class:`asyncio.Queue` of the command tuples the
process host pickles onto a pipe; its reports are plain calls into the
orchestrator.  Peers learn everything only from datagrams.

What differs from :func:`~repro.runtime.supervisor.run_gossip_processes`
is the host alone: ``NetChaos.sigkill`` is ignored (an in-process peer
cannot be SIGKILLed on its own), deaths always resolve by the replan
(no restart policy), and the result is a plain
:class:`~repro.runtime.supervisor.RuntimeResult`.
"""

from __future__ import annotations

import asyncio
from typing import Callable, List, Optional, Tuple

from ..core.gossip import GossipPlan, NetworkSpec, gossip
from .clock import Clock, RealClock
from .peer import RuntimeConfig
from .proc import PeerSpec, Report, run_peer
from .supervisor import RuntimeResult, Send, Supervisor
from .transport import NetChaos

__all__ = ["run_gossip_network"]


class _TaskHost:
    """Each peer is an asyncio task; its control channel a queue."""

    def __init__(self, clock: Clock) -> None:
        self.clock = clock
        self._tasks: List["asyncio.Task[None]"] = []

    def start(
        self,
        spec: PeerSpec,
        report: Report,
        exited: Callable[[Optional[int]], None],
    ) -> Send:
        inbox: "asyncio.Queue[Tuple[object, ...]]" = asyncio.Queue()
        task = asyncio.ensure_future(run_peer(spec, self.clock, report, inbox))
        task.add_done_callback(lambda t: exited(None if t.cancelled() else 0))
        self._tasks.append(task)
        return inbox.put_nowait

    async def close(self) -> None:
        for task in self._tasks:
            task.cancel()
        await asyncio.gather(*self._tasks, return_exceptions=True)


def run_gossip_network(
    network: "NetworkSpec | GossipPlan",
    *,
    algorithm: str = "concurrent-updown",
    chaos: Optional[NetChaos] = None,
    config: Optional[RuntimeConfig] = None,
    clock: Optional[Clock] = None,
) -> RuntimeResult:
    """Gossip for real: UDP peers on localhost executing the online plan.

    Parameters
    ----------
    network:
        Anything :func:`repro.core.gossip.resolve_network` accepts (a
        ``Graph``, a ``Tree``, or a family string like ``"grid:16"``),
        or a ready-made :class:`GossipPlan`.
    algorithm:
        Tree-gossiping algorithm for the plan (ignored when a plan is
        passed).
    chaos:
        Socket-level fault profile; default none (a fault-free run).
    config:
        Runtime timing knobs (:class:`~repro.runtime.peer.RuntimeConfig`).
    clock:
        Injectable clock; default :class:`~repro.runtime.clock.RealClock`.

    Raises
    ------
    RuntimeDeadlineError
        A round or the whole run missed its deadline; carries the
        partial :class:`RuntimeResult`.
    """
    plan = network if isinstance(network, GossipPlan) else gossip(
        network, algorithm=algorithm
    )
    run_clock = clock if clock is not None else RealClock()

    async def orchestrate() -> RuntimeResult:
        return await Supervisor(
            plan,
            _TaskHost(run_clock),
            chaos=chaos if chaos is not None else NetChaos(),
            config=config if config is not None else RuntimeConfig(),
            clock=run_clock,
        ).run()

    return asyncio.run(orchestrate())
