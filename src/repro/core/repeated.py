"""Repeated (pipelined) gossiping on a fixed tree.

Section 4: *"In many applications, one has to execute the gossiping
algorithms a large number of times, so that is why it is important to
perform gossiping in a tree efficiently.  The construction of the tree
is performed only when there is a change in the network."*

This module takes the amortisation one step further: when ``k`` gossip
operations run back to back (each processor contributes one fresh
message per *instance* — think iterative solvers doing one all-gather
per iteration), the instances can be **pipelined**: instance ``q`` starts
``q * offset`` rounds after instance 0 rather than waiting for it to
finish.  The minimal safe offset is found by calendar search: the
smallest shift at which instance 1's sends and receives collide with
instance 0's nowhere (then, because every instance is an identical
time-shifted copy, *all* pairs are conflict-free at multiples of that
offset — verified by construction when the combined schedule is built).

Message ids: instance ``q``'s message with DFS label ``m`` becomes
``q * n + m``.

Capacity says the offset cannot beat ``n - 1`` (every processor must
receive ``n - 1`` fresh messages per instance, one per round), so at most
``r + 1`` rounds per instance could ever be saved.  The measured finding
(``benchmarks/bench_repeated_gossip.py``) is that ConcurrentUpDown leaves
almost none of even that slack: a level-``k`` vertex's receive calendar
is the full interval ``[1, n + k]`` minus just two holes, so a shifted
copy collides at every offset below ≈ ``n + r`` — the schedules are
*receive-saturated*.  Consequence: the paper's amortisation advice
("construct the tree only when the network changes") is about the O(mn)
tree construction, not about overlapping successive gossips; steady-state
cost per gossip stays ``n + r`` (the star, whose leaves sit at level 1,
is the one family that squeezes out a round).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # the engine is only imported lazily, inside execute()
    from ..simulator.engine import ExecutionResult

from ..exceptions import ReproError, ScheduleConflictError
from ..tree.labeling import LabeledTree
from .concurrent_updown import concurrent_updown
from .schedule import Schedule

__all__ = ["RepeatedGossipPlan", "minimal_pipeline_offset", "repeated_gossip"]


def _clash_shifts(calendar: np.ndarray) -> np.ndarray:
    """``clash[d]``: some row of the 0/1 ``calendar`` has both ``t`` and
    ``t + d`` set.

    The sum over rows of each row's autocorrelation, by FFT.  Every
    entry is an integer count no larger than ``calendar.sum()``, so the
    float round-off (far below 0.5 at any size a schedule reaches) never
    moves a count across the ``> 0.5`` threshold.
    """
    width = calendar.shape[1]
    spectrum = np.fft.rfft(calendar, n=2 * width, axis=1)
    power = (spectrum.real**2 + spectrum.imag**2).sum(axis=0)
    return np.fft.irfft(power, n=2 * width)[:width] > 0.5


def minimal_pipeline_offset(schedule: Schedule) -> int:
    """Smallest shift at which a time-shifted copy never collides.

    Checks sender and receiver calendars of the schedule against its own
    copy shifted by each candidate offset, starting from the capacity
    floor (no processor may receive two messages in one round, so the
    offset is at least the maximum per-vertex receive count).  The
    calendars are read off the columns: sender ``s`` is busy at each of
    its rows' rounds, destination ``d`` at each delivery's round + 1.
    """
    if not schedule.total_messages():
        return 0
    horizon = schedule.total_time
    rows, dests = schedule.destination_pairs()
    sends = np.zeros((schedule.n, horizon + 1), dtype=np.float64)
    sends[schedule.sender, schedule.round] = 1.0
    recvs = np.zeros_like(sends)
    recvs[dests, schedule.round[rows] + 1] = 1.0
    floor = max(int(recvs.sum(axis=1).max()), 1)
    clash = _clash_shifts(sends) | _clash_shifts(recvs)
    for offset in range(floor, horizon + 1):
        # Instances q < q' are shifted by (q' - q) * offset; only shifts
        # up to the horizon can ever overlap, so check those multiples.
        if not clash[offset : horizon + 1 : offset].any():
            return offset
    return horizon  # sequential fallback: no overlap possible


@dataclass(frozen=True)
class RepeatedGossipPlan:
    """``k`` pipelined gossip instances on one labelled tree.

    Attributes
    ----------
    labeled:
        The communication tree (fixed across instances, per Section 4).
    instances:
        Number of gossip operations ``k``.
    offset:
        Rounds between consecutive instance starts.
    schedule:
        The combined schedule; message ``q * n + m`` is instance ``q``'s
        message with DFS label ``m``.
    """

    labeled: LabeledTree
    instances: int
    offset: int
    schedule: Schedule

    @property
    def total_time(self) -> int:
        """Makespan of all ``k`` instances."""
        return self.schedule.total_time

    @property
    def sequential_time(self) -> int:
        """What running the instances back to back would cost."""
        single = concurrent_updown(self.labeled).total_time
        return self.instances * single

    @property
    def amortised_time(self) -> float:
        """Average rounds per gossip instance in steady state."""
        return self.total_time / self.instances

    def execute(self) -> "ExecutionResult":
        """Validate on the simulator with per-instance message spaces."""
        from ..networks.builders import tree_to_graph
        from ..simulator.engine import execute_schedule

        n = self.labeled.n
        holds = [0] * n
        for v in range(n):
            for q in range(self.instances):
                holds[v] |= 1 << (q * n + self.labeled.label_of(v))
        return execute_schedule(
            tree_to_graph(self.labeled.tree),
            self.schedule,
            initial_holds=holds,
            n_messages=self.instances * n,
            require_complete=True,
        )


def repeated_gossip(
    labeled: LabeledTree, instances: int, offset: int | None = None
) -> RepeatedGossipPlan:
    """Pipeline ``instances`` ConcurrentUpDown gossips on one tree.

    ``offset`` defaults to :func:`minimal_pipeline_offset` of the single
    schedule.  Raises :class:`ReproError` when a supplied offset causes a
    collision (packing the shifted copies proves safety as a side effect).
    The arrays declare ``n_messages = instances * n``: instance ``q``'s
    message with DFS label ``m`` is ``q * n + m``.
    """
    if instances < 1:
        raise ReproError("need at least one gossip instance")
    single = concurrent_updown(labeled)
    if offset is None:
        offset = minimal_pipeline_offset(single)
    n = labeled.n
    q = np.repeat(np.arange(instances, dtype=np.int64), single.total_messages())
    try:
        schedule = Schedule.from_events(
            np.tile(single.round, instances) + q * offset,
            np.tile(single.sender, instances),
            np.tile(single.message, instances) + q * n,
            np.tile(single.dest_mask, (instances, 1)),
            n=n,
            n_messages=instances * n,
            name=f"ConcurrentUpDown-x{instances}",
        )
    except ScheduleConflictError as exc:
        raise ReproError(
            f"offset {offset} is unsafe for pipelined gossip: {exc}"
        ) from exc
    return RepeatedGossipPlan(
        labeled=labeled, instances=instances, offset=offset,
        schedule=schedule,
    )
