"""Per-vertex reference emitters for ConcurrentUpDown (differential oracle).

The production halves (:func:`~repro.core.propagate_up.propagate_up_events`
and :func:`~repro.core.propagate_down.propagate_down_events`) are
vectorised sweeps whose correctness is not obvious from the code.  The
emitters here walk the paper's steps (U3)/(U4) and (D2)/(D3) one vertex
at a time, exactly as Section 3.2 states them, and produce plain
``(time, sender, message, destinations)`` send tuples.  UpDown's phase 1
is the same down stream with the held o-messages left stuck, so
:mod:`repro.core.updown` reuses :func:`propagate_down_reference`.
:func:`concurrent_updown_reference` packs both halves through
:meth:`~repro.core.schedule.Schedule.from_sends`, so the overlap is
fused and checked by the same code as every other producer.

The planner benchmark's schedule-identity sweep and the differential
tests compare :func:`~repro.core.concurrent_updown.concurrent_updown`
against this module transmission for transmission.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

from ..tree.labeling import LabeledTree
from ..types import Message, Time
from .schedule import Schedule

__all__ = [
    "propagate_up_reference",
    "propagate_down_reference",
    "concurrent_updown_reference",
]

#: One send: ``(time, sender, message, destinations)``.
Send = Tuple[Time, int, Message, Tuple[int, ...]]


def propagate_up_reference(labeled: LabeledTree) -> List[Send]:
    """All (U3)/(U4) sends, emitted vertex by vertex."""
    sends: List[Send] = []
    tree = labeled.tree
    for v in range(labeled.n):
        if tree.is_root(v):
            continue
        block = labeled.block(v)
        parent = tree.parent(v)
        # (U3): the lip-message, one round ahead of the rip stream.
        if block.is_first_child:
            sends.append((0, v, block.i, (parent,)))
        # (U4): rip-messages i+w .. j, message m at time m - k.
        for m in range(block.i + block.w, block.j + 1):
            sends.append((m - block.k, v, m, (parent,)))
    return sends


def propagate_down_reference(
    labeled: LabeledTree,
    stuck: Optional[Dict[int, List[Tuple[Time, Message]]]] = None,
) -> List[Send]:
    """All (D2)/(D3) sends, emitted vertex by vertex in BFS order.

    With a ``stuck`` dict, the o-messages that arrive on the busy (D3)
    slots ``i - k`` and ``i - k + 1`` are not flushed at ``j - k + 1``
    and ``j - k + 2`` but recorded as ``stuck[v] = [(arrival, message),
    ...]``: UpDown's phase 1, which flushes them in a second phase.
    """
    sends: List[Send] = []
    tree = labeled.tree
    # Downward sends already emitted, per vertex, so each child can
    # reconstruct its arrival stream: (send_time, message, destinations).
    down_sends: Dict[int, List[Tuple[Time, Message, FrozenSet[int]]]] = {
        v: [] for v in range(labeled.n)
    }

    def emit(v: int, time: Time, message: Message, dests: Tuple[int, ...]) -> None:
        if dests:
            sends.append((time, v, message, dests))
            down_sends[v].append((time, message, frozenset(dests)))

    for v in tree.bfs_order():
        kids = tree.children(v)
        if not kids:
            continue  # leaves relay nothing downward
        block = labeled.block(v)
        i, j, k = block.i, block.j, block.k

        # (D3): body messages i..j at times i-k .. j-k.
        for m in range(i, j + 1):
            if m == i:
                send_time = (j - k + 1) if i == k else (i - k)
                emit(v, send_time, m, kids)
            else:
                owner = labeled.owner_child(v, m)
                emit(v, m - k, m, tuple(c for c in kids if c != owner))

        # (D2): forward o-messages arriving from the parent.
        if not tree.is_root(v):
            parent = tree.parent(v)
            arrivals = sorted(
                (send_time + 1, message)
                for (send_time, message, dests) in down_sends[parent]
                if v in dests
            )
            held: List[Tuple[Time, Message]] = []
            for arrival_time, m in arrivals:
                if arrival_time in (i - k, i - k + 1):
                    held.append((arrival_time, m))
                else:
                    emit(v, arrival_time, m, kids)
            if stuck is not None:
                stuck[v] = held
                continue
            for offset, (_, m) in enumerate(held):
                emit(v, j - k + 1 + offset, m, kids)
    return sends


def concurrent_updown_reference(labeled: LabeledTree) -> Schedule:
    """ConcurrentUpDown from the per-vertex emitters.

    Semantically identical to
    :func:`~repro.core.concurrent_updown.concurrent_updown`; used to
    prove the array pipeline bit-identical, round for round.
    """
    sends = propagate_up_reference(labeled) + propagate_down_reference(labeled)
    return Schedule.from_sends(sends, n=labeled.n, name="ConcurrentUpDown")
