"""Algorithm UpDown (Gonzalez 2000 [15]) — two-phase reconstruction.

The paper describes UpDown by its phase structure and cost: a first
phase that propagates all messages to the root while already pushing
messages down, taking ``n - 1 + r`` steps, and a clean-up second phase
flushing "some messages that got stuck in the network", taking
``2(r - 1) + 1`` steps — total budget ``n + 3r - 2``.  ConcurrentUpDown
is then introduced as the observation that "all the operations can be
carried out in a single stage".

That sentence pins the reconstruction (full pseudo-code is in the
companion paper, which is not part of the supplied text — see
DESIGN.md): UpDown runs the *same* upward stream (U1–U4) and the same
cut-through downward stream (D2/D3), except that the two o-messages per
vertex that land on the busy (D3) slots ``i - k`` and ``i - k + 1`` are
not squeezed into the tight inline slots ``j - k + 1`` / ``j - k + 2``
(ConcurrentUpDown's single-stage trick) — they stay *stuck* until a
dedicated flush phase:

* **Phase 1** (the overlap of Propagate-Up and the non-stuck part of
  Propagate-Down): the root holds all messages by time ``n - 1``; every
  message except the stuck ones reaches everyone on the
  ConcurrentUpDown timetable.
* **Phase 2** (starting at ``T0 = n - 1 + r``): every vertex flushes its
  stuck queue and relays its ancestors' flushed messages at the first
  conflict-free slot.  A level-``k`` vertex relays at most ``2k``
  phase-2 messages, and the pipeline drains within ``2(r - 1) + 1``
  rounds — the paper's phase-2 budget.

The measured totals are checked against ``n + 3r - 2`` across topology
sweeps in the test suite and ``benchmarks/bench_updown_twophase.py``.

A *greedy* store-and-forward variant (no timetable, no lookahead) is
kept as :func:`~repro.core.store_forward.greedy_updown_gossip`; it is
the constructive fallback quantified by the no-lip ablation.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from ..tree.labeling import LabeledTree
from ..tree.tree import Tree
from ..types import Message, Time
from .gossip import register_algorithm
from .propagate_up import propagate_up_events
from .reference import propagate_down_reference
from .schedule import Schedule

__all__ = ["updown_gossip", "updown_gossip_on_tree", "updown_total_time_bound"]


def updown_total_time_bound(n: int, height: int) -> int:
    """The paper's two-phase budget ``(n - 1 + r) + (2(r - 1) + 1)``.

    Equals ``n + 3r - 2``; degenerates to 0 for single-vertex trees.
    """
    if n <= 1:
        return 0
    return (n - 1 + height) + (2 * (height - 1) + 1)


@register_algorithm("updown")
def updown_gossip(labeled: LabeledTree) -> Schedule:
    """Build the two-phase UpDown schedule for a labelled tree.

    Phase 1 emits the Propagate-Up events plus the immediate (D2)/(D3)
    downward events; the per-vertex stuck messages are collected instead
    of being inlined.  Phase 2 flushes them level by level using
    explicit send/receive calendars, so the result is conflict-free by
    construction (and re-checked when the sends are packed).
    """
    tree = labeled.tree
    n = labeled.n
    if n <= 1:
        return Schedule.from_sends((), n=n, name="UpDown")

    # Phase 1: the (U3)/(U4) up half (unicasts to the parent) plus the
    # immediate (D2)/(D3) down stream, with the stuck o-messages held back.
    stuck: Dict[int, List[Tuple[Time, Message]]] = {}
    sends = [
        (t, v, m, (tree.parent(v),))
        for t, v, m in zip(*(col.tolist() for col in propagate_up_events(labeled)))
    ]
    sends += propagate_down_reference(labeled, stuck=stuck)
    # Calendars of *all* phase-1 activity, so phase 2 can slot around it.
    send_busy: List[Set[Time]] = [set() for _ in range(n)]
    recv_busy: List[Set[Time]] = [set() for _ in range(n)]
    for t, v, _, dests in sends:
        send_busy[v].add(t)
        for d in dests:
            recv_busy[d].add(t + 1)

    # ------------------------------------------------------------------
    # Phase 2: flush stuck messages from T0 = n - 1 + r downward.
    # ------------------------------------------------------------------
    t0 = (n - 1) + tree.height
    flushed_arrivals: Dict[int, List[Tuple[Time, Message]]] = {
        v: [] for v in range(n)
    }
    for v in tree.bfs_order():
        kids = tree.children(v)
        if not kids:
            continue
        items = sorted(
            [(max(t0, arrival), m) for arrival, m in stuck.get(v, [])]
            + flushed_arrivals[v]
        )
        for avail, m in items:
            t = avail
            while t in send_busy[v] or any(t + 1 in recv_busy[c] for c in kids):
                t += 1
            sends.append((t, v, m, kids))
            send_busy[v].add(t)
            for c in kids:
                recv_busy[c].add(t + 1)
                flushed_arrivals[c].append((t + 1, m))

    return Schedule.from_sends(sends, n=n, name="UpDown")


def updown_gossip_on_tree(tree: Tree) -> Schedule:
    """Convenience wrapper: label ``tree`` then run UpDown."""
    return updown_gossip(LabeledTree(tree))
