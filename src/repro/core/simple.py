"""Procedure Simple (paper Section 3.2, Lemma 1).

The baseline tree-gossiping procedure: first pipeline every message up to
the root so that message ``m >= 1`` reaches the root exactly at time
``m``; once the collection is complete (time ``n - 1``), pump all ``n``
messages down the tree in label order, every vertex relaying to its
children in the round after it receives.

Timing:

* up: the message labelled ``m`` originating at level ``k_m`` is sent by
  its level-``l`` ancestor at time ``m - l`` — each vertex's up-sends
  occupy distinct times, so there are no conflicts;
* down: the root multicasts message ``m`` to all its children at time
  ``n - 2 + m``; a level-``k`` vertex relays it at time ``n - 2 + m + k``.

The last delivery is message ``n - 1`` reaching level ``r`` at time
``2n + r - 3`` — Lemma 1's exact total communication time, independent of
the tree's shape beyond ``n`` and ``r``.  The down phase naively
multicasts to *all* children (the originating subtree included), so the
schedule contains duplicate deliveries; they are legal, and the metrics
module counts them to quantify Simple's waste against ConcurrentUpDown.
"""

from __future__ import annotations

from ..tree.labeling import LabeledTree
from ..tree.tree import Tree
from .gossip import register_algorithm
from .schedule import ArraySchedule, Schedule

__all__ = ["simple_gossip", "simple_gossip_on_tree", "simple_total_time"]


def simple_total_time(n: int, height: int) -> int:
    """Lemma 1's closed form ``2n + r - 3`` (0 for a single vertex)."""
    if n <= 1:
        return 0
    return 2 * n + height - 3


@register_algorithm("simple")
def simple_gossip(labeled: LabeledTree) -> Schedule:
    """Build procedure Simple's schedule for a labelled tree."""
    tree = labeled.tree
    n = labeled.n
    if n <= 1:
        return Schedule.from_arrays(ArraySchedule.from_sends((), n=n, name="Simple"))

    # Up phase: message m climbs one level per round, timed to reach the
    # root at time m.  The ancestor at level l sends it at time m - l.
    sends = []
    for v in range(n):
        if tree.is_root(v):
            continue
        m = labeled.label_of(v)
        ancestor = v
        level = tree.level(v)
        while ancestor != tree.root:
            sends.append((m - level, ancestor, m, (tree.parent(ancestor),)))
            ancestor = tree.parent(ancestor)
            level -= 1

    # Down phase: the root starts message m at time n - 2 + m; every
    # internal vertex relays to all children one level per round.
    for v in range(n):
        kids = tree.children(v)
        if not kids:
            continue
        k = tree.level(v)
        for m in range(n):
            sends.append((n - 2 + m + k, v, m, kids))
    return Schedule.from_arrays(ArraySchedule.from_sends(sends, n=n, name="Simple"))


def simple_gossip_on_tree(tree: Tree) -> Schedule:
    """Convenience wrapper: label ``tree`` then run Simple."""
    return simple_gossip(LabeledTree(tree))
