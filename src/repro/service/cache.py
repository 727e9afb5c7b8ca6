"""Thread-safe LRU plan cache keyed by content fingerprints.

The cache maps :data:`PlanKey` triples — ``(graph fingerprint, tree
fingerprint, algorithm)`` — to :class:`~repro.core.gossip.GossipPlan`
objects.  Keys are *content-addressed*: the graph part is
:meth:`Graph.canonical_hash` (equal labeled graphs collide on purpose),
and the tree part pins plans that were built for an explicitly
maintained spanning tree (empty string for the canonical minimum-depth
tree, which is a pure function of the graph).

Two bounds keep a long-lived service from growing without limit:

* ``max_entries`` — LRU entry count;
* ``max_weight`` — summed plan weight in *bytes* of the canonical
  schedule arrays (:attr:`Schedule.nbytes
  <repro.core.schedule.Schedule.nbytes>`: the flat columns plus
  the destination-mask matrix, whether or not the mask has
  materialised).  ``None`` disables the weight bound.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Callable, List, Optional, Tuple

from ..core.gossip import GossipPlan
from ..exceptions import ReproError
from ..tree.tree import Tree

__all__ = ["PlanCache", "PlanKey", "tree_fingerprint", "plan_weight"]

#: Cache key: (graph canonical hash, tree fingerprint or "", algorithm name).
PlanKey = Tuple[str, str, str]


def tree_fingerprint(tree: Optional[Tree]) -> str:
    """Stable content fingerprint of a rooted ordered tree ("" for None).

    Covers the root, the parent array, and the per-vertex child order —
    everything that determines the DFS labelling and therefore the
    schedule.  Like :meth:`Graph.canonical_hash`, this is stable across
    processes (no salted ``hash()``).
    """
    if tree is None:
        return ""
    h = hashlib.sha256()
    h.update(tree.root.to_bytes(8, "little"))
    for p in tree.parents():
        h.update(p.to_bytes(8, "little", signed=True))
    for v in tree.vertices():
        for c in tree.children(v):
            h.update(c.to_bytes(8, "little"))
        h.update(b"/")
    return h.hexdigest()


def plan_weight(plan: GossipPlan) -> int:
    """Cache weight of one plan: its canonical schedule arrays' bytes.

    ``plan.schedule.nbytes`` is an analytic property of the schedule
    shape (it charges the destination-mask matrix whether or not it has
    materialised), so a plan's weight never changes across its cache
    lifetime — the invariant the accounting in :meth:`PlanCache.put`
    relies on.
    """
    return plan.schedule.nbytes


class PlanCache:
    """A bounded, thread-safe LRU cache of :class:`GossipPlan` objects.

    All operations take the internal lock, so the cache may be shared
    freely between threads; compound read-modify-write sequences that
    must be atomic across *several* calls should hold :attr:`lock`.
    """

    def __init__(self, max_entries: int = 256, max_weight: Optional[int] = None) -> None:
        if max_entries < 1:
            raise ReproError(f"cache needs max_entries >= 1, got {max_entries}")
        if max_weight is not None and max_weight < 1:
            raise ReproError(f"cache needs max_weight >= 1, got {max_weight}")
        self.lock = threading.RLock()
        self._max_entries = max_entries
        self._max_weight = max_weight
        self._entries: "OrderedDict[PlanKey, GossipPlan]" = OrderedDict()
        self._weight = 0

    # ------------------------------------------------------------------
    @property
    def max_entries(self) -> int:
        """LRU capacity in entries."""
        return self._max_entries

    @property
    def max_weight(self) -> Optional[int]:
        """Total weight bound (``None`` = unbounded)."""
        return self._max_weight

    @property
    def weight(self) -> int:
        """Summed weight of the cached plans."""
        with self.lock:
            return self._weight

    def __len__(self) -> int:
        with self.lock:
            return len(self._entries)

    def __contains__(self, key: PlanKey) -> bool:
        with self.lock:
            return key in self._entries

    def keys(self) -> List[PlanKey]:
        """Cached keys, least- to most-recently used."""
        with self.lock:
            return list(self._entries)

    # ------------------------------------------------------------------
    def get(self, key: PlanKey) -> Optional[GossipPlan]:
        """Look up ``key``, refreshing its LRU position on a hit."""
        with self.lock:
            plan = self._entries.get(key)
            if plan is not None:
                self._entries.move_to_end(key)
            return plan

    def put(self, key: PlanKey, plan: GossipPlan) -> int:
        """Insert (or refresh) ``key``; returns how many entries were evicted.

        A plan heavier than ``max_weight`` on its own is still admitted
        (the bound then holds every *other* entry out), so oversized
        requests degrade to cache-bypass rather than erroring.
        """
        evicted = 0
        w = plan_weight(plan)
        with self.lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._weight -= plan_weight(old)
            self._entries[key] = plan
            self._weight += w
            while len(self._entries) > self._max_entries or (
                self._max_weight is not None
                and self._weight > self._max_weight
                and len(self._entries) > 1
            ):
                _, victim = self._entries.popitem(last=False)
                self._weight -= plan_weight(victim)
                evicted += 1
        return evicted

    # ------------------------------------------------------------------
    def invalidate(self, key: PlanKey) -> bool:
        """Drop one entry; returns whether it existed."""
        with self.lock:
            plan = self._entries.pop(key, None)
            if plan is None:
                return False
            self._weight -= plan_weight(plan)
            return True

    def invalidate_where(
        self, predicate: Callable[[PlanKey, GossipPlan], bool]
    ) -> int:
        """Drop every entry matching ``predicate``; returns the count."""
        with self.lock:
            doomed = [k for k, p in self._entries.items() if predicate(k, p)]
            for k in doomed:
                self._weight -= plan_weight(self._entries.pop(k))
            return len(doomed)

    def items_where(
        self, predicate: Callable[[PlanKey, GossipPlan], bool]
    ) -> List[Tuple[PlanKey, GossipPlan]]:
        """Snapshot of entries matching ``predicate`` (no LRU refresh)."""
        with self.lock:
            return [(k, p) for k, p in self._entries.items() if predicate(k, p)]

    def clear(self) -> int:
        """Drop everything; returns how many entries were held."""
        with self.lock:
            n = len(self._entries)
            self._entries.clear()
            self._weight = 0
            return n

    def __repr__(self) -> str:
        with self.lock:
            return (
                f"PlanCache(entries={len(self._entries)}/{self._max_entries}, "
                f"weight={self._weight}"
                + (f"/{self._max_weight}" if self._max_weight is not None else "")
                + ")"
            )
