"""Weighted gossiping (paper Section 4).

Each processor ``p`` holds ``l_p >= 1`` messages and everyone must end
with all ``N = sum(l_p)`` messages.  The paper's recipe: *"replace a
processor that needs to send l messages with a chain with l processors.
In practice, one only mimics this splitting process."*

We implement the splitting literally and transparently:

* :func:`expand_weighted_tree` replaces every vertex ``v`` of weight
  ``l`` by a chain of ``l`` virtual processors — the top one takes ``v``'s
  link to its parent, the bottom one adopts ``v``'s children — and
  returns the virtual→real map;
* :func:`weighted_gossip` builds the chain-expanded tree from the
  network's minimum-depth spanning tree, runs ConcurrentUpDown on it, and
  returns a :class:`WeightedGossipPlan` whose schedule is valid and
  complete on the *expanded* network in exactly ``N + r'`` rounds, where
  ``r'`` is the expanded tree's height (``r' <= r + sum of extra chain
  hops on the deepest path``).

The "mimicking" caveat: projecting virtual processors back onto real
hardware means a real processor may need to perform two virtual sends in
one round (its chain-top talking to the parent while its chain-bottom
talks to the children).  The expanded-network schedule is the object the
paper's bound speaks about; :meth:`WeightedGossipPlan.real_round_load`
quantifies how much per-round parallelism the mimicry actually needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:  # the engine is only imported lazily, inside execute()
    from ..simulator.engine import ExecutionResult

from ..exceptions import ReproError
from ..networks.builders import tree_to_graph
from ..networks.graph import Graph
from ..networks.spanning_tree import minimum_depth_spanning_tree
from ..tree.labeling import LabeledTree
from ..tree.tree import Tree
from .concurrent_updown import concurrent_updown
from .schedule import Schedule

__all__ = ["expand_weighted_tree", "weighted_gossip", "WeightedGossipPlan"]


def expand_weighted_tree(
    tree: Tree, weights: Sequence[int]
) -> Tuple[Tree, List[int]]:
    """Chain-expand a weighted tree.

    Returns ``(expanded_tree, owner)`` where ``owner[virtual] = real``.
    Virtual ids are assigned so that each real vertex's chain is
    contiguous top-down; message ``m`` of the expanded instance
    originates at virtual vertex with DFS label ``m`` as usual.
    """
    if len(weights) != tree.n:
        raise ReproError(f"need one weight per vertex, got {len(weights)}")
    for v, w in enumerate(weights):
        if w < 1:
            raise ReproError(f"vertex {v} has weight {w}; weights must be >= 1")
    # Allocate virtual ids: chain of v occupies chain_top[v] .. chain_top[v]+w-1.
    chain_top: List[int] = []
    total = 0
    for v in range(tree.n):
        chain_top.append(total)
        total += int(weights[v])
    owner: List[int] = [0] * total
    parents: List[int] = [0] * total
    for v in range(tree.n):
        top = chain_top[v]
        w = int(weights[v])
        for offset in range(w):
            owner[top + offset] = v
        # chain-internal links
        for offset in range(1, w):
            parents[top + offset] = top + offset - 1
        # the chain top links where v linked
        p = tree.parent(v)
        if p < 0:
            parents[top] = -1
            root = top
        else:
            parents[top] = chain_top[p] + int(weights[p]) - 1  # parent's chain bottom
    expanded = Tree(parents, root=root, name=f"{tree.name or 'tree'}-weighted")
    return expanded, owner


@dataclass(frozen=True)
class WeightedGossipPlan:
    """Result of weighted gossiping via chain expansion.

    Attributes
    ----------
    graph:
        The original network.
    tree:
        The minimum-depth spanning tree of the original network.
    weights:
        The per-real-processor message counts.
    expanded:
        The chain-expanded labelled tree (the instance actually solved).
    owner:
        ``owner[virtual] = real`` vertex map.
    schedule:
        The ConcurrentUpDown schedule on the expanded tree; message ids
        are the expanded tree's DFS labels.
    """

    graph: Graph
    tree: Tree
    weights: Tuple[int, ...]
    expanded: LabeledTree
    owner: Tuple[int, ...]
    schedule: Schedule

    @property
    def total_messages(self) -> int:
        """``N = sum(l_p)`` — the number of distinct messages."""
        return self.expanded.n

    @property
    def total_time(self) -> int:
        """The schedule's total communication time (= ``N + r'``)."""
        return self.schedule.total_time

    @property
    def bound(self) -> int:
        """Theorem 1 applied to the expanded tree: ``N + height'``."""
        return self.expanded.n + self.expanded.height

    def execute(self) -> "ExecutionResult":
        """Validate the schedule on the expanded network (raises on error)."""
        from ..simulator.engine import execute_schedule
        from ..simulator.state import labeled_holdings

        return execute_schedule(
            tree_to_graph(self.expanded.tree),
            self.schedule,
            initial_holds=labeled_holdings(self.expanded.labels()),
            require_complete=True,
        )

    def messages_of_real(self, real_vertex: int) -> List[int]:
        """The DFS labels of the messages originating at a real processor."""
        return [
            self.expanded.label_of(virt)
            for virt in range(self.expanded.n)
            if self.owner[virt] == real_vertex
        ]

    def real_round_load(self) -> Dict[int, int]:
        """Max simultaneous virtual sends per real processor.

        ``1`` everywhere means the expanded schedule projects onto real
        hardware without extra parallelism; larger values quantify the
        paper's "mimicking" requirement.
        """
        worst: Dict[int, int] = {v: 0 for v in range(self.graph.n)}
        schedule = self.schedule
        owner = np.asarray(self.owner, dtype=np.int64)
        rows, dests = schedule.destination_pairs()
        real = owner[schedule.sender]
        # chain-internal transmissions are bookkeeping, not wire traffic
        external = np.zeros(schedule.total_messages(), dtype=bool)
        external[rows[owner[dests] != real[rows]]] = True
        keys, counts = np.unique(
            schedule.round[external].astype(np.int64) * self.graph.n + real[external],
            return_counts=True,
        )
        for key, count in zip(keys.tolist(), counts.tolist()):
            v = key % self.graph.n
            worst[v] = max(worst[v], count)
        return worst


def weighted_gossip(graph: Graph, weights: Sequence[int]) -> WeightedGossipPlan:
    """Solve weighted gossiping on ``graph`` with per-processor ``weights``.

    Builds the minimum-depth spanning tree, chain-expands it, and runs
    ConcurrentUpDown on the expansion; the returned plan's schedule takes
    exactly ``N + r'`` rounds.
    """
    tree = minimum_depth_spanning_tree(graph)
    expanded_tree, owner = expand_weighted_tree(tree, weights)
    labeled = LabeledTree(expanded_tree)
    schedule = concurrent_updown(labeled).with_name("ConcurrentUpDown-weighted")
    return WeightedGossipPlan(
        graph=graph,
        tree=tree,
        weights=tuple(int(w) for w in weights),
        expanded=labeled,
        owner=tuple(owner),
        schedule=schedule,
    )
