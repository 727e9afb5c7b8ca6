"""Tree maintenance for slowly-changing networks.

Section 4: *"The construction of the tree is performed only when there
is a change in the network, which we assume remains constant for long
periods of time."*  :class:`TreeMaintainer` turns that sentence into an
object with an explicit policy:

* ``"eager"`` — rebuild the minimum-depth tree on *every* topology
  change (the paper's literal reading): the schedule-length guarantee
  stays ``n + radius`` at all times.
* ``"lazy"`` — keep the current tree as long as it is still *valid*
  (all its edges exist); rebuild only when a tree edge disappears.  Far
  fewer O(mn) rebuilds, at the cost of a quantified staleness: the
  guarantee degrades to ``n + height(current tree)``, and
  :attr:`TreeMaintainer.height_gap` reports how far above the true
  radius that is.

Maintainers are immutable: mutation methods return a new maintainer and
carry a cumulative ``rebuilds`` counter, so amortisation is measurable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Literal

if TYPE_CHECKING:  # avoid a networks -> core import cycle at load time
    from ..core.gossip import GossipPlan

from ..exceptions import GraphError, ReproError
from ..tree.tree import Tree
from .graph import Graph
from .properties import radius
from .spanning_tree import minimum_depth_spanning_tree

__all__ = ["TreeMaintainer"]

Policy = Literal["eager", "lazy"]


@dataclass(frozen=True)
class TreeMaintainer:
    """A network plus a maintained communication tree.

    Build with :meth:`create`; evolve with :meth:`add_edge` /
    :meth:`remove_edge`; hand :attr:`tree` to
    :func:`repro.core.gossip.gossip` (via its ``tree=`` parameter) to
    schedule on the maintained tree.
    """

    graph: Graph
    tree: Tree
    policy: Policy
    rebuilds: int

    @classmethod
    def create(cls, graph: Graph, policy: Policy = "eager") -> "TreeMaintainer":
        """Start maintaining ``graph`` (one initial tree construction)."""
        if policy not in ("eager", "lazy"):
            raise ReproError(f"unknown maintenance policy {policy!r}")
        return cls(
            graph=graph,
            tree=minimum_depth_spanning_tree(graph),
            policy=policy,
            rebuilds=1,
        )

    # ------------------------------------------------------------------
    def add_edge(self, u: int, v: int) -> "TreeMaintainer":
        """Insert a link.  The old tree stays valid; ``lazy`` keeps it
        (new shortcuts may reduce the radius — see :attr:`height_gap`),
        ``eager`` rebuilds."""
        return self._evolve(self.graph.add_edges([(u, v)]))

    def remove_edge(self, u: int, v: int) -> "TreeMaintainer":
        """Remove a link.  Rebuilds when the edge was a tree edge (the
        tree is broken) or the policy is eager; raises
        :class:`~repro.exceptions.GraphError` when removal disconnects
        the network or the edge is absent."""
        new_graph = self.graph.remove_edges([(u, v)])
        from .bfs import is_connected

        if not is_connected(new_graph):
            raise GraphError(
                f"removing ({u}, {v}) would disconnect the network"
            )
        tree_edge = self.tree.parent(u) == v or self.tree.parent(v) == u
        if self.policy == "eager" or tree_edge:
            return TreeMaintainer(
                graph=new_graph,
                tree=minimum_depth_spanning_tree(new_graph),
                policy=self.policy,
                rebuilds=self.rebuilds + 1,
            )
        return TreeMaintainer(
            graph=new_graph, tree=self.tree, policy=self.policy, rebuilds=self.rebuilds
        )

    def _evolve(self, new_graph: Graph) -> "TreeMaintainer":
        if self.policy == "eager":
            return TreeMaintainer(
                graph=new_graph,
                tree=minimum_depth_spanning_tree(new_graph),
                policy=self.policy,
                rebuilds=self.rebuilds + 1,
            )
        return TreeMaintainer(
            graph=new_graph, tree=self.tree, policy=self.policy, rebuilds=self.rebuilds
        )

    # ------------------------------------------------------------------
    @property
    def schedule_bound(self) -> int:
        """The current guarantee: ``n + height(maintained tree)``."""
        return self.graph.n + self.tree.height

    @property
    def height_gap(self) -> int:
        """Staleness of a lazy tree: ``height - radius`` (0 when fresh).

        Costs one O(mn) sweep to evaluate — call it to *decide* whether a
        lazy rebuild is worth it, not on every operation.
        """
        return self.tree.height - radius(self.graph)

    def refreshed(self) -> "TreeMaintainer":
        """Force a rebuild now (e.g. after :attr:`height_gap` grew)."""
        return TreeMaintainer(
            graph=self.graph,
            tree=minimum_depth_spanning_tree(self.graph),
            policy=self.policy,
            rebuilds=self.rebuilds + 1,
        )

    def plan(self, algorithm: str = "concurrent-updown") -> "GossipPlan":
        """Schedule gossiping on the maintained tree."""
        from ..core.gossip import gossip

        return gossip(self.graph, algorithm=algorithm, tree=self.tree)
