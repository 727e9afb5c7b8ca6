"""Graph construction helpers and interop with networkx / trees.

The library keeps its own lean :class:`~repro.networks.graph.Graph`, but
real projects live in a networkx world, so lossless conversion both ways
is provided (vertex ids are normalised to ``0..n-1``).  networkx is
imported only inside the two converters, so ``import repro`` never pays
for it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Hashable, List, Sequence, Tuple

from ..exceptions import GraphError
from ..tree.tree import Tree
from ..types import EdgeList
from .graph import Graph

if TYPE_CHECKING:
    import networkx as nx

__all__ = [
    "from_edges",
    "from_adjacency",
    "from_networkx",
    "to_networkx",
    "tree_to_graph",
    "graph_to_tree",
]


def from_edges(edges: EdgeList, n: int | None = None, name: str = "") -> Graph:
    """Build a graph from an edge list, inferring ``n`` when omitted.

    When ``n`` is omitted it becomes ``max vertex id + 1``; isolated
    trailing vertices therefore need an explicit ``n``.
    """
    edges = [tuple(e) for e in edges]
    if n is None:
        if not edges:
            raise GraphError("cannot infer n from an empty edge list")
        n = max(max(u, v) for u, v in edges) + 1
    return Graph(n, edges, name=name)


def from_adjacency(adjacency: Dict[int, Sequence[int]], name: str = "") -> Graph:
    """Build a graph from a ``vertex -> neighbours`` mapping.

    The mapping's keys must cover ``0..n-1``; each edge may appear in one
    or both directions.
    """
    if not adjacency:
        raise GraphError("empty adjacency mapping")
    n = max(adjacency) + 1
    edges = set()
    for u, neigh in adjacency.items():
        for v in neigh:
            edges.add((u, v) if u < v else (v, u))
    return Graph(n, sorted(edges), name=name)


def from_networkx(g: "nx.Graph", name: str = "") -> Tuple[Graph, Dict[Hashable, int]]:
    """Convert a networkx graph; returns ``(graph, original_id -> new_id)``.

    Vertex ids are relabelled to ``0..n-1`` in sorted order when sortable,
    insertion order otherwise.
    """
    nodes = list(g.nodes())
    try:
        nodes.sort()
    except TypeError:
        pass
    mapping: Dict[Hashable, int] = {node: idx for idx, node in enumerate(nodes)}
    edges = [(mapping[u], mapping[v]) for u, v in g.edges()]
    return Graph(len(nodes), edges, name=name or str(g.name or "")), mapping


def to_networkx(graph: Graph) -> "nx.Graph":
    """Convert to a networkx graph with integer node labels."""
    import networkx as nx

    g = nx.Graph(name=graph.name)
    g.add_nodes_from(range(graph.n))
    g.add_edges_from(graph.edge_list())
    return g


def tree_to_graph(tree: Tree) -> Graph:
    """The tree *as a network*: its parent-child edges and nothing else.

    This is the network on which all communications happen after the
    Section 3.1 reduction.
    """
    edges = [(tree.parent(v), v) for v in range(tree.n) if v != tree.root]
    return Graph(tree.n, edges, name=tree.name or "tree")


def graph_to_tree(graph: Graph, root: int) -> Tree:
    """Interpret an ``n``-vertex, ``n-1``-edge connected graph as a tree.

    Raises :class:`GraphError` when the graph is not a tree or ``root``
    cannot reach every vertex.
    """
    if graph.m != graph.n - 1:
        raise GraphError(
            f"a tree on {graph.n} vertices has {graph.n - 1} edges, got {graph.m}"
        )
    parents: List[int] = [-2] * graph.n
    parents[root] = -1
    stack = [root]
    seen = 1
    while stack:
        u = stack.pop()
        for v in graph.neighbors(u):
            if parents[v] == -2:
                parents[v] = u
                seen += 1
                stack.append(v)
    if seen != graph.n:
        raise GraphError("graph is disconnected; not a tree")
    return Tree(parents, root=root, name=graph.name)
