"""Network (graph) substrate: topology model, generators, and analysis.

Public surface:

* :class:`~repro.networks.graph.Graph` / :class:`~repro.networks.graph.GraphBuilder`
  — the immutable network representation;
* :mod:`~repro.networks.topologies` — deterministic generators;
* :mod:`~repro.networks.paper_networks` — the figures of the paper;
* :mod:`~repro.networks.random_graphs` — seeded random families;
* BFS / radius / center / spanning-tree machinery implementing the
  paper's Section 3.1 preprocessing.
"""

from .bfs import (
    UNREACHED,
    all_eccentricities,
    bfs_levels,
    bfs_tree,
    connected_components,
    distance_matrix,
    eccentricity,
    is_connected,
    require_connected,
    shortest_path,
)
from .dynamic import TreeMaintainer
from .builders import (
    from_adjacency,
    from_edges,
    from_networkx,
    graph_to_tree,
    to_networkx,
    tree_to_graph,
)
from .graph import Graph, GraphBuilder
from .paper_networks import (
    fig1_ring,
    fig4_network,
    fig5_tree,
    n3_multicast_schedule,
    n3_network,
    petersen,
    petersen_gossip_schedule,
)
from .properties import GraphSummary, center, diameter, periphery, radius, summarize
from .spanning_tree import (
    approximate_min_depth_tree,
    best_root,
    bfs_spanning_tree,
    minimum_depth_spanning_tree,
)

__all__ = [
    "Graph",
    "GraphBuilder",
    "UNREACHED",
    "bfs_levels",
    "bfs_tree",
    "eccentricity",
    "all_eccentricities",
    "distance_matrix",
    "is_connected",
    "require_connected",
    "connected_components",
    "shortest_path",
    "radius",
    "diameter",
    "center",
    "periphery",
    "summarize",
    "GraphSummary",
    "from_edges",
    "from_adjacency",
    "from_networkx",
    "to_networkx",
    "tree_to_graph",
    "graph_to_tree",
    "bfs_spanning_tree",
    "minimum_depth_spanning_tree",
    "TreeMaintainer",
    "approximate_min_depth_tree",
    "best_root",
    "fig1_ring",
    "petersen",
    "n3_network",
    "fig4_network",
    "fig5_tree",
    "petersen_gossip_schedule",
    "n3_multicast_schedule",
]
