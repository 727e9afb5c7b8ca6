"""Tests: the canonical distance, eccentricity and tree functions
against scipy's C breadth-first search.

``scipy.sparse.csgraph`` once backed a second copy of these functions in
the package.  It now lives only here, as an independent oracle for the
bit-parallel :func:`~repro.networks.bfs.distance_matrix`, the batched
:func:`~repro.networks.bfs.all_eccentricities`, the pruned
:func:`~repro.networks.properties.radius` and the canonical
minimum-depth spanning tree.
"""

import numpy as np
import pytest

from repro.exceptions import DisconnectedGraphError
from repro.networks import topologies
from repro.networks.bfs import UNREACHED, all_eccentricities, distance_matrix
from repro.networks.graph import Graph
from repro.networks.properties import radius
from repro.networks.random_graphs import random_connected_gnp, random_tree
from repro.networks.spanning_tree import minimum_depth_spanning_tree


def scipy_distances(graph: Graph) -> np.ndarray:
    """All-pairs hop distances from scipy, ``UNREACHED`` where none."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import shortest_path

    n = graph.n
    data = np.ones(graph.indices.shape[0], dtype=np.int8)
    adjacency = csr_matrix((data, graph.indices, graph.indptr), shape=(n, n))
    dist = shortest_path(adjacency, method="D", unweighted=True)
    return np.where(np.isinf(dist), UNREACHED, dist).astype(np.int64)


def assert_canonical_tree(graph: Graph, tree) -> None:
    """``tree`` is the BFS tree of the smallest-id minimum-eccentricity
    vertex, so its height is the radius."""
    dist = scipy_distances(graph)
    ecc = dist.max(axis=1)
    assert tree.root == int(np.flatnonzero(ecc == ecc.min())[0])
    assert tree.height == ecc.min()
    for v in range(graph.n):
        assert tree.level(v) == dist[tree.root, v]
        if v != tree.root:
            assert graph.has_edge(v, tree.parent(v))


class TestDistances:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_reference_random(self, seed):
        g = random_connected_gnp(30, 0.1, seed)
        assert np.array_equal(distance_matrix(g), scipy_distances(g))

    @pytest.mark.parametrize(
        "graph",
        [
            topologies.path_graph(12),
            topologies.cycle_graph(9),
            topologies.hypercube(4),
            topologies.grid_2d(4, 5),
            Graph(1, []),
        ],
    )
    def test_matches_reference_structured(self, graph):
        assert np.array_equal(distance_matrix(graph), scipy_distances(graph))

    def test_disconnected_marked(self):
        g = Graph(4, [(0, 1), (2, 3)])
        d = distance_matrix(g)
        assert d[0, 2] == UNREACHED
        assert d[0, 1] == 1
        assert np.array_equal(d, scipy_distances(g))


class TestEccentricities:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_reference(self, seed):
        g = random_connected_gnp(25, 0.12, seed)
        assert np.array_equal(all_eccentricities(g), scipy_distances(g).max(axis=1))

    def test_radius(self):
        g = topologies.grid_2d(5, 5)
        assert radius(g) == scipy_distances(g).max(axis=1).min()

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraphError):
            all_eccentricities(Graph(3, [(0, 1)]))


class TestFastTree:
    @pytest.mark.parametrize("seed", range(6))
    def test_identical_tree_random(self, seed):
        g = random_connected_gnp(25, 0.12, seed)
        assert_canonical_tree(g, minimum_depth_spanning_tree(g))

    def test_identical_tree_paper_example(self):
        from repro.networks.paper_networks import fig4_network, fig5_tree

        assert minimum_depth_spanning_tree(fig4_network()) == fig5_tree()

    @pytest.mark.parametrize("n", [64, 150])
    def test_identical_on_larger_trees(self, n):
        g = random_tree(n, seed=1)
        assert_canonical_tree(g, minimum_depth_spanning_tree(g))

    def test_gossip_with_fast_tree(self):
        """End to end: the canonical tree gives an n + r schedule."""
        from repro.core.gossip import gossip

        g = random_connected_gnp(40, 0.08, seed=2)
        plan = gossip(g, tree=minimum_depth_spanning_tree(g))
        assert plan.total_time == g.n + scipy_distances(g).max(axis=1).min()
        plan.execute(on_tree_only=True)
