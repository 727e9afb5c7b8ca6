"""Unit tests for the fast-planner BFS primitives.

Covers the ``cutoff`` extension of :func:`bfs_levels`, the bit-parallel
:func:`bfs_levels_multi`, the vectorised
:func:`bfs_parents_from_levels`, and the batched
:func:`all_eccentricities` — each against its per-source reference.
"""

import numpy as np
import pytest

from repro.exceptions import DisconnectedGraphError, GraphError
from repro.networks import topologies
from repro.networks.bfs import (
    UNREACHED,
    all_eccentricities,
    all_eccentricities_reference,
    bfs_levels,
    bfs_levels_multi,
    bfs_parents_from_levels,
    bfs_tree,
    distance_matrix,
)
from repro.networks.graph import Graph
from repro.networks.random_graphs import random_connected_gnp
from tests.networks.reference import reference_bfs_parents


class TestCutoff:
    def test_cutoff_truncates_levels(self):
        g = topologies.path_graph(10)
        full = bfs_levels(g, 0)
        cut = bfs_levels(g, 0, cutoff=4)
        assert cut.tolist() == [0, 1, 2, 3, 4] + [UNREACHED] * 5
        assert (cut[cut != UNREACHED] == full[cut != UNREACHED]).all()

    def test_cutoff_zero_keeps_only_source(self):
        g = topologies.cycle_graph(6)
        cut = bfs_levels(g, 2, cutoff=0)
        assert cut[2] == 0
        assert (np.delete(cut, 2) == UNREACHED).all()

    def test_cutoff_at_or_beyond_eccentricity_is_a_noop(self):
        g = topologies.grid_2d(4, 4)
        full = bfs_levels(g, 5)
        ecc = int(full.max())
        assert (bfs_levels(g, 5, cutoff=ecc) == full).all()
        assert (bfs_levels(g, 5, cutoff=ecc + 3) == full).all()

    def test_negative_cutoff_rejected(self):
        with pytest.raises(GraphError):
            bfs_levels(topologies.path_graph(3), 0, cutoff=-1)


class TestBfsLevelsMulti:
    @pytest.mark.parametrize(
        "graph",
        [
            topologies.path_graph(9),
            topologies.cycle_graph(12),
            topologies.star_graph(8),
            topologies.grid_2d(5, 7),
            topologies.hypercube(5),
            random_connected_gnp(40, 0.1, seed=2),
        ],
        ids=lambda g: g.name,
    )
    def test_matches_per_source_reference(self, graph):
        dist = bfs_levels_multi(graph, range(graph.n))
        ref = np.stack([bfs_levels(graph, v) for v in range(graph.n)])
        assert (dist == ref).all()

    def test_more_than_64_sources_batches_correctly(self):
        g = random_connected_gnp(150, 0.05, seed=9)
        dist = bfs_levels_multi(g, range(g.n))
        ref = np.stack([bfs_levels(g, v) for v in range(g.n)])
        assert (dist == ref).all()

    def test_subset_and_repeated_sources(self):
        g = topologies.grid_2d(4, 4)
        sources = [3, 3, 0, 15]
        dist = bfs_levels_multi(g, sources)
        for row, s in zip(dist, sources):
            assert (row == bfs_levels(g, s)).all()

    def test_disconnected_marks_unreached(self):
        g = Graph(5, [(0, 1), (2, 3)])
        dist = bfs_levels_multi(g, [0, 2, 4])
        assert dist[0].tolist() == [0, 1, UNREACHED, UNREACHED, UNREACHED]
        assert dist[1].tolist() == [UNREACHED, UNREACHED, 0, 1, UNREACHED]
        assert dist[2].tolist() == [UNREACHED] * 4 + [0]

    def test_single_vertex_and_empty_sources(self):
        g = Graph(1, [])
        assert bfs_levels_multi(g, [0]).tolist() == [[0]]
        assert bfs_levels_multi(g, []).shape == (0, 1)

    def test_out_of_range_source_rejected(self):
        with pytest.raises(GraphError):
            bfs_levels_multi(topologies.path_graph(4), [0, 7])


class TestParentsFromLevels:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_bfs_tree(self, seed):
        g = random_connected_gnp(30, 0.12, seed=seed)
        for source in (0, g.n // 2, g.n - 1):
            dist, parent = bfs_tree(g, source)
            expected = reference_bfs_parents(g, source)
            assert (parent == expected).all()
            assert (bfs_parents_from_levels(g, dist) == expected).all()

    def test_root_and_unreached_get_minus_one(self):
        g = Graph(4, [(0, 1), (2, 3)])
        parent = bfs_parents_from_levels(g, bfs_levels(g, 0))
        assert parent.tolist() == [-1, 0, -1, -1]

    def test_single_vertex(self):
        g = Graph(1, [])
        assert bfs_parents_from_levels(g, np.array([0])).tolist() == [-1]

    def test_smallest_id_parent_chosen(self):
        # Vertex 3 is adjacent to both 1 and 2, both at level 1: the
        # canonical construction must pick 1.
        g = Graph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        parent = bfs_parents_from_levels(g, bfs_levels(g, 0))
        assert parent.tolist() == [-1, 0, 0, 1]


class TestBatchedEccentricities:
    def test_matches_reference(self):
        g = random_connected_gnp(70, 0.08, seed=1)
        assert (all_eccentricities(g) == all_eccentricities_reference(g)).all()

    def test_disconnected_rejected_by_both(self):
        g = Graph(4, [(0, 1), (2, 3)])
        with pytest.raises(DisconnectedGraphError):
            all_eccentricities(g)
        with pytest.raises(DisconnectedGraphError):
            all_eccentricities_reference(g)

    def test_distance_matrix_uses_multi_path(self):
        g = topologies.de_bruijn(2, 4)
        ref = np.stack([bfs_levels(g, v) for v in range(g.n)])
        assert (distance_matrix(g) == ref).all()
