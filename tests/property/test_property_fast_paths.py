"""Property tests: the canonical distance, eccentricity and tree
functions equal scipy's C breadth-first search everywhere."""

import numpy as np
from hypothesis import given, settings

from repro.networks.bfs import all_eccentricities, distance_matrix
from repro.networks.spanning_tree import minimum_depth_spanning_tree
from tests.conftest import connected_graphs
from tests.networks.test_fast_paths import assert_canonical_tree, scipy_distances


@given(graph=connected_graphs(max_n=22))
@settings(max_examples=40, deadline=None)
def test_distances_identical(graph):
    assert np.array_equal(distance_matrix(graph), scipy_distances(graph))


@given(graph=connected_graphs(max_n=22))
@settings(max_examples=40, deadline=None)
def test_eccentricities_identical(graph):
    assert np.array_equal(all_eccentricities(graph), scipy_distances(graph).max(axis=1))


@given(graph=connected_graphs(max_n=20))
@settings(max_examples=40, deadline=None)
def test_canonical_tree_identical(graph):
    assert_canonical_tree(graph, minimum_depth_spanning_tree(graph))
