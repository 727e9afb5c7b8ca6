"""Serving a plan never builds a graph's per-edge Python views.

A :class:`~repro.networks.graph.Graph` stores sorted edge pairs and CSR
arrays; its neighbour tuples and edge set are caches built on first use.
The service's hit path (build, ``canonical_hash``, cache lookup), its
miss path (plan from the arrays) and a maintained network's writes must
leave both caches unbuilt, so per-edge Python objects cannot creep back
into serving unnoticed.
"""

from __future__ import annotations

import pytest

from repro.analysis.sweep import family_instance
from repro.networks.graph import Graph
from repro.service import GossipService

FAMILIES = ("grid", "torus", "random", "gnp", "random-tree", "caterpillar", "broom", "wheel")


def assert_views_unbuilt(graph: Graph) -> None:
    assert graph._adj is None, "neighbour tuples were built"
    assert graph._edge_set is None, "edge set was built"


@pytest.mark.parametrize("family", FAMILIES)
def test_hit_and_miss_leave_views_unbuilt(family):
    base = family_instance(family, 96)
    n, edges = base.n, base.edge_list()
    with GossipService() as service:
        first = Graph(n, edges)
        service.plan(first)
        assert_views_unbuilt(first)

        again = Graph(n, edges)
        again.canonical_hash()
        before = service.stats().hits
        plan = service.plan(again)
        assert service.stats().hits == before + 1
        assert plan.graph.canonical_hash() == again.canonical_hash()
        assert_views_unbuilt(again)


@pytest.mark.parametrize("policy", ["eager", "lazy"])
def test_maintained_writes_leave_views_unbuilt(policy):
    base = family_instance("grid", 64)
    with GossipService() as service:
        handle = service.maintain(Graph(base.n, base.edge_list()), policy=policy)
        handle.add_edge(0, base.n - 1)
        handle.plan()
        assert_views_unbuilt(handle.graph)
        handle.remove_edge(0, base.n - 1)
        handle.plan()
        assert_views_unbuilt(handle.graph)
