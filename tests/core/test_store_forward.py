"""Tests for the policy-driven store-and-forward scheduler."""

import pytest

from repro.core.store_forward import (
    GreedyMulticastPolicy,
    UpDownTreePolicy,
    greedy_gossip_on_graph,
    greedy_multicast_gossip,
    store_forward_schedule,
    telephone_gossip,
    telephone_gossip_on_graph,
)
from repro.networks import topologies
from repro.networks.builders import graph_to_tree, tree_to_graph
from repro.networks.paper_networks import n3_network
from repro.networks.random_graphs import random_connected_gnp, random_tree
from repro.simulator.state import labeled_holdings
from repro.simulator.validator import assert_gossip_schedule
from repro.tree.labeling import LabeledTree


class TestGreedyOnGraphs:
    @pytest.mark.parametrize("seed", range(6))
    def test_completes_on_random_graphs(self, seed):
        g = random_connected_gnp(18, 0.15, seed)
        schedule = greedy_gossip_on_graph(g)
        assert_gossip_schedule(g, schedule)

    def test_ring_reasonable(self):
        g = topologies.cycle_graph(10)
        schedule = greedy_gossip_on_graph(g)
        assert_gossip_schedule(g, schedule)
        assert schedule.total_time >= g.n - 1

    def test_star_uses_multicast(self):
        g = topologies.star_graph(8)
        schedule = greedy_gossip_on_graph(g)
        assert schedule.max_fan_out() > 1
        assert_gossip_schedule(g, schedule)


class TestTelephone:
    @pytest.mark.parametrize("seed", range(4))
    def test_all_unicast(self, seed):
        g = random_connected_gnp(14, 0.2, seed)
        schedule = telephone_gossip_on_graph(g)
        assert schedule.max_fan_out() == 1
        assert_gossip_schedule(g, schedule)

    def test_strictly_slower_than_multicast_on_n3(self):
        """The Fig. 3 claim, on the reconstruction: telephone cannot reach
        the multicast optimum n - 1 = 4."""
        g = n3_network()
        tel = telephone_gossip_on_graph(g)
        assert tel.total_time >= 6  # the counting bound
        assert_gossip_schedule(g, tel)

    def test_star_telephone_quadratic(self):
        """Under telephone the hub must unicast each message to each leaf."""
        g = topologies.star_graph(6)
        tel = telephone_gossip_on_graph(g)
        greedy = greedy_gossip_on_graph(g)
        assert tel.total_time > 2 * greedy.total_time


class TestRegistryWrappers:
    def test_tree_wrappers_complete(self):
        labeled = LabeledTree(graph_to_tree(random_tree(15, 2), root=0))
        network = tree_to_graph(labeled.tree)
        holds = labeled_holdings(labeled.labels())
        for schedule in (greedy_multicast_gossip(labeled), telephone_gossip(labeled)):
            assert_gossip_schedule(network, schedule, initial_holds=holds)


class TestRankedArbitration:
    def test_updown_policy_falls_back_to_down(self):
        """A vertex losing the up-slot race must relay downward instead:
        in a two-child root tree, both children want the root at t=0/1."""
        labeled = LabeledTree(
            graph_to_tree(random_tree(20, 5), root=0)
        )
        network = tree_to_graph(labeled.tree)
        schedule = store_forward_schedule(
            network,
            UpDownTreePolicy(labeled),
            initial_holds=labeled_holdings(labeled.labels()),
            name="updown",
        )
        assert_gossip_schedule(
            network, schedule, initial_holds=labeled_holdings(labeled.labels())
        )

    def test_policy_protocol_single_preference(self):
        """A policy ranking a single preference works through the engine."""

        class LowestFirst:
            def propose_ranked(self, vertex, holds, graph, time):
                return GreedyMulticastPolicy().propose_ranked(vertex, holds, graph, time)[:1]

        g = topologies.path_graph(5)
        schedule = store_forward_schedule(g, LowestFirst())
        assert_gossip_schedule(g, schedule)
        assert schedule == store_forward_schedule(g, GreedyMulticastPolicy())

    def test_telephone_policy_propose_returns_candidates(self):
        """The telephone model's policy proposes every lacking neighbour;
        the arbiter's ``max_fan_out=1`` keeps one."""
        g = topologies.star_graph(4)
        policy = GreedyMulticastPolicy()
        assert policy.propose_ranked(0, [1, 2, 4, 8], g, 0) == [(0, [1, 2, 3])]
        schedule = store_forward_schedule(g, policy, max_fan_out=1)
        assert schedule.max_fan_out() == 1


class TestProgressGuarantee:
    @pytest.mark.parametrize("seed", range(4))
    def test_terminates_well_under_safety_valve(self, seed):
        g = random_connected_gnp(20, 0.1, seed)
        schedule = greedy_gossip_on_graph(g)
        assert schedule.total_time < g.n * g.n

    def test_single_vertex(self):
        from repro.networks.graph import Graph

        schedule = greedy_gossip_on_graph(Graph(1, []))
        assert schedule.total_time == 0
