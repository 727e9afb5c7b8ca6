"""Tests for repeated (pipelined) gossiping on a fixed tree."""

import pytest

from repro.core.concurrent_updown import concurrent_updown
from repro.core.repeated import (
    minimal_pipeline_offset,
    repeated_gossip,
)
from repro.exceptions import ReproError
from repro.networks import topologies
from repro.networks.builders import graph_to_tree
from repro.networks.random_graphs import random_tree
from repro.networks.spanning_tree import minimum_depth_spanning_tree
from repro.tree.labeling import LabeledTree


def labeled_of(graph):
    return LabeledTree(minimum_depth_spanning_tree(graph))


class TestMinimalOffset:
    def test_at_least_capacity_floor(self):
        """No processor can receive two messages per round, so the offset
        is at least n - 1."""
        labeled = labeled_of(topologies.grid_2d(3, 3))
        assert minimal_pipeline_offset(concurrent_updown(labeled)) >= labeled.n - 1

    def test_at_most_schedule_length(self):
        labeled = labeled_of(topologies.path_graph(8))
        single = concurrent_updown(labeled)
        assert minimal_pipeline_offset(single) <= single.total_time

    def test_receive_saturation_finding(self):
        """The negative result: on paths/grids the offset IS the full
        schedule length — ConcurrentUpDown admits no pipelining."""
        for g in (topologies.path_graph(9), topologies.grid_2d(3, 4)):
            labeled = labeled_of(g)
            single = concurrent_updown(labeled)
            assert minimal_pipeline_offset(single) == single.total_time

    def test_star_gains_a_round(self):
        labeled = labeled_of(topologies.star_graph(12))
        single = concurrent_updown(labeled)
        assert minimal_pipeline_offset(single) == single.total_time - 1

    def test_empty_schedule(self):
        from repro.core.schedule import Schedule

        assert minimal_pipeline_offset(Schedule([])) == 0


class TestRepeatedGossip:
    @pytest.mark.parametrize("instances", [1, 2, 4])
    def test_complete_and_valid(self, instances):
        labeled = labeled_of(topologies.star_graph(8))
        plan = repeated_gossip(labeled, instances=instances)
        result = plan.execute()
        assert result.complete
        assert plan.instances == instances

    def test_total_time_formula(self):
        labeled = labeled_of(topologies.star_graph(10))
        plan = repeated_gossip(labeled, instances=3)
        single = concurrent_updown(labeled).total_time
        assert plan.total_time == 2 * plan.offset + single
        assert plan.total_time <= plan.sequential_time

    def test_amortised_time(self):
        labeled = labeled_of(topologies.star_graph(10))
        plan = repeated_gossip(labeled, instances=5)
        assert plan.amortised_time <= concurrent_updown(labeled).total_time

    def test_message_spaces_disjoint(self):
        """Instance q's messages are q*n + label."""
        labeled = labeled_of(topologies.path_graph(5))
        plan = repeated_gossip(labeled, instances=2)
        messages = {tx.message for rnd in plan.schedule for tx in rnd}
        assert messages <= set(range(2 * labeled.n))
        assert any(m >= labeled.n for m in messages)

    @pytest.mark.parametrize("instances", [2, 3])
    def test_arrays_declare_the_message_universe(self, instances):
        """n_messages covers every instance's ids q * n + label."""
        labeled = labeled_of(topologies.grid_2d(3, 3))
        arr = repeated_gossip(labeled, instances=instances).schedule.arrays()
        assert arr.n == labeled.n
        assert arr.n_messages == instances * labeled.n
        assert int(arr.message.max()) < arr.n_messages

    def test_explicit_safe_offset(self):
        labeled = labeled_of(topologies.path_graph(6))
        single = concurrent_updown(labeled)
        plan = repeated_gossip(labeled, instances=3, offset=single.total_time)
        assert plan.execute().complete

    def test_unsafe_offset_rejected(self):
        labeled = labeled_of(topologies.path_graph(6))
        with pytest.raises(ReproError, match="unsafe"):
            repeated_gossip(labeled, instances=2, offset=1)

    def test_zero_instances_rejected(self):
        labeled = labeled_of(topologies.path_graph(4))
        with pytest.raises(ReproError):
            repeated_gossip(labeled, instances=0)

    @pytest.mark.parametrize("seed", range(3))
    def test_random_trees(self, seed):
        tree = graph_to_tree(random_tree(12, seed), root=0)
        plan = repeated_gossip(LabeledTree(tree), instances=3)
        assert plan.execute().complete
