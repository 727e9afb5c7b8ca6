"""Tests for repeated (pipelined) gossiping on a fixed tree."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.sweep import family_instance
from repro.core.concurrent_updown import concurrent_updown
from repro.core.gossip import ALGORITHMS, gossip
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
from tests.conftest import labeled_trees


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
        from tests.conftest import sched

        assert minimal_pipeline_offset(sched(n=3)) == 0


#: ``minimal_pipeline_offset`` of the ConcurrentUpDown plan of every
#: sweep family at n = 24, as the object-walking search computed them.
FAMILY_OFFSETS = {
    "barbell": 30, "binary-tree": 35, "broom": 30, "butterfly": 38,
    "caterpillar": 29, "ccc": 30, "complete": 24, "cycle": 36,
    "debruijn": 36, "geometric": 27, "gnp": 27, "grid": 29, "hypercube": 37,
    "lollipop": 31, "path": 36, "random": 26, "random-tree": 29,
    "spider": 29, "star": 24, "torus": 29, "wheel": 24,
}


class TestOffsetFromColumns:
    """The calendar search reads the columns and finds the same offsets."""

    @pytest.mark.parametrize("family", sorted(FAMILY_OFFSETS))
    def test_family_offsets_unchanged(self, family):
        plan = gossip(family_instance(family, 24))
        assert minimal_pipeline_offset(plan.schedule) == FAMILY_OFFSETS[family]

    @pytest.mark.parametrize("spec, offset", [("grid:400", 420), ("grid:1024", 1056)])
    def test_large_grids_fall_back_to_sequential(self, spec, offset):
        schedule = gossip(spec).schedule
        assert schedule.total_time == offset
        assert minimal_pipeline_offset(schedule) == offset


def reference_pipeline_offset(schedule):
    """The set-walking offset search over the object view, kept as the
    oracle for the column search (which counts clashes by FFT)."""
    sends, recvs = {}, {}
    for t, rnd in enumerate(schedule):
        for tx in rnd:
            sends.setdefault(tx.sender, set()).add(t)
            for d in tx.destinations:
                recvs.setdefault(d, set()).add(t + 1)
    if not sends:
        return 0
    floor = max(1, max(len(times) for times in recvs.values()))
    horizon = schedule.total_time

    def clashes(delta):
        return any(
            (t + delta) in times
            for calendar in (sends, recvs)
            for times in calendar.values()
            for t in times
        )

    for offset in range(floor, horizon + 1):
        if not any(clashes(delta) for delta in range(offset, horizon + 1, offset)):
            return offset
    return horizon


@given(labeled=labeled_trees(max_n=30),
       algorithm=st.sampled_from(["concurrent-updown", "simple", "updown", "greedy"]))
@settings(max_examples=40, deadline=None)
def test_offset_matches_the_set_walk(labeled, algorithm):
    schedule = ALGORITHMS[algorithm](labeled)
    assert minimal_pipeline_offset(schedule) == reference_pipeline_offset(schedule)


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
        arr = repeated_gossip(labeled, instances=instances).schedule
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
