"""Unit tests for (de)serialisation."""

import pytest

from repro.core.concurrent_updown import concurrent_updown
from repro.exceptions import GraphError, ScheduleConflictError, ScheduleError
from repro.networks import topologies
from repro.networks.io import (
    graph_from_edgelist,
    graph_from_json,
    graph_to_edgelist,
    graph_to_json,
    schedule_from_json,
    schedule_to_json,
    tree_from_json,
    tree_to_json,
)
from repro.networks.paper_networks import fig5_tree
from repro.networks.spanning_tree import minimum_depth_spanning_tree
from repro.tree.labeling import LabeledTree
from repro.tree.tree import Tree


class TestEdgelist:
    def test_roundtrip(self):
        g = topologies.grid_2d(3, 3)
        assert graph_from_edgelist(graph_to_edgelist(g)) == g

    def test_header(self):
        text = graph_to_edgelist(topologies.path_graph(3))
        assert text.splitlines()[0] == "3 2"

    def test_missing_header_rejected(self):
        with pytest.raises(GraphError):
            graph_from_edgelist("0 1 2\n")

    def test_wrong_count_rejected(self):
        with pytest.raises(GraphError, match="header"):
            graph_from_edgelist("3 5\n0 1\n")


class TestGraphJson:
    def test_roundtrip_preserves_name(self):
        g = topologies.cycle_graph(6)
        back = graph_from_json(graph_to_json(g))
        assert back == g
        assert back.name == g.name


class TestTreeJson:
    def test_roundtrip(self):
        tree = fig5_tree()
        assert tree_from_json(tree_to_json(tree)) == tree

    def test_roundtrip_preserves_child_order(self):
        tree = Tree([-1, 0, 0], root=0, child_order=lambda v, kids: sorted(kids, reverse=True))
        back = tree_from_json(tree_to_json(tree))
        assert back.children(0) == (2, 1)

    def test_roundtrip_preserves_labeling(self):
        tree = minimum_depth_spanning_tree(topologies.grid_2d(3, 4))
        back = tree_from_json(tree_to_json(tree))
        assert LabeledTree(back).labels() == LabeledTree(tree).labels()


class TestScheduleJson:
    def test_roundtrip(self):
        schedule = concurrent_updown(LabeledTree(fig5_tree()))
        back = schedule_from_json(schedule_to_json(schedule))
        assert back == schedule
        assert back.total_time == schedule.total_time

    def test_roundtrip_preserves_name(self):
        schedule = concurrent_updown(LabeledTree(fig5_tree()))
        assert schedule_from_json(schedule_to_json(schedule)).name == schedule.name


class TestScheduleJsonMalformed:
    @pytest.mark.parametrize(
        "text",
        [
            "{}",
            '{"rounds": 5}',
            '{"rounds": [[[0, 1]]]}',
            "not json at all",
            '{"rounds": [[[0, -1, [1]]]]}',
            '{"rounds": [[[0, 1, [-2]]]]}',
            '{"rounds": [[[-3, 1, [0]]]]}',
            "[]",
            '{"rounds": [5]}',
            '{"rounds": [[[0, 1, 2]]]}',
            '{"rounds": [[[0.5, 1, [0]]]]}',
            '{"rounds": [[[true, 1, [0]]]]}',
            '{"rounds": [], "name": 3}',
        ],
    )
    def test_malformed_envelope_raises_schedule_error(self, text):
        with pytest.raises(ScheduleError):
            schedule_from_json(text)

    def test_rule_breaking_rows_are_refused(self):
        with pytest.raises(ScheduleError, match="empty destination set"):
            schedule_from_json('{"rounds": [[[0, 1, []]]]}')
        with pytest.raises(ScheduleConflictError, match="sends two messages"):
            schedule_from_json('{"rounds": [[[0, 1, [0]], [0, 1, [2]]]]}')
        with pytest.raises(ScheduleConflictError, match="receives two"):
            schedule_from_json('{"rounds": [[[0, 0, [2]], [1, 1, [2]]]]}')

    def test_universe_is_largest_id_plus_one(self):
        schedule = schedule_from_json('{"rounds": [[], [[3, 1, [6]]]], "name": "x"}')
        assert schedule.arrays().n == 7
        assert (schedule.name, schedule.total_time) == ("x", 2)
