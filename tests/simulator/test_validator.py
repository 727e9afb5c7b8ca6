"""Unit tests for static + dynamic schedule validation."""

import pytest

from repro.core.concurrent_updown import concurrent_updown
from repro.exceptions import ModelViolationError, ScheduleError
from repro.networks import topologies
from repro.networks.builders import tree_to_graph
from repro.networks.paper_networks import fig5_tree
from repro.networks.spanning_tree import minimum_depth_spanning_tree
from repro.simulator.state import labeled_holdings
from repro.simulator.validator import (
    assert_gossip_schedule,
    check_static,
    validate_schedule,
)
from repro.tree.labeling import LabeledTree
from tests.conftest import sched, tx


class TestStatic:
    def test_valid_passes(self):
        g = topologies.path_graph(3)
        check_static(g, sched([tx(0, 0, {1})]))

    def test_off_edge_rejected(self):
        g = topologies.path_graph(3)
        with pytest.raises(ModelViolationError, match="edge"):
            check_static(g, sched([tx(0, 0, {2})]))

    def test_sender_out_of_range(self):
        g = topologies.path_graph(2)
        with pytest.raises(ScheduleError, match="sender"):
            check_static(g, sched([tx(5, 0, {1})]))

    def test_destination_out_of_range(self):
        g = topologies.path_graph(2)
        with pytest.raises(ScheduleError, match="destination"):
            check_static(g, sched([tx(0, 0, {9})]))


class TestDynamic:
    def test_full_pipeline_passes(self):
        tree = minimum_depth_spanning_tree(topologies.grid_2d(3, 3))
        labeled = LabeledTree(tree)
        result = validate_schedule(
            tree_to_graph(tree),
            concurrent_updown(labeled),
            initial_holds=labeled_holdings(labeled.labels()),
        )
        assert result.complete

    def test_incomplete_detected(self):
        g = topologies.path_graph(2)
        with pytest.raises(Exception):
            validate_schedule(g, sched([tx(0, 0, {1})]))

    def test_incomplete_allowed_when_not_required(self):
        g = topologies.path_graph(2)
        result = validate_schedule(
            g, sched([tx(0, 0, {1})]), require_complete=False
        )
        assert not result.complete


class TestAssertGossip:
    def test_budget_respected(self):
        labeled = LabeledTree(fig5_tree())
        assert_gossip_schedule(
            tree_to_graph(labeled.tree),
            concurrent_updown(labeled),
            initial_holds=labeled_holdings(labeled.labels()),
            max_total_time=16 + 3,
        )

    def test_budget_exceeded(self):
        labeled = LabeledTree(fig5_tree())
        with pytest.raises(ScheduleError, match="exceeding"):
            assert_gossip_schedule(
                tree_to_graph(labeled.tree),
                concurrent_updown(labeled),
                initial_holds=labeled_holdings(labeled.labels()),
                max_total_time=10,
            )
