"""Tests for ConcurrentUpDown — Theorem 1's n + r guarantee."""

import importlib

import numpy as np
import pytest

from repro.core.concurrent_updown import concurrent_updown, concurrent_updown_on_tree
from repro.exceptions import ScheduleConflictError
from repro.networks import topologies
from repro.networks.builders import graph_to_tree, tree_to_graph
from repro.networks.paper_networks import fig5_tree
from repro.networks.random_graphs import random_tree
from repro.networks.spanning_tree import minimum_depth_spanning_tree
from repro.simulator.engine import execute_schedule
from repro.simulator.state import labeled_holdings
from repro.tree.labeling import LabeledTree
from repro.tree.tree import Tree

cud_module = importlib.import_module("repro.core.concurrent_updown")


def run(labeled, schedule, **kw):
    return execute_schedule(
        tree_to_graph(labeled.tree),
        schedule,
        initial_holds=labeled_holdings(labeled.labels()),
        require_complete=True,
        **kw,
    )


class TestTheorem1Fig5:
    def test_total_time_is_n_plus_r(self):
        labeled = LabeledTree(fig5_tree())
        schedule = concurrent_updown(labeled)
        assert schedule.total_time == 16 + 3

    def test_complete_and_valid(self):
        labeled = LabeledTree(fig5_tree())
        result = run(labeled, concurrent_updown(labeled))
        assert result.complete

    def test_no_duplicate_deliveries(self):
        """ConcurrentUpDown never wastes a receive slot."""
        labeled = LabeledTree(fig5_tree())
        result = run(labeled, concurrent_updown(labeled))
        assert result.duplicate_deliveries == 0

    def test_u4_d3_sends_fused_into_multicasts(self):
        """At times i-k+w..j-k the same message goes to the parent and to
        children in ONE multicast (Theorem 1's overlap argument)."""
        labeled = LabeledTree(fig5_tree())
        schedule = concurrent_updown(labeled)
        tree = labeled.tree
        # vertex 4 at time 5 sends message 6 up to 0 and down to child 8
        tx = schedule.round_at(5).sent_by(4)
        assert tx.message == 6
        assert 0 in tx.destinations and 8 in tx.destinations


class TestTheorem1Trees:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 13, 21, 34])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_exact_n_plus_height_random_trees(self, n, seed):
        tree = graph_to_tree(random_tree(n, seed), root=0)
        labeled = LabeledTree(tree)
        schedule = concurrent_updown(labeled)
        assert schedule.total_time == n + tree.height if n > 1 else 0
        run(labeled, schedule)

    def test_star_tree(self):
        labeled = LabeledTree(Tree([-1] + [0] * 9, root=0))
        schedule = concurrent_updown(labeled)
        assert schedule.total_time == 10 + 1
        run(labeled, schedule)

    def test_chain_tree(self):
        parents = [-1] + list(range(9))
        labeled = LabeledTree(Tree(parents, root=0))
        schedule = concurrent_updown(labeled)
        assert schedule.total_time == 10 + 9
        run(labeled, schedule)

    def test_single_vertex(self):
        assert concurrent_updown(LabeledTree(Tree([-1], root=0))).total_time == 0

    def test_two_vertices(self):
        labeled = LabeledTree(Tree([-1, 0], root=0))
        schedule = concurrent_updown(labeled)
        assert schedule.total_time == 3  # n + r = 2 + 1
        run(labeled, schedule)

    def test_on_tree_wrapper(self):
        tree = fig5_tree()
        assert concurrent_updown_on_tree(tree) == concurrent_updown(LabeledTree(tree))


class TestChildOrderInvariance:
    """The paper: subtree order is arbitrary — length never changes."""

    @pytest.mark.parametrize("seed", range(5))
    def test_total_time_invariant_under_child_order(self, seed):
        tree = graph_to_tree(random_tree(20, seed), root=0)
        normal = concurrent_updown(LabeledTree(tree))
        reversed_order = tree.with_child_order(lambda v, k: sorted(k, reverse=True))
        flipped = concurrent_updown(LabeledTree(reversed_order))
        assert normal.total_time == flipped.total_time
        run(LabeledTree(reversed_order), flipped)


class TestCompletionTimes:
    def test_completion_no_earlier_than_n_minus_1(self):
        """Every vertex needs n - 1 receives, so completes at >= n - 1."""
        labeled = LabeledTree(fig5_tree())
        result = run(labeled, concurrent_updown(labeled))
        for t in result.completion_times:
            assert t >= 16 - 1

    def test_last_completion_equals_total_time(self):
        tree = minimum_depth_spanning_tree(topologies.grid_2d(4, 4))
        labeled = LabeledTree(tree)
        schedule = concurrent_updown(labeled)
        result = run(labeled, schedule)
        assert max(result.completion_times) == schedule.total_time


class TestRepeatedKeyGuard:
    """A half that sends twice from one vertex in one round is refused.

    Lemmas 2 and 3 rule this out for every DFS labelling, so the guard
    is driven by doubling one event of the real half.
    """

    @pytest.mark.parametrize("half", ["up", "down"])
    def test_repeated_key_raises_naming_it(self, monkeypatch, half):
        labeled = LabeledTree(fig5_tree())
        name = f"propagate_{half}_events"
        real = getattr(cud_module, name)

        def doubled(lt):
            cols = real(lt)
            return tuple(np.append(c, c[-1]) for c in cols)

        monkeypatch.setattr(cud_module, name, doubled)
        cols = real(labeled)
        t, s = int(cols[0][-1]), int(cols[1][-1])
        half_name = "Propagate-Up" if half == "up" else "Propagate-Down"
        with pytest.raises(
            ScheduleConflictError,
            match=f"{half_name} sends twice from processor {s} at time {t}",
        ):
            concurrent_updown(labeled)
