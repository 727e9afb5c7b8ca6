"""Large-scale integration: the pipeline at n in the hundreds.

Builds the canonical tree with the pruned center sweep; full validation
through the simulator (one arrival-matrix pass keeps this fast even at
n = 512).
"""

import pytest

from repro.core.concurrent_updown import concurrent_updown
from repro.core.gossip import gossip
from repro.networks.builders import graph_to_tree, tree_to_graph
from repro.networks.properties import radius
from repro.networks.random_graphs import random_connected_gnp, random_tree
from repro.networks.spanning_tree import minimum_depth_spanning_tree
from repro.simulator.engine import execute_schedule
from repro.simulator.state import labeled_holdings
from repro.tree.labeling import LabeledTree


@pytest.mark.parametrize("n", [256, 512])
def test_theorem1_at_scale_random_graph(n):
    g = random_connected_gnp(n, 3.0 / n, seed=0)
    tree = minimum_depth_spanning_tree(g)
    plan = gossip(g, tree=tree)
    assert plan.total_time == n + tree.height
    assert tree.height == radius(g)
    result = plan.execute(on_tree_only=True)
    assert result.complete
    assert result.duplicate_deliveries == 0


def test_theorem1_at_scale_deep_tree():
    """A 512-vertex random tree: deep, so many events; still exact."""
    n = 512
    tree = graph_to_tree(random_tree(n, seed=1), root=0)
    labeled = LabeledTree(tree)
    schedule = concurrent_updown(labeled)
    assert schedule.total_time == n + tree.height
    result = execute_schedule(
        tree_to_graph(tree),
        schedule,
        initial_holds=labeled_holdings(labeled.labels()),
        require_complete=True,
    )
    assert result.complete


def test_extreme_star_and_path():
    from repro.networks import topologies

    star = gossip(topologies.star_graph(400))
    assert star.total_time == 401
    assert star.execute().complete

    path = gossip(topologies.path_graph(301))
    assert path.total_time == 301 + 150
    assert path.execute().complete


def test_updown_and_simple_at_scale():
    from repro.core.simple import simple_gossip
    from repro.core.updown import updown_gossip, updown_total_time_bound

    tree = graph_to_tree(random_tree(256, seed=2), root=0)
    labeled = LabeledTree(tree)
    network = tree_to_graph(tree)
    holds = labeled_holdings(labeled.labels())

    simple = simple_gossip(labeled)
    assert simple.total_time == 2 * 256 + tree.height - 3
    execute_schedule(network, simple, initial_holds=holds, require_complete=True)

    updown = updown_gossip(labeled)
    assert updown.total_time <= updown_total_time_bound(256, tree.height)
    execute_schedule(network, updown, initial_holds=holds, require_complete=True)
