"""Unit tests for schedule metrics."""

import pytest

from repro.core.concurrent_updown import concurrent_updown
from repro.core.simple import simple_gossip
from repro.networks import topologies
from repro.networks.builders import tree_to_graph
from repro.networks.spanning_tree import minimum_depth_spanning_tree
from repro.simulator.engine import execute_schedule
from repro.simulator.metrics import compute_metrics, link_loads
from repro.simulator.state import labeled_holdings
from repro.tree.labeling import LabeledTree


@pytest.fixture(scope="module")
def star_run():
    tree = minimum_depth_spanning_tree(topologies.star_graph(6))
    labeled = LabeledTree(tree)
    schedule = concurrent_updown(labeled)
    result = execute_schedule(
        tree_to_graph(tree),
        schedule,
        initial_holds=labeled_holdings(labeled.labels()),
        require_complete=True,
    )
    return labeled, schedule, result


class TestLinkLoads:
    def test_loads_sum_to_deliveries(self, star_run):
        _, schedule, _ = star_run
        assert sum(link_loads(schedule).values()) == schedule.total_deliveries()

    def test_canonical_keys(self, star_run):
        _, schedule, _ = star_run
        for u, v in link_loads(schedule):
            assert u < v

    def test_empty_schedule(self):
        from tests.conftest import sched

        assert link_loads(sched(n=2)) == {}


class TestComputeMetrics:
    def test_schedule_only(self, star_run):
        _, schedule, _ = star_run
        m = compute_metrics(schedule)
        assert m.total_time == schedule.total_time
        assert m.total_multicasts == schedule.total_messages()
        assert m.total_deliveries == schedule.total_deliveries()
        assert m.duplicate_deliveries is None
        assert m.redundancy is None

    def test_with_execution(self, star_run):
        _, schedule, result = star_run
        m = compute_metrics(schedule, execution=result)
        assert m.duplicate_deliveries == 0
        assert m.redundancy == 0.0
        assert m.max_completion_time == schedule.total_time
        assert m.mean_completion_time <= m.max_completion_time

    def test_mean_fan_out(self, star_run):
        _, schedule, _ = star_run
        m = compute_metrics(schedule)
        assert m.mean_fan_out == pytest.approx(
            m.total_deliveries / m.total_multicasts
        )
        assert 1.0 <= m.mean_fan_out <= m.max_fan_out

    def test_simple_has_redundancy(self):
        """Simple's naive down phase wastes deliveries; ConcurrentUpDown
        does not — the efficiency story the metrics quantify."""
        tree = minimum_depth_spanning_tree(topologies.grid_2d(3, 3))
        labeled = LabeledTree(tree)
        network = tree_to_graph(tree)
        holds = labeled_holdings(labeled.labels())

        def run(schedule):
            return compute_metrics(
                schedule,
                execution=execute_schedule(
                    network, schedule, initial_holds=holds, require_complete=True
                ),
            )

        assert run(simple_gossip(labeled)).redundancy > 0
        assert run(concurrent_updown(labeled)).redundancy == 0.0

    def test_empty_schedule_metrics(self):
        from tests.conftest import sched

        m = compute_metrics(sched(n=2))
        assert m.total_time == 0
        assert m.mean_fan_out == 0.0
        assert m.busiest_link_load == 0
