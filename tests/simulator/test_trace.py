"""Unit tests for per-vertex timeline extraction (Tables 1-4 machinery)."""

import pytest

from repro.core.concurrent_updown import concurrent_updown
from repro.networks.paper_networks import fig5_tree
from repro.simulator.trace import all_timelines, vertex_timeline
from repro.tree.labeling import LabeledTree


@pytest.fixture(scope="module")
def fig5_schedule():
    labeled = LabeledTree(fig5_tree())
    return labeled.tree, concurrent_updown(labeled)


class TestVertexTimeline:
    def test_root_has_no_parent_rows(self, fig5_schedule):
        tree, schedule = fig5_schedule
        tl = vertex_timeline(tree, schedule, 0)
        assert tl.receive_from_parent == {}
        assert tl.send_to_parent == {}

    def test_leaf_has_no_child_rows(self, fig5_schedule):
        tree, schedule = fig5_schedule
        tl = vertex_timeline(tree, schedule, 3)
        assert tl.receive_from_child == {}
        assert tl.send_to_child == {}

    def test_receive_time_is_send_plus_one(self, fig5_schedule):
        tree, schedule = fig5_schedule
        tl_parent = vertex_timeline(tree, schedule, 4)
        tl_child = vertex_timeline(tree, schedule, 8)
        for t, m in tl_parent.send_to_child.items():
            tx = schedule.round_at(t).sent_by(4)
            if 8 in tx.destinations:
                assert tl_child.receive_from_parent[t + 1] == m

    def test_horizon(self, fig5_schedule):
        tree, schedule = fig5_schedule
        tl = vertex_timeline(tree, schedule, 8)
        assert tl.horizon == 18  # n + k = 16 + 2

    def test_row_aliases(self, fig5_schedule):
        tree, schedule = fig5_schedule
        tl = vertex_timeline(tree, schedule, 1)
        assert tl.row("Send to Child") == tl.send_to_child
        assert tl.row("send to children") == tl.send_to_child
        assert tl.row("Receive from Parent") == tl.receive_from_parent
        with pytest.raises(KeyError):
            tl.row("nonsense")

    def test_as_lists_dense(self, fig5_schedule):
        tree, schedule = fig5_schedule
        tl = vertex_timeline(tree, schedule, 1)
        rows = tl.as_lists()
        assert rows["Send to Parent"][0] == 1
        assert rows["Send to Parent"][3] is None
        assert len(rows["Send to Parent"]) == tl.horizon + 1

    def test_as_lists_fixed_horizon(self, fig5_schedule):
        tree, schedule = fig5_schedule
        rows = vertex_timeline(tree, schedule, 0).as_lists(horizon=20)
        assert len(rows["Send to Child"]) == 21

    def test_empty_timeline_horizon(self):
        from tests.conftest import sched
        from repro.tree.tree import Tree

        tl = vertex_timeline(Tree([-1, 0], root=0), sched(n=2), 1)
        assert tl.horizon == -1


class TestAllTimelines:
    def test_one_per_vertex(self, fig5_schedule):
        tree, schedule = fig5_schedule
        tls = all_timelines(tree, schedule)
        assert len(tls) == 16
        assert [tl.vertex for tl in tls] == list(range(16))

    def test_every_send_accounted(self, fig5_schedule):
        """Each vertex's sends appear in its own timeline rows."""
        tree, schedule = fig5_schedule
        tls = all_timelines(tree, schedule)
        total_rows = sum(
            len(tl.send_to_parent) + len(tl.send_to_child) for tl in tls
        )
        # every transmission hits at least one of the two send rows; fused
        # up+down multicasts hit both
        assert total_rows >= schedule.total_messages()
