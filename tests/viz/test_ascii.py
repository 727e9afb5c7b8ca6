"""Unit tests for the ASCII renderers."""

from repro.core.concurrent_updown import concurrent_updown
from repro.networks.paper_networks import fig5_tree
from repro.tree.labeling import LabeledTree
from repro.viz.ascii import render_gantt, render_schedule, render_tree


class TestRenderTree:
    def test_plain(self):
        text = render_tree(fig5_tree())
        lines = text.splitlines()
        assert lines[0] == "0"
        assert len(lines) == 16
        assert any("└── " in line for line in lines)

    def test_with_labels(self):
        labeled = LabeledTree(fig5_tree())
        text = render_tree(labeled.tree, labeled)
        assert "[i=0 j=15 k=0]" in text
        assert "[i=4 j=10 k=1]" in text

    def test_single_vertex(self):
        from repro.tree.tree import Tree

        assert render_tree(Tree([-1], root=0)) == "0"


class TestRenderSchedule:
    def test_contains_rounds(self):
        schedule = concurrent_updown(LabeledTree(fig5_tree()))
        text = render_schedule(schedule)
        assert "19 rounds" in text
        assert "t=  0:" in text

    def test_truncation(self):
        schedule = concurrent_updown(LabeledTree(fig5_tree()))
        text = render_schedule(schedule, max_rounds=3)
        assert "more rounds" in text

    def test_idle_round_marked(self):
        from tests.conftest import sched, tx

        s = sched([], [tx(0, 0, {1})])
        assert "(idle)" in render_schedule(s)


class TestRenderGantt:
    def test_shape(self):
        schedule = concurrent_updown(LabeledTree(fig5_tree()))
        text = render_gantt(schedule, 16)
        lines = text.splitlines()
        assert len(lines) == 17  # header + one row per processor
        assert lines[1].startswith("P0")
        assert "#" in text and "." in text

    def test_width_truncation(self):
        schedule = concurrent_updown(LabeledTree(fig5_tree()))
        text = render_gantt(schedule, 16, width=5)
        assert "…" in text
