"""Exhaustive small-scope certificate: every rooted ordered tree, n <= 9.

The labelling, and so every schedule, depends only on the shape of the
tree and the left-to-right order of each vertex's children.  A rooted
ordered tree is therefore the complete input space of the tree
algorithms, and at small n it can be enumerated outright: there are
Catalan(n - 1) of them (1,430 at n = 9).  On every one:

* ConcurrentUpDown equals the per-vertex reference transmission for
  transmission, lasts exactly ``n + height`` rounds (Theorem 1) and
  lints clean under all 18 rules, the paper tier included;
* Simple lasts exactly ``2n + r - 3`` (Lemma 1) and UpDown at most
  ``n + 3r - 2``, and both complete on the simulator (n <= 8).
"""

import pytest

from repro.core.gossip import gossip
from repro.core.reference import concurrent_updown_reference
from repro.lint import lint_schedule
from repro.tree.tree import Tree

CATALAN = {1: 1, 2: 1, 3: 2, 4: 5, 5: 14, 6: 42, 7: 132, 8: 429, 9: 1430}


def ordered_trees(n):
    """Every rooted ordered tree on ``n`` vertices, as a preorder parent array.

    Vertices are numbered in preorder, so vertex ``v``'s parent lies on
    the rightmost path of the tree on ``0..v-1``: ``v - 1`` or one of its
    ancestors.  Each choice yields a distinct tree, and every tree arises
    once.
    """

    def grow(parents):
        if len(parents) == n:
            yield tuple(parents)
            return
        v = len(parents) - 1
        while v >= 0:
            parents.append(v)
            yield from grow(parents)
            parents.pop()
            v = parents[v]

    yield from grow([-1])


def trees(n):
    for parents in ordered_trees(n):
        yield parents, Tree(parents, root=0)


@pytest.mark.parametrize("n", sorted(CATALAN))
def test_catalan_counts(n):
    shapes = list(ordered_trees(n))
    assert len(shapes) == CATALAN[n]
    assert len(set(shapes)) == len(shapes)
    for parents in shapes:
        assert list(Tree(parents, root=0).dfs_preorder()) == list(range(n))


@pytest.mark.parametrize("n", sorted(CATALAN))
def test_concurrent_updown_certificate(n):
    for parents, tree in trees(n):
        plan = gossip(tree)
        reference = concurrent_updown_reference(plan.labeled)
        assert plan.arrays() == reference.arrays(), parents
        assert plan.rounds() == reference.rounds, parents
        assert plan.total_time == (n + tree.height if n > 1 else 0), parents
        report = lint_schedule(plan.graph, plan.schedule, plan=plan)
        assert len(report.rules_run) == 18
        assert report.errors == (), (parents, report.errors)


@pytest.mark.parametrize("n", range(1, 9))
def test_simple_and_updown_bounds(n):
    for parents, tree in trees(n):
        r = tree.height
        simple = gossip(tree, algorithm="simple")
        updown = gossip(tree, algorithm="updown")
        if n > 1:
            assert simple.total_time == 2 * n + r - 3, parents
            assert updown.total_time <= n + 3 * r - 2, parents
        assert simple.execute().complete, parents
        assert updown.execute().complete, parents
