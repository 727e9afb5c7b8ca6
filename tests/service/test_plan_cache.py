"""Unit tests for the bounded LRU plan cache."""

import pytest

from repro.core.gossip import gossip
from repro.exceptions import ReproError
from repro.networks import topologies
from repro.service.cache import PlanCache, plan_weight, tree_fingerprint


def _plan(n: int):
    return gossip(topologies.path_graph(n))


def _key(plan, algorithm="concurrent-updown"):
    return (plan.graph.canonical_hash(), "", algorithm)


class TestLRU:
    def test_get_miss_returns_none(self):
        assert PlanCache().get(("nope", "", "x")) is None

    def test_put_get_roundtrip(self):
        cache = PlanCache()
        plan = _plan(5)
        assert cache.put(_key(plan), plan) == 0
        assert cache.get(_key(plan)) is plan
        assert len(cache) == 1
        assert cache.weight == plan_weight(plan)

    def test_entry_bound_evicts_least_recently_used(self):
        cache = PlanCache(max_entries=2)
        a, b, c = _plan(3), _plan(4), _plan(5)
        cache.put(_key(a), a)
        cache.put(_key(b), b)
        assert cache.get(_key(a)) is a  # refresh a; b is now LRU
        evicted = cache.put(_key(c), c)
        assert evicted == 1
        assert cache.get(_key(b)) is None
        assert cache.get(_key(a)) is a
        assert cache.get(_key(c)) is c

    def test_weight_bound(self):
        plans = [_plan(n) for n in (3, 4, 5, 6, 7)]
        # Room for the largest plan plus a little — forces evictions
        # without tripping the oversized-entry escape hatch.
        cache = PlanCache(
            max_entries=100, max_weight=2 * plan_weight(plans[-1])
        )
        for p in plans:
            cache.put(_key(p), p)
        assert cache.weight <= cache.max_weight
        assert len(cache) < len(plans)

    def test_weight_is_schedule_array_bytes(self):
        plan = _plan(6)
        assert plan_weight(plan) == plan.schedule.nbytes

    def test_refresh_same_key_does_not_double_count_weight(self):
        """Regression guard: ``put`` on an existing key must subtract the
        old entry's weight before adding the new one, or repeated
        refreshes inflate ``cache.weight`` until everything is evicted."""
        cache = PlanCache()
        plan = _plan(6)
        for _ in range(3):
            assert cache.put(_key(plan), plan) == 0
        assert len(cache) == 1
        assert cache.weight == plan_weight(plan)
        # Replacing with a different plan under the same key accounts the
        # delta, not the sum.
        bigger = _plan(9)
        cache.put(_key(plan), bigger)
        assert len(cache) == 1
        assert cache.weight == plan_weight(bigger)

    def test_oversized_entry_still_admitted(self):
        cache = PlanCache(max_entries=10, max_weight=5)
        big = _plan(30)  # array bytes far above the bound
        cache.put(_key(big), big)
        assert cache.get(_key(big)) is big
        # ...but it crowds everything else out
        other = _plan(4)
        assert cache.put(_key(other), other) >= 1

    def test_reput_replaces_without_double_counting_weight(self):
        cache = PlanCache()
        plan = _plan(6)
        cache.put(_key(plan), plan)
        cache.put(_key(plan), plan)
        assert len(cache) == 1
        assert cache.weight == plan_weight(plan)


class TestInvalidation:
    def test_invalidate_single(self):
        cache = PlanCache()
        plan = _plan(5)
        cache.put(_key(plan), plan)
        assert cache.invalidate(_key(plan)) is True
        assert cache.invalidate(_key(plan)) is False
        assert len(cache) == 0 and cache.weight == 0

    def test_invalidate_where(self):
        cache = PlanCache()
        a, b = _plan(5), _plan(6)
        cache.put(_key(a), a)
        cache.put(_key(b), b)
        dropped = cache.invalidate_where(
            lambda k, _p: k[0] == a.graph.canonical_hash()
        )
        assert dropped == 1
        assert cache.get(_key(a)) is None
        assert cache.get(_key(b)) is b

    def test_clear(self):
        cache = PlanCache()
        for n in (3, 4, 5):
            p = _plan(n)
            cache.put(_key(p), p)
        assert cache.clear() == 3
        assert len(cache) == 0 and cache.weight == 0


class TestValidation:
    def test_rejects_bad_bounds(self):
        with pytest.raises(ReproError):
            PlanCache(max_entries=0)
        with pytest.raises(ReproError):
            PlanCache(max_weight=0)


class TestTreeFingerprint:
    def test_none_is_empty(self):
        assert tree_fingerprint(None) == ""

    def test_equal_trees_equal_fingerprints(self):
        plan = _plan(7)
        from repro.tree.tree import Tree

        clone = Tree(list(plan.tree.parents()), plan.tree.root)
        assert tree_fingerprint(clone) == tree_fingerprint(plan.tree)

    def test_child_order_matters(self):
        """Child order fixes the DFS labelling, hence the schedule —
        trees differing only in child order must not share cache keys."""
        from repro.tree.tree import Tree

        star = Tree([-1, 0, 0, 0], root=0)
        flipped = star.with_child_order(lambda v, kids: list(reversed(kids)))
        assert tree_fingerprint(flipped) != tree_fingerprint(star)

    def test_different_roots_differ(self):
        from repro.tree.tree import Tree

        a = Tree([-1, 0, 1], root=0)
        b = Tree([1, -1, 1], root=1)
        assert tree_fingerprint(a) != tree_fingerprint(b)
