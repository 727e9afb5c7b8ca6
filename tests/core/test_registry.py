"""Tests for the algorithm registry extension point."""

import pytest

from repro.core.gossip import ALGORITHMS, gossip, register_algorithm
from repro.core.simple import simple_gossip
from repro.networks import topologies


class TestRegisterAlgorithm:
    def test_custom_algorithm_usable_end_to_end(self):
        """Downstream users can plug a scheduling algorithm into the
        pipeline with one decorator."""

        @register_algorithm("test-custom")
        def custom(labeled):
            return simple_gossip(labeled).with_name("Custom")

        try:
            plan = gossip(topologies.path_graph(6), algorithm="test-custom")
            assert plan.schedule.name == "Custom"
            assert plan.execute().complete
        finally:
            del ALGORITHMS["test-custom"]

    def test_decorator_returns_function(self):
        @register_algorithm("test-passthrough")
        def algo(labeled):
            return simple_gossip(labeled)

        try:
            assert ALGORITHMS["test-passthrough"] is algo
            assert algo.__name__ == "algo"
        finally:
            del ALGORITHMS["test-passthrough"]

    def test_builtin_names_present_after_any_gossip(self):
        gossip(topologies.path_graph(3))
        assert {
            "concurrent-updown",
            "simple",
            "updown",
            "updown-greedy",
            "greedy",
            "telephone",
        } <= set(ALGORITHMS)

    def test_bad_custom_algorithm_caught_by_execute(self):
        """A broken custom algorithm cannot slip an invalid schedule
        through — the simulator rejects it."""
        from tests.conftest import sched, tx

        @register_algorithm("test-broken")
        def broken(labeled):
            # sends a message the sender does not hold
            return sched(
                [tx(0, labeled.n - 1, {labeled.tree.children(0)[0]})], n=labeled.n
            )

        try:
            plan = gossip(topologies.star_graph(5), algorithm="test-broken")
            from repro.exceptions import ModelViolationError

            with pytest.raises(ModelViolationError):
                plan.execute()
        finally:
            del ALGORITHMS["test-broken"]
