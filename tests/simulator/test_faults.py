"""Failure-injection tests: every perturbation must be caught.

Proves the validator is not vacuous — a correct schedule passes, every
minimally-broken variant fails with the right exception.
"""

import pytest

from repro.core.concurrent_updown import concurrent_updown
from repro.exceptions import (
    IncompleteGossipError,
    ModelViolationError,
    ScheduleConflictError,
    ScheduleError,
)
from repro.networks import topologies
from repro.networks.builders import tree_to_graph
from repro.networks.spanning_tree import minimum_depth_spanning_tree
from repro.simulator.faults import (
    corrupt_message,
    drop_round,
    drop_transmission,
    duplicate_receiver,
    redirect_to_nonneighbor,
    swap_rounds,
)
from repro.simulator.state import labeled_holdings
from repro.simulator.engine import execute_schedule
from repro.simulator.validator import check_static, validate_schedule
from repro.tree.labeling import LabeledTree


@pytest.fixture(scope="module")
def setup():
    tree = minimum_depth_spanning_tree(topologies.grid_2d(3, 4))
    labeled = LabeledTree(tree)
    schedule = concurrent_updown(labeled)
    network = tree_to_graph(tree)
    holds = labeled_holdings(labeled.labels())
    return network, schedule, holds


def check(network, schedule, holds):
    return validate_schedule(network, schedule, initial_holds=holds)


class TestBaseline:
    def test_unperturbed_passes(self, setup):
        network, schedule, holds = setup
        assert check(network, schedule, holds).complete


class TestDropRound:
    def test_detected(self, setup):
        network, schedule, holds = setup
        broken = drop_round(schedule, 2)
        with pytest.raises((IncompleteGossipError, ModelViolationError)):
            check(network, broken, holds)

    def test_drop_every_round_position(self, setup):
        """No round of ConcurrentUpDown is redundant."""
        network, schedule, holds = setup
        for index in range(schedule.total_time):
            with pytest.raises(
                (IncompleteGossipError, ModelViolationError, ScheduleConflictError)
            ):
                check(network, drop_round(schedule, index), holds)

    def test_bad_index(self, setup):
        _, schedule, _ = setup
        with pytest.raises(ScheduleError):
            drop_round(schedule, 999)


class TestDropTransmission:
    def test_detected(self, setup):
        network, schedule, holds = setup
        broken = drop_transmission(schedule, 0, 0)
        with pytest.raises((IncompleteGossipError, ModelViolationError)):
            check(network, broken, holds)

    def test_bad_index(self, setup):
        _, schedule, _ = setup
        with pytest.raises(ScheduleError):
            drop_transmission(schedule, 0, 99)


class TestCorruptMessage:
    def test_detected_as_possession_violation(self, setup):
        network, schedule, holds = setup
        # round 0 carries lip-messages; swap one for a message the sender
        # cannot possibly have yet
        tx0 = schedule.round_at(0).transmissions[0]
        wrong = (tx0.message + 5) % 12
        broken = corrupt_message(schedule, 0, 0, wrong)
        with pytest.raises((ModelViolationError, IncompleteGossipError)):
            check(network, broken, holds)

    def test_bad_index(self, setup):
        _, schedule, _ = setup
        with pytest.raises(ScheduleError):
            corrupt_message(schedule, 999, 0, 0)


class TestRedirect:
    def test_detected_as_adjacency_violation(self, setup):
        network, schedule, holds = setup
        broken = redirect_to_nonneighbor(schedule, network, 1, 0)
        with pytest.raises(
            (ModelViolationError, IncompleteGossipError, ScheduleConflictError)
        ):
            check(network, broken, holds)

    def test_complete_graph_has_no_strangers(self):
        g = topologies.complete_graph(4)
        from repro.core.gossip import gossip

        plan = gossip(g)
        with pytest.raises(ScheduleError, match="adjacent to everyone"):
            redirect_to_nonneighbor(plan.schedule, g, 1, 0)


class TestSwapRounds:
    def test_adjacent_swap_detected(self, setup):
        """Swapping the first two rounds of a pipelined schedule makes a
        vertex forward a message before receiving it."""
        network, schedule, holds = setup
        broken = swap_rounds(schedule, 1, 2)
        with pytest.raises(
            (ModelViolationError, IncompleteGossipError, ScheduleConflictError)
        ):
            check(network, broken, holds)

    def test_identity_swap_harmless(self, setup):
        network, schedule, holds = setup
        same = swap_rounds(schedule, 3, 3)
        assert check(network, same, holds).complete

    def test_every_adjacent_swap_never_silently_wrong(self, setup):
        """Any adjacent swap either still completes or is detected —
        never a quiet incomplete-but-unreported outcome."""
        network, schedule, holds = setup
        for a in range(schedule.total_time - 1):
            broken = swap_rounds(schedule, a, a + 1)
            try:
                result = check(network, broken, holds)
            except (ModelViolationError, IncompleteGossipError):
                continue
            assert result.complete

    def test_bad_index(self, setup):
        _, schedule, _ = setup
        with pytest.raises(ScheduleError):
            swap_rounds(schedule, 0, 999)


class TestDuplicateReceiver:
    def test_rejected_structurally(self, setup):
        """Rule 1 violations are refused when the rows are packed."""
        _, schedule, _ = setup
        busy_round = next(
            t for t in range(schedule.total_time) if len(schedule.round_at(t)) >= 2
        )
        with pytest.raises(ScheduleConflictError):
            duplicate_receiver(schedule, busy_round)

    def test_needs_two_transmissions(self, setup):
        from tests.conftest import sched, tx

        tiny = sched([tx(0, 0, {1})])
        with pytest.raises(ScheduleError, match="fewer than two"):
            duplicate_receiver(tiny, 0)


class TestSinglePassValidator:
    """``validate_schedule`` builds one arrival pass for the static and
    the execution rules; every perturbation must still raise what the
    static check followed by the engine raises, type and text."""

    @staticmethod
    def _two_pass(network, schedule, holds):
        check_static(network, schedule)
        return execute_schedule(network, schedule, initial_holds=holds,
                                require_complete=True)

    @pytest.mark.parametrize("mutate", [
        lambda net, s: drop_round(s, 2),
        lambda net, s: drop_transmission(s, 1, 0),
        lambda net, s: corrupt_message(s, 0, 0, 5),
        lambda net, s: redirect_to_nonneighbor(s, net, 1, 0),
        lambda net, s: swap_rounds(s, 1, 2),
    ])
    def test_raises_like_static_then_engine(self, setup, mutate):
        network, schedule, holds = setup
        broken = mutate(network, schedule)
        with pytest.raises(ScheduleError) as single:
            check(network, broken, holds)
        with pytest.raises(ScheduleError) as two:
            self._two_pass(network, broken, holds)
        assert type(single.value) is type(two.value)
        assert str(single.value) == str(two.value)

    def test_static_error_precedes_bad_initial_holds(self, setup):
        network, schedule, holds = setup
        broken = redirect_to_nonneighbor(schedule, network, 1, 0)
        with pytest.raises(ModelViolationError, match="does not follow an edge"):
            check(network, broken, holds[:-1])
