"""Efficiency-tier lints: legal but wasteful constructs, all warnings."""

import pytest

from repro.core.gossip import gossip
from repro.core.schedule import Transmission
from repro.lint import Severity, lint_schedule
from repro.networks import topologies

from tests.conftest import sched


def tx(sender, message, dests):
    return Transmission(sender=sender, message=message, destinations=frozenset(dests))


@pytest.fixture(scope="module")
def path():
    return topologies.path_graph(4)


class TestRedundantDelivery:
    def test_delivery_to_holder_flagged(self, path):
        # 1 already holds message 1; 0 delivers it again at t=1
        wasteful = sched([tx(1, 1, {0})], [tx(0, 1, {1})])
        report = lint_schedule(path, wasteful, require_complete=False)
        found = report.by_rule("efficiency/redundant-delivery")
        assert len(found) == 1
        d = found[0]
        assert (d.round, d.sender, d.destination, d.message_id) == (1, 0, 1, 1)
        assert d.severity is Severity.WARNING

    def test_warnings_never_break_ok(self, path):
        wasteful = sched([tx(1, 1, {0})], [tx(0, 1, {1})])
        report = lint_schedule(path, wasteful, require_complete=False)
        assert report.ok
        assert report.warnings


class TestIdleRound:
    def test_interior_empty_round_flagged(self, path):
        rounds = [
            [tx(0, 0, {1})],
            [],
            [tx(1, 0, {2})],
        ]
        report = lint_schedule(path, rounds, require_complete=False)
        found = report.by_rule("efficiency/idle-round")
        assert [d.round for d in found] == [1]


class TestIdleSender:
    def test_idle_holder_next_to_free_needy_neighbour(self, path):
        # Round 0: only 0 -> 1.  Processor 2 idles although 3 is free
        # and misses message 2.
        report = lint_schedule(
            path, sched([tx(0, 0, {1})]), require_complete=False
        )
        idle = {d.sender for d in report.by_rule("efficiency/idle-sender")}
        assert 2 in idle

    def test_busy_processors_not_flagged(self, path):
        report = lint_schedule(
            path, sched([tx(0, 0, {1})]), require_complete=False
        )
        idle = {d.sender for d in report.by_rule("efficiency/idle-sender")}
        assert 0 not in idle


class TestUnicastMergeable:
    def test_repeat_send_flagged(self):
        star = topologies.star_graph(4)  # center 0
        repeat = sched(
            [tx(0, 0, {1})],
            [tx(0, 0, {2})],  # 2 was free at t=0: could have joined
        )
        report = lint_schedule(star, repeat, require_complete=False)
        found = report.by_rule("efficiency/unicast-mergeable")
        assert len(found) == 1
        assert found[0].round == 1 and found[0].sender == 0

    def test_busy_destination_not_flagged(self):
        # destination 2 was receiving in round 0, so the repeat send in
        # round 1 could not have been merged — no warning
        k4 = topologies.complete_graph(4)
        forced = sched(
            [tx(0, 0, {1}), tx(3, 3, {2})],
            [tx(0, 0, {2})],
        )
        report = lint_schedule(k4, forced, require_complete=False)
        assert report.by_rule("efficiency/unicast-mergeable") == ()


class TestOverBudget:
    def test_padded_schedule_flagged(self, path):
        plan = gossip(path)
        rounds = [list(r) for r in plan.schedule] + [[], [tx(0, 0, {1})]]
        report = lint_schedule(path, rounds, plan=plan, ignore=["paper"])
        found = report.by_rule("efficiency/over-budget")
        assert len(found) == 1
        # the locus is the budget boundary n + r
        assert found[0].round == path.n + plan.tree.height

    def test_exact_plan_within_budget(self, path):
        plan = gossip(path)
        report = lint_schedule(path, plan.schedule, plan=plan)
        assert report.by_rule("efficiency/over-budget") == ()

    def test_radius_fallback_without_plan(self, path):
        # without a plan the budget falls back to n + radius(graph)
        plan = gossip(path)
        rounds = [list(r) for r in plan.schedule] + [[], []]
        report = lint_schedule(
            path, rounds,
            initial_holds=[1 << plan.labeled.label_of(v) for v in range(path.n)],
        )
        assert report.by_rule("efficiency/over-budget")
