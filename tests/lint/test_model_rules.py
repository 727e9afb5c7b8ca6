"""Model-tier rules: each fires with the right rule id and locus."""

import pytest

from repro.core.gossip import gossip
from repro.core.schedule import Transmission
from repro.exceptions import (
    ModelViolationError,
    ReproError,
    ScheduleConflictError,
    ScheduleError,
)
from repro.lint import (
    RULES,
    STATIC_MODEL_RULES,
    Severity,
    diagnostic_exception,
    expand_selection,
    lint_schedule,
)
from repro.networks import topologies

from tests.conftest import sched


def tx(sender, message, dests):
    return Transmission(sender=sender, message=message, destinations=frozenset(dests))


@pytest.fixture(scope="module")
def grid():
    return topologies.grid_2d(3, 4)


@pytest.fixture(scope="module")
def plan(grid):
    return gossip(grid)


class TestCleanPlan:
    def test_no_errors_on_concurrent_updown(self, grid, plan):
        report = lint_schedule(grid, plan.schedule, plan=plan)
        assert report.ok
        assert report.errors == ()

    def test_rules_run_recorded(self, grid, plan):
        report = lint_schedule(grid, plan.schedule, plan=plan)
        assert set(report.rules_run) == set(RULES)  # all tiers active

    def test_model_only_selection(self, grid, plan):
        report = lint_schedule(grid, plan.schedule, plan=plan, select=["model"])
        assert all(RULES[r].tier == "model" for r in report.rules_run)


class TestSendWithoutHold:
    def test_flagged_with_locus(self, grid):
        # processor 0 sends message 5 it never received
        broken = sched([tx(0, 5, {1})])
        report = lint_schedule(grid, broken, require_complete=False)
        found = report.by_rule("model/send-without-hold")
        assert len(found) == 1
        assert found[0].round == 0
        assert found[0].sender == 0
        assert found[0].message_id == 5
        assert found[0].severity is Severity.ERROR

    def test_possession_propagates(self, grid):
        # 0 -> 1 at t=0, so 1 may forward message 0 at t=1 (receive-before-send)
        ok = sched([tx(0, 0, {1})], [tx(1, 0, {2})])
        report = lint_schedule(grid, ok, require_complete=False)
        assert report.by_rule("model/send-without-hold") == ()

    def test_same_round_forward_is_too_early(self, grid):
        # delivery lands at t+1: forwarding in the same round is illegal
        early = sched([tx(0, 0, {1}), tx(1, 0, {2})])
        report = lint_schedule(grid, early, require_complete=False)
        found = report.by_rule("model/send-without-hold")
        assert [d.sender for d in found] == [1]


class TestRanges:
    def test_message_out_of_range(self, grid):
        report = lint_schedule(
            grid, [[tx(0, 99, {1})]], require_complete=False
        )
        found = report.by_rule("model/message-range")
        assert len(found) == 1 and found[0].round == 0

    def test_negative_message(self, grid):
        report = lint_schedule(
            grid, [[tx(0, -1, {1})]], require_complete=False
        )
        assert report.by_rule("model/message-range")

    def test_sender_out_of_range(self, grid):
        report = lint_schedule(
            grid, [[tx(50, 0, {1})]], require_complete=False
        )
        found = report.by_rule("model/vertex-range")
        assert found and found[0].sender == 50

    def test_destination_out_of_range(self, grid):
        report = lint_schedule(
            grid, [[tx(0, 0, {77})]], require_complete=False
        )
        found = report.by_rule("model/vertex-range")
        assert found and found[0].destination == 77

    def test_ids_beyond_64_bits_are_a_typed_refusal(self, grid):
        with pytest.raises(ReproError, match="64 bits"):
            lint_schedule(grid, [[tx(0, 0, {2**70})]], require_complete=False)

    def test_n_messages_override(self, grid):
        report = lint_schedule(
            grid, [[tx(0, 0, {1})]], n_messages=24, require_complete=False
        )
        assert report.by_rule("model/message-range") == ()


class TestNonEdge:
    def test_flagged(self, grid):
        # 0 and 2 are not adjacent in the 3x4 grid (row-major, width 4)
        report = lint_schedule(
            grid, [[tx(0, 0, {2})]], require_complete=False
        )
        found = report.by_rule("model/non-edge")
        assert found and (found[0].sender, found[0].destination) == (0, 2)


class TestCollisions:
    """Raw rounds are the only way to reach these rules —
    ``ArraySchedule`` refuses colliding rows outright."""

    def test_sender_collision(self, grid):
        report = lint_schedule(
            grid, [[tx(0, 0, {1}), tx(0, 0, {4})]], require_complete=False
        )
        found = report.by_rule("model/sender-collision")
        assert found and found[0].sender == 0 and found[0].round == 0

    def test_receiver_collision(self, grid):
        report = lint_schedule(
            grid, [[tx(0, 0, {1}), tx(5, 5, {1})]], require_complete=False
        )
        found = report.by_rule("model/receiver-collision")
        assert found and found[0].destination == 1


class TestIncompleteGossip:
    def test_empty_schedule_flagged(self, grid):
        report = lint_schedule(grid, [])
        found = report.by_rule("model/incomplete-gossip")
        assert len(found) == 1
        assert not report.ok

    def test_suppressed_without_require_complete(self, grid):
        report = lint_schedule(grid, [], require_complete=False)
        assert report.by_rule("model/incomplete-gossip") == ()


class TestSelection:
    def test_unknown_rule_raises(self, grid):
        with pytest.raises(ReproError, match="unknown lint rule"):
            lint_schedule(grid, [], select=["model/typo"])

    def test_paper_rules_need_plan(self, grid):
        with pytest.raises(ReproError, match="plan"):
            lint_schedule(grid, [], select=["paper"])

    def test_ignore_disables_rule(self, grid):
        report = lint_schedule(
            grid, [[tx(0, 99, {1})]],
            ignore=["model/message-range"], require_complete=False,
        )
        assert report.by_rule("model/message-range") == ()

    def test_expand_tier_name(self):
        ids = expand_selection(["efficiency"], default_tiers=())
        assert ids and all(RULES[r].tier == "efficiency" for r in ids)


class TestDiagnosticException:
    def test_mapping_matches_dynamic_layer(self, grid):
        cases = [
            ([[tx(50, 0, {1})]], "model/vertex-range", ScheduleError),
            ([[tx(0, 99, {1})]], "model/message-range", ScheduleError),
            ([[tx(0, 0, {2})]], "model/non-edge", ModelViolationError),
            (
                [[tx(0, 0, {1}), tx(0, 0, {4})]],
                "model/sender-collision",
                ScheduleConflictError,
            ),
        ]
        for rounds, rule, exc_type in cases:
            report = lint_schedule(
                grid, rounds, select=STATIC_MODEL_RULES, require_complete=False
            )
            diag = report.by_rule(rule)[0]
            exc = diagnostic_exception(diag)
            assert isinstance(exc, exc_type)
            assert str(exc) == diag.message


class TestCheckStaticBugfix:
    """Satellite: ``check_static`` must reject out-of-range message ids."""

    def test_message_range_rejected(self, grid):
        from repro.simulator.validator import check_static

        broken = sched([tx(0, 99, {1})])
        with pytest.raises(ScheduleError, match="message 99 out of range"):
            check_static(grid, broken)

    def test_negative_message_rejected(self, grid):
        from repro.simulator.validator import check_static

        broken = sched([tx(0, -3, {1})])
        with pytest.raises(ScheduleError, match="out of range"):
            check_static(grid, broken)

    def test_clean_schedule_passes(self, grid, plan):
        from repro.simulator.validator import check_static

        check_static(grid, plan.schedule)
