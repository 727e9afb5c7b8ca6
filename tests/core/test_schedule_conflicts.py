"""Conflict paths of ``merge_schedules`` / ``ArraySchedule.from_sends``
misuse, and loci parity with the static analyzer.

The packer rejects rule-violating rounds eagerly; the lint layer must
report the *same* violations at the *same* loci when handed the raw
(pre-packing) transmissions — proving the two enforcement points agree
on what a conflict is and where it happens.
"""

import pytest

from repro.core.schedule import (
    ArraySchedule,
    Schedule,
    Transmission,
    merge_schedules,
)
from repro.exceptions import ScheduleConflictError, ScheduleError
from repro.lint import lint_schedule
from repro.networks import topologies
from tests.conftest import sched


def tx(sender, message, dests):
    return Transmission(sender=sender, message=message, destinations=frozenset(dests))


@pytest.fixture(scope="module")
def k4():
    return topologies.complete_graph(4)


def pack(*sends, n=4):
    return Schedule.from_arrays(ArraySchedule.from_sends(sends, n=n))


class TestBuilderMisuse:
    """Misuse of the send packer ``ArraySchedule.from_sends``."""

    def test_sender_message_conflict(self):
        with pytest.raises(
            ScheduleConflictError, match=r"send both message 1 and message 2"
        ):
            pack((0, 1, 1, {2}), (0, 1, 2, {3}))

    def test_same_message_merges_destinations(self):
        sched = pack((0, 1, 1, {2}), (0, 1, 1, {3}))
        assert sched.round_at(0).transmissions[0].destinations == frozenset({2, 3})

    def test_overlapping_destinations_rejected_at_build(self):
        with pytest.raises(ScheduleConflictError, match="receives two"):
            pack((0, 1, 1, {3}), (0, 2, 2, {3}))

    def test_negative_time_rejected(self):
        with pytest.raises(ScheduleError, match="negative send time"):
            pack((-1, 0, 0, {1}))

    def test_empty_destinations_dropped(self):
        assert pack((0, 1, 1, set())).total_time == 0


class TestMergeConflicts:
    def test_sender_collision_across_merged_schedules(self):
        a = pack((0, 1, 1, {2}))
        b = pack((0, 1, 2, {3}))
        with pytest.raises(ScheduleConflictError, match="send both"):
            merge_schedules(a, b)

    def test_receiver_collision_across_merged_schedules(self):
        a = pack((0, 1, 1, {3}))
        b = pack((0, 2, 2, {3}))
        with pytest.raises(ScheduleConflictError, match="receives two"):
            merge_schedules(a, b)

    def test_conflict_only_at_overlap_time(self):
        # same events at different times merge cleanly
        a = pack((0, 1, 1, {3}))
        b = pack((1, 2, 2, {3}))
        merged = merge_schedules(a, b)
        assert merged.total_time == 2

    def test_object_inputs_pack_through_arrays(self):
        # rounds written as objects are packed, then fused like array inputs
        a = sched([tx(1, 1, {2})])
        b = pack((0, 1, 1, {3}))
        merged = merge_schedules(a, b)
        assert merged.round_at(0).sent_by(1).destinations == frozenset({2, 3})


class TestLintLociParity:
    """The lint rules report the same loci the packer rejects."""

    def test_sender_collision_locus(self, k4):
        # the raw rounds from_sends would refuse to pack at t=0
        raw = [[tx(1, 1, {2}), tx(1, 2, {3})]]
        report = lint_schedule(k4, raw, require_complete=False)
        found = report.by_rule("model/sender-collision")
        assert len(found) == 1
        assert (found[0].round, found[0].sender) == (0, 1)
        with pytest.raises(ScheduleConflictError):
            sched(*raw)

    def test_receiver_collision_locus(self, k4):
        raw = [[tx(1, 1, {3}), tx(2, 2, {3})]]
        report = lint_schedule(k4, raw, require_complete=False)
        found = report.by_rule("model/receiver-collision")
        assert len(found) == 1
        assert (found[0].round, found[0].destination) == (0, 3)
        with pytest.raises(ScheduleConflictError):
            sched(*raw)

    def test_collision_round_matches_merge_overlap(self, k4):
        # the merge conflict happens at time 1 — so does the diagnostic
        raw = [
            [tx(0, 0, {1})],
            [tx(1, 1, {3}), tx(2, 2, {3})],
        ]
        report = lint_schedule(k4, raw, require_complete=False)
        found = report.by_rule("model/receiver-collision")
        assert [d.round for d in found] == [1]

    def test_clean_merge_lints_clean(self, k4):
        merged = merge_schedules(pack((0, 1, 1, {3})), pack((1, 2, 2, {3})))
        report = lint_schedule(k4, merged, require_complete=False)
        assert report.errors == ()
