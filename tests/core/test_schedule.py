"""Unit tests for the schedule data model.

``Schedule.from_sends`` is where the structural rules live; the
``Round`` / ``Transmission`` view only records and looks up.
"""

import numpy as np
import pytest

from repro.core.gossip import gossip
from repro.core.schedule import Round, Schedule, Transmission, merge_schedules
from repro.exceptions import ScheduleConflictError, ScheduleError
from tests.conftest import sched


def tx(sender, message, dests):
    return Transmission(sender=sender, message=message, destinations=frozenset(dests))


def pack(*sends, n=4):
    return Schedule.from_sends(sends, n=n)


class TestTransmission:
    def test_basic(self):
        t = tx(0, 3, {1, 2})
        assert t.fan_out() == 2
        assert t.destinations == frozenset({1, 2})

    def test_normalises_iterables(self):
        t = Transmission(sender=0, message=1, destinations=[2, 3])  # type: ignore[arg-type]
        assert isinstance(t.destinations, frozenset)

    def test_empty_destinations_rejected(self):
        # The packer drops an empty send; a stored row must not be empty.
        assert pack((0, 0, 1, ())).total_time == 0
        with pytest.raises(ScheduleError, match="empty"):
            Schedule([0], [0], [1], np.zeros((1, 1), dtype=np.uint64), n=4)

    def test_self_send_rejected(self):
        with pytest.raises(ScheduleError, match="itself"):
            pack((0, 0, 1, {0, 1}))

    def test_ordering_stable(self):
        a, b = tx(0, 1, {2}), tx(1, 0, {3})
        assert sorted([b, a]) == [a, b]

    def test_repr(self):
        assert repr(tx(0, 5, {2, 1})) == "(5, 0 -> {1,2})"


class TestRound:
    def test_lookups(self):
        r = Round([tx(0, 0, {1, 2}), tx(3, 3, {4})])
        assert r.sent_by(0).message == 0
        assert r.sent_by(5) is None
        assert r.received_by(2).sender == 0
        assert r.received_by(0) is None
        assert r.senders() == {0, 3}
        assert r.receivers() == {1, 2, 4}

    def test_counts(self):
        r = Round([tx(0, 0, {1, 2}), tx(3, 3, {4})])
        assert r.message_count() == 2
        assert r.delivery_count() == 3
        assert len(r) == 2

    def test_rule_two_duplicate_sender_rejected(self):
        with pytest.raises(ScheduleConflictError, match="send both message 0 and message 2"):
            pack((0, 0, 0, {1}), (0, 0, 2, {3}))

    def test_rule_one_duplicate_receiver_rejected(self):
        with pytest.raises(
            ScheduleConflictError,
            match="processor 2 receives two messages in one round: 0 and 1",
        ):
            pack((0, 0, 0, {2}), (0, 1, 1, {2}))

    def test_sender_may_also_receive(self):
        # Full-duplex is allowed: sending and receiving are independent.
        r = pack((0, 0, 0, {1}), (0, 1, 1, {0})).round_at(0)
        assert r.message_count() == 2

    def test_empty_round(self):
        r = Round()
        assert r.is_empty()
        assert r.delivery_count() == 0

    def test_equality_hash(self):
        a = Round([tx(0, 0, {1})])
        b = Round([tx(0, 0, {1})])
        assert a == b
        assert hash(a) == hash(b)


class TestSchedule:
    def test_total_time(self):
        s = sched([tx(0, 0, {1})], [tx(1, 0, {2})])
        assert s.total_time == 2
        assert len(s) == 2

    def test_trailing_empty_rounds_trimmed(self):
        s = sched([tx(0, 0, {1})], [], [])
        assert s.total_time == 1

    def test_interior_empty_round_kept(self):
        s = sched([], [tx(0, 0, {1})])
        assert s.total_time == 2
        assert s.round_at(0).is_empty()

    def test_round_at_past_end_is_empty(self):
        s = sched([tx(0, 0, {1})])
        assert s.round_at(99).is_empty()
        assert s.transmissions_at(99) == ()

    def test_counters(self):
        s = sched([tx(0, 0, {1, 2})], [tx(1, 0, {3})])
        assert s.total_messages() == 2
        assert s.total_deliveries() == 3
        assert s.max_fan_out() == 2

    def test_empty_schedule(self):
        s = sched(n=0)
        assert s.total_time == 0
        assert s.max_fan_out() == 0

    def test_with_name(self):
        s = sched(n=0, name="a").with_name("b")
        assert s.name == "b"

    def test_with_name_shares_columns_and_keeps_the_mask_lazy(self):
        plain = gossip("grid:16").schedule
        assert plain._dest_mask is None  # ConcurrentUpDown builds it lazily
        named = plain.with_name("renamed")
        assert (named.name, plain.name) == ("renamed", "ConcurrentUpDown")
        assert named.round is plain.round
        assert named.sender is plain.sender
        assert named.message is plain.message
        assert named._dest_mask is None and plain._dest_mask is None
        # Built once, by whichever copy asks first, and shared.
        assert named.dest_mask is plain.dest_mask
        assert named == plain

    def test_rounds_are_built_once(self, monkeypatch):
        s = sched([tx(0, 0, {1, 2})], [], [tx(1, 0, {3})])
        first = s.rounds
        monkeypatch.setattr(Schedule, "sends", lambda self: pytest.fail("rebuilt"))
        assert s.rounds is first
        assert s.round_at(2) is first[2]
        assert s.transmissions_at(0) is first[0].transmissions
        assert list(s) == list(first)

    def test_equality(self):
        mk = lambda: sched([tx(0, 0, {1})])  # noqa: E731
        assert mk() == mk()
        assert hash(mk()) == hash(mk())

    def test_equality_ignores_declared_universe(self):
        """Same sends in the same rounds, whatever n each side declares."""
        narrow = sched([tx(0, 0, {1})])
        wide = sched([tx(0, 0, {1})], n=200)
        assert narrow == wide
        assert hash(narrow) == hash(wide)
        assert narrow != sched([tx(0, 0, {1})], [tx(1, 1, {0})], n=200)
        assert narrow != sched([tx(0, 1, {1})])

    def test_equality_ignores_n_messages_and_name(self):
        sends = [(0, 0, 1, (1, 2)), (1, 2, 0, (3,))]
        base = Schedule.from_sends(sends, n=4, n_messages=4, name="a")
        for other in (
            Schedule.from_sends(sends, n=4, n_messages=9, name="a"),
            Schedule.from_sends(sends, n=4, n_messages=4, name="b"),
            Schedule.from_sends(sends, n=130, n_messages=130, name=""),
            base.widen(300, 500),
        ):
            assert other == base and base == other
            assert hash(other) == hash(base)
        assert len({base, base.with_name("c"), base.widen(70)}) == 1
        assert base != Schedule.from_sends(sends[:1], n=4)


class TestScheduleBuilder:
    """``Schedule.from_sends``, the send packer that replaced the
    ``ScheduleBuilder`` accumulator (test ids kept stable)."""

    def test_build_orders_rounds(self):
        s = pack((2, 0, 0, {1}), (0, 1, 1, {0}))
        assert s.total_time == 3
        assert s.round_at(0).sent_by(1).message == 1
        assert s.round_at(1).is_empty()

    def test_merges_same_message_same_sender(self):
        s = pack((0, 0, 7, {1}), (0, 0, 7, {2, 3}))
        assert s.round_at(0).sent_by(0).destinations == frozenset({1, 2, 3})
        assert s.total_messages() == 1

    def test_rejects_different_message_same_sender(self):
        with pytest.raises(ScheduleConflictError):
            pack((0, 0, 7, {1}), (0, 0, 8, {2}))

    def test_receiver_conflict_caught_at_build(self):
        with pytest.raises(ScheduleConflictError):
            pack((0, 0, 0, {2}), (0, 1, 1, {2}))

    def test_empty_destination_ignored(self):
        assert pack((0, 0, 0, [])).total_time == 0

    def test_negative_time_rejected(self):
        with pytest.raises(ScheduleError):
            pack((-1, 0, 0, {1}))

    def test_sends_roundtrip(self):
        arr = sched([tx(0, 0, {1, 2})], [tx(2, 0, {3})], name="x")
        assert arr.sends() == [(0, 0, 0, (1, 2)), (1, 2, 0, (3,))]
        again = Schedule.from_sends(arr.sends(), n=arr.n, name="x")
        assert again == arr
        assert (again.n, again.n_messages, again.name) == (arr.n, arr.n_messages, "x")

    def test_destination_outside_universe_rejected(self):
        with pytest.raises(ScheduleError, match="outside processors 0..3"):
            pack((0, 0, 0, {4}))
        with pytest.raises(ScheduleError, match="outside processors"):
            pack((0, 1, 0, {-1}))


class TestMergeSchedules:
    def test_disjoint_merge(self):
        a = sched([tx(0, 0, {1})])
        b = sched([], [tx(1, 0, {2})])
        merged = merge_schedules(a, b)
        assert merged.total_time == 2
        assert merged.total_messages() == 2

    def test_same_send_fuses(self):
        a = sched([tx(0, 5, {1})])
        b = sched([tx(0, 5, {2})])
        merged = merge_schedules(a, b)
        assert merged.round_at(0).sent_by(0).destinations == frozenset({1, 2})

    def test_conflicting_merge_raises(self):
        a = sched([tx(0, 5, {1})])
        b = sched([tx(0, 6, {2})])
        with pytest.raises(ScheduleConflictError):
            merge_schedules(a, b)

    def test_receiver_conflict_merge_raises(self):
        a = sched([tx(0, 5, {2})])
        b = sched([tx(1, 6, {2})])
        with pytest.raises(ScheduleConflictError):
            merge_schedules(a, b)
