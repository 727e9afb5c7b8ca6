"""Unit tests for hold-set state tracking."""

import pytest

from repro.exceptions import SimulationError
from repro.simulator.state import (
    HoldState,
    bits_of,
    identity_holdings,
    labeled_holdings,
    popcount,
    union_all,
)


class TestBitHelpers:
    def test_bits_of(self):
        assert bits_of(0) == []
        assert bits_of(0b1011) == [0, 1, 3]

    def test_popcount(self):
        assert popcount(0) == 0
        assert popcount(0b10110) == 3

    def test_union_all(self):
        assert union_all([0b001, 0b100]) == 0b101
        assert union_all([]) == 0


class TestInitialHoldings:
    def test_identity(self):
        assert identity_holdings(3) == [1, 2, 4]

    def test_labeled(self):
        assert labeled_holdings([2, 0, 1]) == [4, 1, 2]


class TestHoldState:
    def test_initial(self):
        s = HoldState(3)
        assert s.holds(0, 0)
        assert not s.holds(0, 1)
        assert s.messages_of(1) == [1]
        assert s.missing_of(1) == [0, 2]

    def test_deliver(self):
        s = HoldState(2)
        s.deliver(0, 1, time=3)
        assert s.holds(0, 1)
        assert s.is_complete(0)
        assert s.completion_time(0) == 3
        assert not s.all_complete()

    def test_duplicate_counted_not_restamped(self):
        s = HoldState(2)
        s.deliver(0, 1, time=1)
        s.deliver(0, 1, time=5)
        assert s.duplicate_deliveries == 1
        assert s.completion_time(0) == 1

    def test_all_complete(self):
        s = HoldState(2)
        s.deliver(0, 1, time=1)
        s.deliver(1, 0, time=1)
        assert s.all_complete()
        assert s.completion_times() == [1, 1]

    def test_initial_complete_at_time_zero(self):
        s = HoldState(2, initial=[0b11, 0b01])
        assert s.completion_time(0) == 0
        assert s.completion_time(1) is None

    def test_custom_message_count(self):
        s = HoldState(2, initial=[0b1, 0b10], n_messages=3)
        assert not s.is_complete(0)
        s.deliver(0, 1, 1)
        s.deliver(0, 2, 2)
        assert s.is_complete(0)

    def test_snapshot_is_copy(self):
        s = HoldState(2)
        snap = s.snapshot()
        s.deliver(0, 1, 1)
        assert snap == [1, 2]

    def test_message_out_of_range(self):
        with pytest.raises(SimulationError):
            HoldState(2).deliver(0, 5, 0)

    def test_bad_initial_length(self):
        with pytest.raises(SimulationError):
            HoldState(3, initial=[1, 2])

    def test_initial_out_of_range_bits(self):
        with pytest.raises(SimulationError):
            HoldState(2, initial=[0b100, 0b1])

    def test_zero_processors_rejected(self):
        with pytest.raises(SimulationError):
            HoldState(0)
