"""Unit tests for hold-set state tracking."""

import pytest

from repro.core.schedule import ArraySchedule, Schedule
from repro.exceptions import ModelViolationError, SimulationError
from repro.networks import topologies
from repro.simulator.lossy import FaultModel, execute_with_faults
from repro.simulator.state import (
    bits_of,
    identity_holdings,
    initial_holdings,
    labeled_holdings,
)


class TestBitHelpers:
    def test_bits_of(self):
        assert bits_of(0) == []
        assert bits_of(0b1011) == [0, 1, 3]


class TestInitialHoldings:
    def test_identity(self):
        assert identity_holdings(3) == [1, 2, 4]

    def test_labeled(self):
        assert labeled_holdings([2, 0, 1]) == [4, 1, 2]


def run(sends, initial=None, n_messages=None):
    """Execute ``sends`` on the 2-path with the round-walking executor,
    whose plain list of hold bitsets is the hold state under test."""
    schedule = Schedule.from_arrays(ArraySchedule.from_sends(sends, n=2))
    return execute_with_faults(
        topologies.path_graph(2), schedule, FaultModel(),
        initial_holds=initial, n_messages=n_messages,
    )


class TestHoldState:
    """The per-processor hold bitsets: initial validation, deliveries,
    completion times and duplicates."""

    def test_initial(self):
        holds = initial_holdings(3, None, 3)
        assert holds == [1, 2, 4]
        assert bits_of(holds[1]) == [1]
        assert bits_of(0b111 & ~holds[1]) == [0, 2]

    def test_deliver(self):
        result = run([(2, 1, 1, (0,))])
        assert result.final_holds == [0b11, 0b10]
        assert result.completion_times == [3, None]
        assert not result.complete

    def test_duplicate_counted_not_restamped(self):
        result = run([(0, 1, 1, (0,)), (4, 1, 1, (0,))])
        assert result.duplicate_deliveries == 1
        assert result.completion_times[0] == 1

    def test_all_complete(self):
        result = run([(0, 0, 0, (1,)), (0, 1, 1, (0,))])
        assert result.complete
        assert result.completion_times == [1, 1]

    def test_initial_complete_at_time_zero(self):
        result = run([], initial=[0b11, 0b01])
        assert result.completion_times == [0, None]

    def test_custom_message_count(self):
        first = run([(0, 1, 1, (0,))], initial=[0b001, 0b110], n_messages=3)
        assert first.completion_times[0] is None
        both = run([(0, 1, 1, (0,)), (1, 1, 2, (0,))], initial=[0b001, 0b110], n_messages=3)
        assert both.completion_times[0] == 2

    def test_snapshot_is_copy(self):
        initial = [1, 2]
        result = run([(0, 1, 1, (0,))], initial=initial)
        assert initial == [1, 2]
        assert result.initial_holds == (1, 2)
        assert result.final_holds == [3, 2]

    def test_message_out_of_range(self):
        with pytest.raises(ModelViolationError, match="not one of the 2 message ids"):
            run([(0, 0, 5, (1,))])

    def test_bad_initial_length(self):
        with pytest.raises(SimulationError):
            initial_holdings(3, [1, 2], 3)

    def test_initial_out_of_range_bits(self):
        with pytest.raises(SimulationError):
            initial_holdings(2, [0b100, 0b1], 2)

    def test_zero_processors_rejected(self):
        with pytest.raises(SimulationError):
            initial_holdings(0, None, 0)
