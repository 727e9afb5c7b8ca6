"""Unit tests for the round-based execution engine."""

import pytest

from repro.core.schedule import Transmission
from repro.exceptions import IncompleteGossipError, ModelViolationError
from repro.networks import topologies
from repro.networks.graph import Graph
from repro.simulator.engine import execute_schedule
from tests.conftest import sched, tx


def raw(*rounds):
    """Hand-written rounds as raw ``Transmission`` lists: the engine reads
    them too, ids a schedule cannot hold (a negative sender) included."""
    return [
        [Transmission(sender=s, message=m, destinations=frozenset(ds)) for s, m, ds in rnd]
        for rnd in rounds
    ]


class TestBasicExecution:
    def test_single_hop(self):
        g = Graph(2, [(0, 1)])
        result = execute_schedule(
            g, sched([tx(0, 0, {1}), tx(1, 1, {0})]), require_complete=True
        )
        assert result.complete
        assert result.total_time == 1
        assert result.completion_times == [1, 1]

    def test_empty_schedule_incomplete(self):
        g = Graph(2, [(0, 1)])
        result = execute_schedule(g, sched())
        assert not result.complete
        assert result.completion_times == [None, None]

    def test_single_vertex_trivially_complete(self):
        result = execute_schedule(Graph(1, []), sched(n=1))
        assert result.complete
        assert result.completion_times == [0]


class TestReceiveBeforeSend:
    def test_forward_same_round_as_arrival(self):
        """A message sent at t-1 arrives at t and may be forwarded at t."""
        g = topologies.path_graph(3)
        s = sched(
            [tx(0, 0, {1})],          # round 0: 0 -> 1
            [tx(1, 0, {2})],          # round 1: 1 forwards what arrived at t=1
        )
        result = execute_schedule(g, s)
        assert result.final_holds[2] & 1

    def test_forward_too_early_rejected(self):
        """Forwarding in the same round it was *sent* is impossible."""
        g = topologies.path_graph(3)
        s = sched([tx(0, 0, {1}), tx(1, 0, {2})])  # 1 does not hold 0 yet
        with pytest.raises(ModelViolationError, match="does not hold"):
            execute_schedule(g, s)


class TestModelEnforcement:
    def test_possession_required(self):
        g = Graph(2, [(0, 1)])
        with pytest.raises(ModelViolationError, match="does not hold"):
            execute_schedule(g, sched([tx(0, 1, {1})]))

    def test_adjacency_required(self):
        g = topologies.path_graph(3)
        with pytest.raises(ModelViolationError, match="not an adjacent"):
            execute_schedule(g, sched([tx(0, 0, {2})]))

    def test_multicast_to_neighbors_ok(self):
        g = topologies.star_graph(4)
        result = execute_schedule(g, sched([tx(0, 0, {1, 2, 3})]))
        for v in (1, 2, 3):
            assert result.final_holds[v] & 1

    def test_require_complete_raises_with_missing_report(self):
        g = Graph(2, [(0, 1)])
        with pytest.raises(IncompleteGossipError, match="missing"):
            execute_schedule(g, sched([tx(0, 0, {1})]), require_complete=True)


class TestBookkeeping:
    def test_duplicates_counted(self):
        g = Graph(2, [(0, 1)])
        s = sched([tx(0, 0, {1})], [tx(0, 0, {1})], [tx(1, 1, {0})])
        result = execute_schedule(g, s, require_complete=True)
        assert result.duplicate_deliveries == 1

    def test_arrival_log(self):
        g = topologies.path_graph(3)
        s = sched([tx(0, 0, {1})], [tx(1, 0, {2})])
        result = execute_schedule(g, s, record_arrivals=True)
        assert [(ev.time, ev.receiver, ev.sender, ev.message) for ev in result.arrivals] == [
            (1, 1, 0, 0),
            (2, 2, 1, 0),
        ]

    def test_no_arrival_log_by_default(self):
        g = Graph(2, [(0, 1)])
        result = execute_schedule(g, sched([tx(0, 0, {1})]))
        assert result.arrivals == []

    def test_makespan(self):
        g = Graph(2, [(0, 1)])
        result = execute_schedule(
            g, sched([tx(0, 0, {1}), tx(1, 1, {0})]), require_complete=True
        )
        assert result.makespan == 1

    def test_makespan_none_when_incomplete(self):
        g = Graph(2, [(0, 1)])
        result = execute_schedule(g, sched([tx(0, 0, {1})]))
        assert not result.complete
        assert result.makespan is None

    def test_custom_initial_holds(self):
        """Labeled holdings: vertex v starts with its DFS label."""
        g = Graph(2, [(0, 1)])
        s = sched([tx(0, 1, {1}), tx(1, 0, {0})])
        result = execute_schedule(
            g, s, initial_holds=[0b10, 0b01], require_complete=True
        )
        assert result.complete

    def test_final_holds(self):
        g = Graph(3, [(0, 1), (1, 2)])
        s = sched([tx(1, 1, {0, 2})])
        result = execute_schedule(g, s)
        assert result.final_holds == [0b011, 0b010, 0b110]


class TestMalformedIds:
    """Out-of-range ids are typed model violations that name the id."""

    @pytest.mark.parametrize(
        "sender, message, named",
        [(5, 0, "sender 5"), (-1, 3, "sender -1"), (0, -1, "message -1"),
         (0, 4, "message 4")],
    )
    def test_out_of_range_id_raises_model_violation(self, sender, message, named):
        g = topologies.path_graph(4)
        with pytest.raises(ModelViolationError, match=named):
            execute_schedule(g, raw([tx(sender, message, {1})]))

    def test_negative_sender_does_not_read_another_processor(self):
        """Sender -1 used to be read as processor 3 (``holds [3]``)."""
        g = topologies.path_graph(4)
        with pytest.raises(ModelViolationError) as err:
            execute_schedule(g, raw([tx(-1, 3, {2})]))
        assert "holds" not in str(err.value)

    def test_first_violation_in_round_then_row_order(self):
        g = topologies.path_graph(4)
        s = sched([tx(0, 0, {1})], [tx(1, 2, {0}), tx(3, 3, {2}), tx(2, 9, {1})])
        with pytest.raises(ModelViolationError, match="at time 1 processor 1 sends message 2"):
            execute_schedule(g, s)


class TestArrivalOrder:
    def test_destinations_ascending_within_a_multicast(self):
        """frozenset({1, 8}) iterates 8 first; the log is ascending."""
        g = topologies.star_graph(9)
        result = execute_schedule(g, sched([tx(0, 0, {1, 8})]), record_arrivals=True)
        assert [ev.receiver for ev in result.arrivals] == [1, 8]
