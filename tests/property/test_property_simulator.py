"""Property-based tests: simulator conservation laws and validator power."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.gossip import gossip
from repro.simulator.engine import execute_schedule
from repro.simulator.metrics import compute_metrics, link_loads
from repro.simulator.state import labeled_holdings
from tests.conftest import connected_graphs, schedule_prefix


@given(graph=connected_graphs(max_n=18))
@settings(max_examples=30, deadline=None)
def test_hold_sets_grow_monotonically(graph):
    """Replaying round prefixes: nobody ever loses a message."""
    plan = gossip(graph)
    holds = labeled_holdings(plan.labeled.labels())
    prev_counts = [h.bit_count() for h in holds]
    for t in range(1, plan.schedule.total_time + 1):
        prefix = schedule_prefix(plan.schedule, t)
        result = execute_schedule(plan.graph, prefix, initial_holds=holds)
        counts = [h.bit_count() for h in result.final_holds]
        assert all(c >= p for c, p in zip(counts, prev_counts))
        prev_counts = counts


@given(graph=connected_graphs(max_n=20))
@settings(max_examples=30, deadline=None)
def test_message_count_conservation(graph):
    """Total messages held = initial n + deliveries - duplicates."""
    plan = gossip(graph)
    holds = labeled_holdings(plan.labeled.labels())
    result = execute_schedule(plan.graph, plan.schedule, initial_holds=holds)
    total_held = sum(h.bit_count() for h in result.final_holds)
    deliveries = plan.schedule.total_deliveries()
    assert total_held == graph.n + deliveries - result.duplicate_deliveries


@given(graph=connected_graphs(max_n=20))
@settings(max_examples=30, deadline=None)
def test_per_round_receive_rule(graph):
    """No round of a generated schedule delivers twice to one processor
    (rule 1) or sends twice from one processor (rule 2)."""
    plan = gossip(graph)
    for rnd in plan.schedule:
        receivers = [d for tx in rnd for d in tx.destinations]
        assert len(receivers) == len(set(receivers))
        senders = [tx.sender for tx in rnd]
        assert len(senders) == len(set(senders))


@given(graph=connected_graphs(max_n=18))
@settings(max_examples=25, deadline=None)
def test_link_loads_only_on_tree_edges(graph):
    plan = gossip(graph)
    tree_edges = {
        (min(p, c), max(p, c)) for p, c in plan.tree.edges()
    }
    assert set(link_loads(plan.schedule)) <= tree_edges


@given(graph=connected_graphs(max_n=18), data=st.data())
@settings(max_examples=25, deadline=None)
def test_dropping_any_round_breaks_gossip(graph, data):
    """Minimality probe: ConcurrentUpDown has no spare rounds."""
    if graph.n < 3:
        return
    plan = gossip(graph)
    index = data.draw(
        st.integers(min_value=0, max_value=plan.schedule.total_time - 1)
    )
    from repro.exceptions import ScheduleError
    from repro.simulator.faults import drop_round
    from repro.simulator.validator import validate_schedule

    broken = drop_round(plan.schedule, index)
    holds = labeled_holdings(plan.labeled.labels())
    try:
        result = validate_schedule(
            plan.graph, broken, initial_holds=holds, require_complete=True
        )
    except ScheduleError:
        return  # violation detected — expected
    assert not result.complete  # pragma: no cover


@given(graph=connected_graphs(max_n=16))
@settings(max_examples=20, deadline=None)
def test_metrics_consistency(graph):
    plan = gossip(graph)
    result = plan.execute()
    m = compute_metrics(plan.schedule, execution=result)
    assert m.total_deliveries >= m.total_multicasts
    assert m.max_fan_out >= 1 or m.total_multicasts == 0
    if result.complete and graph.n > 1:
        assert m.max_completion_time == plan.schedule.total_time
