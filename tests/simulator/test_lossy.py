"""Unit tests for the lossy execution engine (`repro.simulator.lossy`)."""

import pytest

from repro.core.gossip import gossip
from repro.exceptions import ModelViolationError, ScheduleError, SimulationError
from repro.networks import topologies
from repro.networks.graph import Graph
from repro.simulator.engine import execute_schedule
from repro.simulator.lossy import FaultModel, execute_with_faults
from repro.simulator.state import labeled_holdings
from tests.conftest import pack, sched, tx


def plan_run(graph, model, algorithm="concurrent-updown"):
    plan = gossip(graph, algorithm=algorithm)
    holds = labeled_holdings(plan.labeled.labels())
    return plan, execute_with_faults(
        graph, plan.schedule, model, initial_holds=holds, n_messages=graph.n
    )


class TestFaultModel:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"drop_rate": -0.1},
            {"drop_rate": 1.5},
            {"link_outage_rate": 2.0},
            {"crash_rate": -1.0},
            {"crash_length": 0},
            {"fail_stop_rate": -0.1},
            {"fail_stop_rate": 1.5},
            {"link_fail_rate": 2.0},
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(SimulationError):
            FaultModel(**kwargs)

    def test_is_null(self):
        assert FaultModel(seed=123).is_null
        assert not FaultModel(drop_rate=0.01).is_null
        assert not FaultModel(link_outage_rate=0.01).is_null
        assert not FaultModel(crash_rate=0.01).is_null
        assert not FaultModel(fail_stop_rate=0.01).is_null
        assert not FaultModel(link_fail_rate=0.01).is_null

    def test_has_permanent(self):
        assert not FaultModel(seed=1, drop_rate=0.5, crash_rate=0.5).has_permanent
        assert FaultModel(fail_stop_rate=0.01).has_permanent
        assert FaultModel(link_fail_rate=0.01).has_permanent

    def test_draws_deterministic_and_seed_sensitive(self):
        a = FaultModel(seed=1, drop_rate=0.5)
        b = FaultModel(seed=1, drop_rate=0.5)
        c = FaultModel(seed=2, drop_rate=0.5)
        draws_a = [a.drops_delivery(t, 0, 1) for t in range(64)]
        assert draws_a == [b.drops_delivery(t, 0, 1) for t in range(64)]
        assert draws_a != [c.drops_delivery(t, 0, 1) for t in range(64)]

    def test_drop_rate_extremes(self):
        never = FaultModel(seed=5, drop_rate=0.0)
        always = FaultModel(seed=5, drop_rate=1.0)
        assert not any(never.drops_delivery(t, 0, 1) for t in range(32))
        assert all(always.drops_delivery(t, 0, 1) for t in range(32))

    def test_link_outage_symmetric(self):
        m = FaultModel(seed=9, link_outage_rate=0.5)
        for t in range(32):
            assert m.link_out(t, 2, 7) == m.link_out(t, 7, 2)

    def test_crash_window_spans_length(self):
        """A window starting at round t covers t .. t + crash_length - 1."""
        m = FaultModel(seed=0, crash_rate=0.3, crash_length=3)
        starts = [
            t for t in range(50)
            if m.crashed(t, 4) and not m.crashed(t - 1, 4) and t > 0
        ]
        assert starts, "seed 0 should produce at least one crash window start"
        t = starts[0]
        assert m.crashed(t + 1, 4) and m.crashed(t + 2, 4)


class TestPermanentFailures:
    def test_fail_stop_monotone(self):
        """Once a processor fail-stops it stays dead forever."""
        m = FaultModel(seed=3, fail_stop_rate=0.1)
        for v in range(8):
            states = [m.fail_stopped(t, v) for t in range(64)]
            assert states == sorted(states)  # False... then True forever

    def test_fail_stop_query_order_irrelevant(self):
        """The memoised incremental scan answers out-of-order queries
        identically to a sequential sweep on a fresh model."""
        sequential = FaultModel(seed=13, fail_stop_rate=0.05)
        forward = [sequential.fail_stopped(t, 2) for t in range(48)]
        shuffled = FaultModel(seed=13, fail_stop_rate=0.05)
        order = [37, 5, 47, 0, 21, 12, 46, 3]
        assert all(shuffled.fail_stopped(t, 2) == forward[t] for t in order)
        assert [shuffled.fail_stopped(t, 2) for t in range(48)] == forward

    def test_fail_stop_rate_extremes(self):
        never = FaultModel(seed=5, fail_stop_rate=0.0)
        always = FaultModel(seed=5, fail_stop_rate=1.0)
        assert not any(never.fail_stopped(t, 0) for t in range(32))
        assert all(always.fail_stopped(t, 0) for t in range(32))

    def test_link_fail_symmetric_and_monotone(self):
        m = FaultModel(seed=9, link_fail_rate=0.1)
        for t in range(40):
            assert m.link_failed(t, 2, 7) == m.link_failed(t, 7, 2)
        states = [m.link_failed(t, 0, 1) for t in range(64)]
        assert states == sorted(states)

    def test_sender_fail_stop_suppresses_whole_multicast(self):
        g = topologies.star_graph(4)
        model = FaultModel(seed=0, fail_stop_rate=1.0)
        result = execute_with_faults(g, sched([tx(0, 0, {1, 2, 3})]), model)
        assert [sup.reason for sup in result.suppressed] == ["sender-fail-stop"]
        assert result.lost == ()

    def test_fail_stop_checked_before_transient_crash(self):
        """A processor that is both dead and transiently crashed reports
        the permanent reason — the one the survival layer diagnoses."""
        g = Graph(2, [(0, 1)])
        model = FaultModel(seed=0, fail_stop_rate=1.0, crash_rate=1.0)
        result = execute_with_faults(g, sched([tx(0, 0, {1})]), model)
        assert [sup.reason for sup in result.suppressed] == ["sender-fail-stop"]

    def test_link_fail_loses_crossing_deliveries(self):
        g = Graph(2, [(0, 1)])
        model = FaultModel(seed=0, link_fail_rate=1.0)
        result = execute_with_faults(g, sched([tx(0, 0, {1})]), model)
        assert [ld.reason for ld in result.lost] == ["link-fail"]

    def test_prefix_replay_is_bit_identical(self):
        """Extending a schedule never rewrites who died in the prefix."""
        g = topologies.grid_2d(3, 3)
        plan = gossip(g)
        model = FaultModel(seed=17, drop_rate=0.1, fail_stop_rate=0.02,
                           link_fail_rate=0.01)
        holds = labeled_holdings(plan.labeled.labels())
        prefix = execute_with_faults(
            g, plan.schedule, model, initial_holds=holds, n_messages=g.n
        )
        sends = plan.schedule.sends()
        total = plan.schedule.total_time
        extended_schedule = pack(
            sends + [(t + total, s, m, ds) for t, s, m, ds in sends if t < 5], g.n
        )
        extended = execute_with_faults(
            g, extended_schedule, FaultModel(seed=17, drop_rate=0.1,
                                             fail_stop_rate=0.02,
                                             link_fail_rate=0.01),
            initial_holds=holds, n_messages=g.n,
        )
        assert extended.lost[: len(prefix.lost)] == prefix.lost
        assert extended.suppressed[: len(prefix.suppressed)] == prefix.suppressed


class TestDrawMemoisation:
    """Micro-regressions: memo caches must cut hash draws, not change them."""

    @staticmethod
    def _counting_uniform(monkeypatch):
        from repro.simulator import lossy

        counts = {}
        real = lossy.keyed_uniform

        def counting(seed, tag, *coords):
            counts[tag] = counts.get(tag, 0) + 1
            return real(seed, tag, *coords)

        monkeypatch.setattr(lossy, "keyed_uniform", counting)
        return counts

    def test_crash_window_starts_drawn_once(self, monkeypatch):
        """Querying rounds 0..63 draws each window start once (~64 draws),
        not crash_length times per query (~250 for length 4)."""
        from repro.simulator.lossy import _TAG_CRASH

        counts = self._counting_uniform(monkeypatch)
        m = FaultModel(seed=1, crash_rate=0.3, crash_length=4)
        sweep = [m.crashed(t, 0) for t in range(64)]
        assert counts[_TAG_CRASH] <= 64 + 4
        # Cached answers match a fresh, uncached-at-that-point model.
        fresh = FaultModel(seed=1, crash_rate=0.3, crash_length=4)
        assert sweep == [fresh.crashed(t, 0) for t in range(64)]

    def test_fail_stop_scan_is_incremental(self, monkeypatch):
        """A sweep over rounds 0..T costs at most T + 1 draws per
        processor in total, not a fresh scan per query."""
        from repro.simulator.lossy import _TAG_FAIL_STOP

        counts = self._counting_uniform(monkeypatch)
        m = FaultModel(seed=2, fail_stop_rate=0.01)
        for t in range(64):
            m.fail_stopped(t, 0)
        m.fail_stopped(63, 0)  # repeat query: fully cached
        assert counts[_TAG_FAIL_STOP] <= 64


class TestLossAccounting:
    def test_dropped_delivery_recorded_and_missing(self):
        g = Graph(2, [(0, 1)])
        model = FaultModel(seed=0, drop_rate=1.0)
        result = execute_with_faults(
            g, sched([tx(0, 0, {1}), tx(1, 1, {0})]), model
        )
        assert not result.complete
        assert {ld.reason for ld in result.lost} == {"drop"}
        assert len(result.lost) == 2
        assert result.missing_sets() == {0: [1], 1: [0]}
        assert result.faults_injected == 2

    def test_cascading_loss_suppresses_forward(self):
        """1 never receives message 0, so its forward is suppressed, not
        a model violation."""
        g = topologies.path_graph(3)
        model = FaultModel(seed=0, drop_rate=1.0)
        s = sched([tx(0, 0, {1})], [tx(1, 0, {2})])
        result = execute_with_faults(g, s, model)
        assert [sup.reason for sup in result.suppressed] == ["not-held"]
        assert result.suppressed[0].sender == 1

    def test_adjacency_violation_still_raises(self):
        g = topologies.path_graph(3)  # 0-1-2; 0 and 2 not adjacent
        model = FaultModel(seed=0, drop_rate=1.0)
        with pytest.raises(ModelViolationError):
            execute_with_faults(g, sched([tx(0, 0, {2})]), model)

    def test_sender_crash_suppresses_whole_multicast(self):
        g = topologies.star_graph(4)
        model = FaultModel(seed=0, crash_rate=1.0, crash_length=1)
        result = execute_with_faults(g, sched([tx(0, 0, {1, 2, 3})]), model)
        assert [sup.reason for sup in result.suppressed] == ["sender-crash"]
        assert result.lost == ()

    def test_link_outage_loses_crossing_deliveries(self):
        g = Graph(2, [(0, 1)])
        model = FaultModel(seed=0, link_outage_rate=1.0)
        result = execute_with_faults(g, sched([tx(0, 0, {1})]), model)
        assert [ld.reason for ld in result.lost] == ["link-outage"]

    def test_lossy_run_is_reproducible(self):
        g = topologies.grid_2d(3, 3)
        model = FaultModel(seed=42, drop_rate=0.3)
        _, a = plan_run(g, model)
        _, b = plan_run(g, model)
        assert a == b


class TestNullModelParity:
    def test_matches_execute_schedule_on_every_field(self):
        g = topologies.grid_2d(3, 4)
        plan = gossip(g)
        holds = labeled_holdings(plan.labeled.labels())
        faulty = execute_with_faults(
            g, plan.schedule, FaultModel(seed=99),
            initial_holds=holds, n_messages=g.n, record_arrivals=True,
        )
        reference = execute_schedule(
            g, plan.schedule, initial_holds=holds, record_arrivals=True,
            require_complete=True,
        )
        assert faulty.lost == () and faulty.suppressed == ()
        assert faulty.to_execution_result() == reference
        assert faulty.missing_sets() == {}


class TestMalformedIds:
    """The lossy loop rejects the ids the engine rejects, before it runs."""

    @pytest.mark.parametrize(
        "sender, message, named",
        [(5, 0, "sender 5"), (-1, 3, "sender -1"), (0, -1, "message -1"),
         (0, 4, "message 4")],
    )
    def test_out_of_range_id_raises_model_violation(self, sender, message, named):
        g = topologies.path_graph(4)
        with pytest.raises(ScheduleError, match=named) as err:
            s = sched([tx(0, 0, {1})], [tx(sender, message, {1})])
            execute_with_faults(g, s, FaultModel(seed=1, drop_rate=1.0))
        # A negative sender cannot even be packed into a schedule; every
        # other bad id packs and is the executor's model violation.
        assert isinstance(err.value, ModelViolationError) == (sender >= 0)

    def test_same_text_as_the_engine(self):
        g = topologies.path_graph(4)
        s = sched([tx(0, -1, {1})])
        with pytest.raises(ModelViolationError) as lossy_err:
            execute_with_faults(g, s, FaultModel())
        with pytest.raises(ModelViolationError) as engine_err:
            execute_schedule(g, s)
        assert str(lossy_err.value) == str(engine_err.value)


class TestDestinationOrder:
    def test_losses_and_arrivals_walk_destinations_ascending(self):
        g = topologies.star_graph(9)
        s = sched([tx(0, 0, {1, 8})])
        lost = execute_with_faults(g, s, FaultModel(seed=3, drop_rate=1.0))
        assert [d.receiver for d in lost.lost] == [1, 8]
        kept = execute_with_faults(g, s, FaultModel(), record_arrivals=True)
        assert [ev.receiver for ev in kept.arrivals] == [1, 8]


class TestHazardOrder:
    """FaultModel.send_fault / delivery_fault are the one hazard order."""

    def test_reasons_match_the_single_hazards(self):
        m = FaultModel(seed=5, drop_rate=0.3, link_outage_rate=0.2,
                       crash_rate=0.1, crash_length=2,
                       fail_stop_rate=0.02, link_fail_rate=0.02)
        for t in range(12):
            for s in range(4):
                expect = ("sender-fail-stop" if m.fail_stopped(t, s)
                          else "sender-crash" if m.crashed(t, s) else None)
                assert m.send_fault(t, s) == expect
                for d in range(4):
                    if d == s:
                        continue
                    expect = next(
                        (reason for reason, hit in (
                            ("receiver-fail-stop", m.fail_stopped(t, d)),
                            ("link-fail", m.link_failed(t, s, d)),
                            ("link-outage", m.link_out(t, s, d)),
                            ("receiver-crash", m.crashed(t, d)),
                            ("drop", m.drops_delivery(t, s, d)),
                        ) if hit),
                        None,
                    )
                    assert m.delivery_fault(t, s, d) == expect

    def test_null_model_has_no_faults(self):
        m = FaultModel(seed=9)
        assert m.send_fault(3, 0) is None
        assert m.delivery_fault(3, 0, 1) is None
