"""Unit tests for the recovery scheduler (`repro.core.recovery`)."""

import pytest

from repro.core.gossip import gossip
from repro.core.recovery import (
    REPAIR_POLICIES,
    execute_plan_with_faults,
    plan_repair_rounds,
    recover,
)
from repro.exceptions import (
    PartitionedNetworkError,
    RecoveryExhaustedError,
    ReproError,
)
from repro.networks import topologies
from repro.networks.random_graphs import random_connected_gnp
from repro.simulator.engine import execute_schedule
from repro.simulator.lossy import FaultModel
from repro.simulator.state import labeled_holdings


def lossy_run(graph, *, seed, drop=0.3, algorithm="concurrent-updown"):
    plan = gossip(graph, algorithm=algorithm)
    model = FaultModel(seed=seed, drop_rate=drop)
    return plan, execute_plan_with_faults(plan, model)


class TestRecover:
    @pytest.mark.parametrize(
        "graph",
        [
            topologies.path_graph(8),
            topologies.star_graph(9),
            topologies.grid_2d(3, 4),
            random_connected_gnp(16, 0.25, seed=2),
        ],
        ids=["path", "star", "grid", "gnp"],
    )
    def test_repairs_to_completion(self, graph):
        plan, faulty = lossy_run(graph, seed=11)
        assert not faulty.complete  # drop 0.3 reliably loses something
        outcome = recover(graph, plan, faulty)
        assert outcome.result.complete
        assert outcome.attempts >= 1
        assert outcome.repair_rounds >= 1
        assert outcome.overhead_rounds == (
            outcome.schedule.total_time - plan.schedule.total_time
        )

    def test_repaired_schedule_passes_fault_free_engine(self):
        """Acceptance criterion: repairs are model-legal in their own
        right, verified by the strict fault-free engine."""
        graph = topologies.grid_2d(4, 4)
        plan, faulty = lossy_run(graph, seed=3)
        outcome = recover(graph, plan, faulty)
        replay = execute_schedule(
            graph,
            outcome.schedule,
            initial_holds=labeled_holdings(plan.labeled.labels()),
            require_complete=True,
        )
        assert replay.complete

    def test_already_complete_is_a_no_op(self):
        graph = topologies.path_graph(6)
        plan = gossip(graph)
        clean = execute_plan_with_faults(plan, FaultModel(seed=0))
        outcome = recover(graph, plan, clean)
        assert outcome.attempts == 0
        assert outcome.repair_rounds == 0
        assert outcome.overhead_rounds == 0
        assert outcome.overhead_ratio == 0.0
        assert outcome.schedule is plan.schedule

    def test_exhaustion_raises_typed_error(self):
        """A 100% drop rate can never be repaired; the error carries the
        diagnosis."""
        graph = topologies.path_graph(5)
        plan, faulty = lossy_run(graph, seed=1, drop=1.0)
        with pytest.raises(RecoveryExhaustedError) as err:
            recover(graph, plan, faulty, max_repair_rounds=16)
        assert err.value.repair_rounds == 16
        assert err.value.attempts >= 1
        assert err.value.missing  # per-processor missing sets preserved

    def test_unicast_policy_completes_with_more_rounds(self):
        graph = topologies.star_graph(10)
        plan, faulty = lossy_run(graph, seed=7)
        multicast = recover(graph, plan, faulty, policy="nearest-holder")
        unicast = recover(graph, plan, faulty, policy="unicast")
        assert multicast.result.complete and unicast.result.complete
        assert unicast.repair_rounds >= multicast.repair_rounds

    def test_unknown_policy_rejected(self):
        graph = topologies.path_graph(4)
        plan, faulty = lossy_run(graph, seed=0)
        with pytest.raises(ReproError):
            recover(graph, plan, faulty, policy="telepathy")

    def test_bad_budget_rejected(self):
        graph = topologies.path_graph(4)
        plan, faulty = lossy_run(graph, seed=0)
        with pytest.raises(ReproError):
            recover(graph, plan, faulty, max_repair_rounds=0)

    def test_deterministic_for_fixed_seed(self):
        graph = topologies.grid_2d(3, 3)
        plan, faulty = lossy_run(graph, seed=21)
        a = recover(graph, plan, faulty)
        b = recover(graph, plan, faulty)
        assert a.schedule.rounds == b.schedule.rounds
        assert a.repair_rounds == b.repair_rounds


class TestPartitionPreCheck:
    """Permanent failures must be diagnosed *before* the repair budget."""

    def test_dead_cut_vertex_raises_typed_error_immediately(self):
        """A path severed by a fail-stopped middle vertex can never be
        repaired; the typed error fires without burning the exponential
        budget (a huge budget would take minutes to exhaust)."""
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class MidDeath(FaultModel):
            @property
            def is_null(self):
                return False

            @property
            def has_permanent(self):
                return True

            def fail_stopped(self, time, v):
                return v == 4

        graph = topologies.path_graph(8)
        plan = gossip(graph)
        faulty = execute_plan_with_faults(plan, MidDeath())
        assert not faulty.complete
        with pytest.raises(PartitionedNetworkError) as err:
            recover(graph, plan, faulty, max_repair_rounds=10**9)
        assert err.value.dead == (4,)
        assert err.value.pairs
        # Every witness names a live (or dead) processor and a message it
        # can genuinely never obtain across the dead cut vertex.
        labels = [int(x) for x in plan.labeled.labels()]
        for v, m in err.value.pairs:
            if v == 4:
                continue  # the dead processor itself misses everything
            origin = labels.index(m)
            assert (v < 4) != (origin < 4) or origin == 4

    def test_transient_only_path_is_unchanged(self):
        """Without permanent failures the pre-check never engages and
        recovery completes exactly as before."""
        graph = topologies.grid_2d(3, 3)
        plan, faulty = lossy_run(graph, seed=5)
        outcome = recover(graph, plan, faulty)
        assert outcome.result.complete

    def test_dead_leaf_witnesses_are_exact(self):
        """A leaf that dies before sending takes its own message to the
        grave: the typed error names the dead leaf's pairs plus every
        live processor's claim on the leaf's origin message — nothing
        else is unrecoverable on a star."""
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class LeafDeath(FaultModel):
            @property
            def is_null(self):
                return False

            @property
            def has_permanent(self):
                return True

            def fail_stopped(self, time, v):
                return v == 3

        graph = topologies.star_graph(6)
        plan = gossip(graph)
        faulty = execute_plan_with_faults(plan, LeafDeath())
        with pytest.raises(PartitionedNetworkError) as err:
            recover(graph, plan, faulty)
        leaf_message = int(plan.labeled.labels()[3])
        assert err.value.pairs
        assert all(
            v == 3 or m == leaf_message for v, m in err.value.pairs
        )


class TestPlanRepairRounds:
    def test_rounds_respect_communication_rules(self):
        """One send per sender, one receive per receiver, per round."""
        adjacency = {0: (1, 2), 1: (0,), 2: (0, 3), 3: (2,)}
        holds = [0b1111, 0b0010, 0b0100, 0b1000]  # only 0 is complete
        repairs = plan_repair_rounds(adjacency, holds, 4, max_rounds=10)
        assert repairs.total_time
        for rnd in repairs.build_rounds():
            senders = [t.sender for t in rnd]
            receivers = [d for t in rnd for d in t.destinations]
            assert len(senders) == len(set(senders))
            assert len(receivers) == len(set(receivers))
            for t in rnd:
                assert all(d in adjacency[t.sender] for d in t.destinations)

    def test_completes_hold_state(self):
        adjacency = {0: (1,), 1: (0, 2), 2: (1,)}
        holds = [0b001, 0b010, 0b100]
        repairs = plan_repair_rounds(adjacency, holds, 3, max_rounds=10)
        for _, _, message, dests in repairs.sends():
            for d in dests:
                holds[d] |= 1 << message
        assert all(h == 0b111 for h in holds)

    def test_empty_when_already_complete(self):
        repairs = plan_repair_rounds({0: (1,), 1: (0,)}, [3, 3], 2, max_rounds=5)
        assert repairs.total_time == 0

    def test_policies_constant_is_exhaustive(self):
        assert set(REPAIR_POLICIES) == {"nearest-holder", "unicast"}
