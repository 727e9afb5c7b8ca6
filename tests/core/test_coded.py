"""Algebraic (network-coded) gossip: rank algebra, engines, registry."""

import pytest

from repro.core.coded import (
    CodedPacket,
    RankTracker,
    run_coded_gossip,
    systematic_coded_schedule,
)
from repro.core.gossip import gossip, resolve_network
from repro.exceptions import ReproError
from repro.networks import topologies
from repro.simulator.engine import ModelViolationError, execute_schedule
from repro.simulator.lossy import FaultModel
from repro.simulator.state import identity_holdings


GRID, _ = resolve_network("grid:16")


class TestRankTracker:
    def test_rank_grows_only_on_innovative_rows(self):
        tr = RankTracker()
        assert tr.insert(0b101)
        assert tr.insert(0b011)
        assert not tr.insert(0b110)  # 0b101 ^ 0b011: already spanned
        assert tr.rank == 2

    def test_zero_vector_is_never_innovative(self):
        tr = RankTracker()
        assert not tr.insert(0)
        assert tr.rank == 0

    def test_spans(self):
        tr = RankTracker()
        tr.insert(0b1100)
        tr.insert(0b0110)
        assert tr.spans(0b1010) and tr.spans(0)
        assert not tr.spans(0b0001)

    def test_rows_are_pivot_sorted(self):
        tr = RankTracker()
        tr.insert(0b1)
        tr.insert(0b1000)
        tr.insert(0b110)
        rows = tr.rows()
        assert [r.bit_length() for r in rows] == sorted(
            (r.bit_length() for r in rows), reverse=True
        )

    def test_full_rank_means_every_unit_decodable(self):
        tr = RankTracker()
        for vec in (0b111, 0b110, 0b010):
            tr.insert(vec)
        assert tr.rank == 3
        for m in range(3):
            assert tr.spans(1 << m)


class TestCodedEngine:
    def test_completes_and_is_deterministic(self):
        a = run_coded_gossip(GRID, seed=5)
        b = run_coded_gossip(GRID, seed=5)
        assert a.complete and a == b
        assert a.ranks == (GRID.n,) * GRID.n

    def test_complete_iff_rank_reaches_n(self):
        """The completion flag is exactly the all-ranks-n predicate."""
        full = run_coded_gossip(GRID, seed=1)
        assert full.complete and min(full.ranks) == GRID.n
        starved = run_coded_gossip(GRID, seed=1, max_rounds=3)
        assert not starved.complete and min(starved.ranks) < GRID.n
        assert starved.completion_round is None

    def test_innovative_plus_redundant_is_delivered(self):
        r = run_coded_gossip(GRID, seed=2)
        assert r.innovative + r.redundant == r.delivered
        # every vertex starts with its own unit and must gain n-1 dims
        assert r.innovative == GRID.n * (GRID.n - 1)

    def test_faulty_run_still_completes_with_losses(self):
        r = run_coded_gossip(GRID, seed=3, model=FaultModel(seed=7, drop_rate=0.2))
        assert r.complete and r.lost > 0

    def test_coding_beats_pathological_push_on_the_path(self):
        """Combinations crossing a cut are innovative w.p. >= 1/2 — no
        coupon collector, so coded completes in O(n) on the path where
        uniform push needs O(n^2)."""
        path = topologies.path_graph(12)
        r = run_coded_gossip(path, seed=4)
        assert r.complete
        assert r.completion_round < 12 * 12

    def test_packet_words_round_trip(self):
        p = CodedPacket(sender=0, coeffs=(1 << 100) | 5, destinations=(1,))
        words = p.words()
        assert len(words) == 2
        assert words[0] | (words[1] << 64) == p.coeffs

    def test_bad_fanout_rejected(self):
        with pytest.raises(ReproError):
            run_coded_gossip(GRID, fanout=0)


class TestProjectionImpossibility:
    def test_pure_coded_state_is_not_possession(self):
        """Concrete counterexample for the module-docstring claim: a
        receiver can *decode* a message from combinations without the
        simulator considering it held — so scheduling pure combinations
        as single labels breaks the possession rule."""
        tr = RankTracker()
        tr.insert(0b011)  # m0 ^ m1
        tr.insert(0b110)  # m1 ^ m2
        tr.insert(0b001)  # m0 arrives in the clear
        # rank 3: the vertex can decode m1 and m2 ...
        assert tr.spans(0b010) and tr.spans(0b100)
        # ... but a schedule that had only ever *labelled* m0 leaves the
        # hold-set at {m0}; sending the decodable m1 now is a violation.
        g = topologies.path_graph(2)
        from tests.conftest import sched, tx

        bad = sched([tx(0, 1, {1})])
        with pytest.raises(ModelViolationError):
            execute_schedule(g, bad, initial_holds=[0b001, 0b010])


class TestSystematicProjection:
    def test_schedule_is_model_valid_and_complete(self):
        g, _ = resolve_network("complete:10")
        sched = systematic_coded_schedule(g, seed=1)
        replay = execute_schedule(
            g, sched, initial_holds=identity_holdings(g.n), require_complete=True
        )
        assert replay.complete

    def test_deterministic(self):
        g = topologies.path_graph(8)
        assert systematic_coded_schedule(g, seed=2) == systematic_coded_schedule(
            g, seed=2
        )

    def test_registry_entry_executes(self):
        plan = gossip("random-tree:10", algorithm="coded")
        assert plan.execute().complete
