"""Epidemic gossip: determinism, model validity, fault semantics, registry."""

import threading

import pytest

from repro.core.epidemic import (
    EPIDEMIC_VARIANTS,
    default_epidemic_horizon,
    epidemic_schedule,
    run_epidemic,
)
from repro.core.gossip import gossip, resolve_network
from repro.core.rng import SplitMix64, keyed_u64, keyed_uniform, mix64
from repro.exceptions import ReproError
from repro.networks import topologies
from repro.simulator.engine import execute_schedule
from repro.simulator import lossy
from repro.simulator.lossy import execute_with_faults, FaultModel
from repro.simulator.state import identity_holdings


GRID, _ = resolve_network("grid:16")


class TestRng:
    def test_mix64_matches_lossy_finaliser(self):
        """The fault model draws through this module's finaliser, whose
        outputs are pinned so the stream cannot drift."""
        assert lossy.keyed_uniform is keyed_uniform
        for x, want in (
            (0, 16294208416658607535),
            (7, 7191089600892374487),
            (42, 13679457532755275413),
            (123456789, 2466975172287755897),
            (2**64 - 1, 16490336266968443936),
        ):
            assert mix64(x) == want

    @pytest.mark.parametrize(
        "seed, tag, coords, u64, uniform",
        [
            (0, 0xD09, (), 381909610719145623, 0.020703361481739548),
            (7, 0xD09, (3, 1, 2), 9779146882690101444, 0.5301286147633728),
            (2**64 + 5, 0x11F, (0, 4, 9), 16013211783983207854, 0.8680779502332537),
            (123456789, 0xC9A, (17, 5), 14081174992747005041, 0.763342025914243),
            (42, 0xBAC, (1, 2, 0, 3, 4, 0), 6397568292685946937, 0.34681287207772415),
            (-1, 0x1F1, (2**40, 7), 11684818644574428763, 0.6334352879773362),
        ],
    )
    def test_keyed_draws_are_pinned(self, seed, tag, coords, u64, uniform):
        """Golden values of the keyed chain (the fault model, the chaos
        transport and the retransmit jitter all draw from it)."""
        assert keyed_u64(seed, tag, *coords) == u64
        assert keyed_uniform(seed, tag, *coords) == uniform
        # The cached (seed, tag) head gives the same draw on a repeat.
        assert keyed_u64(seed, tag, *coords) == u64

    def test_keyed_u64_is_coordinate_pure(self):
        a = keyed_u64(5, 0xE41, 3, 9)
        b = keyed_u64(5, 0xE41, 3, 9)
        assert a == b
        assert keyed_u64(5, 0xE41, 9, 3) != a  # coordinates are ordered
        assert keyed_u64(5, 0xE42, 3, 9) != a  # tags separate domains

    def test_randrange_bounds_and_determinism(self):
        rng = SplitMix64(42)
        draws = [rng.randrange(7) for _ in range(200)]
        assert set(draws) <= set(range(7))
        assert [SplitMix64(42).randrange(7) for _ in range(3)][0] == draws[0]
        with pytest.raises(ReproError):
            rng.randrange(0)

    def test_sample_is_a_distinct_subset(self):
        rng = SplitMix64(1)
        got = rng.sample(range(10), 4)
        assert len(got) == 4 and len(set(got)) == 4
        assert rng.sample([1, 2], 5) in ([1, 2], [2, 1])

    def test_bit_subset_stays_inside_mask(self):
        rng = SplitMix64(9)
        mask = (1 << 130) - 1 ^ (1 << 65)  # force multi-word path
        for _ in range(50):
            assert rng.bit_subset(mask) & ~mask == 0


class TestDeterminism:
    @pytest.mark.parametrize("variant", EPIDEMIC_VARIANTS)
    def test_same_seed_identical_transcript(self, variant):
        a = run_epidemic(GRID, variant=variant, seed=11)
        b = run_epidemic(GRID, variant=variant, seed=11)
        assert a.schedule == b.schedule
        assert a.completion_times == b.completion_times
        assert a.messages_sent == b.messages_sent

    def test_different_seeds_differ(self):
        a = run_epidemic(GRID, variant="push-pull", seed=1)
        b = run_epidemic(GRID, variant="push-pull", seed=2)
        assert a.schedule != b.schedule


class TestModelValidity:
    @pytest.mark.parametrize("variant", EPIDEMIC_VARIANTS)
    def test_transcript_replays_on_strict_engine(self, variant):
        result = run_epidemic(GRID, variant=variant, seed=3)
        assert result.complete
        replay = execute_schedule(
            GRID,
            result.schedule,
            initial_holds=identity_holdings(GRID.n),
            require_complete=True,
        )
        assert replay.complete
        assert replay.total_time == result.schedule.total_time

    def test_completion_round_matches_replay(self):
        result = run_epidemic(GRID, variant="push-pull", seed=5)
        replay = execute_schedule(
            GRID, result.schedule, initial_holds=identity_holdings(GRID.n)
        )
        assert list(replay.completion_times) == list(result.completion_times)

    def test_single_vertex_completes_instantly(self):
        g = topologies.path_graph(1)
        r = run_epidemic(g, variant="push", seed=0)
        assert r.complete and r.rounds == 0 and r.completion_round == 0


class TestFaultSemantics:
    def test_online_run_survives_drops_that_kill_replay(self):
        model = FaultModel(seed=77, drop_rate=0.15)
        online = run_epidemic(GRID, variant="push-pull", seed=4, model=model)
        assert online.complete and online.lost > 0
        fixed = run_epidemic(GRID, variant="push-pull", seed=4)
        dead = execute_with_faults(
            GRID, fixed.schedule, model, initial_holds=identity_holdings(GRID.n)
        )
        assert not dead.complete  # the fixed transcript has no retries

    def test_transcript_replay_parity_under_same_model(self):
        """The online run and the lossy engine agree on what happened."""
        model = FaultModel(seed=21, drop_rate=0.2)
        online = run_epidemic(GRID, variant="push-pull", seed=9, model=model)
        replay = execute_with_faults(
            GRID, online.schedule, model, initial_holds=identity_holdings(GRID.n)
        )
        assert tuple(replay.final_holds) == online.final_holds
        assert replay.complete == online.complete
        assert len(replay.lost) == online.lost

    def test_null_model_equals_no_model(self):
        a = run_epidemic(GRID, variant="pull", seed=6)
        b = run_epidemic(GRID, variant="pull", seed=6, model=FaultModel(seed=1))
        assert a == b


class TestProtocolShape:
    def test_pull_deliveries_are_never_redundant(self):
        """Pull responses are demand-driven: every delivery is useful."""
        r = run_epidemic(GRID, variant="pull", seed=8)
        assert r.duplicate_deliveries == 0 and r.redundancy == 0.0

    def test_push_pays_redundancy(self):
        r = run_epidemic(GRID, variant="push", seed=8)
        assert r.duplicate_deliveries > 0 and 0.0 < r.redundancy < 1.0

    def test_fanout_widens_multicasts(self):
        narrow = run_epidemic(GRID, variant="push", seed=2, fanout=1)
        wide = run_epidemic(GRID, variant="push", seed=2, fanout=3)
        assert wide.complete
        assert max(
            tx.fan_out() for rnd in wide.schedule.rounds for tx in rnd.transmissions
        ) > 1
        assert wide.completion_round < narrow.completion_round

    def test_finite_ttl_can_kill_the_rumour(self):
        """With a 1-round hot window push-only gossip dies incomplete."""
        path = topologies.path_graph(8)
        r = run_epidemic(path, variant="push", seed=3, ttl=1, max_rounds=200)
        assert not r.complete
        with pytest.raises(ReproError, match="did not complete"):
            epidemic_schedule(path, variant="push", seed=3, ttl=1, max_rounds=200)

    def test_pull_ignores_ttl(self):
        """Anti-entropy repairs cold rumours: pull completes despite ttl=1."""
        path = topologies.path_graph(8)
        r = run_epidemic(path, variant="pull", seed=3, ttl=1)
        assert r.complete

    def test_horizon_scale(self):
        assert default_epidemic_horizon(1) == 256
        assert default_epidemic_horizon(16) == 32 * 256


class TestValidation:
    def test_unknown_variant_rejected(self):
        with pytest.raises(ReproError, match="unknown epidemic variant"):
            run_epidemic(GRID, variant="shout")

    def test_bad_fanout_and_ttl_rejected(self):
        with pytest.raises(ReproError):
            run_epidemic(GRID, fanout=0)
        with pytest.raises(ReproError):
            run_epidemic(GRID, ttl=0)

    def test_bad_messages_rejected(self):
        with pytest.raises(ReproError):
            run_epidemic(GRID, messages=[0, 1])
        with pytest.raises(ReproError):
            run_epidemic(GRID, messages=list(range(15)) + [99])


class TestRegistry:
    @pytest.mark.parametrize(
        "name", ["epidemic-push", "epidemic-pull", "epidemic-push-pull"]
    )
    def test_registered_and_complete(self, name):
        plan = gossip("random-tree:12", algorithm=name)
        result = plan.execute()
        assert result.complete

    def test_registry_plan_is_deterministic(self):
        a = gossip("path:10", algorithm="epidemic-push-pull")
        b = gossip("path:10", algorithm="epidemic-push-pull")
        assert a.schedule == b.schedule

    def test_thread_identical_transcripts(self):
        """Coordinate-keyed draws: concurrent runs can't perturb each other."""
        results = [None] * 4

        def worker(i):
            results[i] = run_epidemic(GRID, variant="push-pull", seed=13)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(r.schedule == results[0].schedule for r in results)
