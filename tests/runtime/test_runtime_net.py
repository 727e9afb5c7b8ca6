"""End-to-end runtime: real UDP peers vs the offline schedule.

Each test drives :func:`repro.runtime.run_gossip_network` (which owns its
own ``asyncio.run``, so the tests stay plain sync functions) on a small
topology with a :class:`~repro.runtime.ScaledClock` so whole
failure-detection scenarios finish in tens of milliseconds of real time.
"""

import copy
import pickle

import pytest

from repro.core.gossip import gossip
from repro.exceptions import GossipRuntimeError, RuntimeDeadlineError
from repro.runtime import (
    NetChaos,
    ObservedDeaths,
    RuntimeConfig,
    ScaledClock,
    TranscriptEntry,
    run_gossip_network,
)


def offline_multiset(plan):
    return sorted(
        (t, tx.sender, tx.message, tuple(sorted(tx.destinations)))
        for t, rnd in enumerate(plan.schedule.rounds)
        for tx in rnd
    )


def online_multiset(result):
    return sorted(
        (e.round, e.sender, e.message, e.destinations)
        for e in result.transcript
    )


class TestFaultFree:
    def test_offline_exact_on_path(self):
        plan = gossip("path:6")
        result = run_gossip_network(plan, config=RuntimeConfig(seed=3))
        assert result.complete
        assert result.coverage == 1.0
        assert result.dead == ()
        assert result.survival_rounds == 0
        assert result.survival_transcript == ()
        assert result.rounds_completed == result.horizon
        assert online_multiset(result) == offline_multiset(plan)

    def test_every_peer_ends_with_every_message(self):
        plan = gossip("star:5")
        result = run_gossip_network(plan, config=RuntimeConfig(seed=3))
        full = (1 << plan.graph.n) - 1
        assert all(h == full for h in result.final_holds)

    def test_makespan_mirrors_simulator_convention(self):
        result = run_gossip_network("path:4", config=RuntimeConfig(seed=1))
        assert result.makespan == result.wall_seconds
        assert result.makespan is not None

    def test_family_string_and_algorithm(self):
        result = run_gossip_network(
            "cycle:6", algorithm="simple", config=RuntimeConfig(seed=2)
        )
        assert result.complete


class TestReordering:
    def test_delay_jitter_reordering_is_offline_identical(self):
        """Satellite invariant: pure datagram reordering (delay jitter,
        no drops, no deaths) must yield a transcript identical to the
        offline schedule — the fence barrier serialises rounds no matter
        how the wire permutes datagrams inside one."""
        plan = gossip("grid:9")
        chaos = NetChaos(seed=17, delay_rate=0.5, delay_max=0.02)
        result = run_gossip_network(
            plan,
            chaos=chaos,
            config=RuntimeConfig(seed=17),
            clock=ScaledClock(0.5),
        )
        assert result.complete
        assert result.stats.delayed > 0
        assert online_multiset(result) == offline_multiset(plan)


class TestKillAndSurvival:
    CONFIG = RuntimeConfig(
        heartbeat_interval=0.25,
        fail_after=1.0,
        round_timeout=6.0,
        run_timeout=120.0,
        seed=11,
    )

    def _run(self):
        return run_gossip_network(
            gossip("grid:9"),
            chaos=NetChaos(seed=11, kill=((4, 2),)),
            config=self.CONFIG,
            clock=ScaledClock(0.2),
        )

    def test_killed_peer_is_detected_and_survivors_complete(self):
        result = self._run()
        assert not result.complete          # someone died
        assert result.makespan is None      # degraded, like the simulator
        assert result.dead == (4,)
        assert result.coverage == 1.0       # gossip among survivors
        assert result.survival_rounds > 0
        assert len(result.survival_transcript) > 0
        # No survival-phase sender is the dead peer.
        assert all(e.sender != 4 for e in result.survival_transcript)

    def test_chaos_run_is_reproducible_per_seed(self):
        first = self._run().deterministic_summary()
        second = self._run().deterministic_summary()
        assert first == second


class TestDeadlines:
    def test_run_deadline_raises_typed_error_with_partial(self):
        """A dead peer + a detector too slow to fire inside the run
        budget: the whole-run deadline degrades to a typed error that
        carries the partial result."""
        config = RuntimeConfig(
            heartbeat_interval=0.25,
            fail_after=10.0,     # never fires within the run budget
            round_timeout=20.0,
            run_timeout=0.5,
            seed=5,
        )
        with pytest.raises(RuntimeDeadlineError) as exc_info:
            run_gossip_network(
                gossip("star:8"),
                chaos=NetChaos(seed=5, kill=((1, 1),)),
                config=config,
            )
        err = exc_info.value
        assert err.phase == "run"
        assert err.partial is not None
        assert not err.partial.complete
        assert err.partial.makespan is None
        assert err.partial.coverage < 1.0


class TestConfigValidation:
    def test_fail_after_must_exceed_two_heartbeats(self):
        with pytest.raises(GossipRuntimeError):
            RuntimeConfig(heartbeat_interval=0.5, fail_after=0.9)

    def test_round_timeout_must_exceed_fail_after(self):
        with pytest.raises(GossipRuntimeError):
            RuntimeConfig(fail_after=1.5, round_timeout=1.0)

    def test_backoff_cap_below_ack_timeout_is_rejected(self):
        # A cap below ack_timeout (say, negative) would make every ack
        # wait time out at once: a healthy peer would be suspected after
        # max_attempts instant copies.
        with pytest.raises(GossipRuntimeError, match="backoff_cap"):
            RuntimeConfig(backoff_cap=-1.0)
        with pytest.raises(GossipRuntimeError, match="backoff_cap"):
            RuntimeConfig(ack_timeout=0.05, backoff_cap=0.04)
        RuntimeConfig(ack_timeout=0.05, backoff_cap=0.05)  # equal is fine

    @pytest.mark.parametrize("interval", [0.0, -0.25])
    def test_non_positive_heartbeat_interval_is_rejected(self, interval):
        # A zero interval would make heartbeat_loop spin.
        with pytest.raises(GossipRuntimeError, match="heartbeat_interval"):
            RuntimeConfig(heartbeat_interval=interval)

    def test_backoff_is_deterministic_and_bounded(self):
        config = RuntimeConfig(seed=9)
        key = dict(src=1, dst=2, phase=0, rnd=3)
        first = [config.backoff(k, **key) for k in range(8)]
        second = [config.backoff(k, **key) for k in range(8)]
        assert first == second
        assert all(0.0 < b <= config.backoff_cap * 1.5 for b in first)


class TestTranscriptEntry:
    ENTRY = TranscriptEntry(round=2, sender=1, message=0, destinations=(3, 4))

    def test_slotted_value_type(self):
        entry = self.ENTRY
        assert not hasattr(entry, "__dict__")
        same = TranscriptEntry(round=2, sender=1, message=0,
                               destinations=(3, 4))
        assert entry == same and hash(entry) == hash(same)
        assert entry != TranscriptEntry(round=2, sender=1, message=0,
                                        destinations=(3,))
        with pytest.raises(AttributeError):
            entry.round = 5

    def test_pickle_and_copy_round_trip(self):
        entry = self.ENTRY
        for clone in (pickle.loads(pickle.dumps(entry)), copy.copy(entry),
                      copy.deepcopy(entry)):
            assert clone == entry and hash(clone) == hash(entry)


class TestObservedDeaths:
    def test_fail_stopped_from_round_onwards(self):
        model = ObservedDeaths(dead_from=((3, 2),))
        assert not model.fail_stopped(0, 3)
        assert not model.fail_stopped(1, 3)
        assert model.fail_stopped(2, 3)
        assert model.fail_stopped(9, 3)
        assert not model.fail_stopped(9, 4)
