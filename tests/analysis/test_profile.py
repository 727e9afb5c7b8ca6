"""Tests for per-round activity profiles."""

import pytest

from repro.analysis.profile import activity_profile, completion_curve
from repro.core.gossip import gossip
from repro.networks import topologies
from tests.conftest import sched


@pytest.fixture(scope="module")
def grid_plan():
    return gossip(topologies.grid_2d(3, 4))


class TestActivityProfile:
    def test_lengths(self, grid_plan):
        profile = activity_profile(grid_plan.schedule)
        assert profile.total_time == grid_plan.total_time
        assert len(profile.deliveries_per_round) == profile.total_time

    def test_sums_match_schedule_counters(self, grid_plan):
        profile = activity_profile(grid_plan.schedule)
        assert sum(profile.senders_per_round) == grid_plan.schedule.total_messages()
        assert (
            sum(profile.deliveries_per_round)
            == grid_plan.schedule.total_deliveries()
        )
        assert max(profile.max_fan_out_per_round) == grid_plan.schedule.max_fan_out()

    def test_peak_and_utilisation(self, grid_plan):
        profile = activity_profile(grid_plan.schedule)
        n = grid_plan.graph.n
        assert 1 <= profile.peak_senders <= n
        assert 0.0 < profile.utilisation(n) <= 1.0

    def test_simple_has_idle_gap(self):
        """Simple's up phase ends before its down phase reaches deep
        vertices... the profile exposes idle rounds for shallow trees."""
        plan = gossip(topologies.star_graph(10), algorithm="simple")
        profile = activity_profile(plan.schedule)
        assert profile.idle_rounds >= 0  # never negative
        # Simple's two phases never overlap at the root of a star:
        # senders-per-round dips to 1 between collection and pumping.
        assert min(profile.senders_per_round) <= 2

    def test_empty_schedule(self):
        profile = activity_profile(sched(n=5))
        assert profile.total_time == 0
        assert profile.peak_senders == 0
        assert profile.utilisation(5) == 0.0


class TestCompletionCurve:
    def test_monotone_and_ends_at_n(self, grid_plan):
        execution = grid_plan.execute()
        curve = completion_curve(grid_plan.graph, execution)
        assert all(a <= b for a, b in zip(curve, curve[1:]))
        assert curve[-1] == grid_plan.graph.n
        assert curve[0] == 0  # nobody starts complete for n > 1

    def test_nobody_complete_before_n_minus_1(self, grid_plan):
        execution = grid_plan.execute()
        curve = completion_curve(grid_plan.graph, execution)
        n = grid_plan.graph.n
        for t in range(n - 1):
            assert curve[t] == 0

    def test_horizon_override(self, grid_plan):
        execution = grid_plan.execute()
        curve = completion_curve(grid_plan.graph, execution, horizon=5)
        assert len(curve) == 6
