"""GossipService(lint=...): static analysis gating cache admission."""

import dataclasses

import pytest

from repro.core.gossip import gossip
from repro.exceptions import ReproError, ScheduleLintError
from repro.networks import topologies
from repro.service import GossipService
from tests.conftest import schedule_prefix


@pytest.fixture
def grid():
    return topologies.grid_2d(3, 4)


def broken_planner(graph, *, algorithm, tree=None):
    """A planner whose plans lose their final rounds (incomplete gossip)."""
    plan = gossip(graph, algorithm=algorithm, tree=tree)
    truncated = schedule_prefix(
        plan.schedule, plan.schedule.total_time - 3, name=plan.schedule.name
    )
    return dataclasses.replace(plan, schedule=truncated)


class TestModes:
    def test_bad_mode_rejected(self):
        with pytest.raises(ReproError, match="lint"):
            GossipService(lint="loud")

    def test_off_admits_broken_plan(self, grid):
        service = GossipService(lint="off", planner=broken_planner)
        service.plan(grid)
        assert len(service.cache) == 1
        assert service.stats().lints == 0

    def test_error_mode_serves_clean_plans(self, grid):
        service = GossipService(lint="error")
        plan = service.plan(grid)
        assert plan.total_time == grid.n + plan.tree.height
        stats = service.stats()
        assert stats.lints == 1 and stats.lint_errors == 0

    def test_error_mode_rejects_and_never_caches(self, grid):
        service = GossipService(lint="error", planner=broken_planner)
        with pytest.raises(ScheduleLintError) as excinfo:
            service.plan(grid)
        assert len(service.cache) == 0
        assert excinfo.value.diagnostics  # carries the findings
        rules = {d.rule for d in excinfo.value.diagnostics}
        assert "model/incomplete-gossip" in rules
        assert service.stats().lint_errors > 0

    def test_warn_mode_admits_but_counts(self, grid):
        service = GossipService(lint="warn", planner=broken_planner)
        service.plan(grid)
        assert len(service.cache) == 1
        stats = service.stats()
        assert stats.lints == 1
        assert stats.lint_errors > 0

    def test_cache_hits_are_not_relinted(self, grid):
        service = GossipService(lint="error")
        service.plan(grid)
        service.plan(grid)
        assert service.stats().lints == 1  # only the cold build


class TestResilienceInteraction:
    def test_lint_rejection_never_trips_breaker(self, grid):
        service = GossipService(
            lint="error",
            planner=broken_planner,
            breaker_threshold=1,
            breaker_cooldown=1000.0,
        )
        for _ in range(3):
            with pytest.raises(ScheduleLintError):
                service.plan(grid)
        # a ScheduleLintError is a deterministic ReproError: the breaker
        # must still be closed and no fallback/fast-fail was attempted
        assert service.breaker_state(grid) == "closed"
        stats = service.stats()
        assert stats.breaker_opens == 0 and stats.fast_fails == 0

    def test_lint_rejection_never_degrades(self, grid):
        service = GossipService(
            lint="error",
            planner=broken_planner,
            fallback_algorithm="simple",
        )
        with pytest.raises(ScheduleLintError):
            service.plan(grid)
        assert service.stats().degraded == 0

    def test_stats_format_reports_lint_line(self, grid):
        service = GossipService(lint="warn")
        service.plan(grid)
        assert "lint" in service.stats().format()
