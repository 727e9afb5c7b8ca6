"""GossipService's one resilience policy, seen from both operations.

``plan()`` and ``execute()`` share one retry -> breaker -> fallback
policy.  The execute-path tests replace the real runtime with a stub
(``GossipService._invoke_runtime`` is monkeypatched), so no sockets or
processes are involved: only the policy's decisions are exercised.
"""

import dataclasses
import sys
import threading
import time

import pytest

from repro.core.gossip import gossip
from repro.exceptions import (
    PlanTimeoutError,
    ReproError,
    RuntimeDeadlineError,
    SupervisorError,
)
from repro.networks import topologies
from repro.service import GossipService
from tests.conftest import schedule_prefix

NETWORK = "path:4"


class FakeClock:
    """A manually-advanced monotonic clock."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class StubRuntime:
    """Stands in for a real runtime: plays ``script`` one call at a time.

    Each entry is an exception instance (raised) or any other object
    (returned as the run's result); the last entry repeats.
    """

    def __init__(self, *script):
        self.script = list(script)
        self.calls = 0
        self.lock = threading.Lock()

    def __call__(self, plan, runtime, **_kwargs):
        with self.lock:
            step = self.script[min(self.calls, len(self.script) - 1)]
            self.calls += 1
        if isinstance(step, BaseException):
            raise step
        return step


@pytest.fixture
def stub(monkeypatch):
    def install(*script):
        runtime = StubRuntime(*script)
        monkeypatch.setattr(GossipService, "_invoke_runtime", runtime)
        return runtime

    return install


def breaker_service(clock, *, retries=0, **kwargs):
    return GossipService(
        retries=retries, breaker_threshold=1, breaker_cooldown=10.0,
        clock=clock, **kwargs,
    )


class TestExecutePolicy:
    def test_transient_error_is_retried_and_counted(self, stub):
        result = object()
        runtime = stub(OSError("socket hiccup"), result)
        service = GossipService(retries=2, retry_backoff=0.001)
        outcome = service.execute(NETWORK, runtime="network")
        assert outcome.result is result and not outcome.degraded
        assert runtime.calls == 2
        stats = service.stats()
        assert stats.exec_retries == 1
        assert stats.executions == 1 and stats.exec_failures == 0

    def test_repro_error_passes_through_and_cancels_the_probe(self, stub):
        clock = FakeClock()
        result = object()
        runtime = stub(
            SupervisorError("control plane down"),
            ReproError("the request is at fault"),
            result,
        )
        service = breaker_service(clock)
        assert service.execute(NETWORK, runtime="network").degraded  # trips
        clock.advance(10.0)
        with pytest.raises(ReproError, match="request is at fault"):
            service.execute(NETWORK, runtime="network")  # the probe
        # The cancelled probe left the breaker open with its old
        # timestamp, so the very next request probes again and heals it.
        outcome = service.execute(NETWORK, runtime="network")
        assert outcome.result is result and not outcome.degraded
        assert runtime.calls == 3
        stats = service.stats()
        assert stats.breaker_probes == 2 and stats.breaker_closes == 1
        assert stats.exec_failures == 1

    def test_deadline_partial_is_served_degraded(self, stub):
        partial = object()
        runtime = stub(RuntimeDeadlineError("run deadline", partial=partial))
        service = GossipService(retries=2, retry_backoff=0.001)
        outcome = service.execute(NETWORK, runtime="processes")
        assert outcome.degraded and outcome.result is partial
        assert outcome.runtime == "processes"
        assert runtime.calls == 1  # availability errors are never retried
        stats = service.stats()
        assert stats.exec_failures == 1 and stats.exec_degraded == 1
        assert stats.executions == 1 and stats.exec_retries == 0

    def test_supervisor_error_degrades_to_the_simulator(self, stub):
        runtime = stub(SupervisorError("rendezvous abandoned"))
        service = GossipService()
        outcome = service.execute(NETWORK, runtime="processes")
        assert outcome.degraded and outcome.runtime == "simulator"
        assert outcome.requested == "processes"
        assert outcome.result.complete
        assert runtime.calls == 1
        assert service.stats().exec_degraded == 1

    def test_open_breaker_never_calls_the_runtime(self, stub):
        clock = FakeClock()
        runtime = stub(SupervisorError("control plane down"))
        service = breaker_service(clock)
        service.execute(NETWORK, runtime="network")  # trips the breaker
        outcome = service.execute(NETWORK, runtime="network")
        assert outcome.degraded and outcome.runtime == "simulator"
        assert runtime.calls == 1
        stats = service.stats()
        assert stats.breaker_opens == 1
        assert stats.executions == 2 and stats.exec_degraded == 2

    def test_successful_probe_heals_the_breaker(self, stub):
        clock = FakeClock()
        result = object()
        runtime = stub(SupervisorError("control plane down"), result)
        service = breaker_service(clock)
        service.execute(NETWORK, runtime="network")
        clock.advance(10.0)
        outcome = service.execute(NETWORK, runtime="network")
        assert outcome.result is result and not outcome.degraded
        assert runtime.calls == 2
        stats = service.stats()
        assert stats.breaker_probes == 1 and stats.breaker_closes == 1

    def test_short_circuit_counts_as_fast_fail(self, stub):
        """``exec_fast_fails`` counts what the open breaker short-circuited,
        just as ``fast_fails`` does on the plan path."""
        clock = FakeClock()
        stub(SupervisorError("control plane down"))
        service = breaker_service(clock)
        service.execute(NETWORK, runtime="network")
        service.execute(NETWORK, runtime="network")
        service.execute(NETWORK, runtime="network")
        stats = service.stats()
        assert stats.exec_fast_fails == 2 and stats.exec_degraded == 3

    def test_concurrent_requests_trip_the_breaker_once(self, stub):
        threads_n, each = 8, 25
        runtime = stub(SupervisorError("control plane down"))
        service = breaker_service(FakeClock())
        service.plan(NETWORK)  # warm: every thread then hits the cache
        barrier = threading.Barrier(threads_n)
        errors = []

        def worker():
            barrier.wait()
            try:
                for _ in range(each):
                    service.execute(NETWORK, runtime="network")
            except BaseException as exc:  # pragma: no cover - fails the test
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker) for _ in range(threads_n)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not errors
        assert not any(t.is_alive() for t in threads)
        total = threads_n * each
        stats = service.stats()
        assert stats.executions == stats.exec_degraded == total
        # Every request either ran (and failed) or was short-circuited,
        # and only the first failure past the threshold opened the breaker.
        assert stats.exec_failures == runtime.calls
        assert stats.exec_failures + stats.exec_fast_fails == total
        assert stats.breaker_opens == 1

    def test_execute_has_no_fallback_option(self):
        with pytest.raises(TypeError):
            GossipService().execute(NETWORK, runtime="network", fallback=False)


@pytest.mark.parametrize("interrupt", [KeyboardInterrupt, SystemExit])
class TestInterruptsPropagate:
    """Interrupts are not failures: no retry, no breaker, no fallback."""

    def test_plan_path(self, interrupt):
        calls = []

        def planner(graph, *, algorithm, tree=None):
            calls.append(algorithm)
            if algorithm == "concurrent-updown":
                raise interrupt()
            return gossip(graph, algorithm=algorithm, tree=tree)

        service = GossipService(
            planner=planner, retries=2, retry_backoff=0.001,
            fallback_algorithm="simple", breaker_threshold=1,
            clock=FakeClock(),
        )
        g = topologies.path_graph(5)
        with pytest.raises(interrupt):
            service.plan(g)
        assert calls == ["concurrent-updown"]
        assert service.breaker_state(g) == "closed"
        stats = service.stats()
        assert stats.retries == 0 and stats.degraded == 0
        assert stats.breaker_opens == 0

    def test_execute_path(self, stub, interrupt):
        runtime = stub(interrupt())
        service = breaker_service(FakeClock(), retries=2, retry_backoff=0.001)
        with pytest.raises(interrupt):
            service.execute(NETWORK, runtime="network")
        assert runtime.calls == 1
        stats = service.stats()
        assert stats.exec_retries == 0 and stats.exec_degraded == 0
        assert stats.exec_failures == 0 and stats.executions == 0
        assert stats.breaker_opens == 0


class TestLateBuildAdmission:
    def test_lint_dirty_late_build_is_never_cached(self):
        def slow_broken(graph, *, algorithm, tree=None):
            time.sleep(0.3)
            plan = gossip(graph, algorithm=algorithm, tree=tree)
            truncated = schedule_prefix(
                plan.schedule, plan.schedule.total_time - 3, name=plan.schedule.name
            )
            return dataclasses.replace(plan, schedule=truncated)

        service = GossipService(
            planner=slow_broken, planner_timeout=0.05, lint="error"
        )
        g = topologies.grid_2d(3, 4)
        with pytest.raises(PlanTimeoutError):
            service.plan(g)  # the deadline fires before the build lands
        deadline = time.monotonic() + 5.0
        while (
            service.stats().lints == 0 and len(service.cache) == 0
            and time.monotonic() < deadline
        ):
            time.sleep(0.01)
        assert len(service.cache) == 0
        stats = service.stats()
        assert stats.lints == 1 and stats.lint_errors > 0
        with pytest.raises(PlanTimeoutError):
            service.plan(g)  # re-planned, never served from the cache
        assert service.stats().hits == 0
