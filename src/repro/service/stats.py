"""Instrumentation for :class:`repro.service.GossipService`.

Two halves:

* :class:`StatsRecorder` — the mutable, thread-safe collector the
  service updates on every request (counters plus a bounded reservoir of
  plan-build latencies);
* :class:`ServiceStats` — an immutable snapshot in the style of
  :class:`repro.simulator.metrics.ScheduleMetrics`, with nearest-rank
  latency percentiles, suitable for printing or asserting on.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional, Sequence

from ..percentile import nearest_rank

__all__ = ["ServiceStats", "StatsRecorder"]


@dataclass(frozen=True)
class ServiceStats:
    """Point-in-time statistics of one :class:`GossipService`.

    Attributes
    ----------
    requests:
        Total ``plan()`` calls answered (including waiters coalesced
        onto another thread's in-flight build).
    hits / misses:
        Cache outcomes; ``misses`` equals the number of *planning runs*
        — concurrent requests for the same key coalesce into one build
        and the waiters count as hits.
    patched:
        Cached plans re-homed onto a mutated graph without re-planning
        (lazy maintenance of a surviving tree).
    invalidations:
        Entries dropped because a topology change superseded their tree.
    evictions:
        Entries dropped by the LRU / weight bounds.
    rebuilds:
        Spanning-tree rebuilds performed by maintained networks.
    batches:
        ``plan_many()`` calls.
    entries / weight:
        Current cache occupancy (entry count and summed ``n + m``).
    plan_p50_ms / plan_p90_ms / plan_p99_ms / plan_max_ms:
        Nearest-rank percentiles of *cold* plan-build latency in
        milliseconds (``None`` until the first build).
    hit_p50_ms:
        Median end-to-end latency of cache hits, for the warm/cold
        contrast the benchmarks report.
    timeouts:
        Planner builds abandoned because they exceeded the service's
        ``planner_timeout``.
    retries:
        Planner re-invocations after a transient failure (bounded by
        the service's ``retries`` setting per request).
    degraded:
        Requests served by the fallback algorithm's plan because the
        primary planner timed out or kept failing — or because an open
        circuit breaker short-circuited the primary entirely.
    breaker_opens:
        Circuit-breaker trips: transitions into the open state (either
        the consecutive-failure threshold was reached or a half-open
        probe failed).
    breaker_probes:
        Half-open probes dispatched after a cooldown elapsed.
    breaker_closes:
        Successful probes that healed a breaker (half-open -> closed).
    fast_fails:
        Requests rejected with
        :class:`~repro.exceptions.CircuitOpenError` because the breaker
        was open and no degraded fallback was configured.
    lints:
        Static-analysis runs performed on freshly-built plans (the
        service's ``lint="warn"`` / ``lint="error"`` admission gate).
    lint_errors:
        Error-severity diagnostics found across those runs.  Under
        ``lint="error"`` each finding also means a plan was refused
        cache admission with
        :class:`~repro.exceptions.ScheduleLintError`.
    executions:
        ``execute()`` requests answered with a result (including
        degraded ones) — the execution-side mirror of ``requests``.
    exec_failures:
        Runtime *availability* failures observed while executing
        (deadlines, supervisor control-plane errors, transient crashes
        that survived the retry budget).  These are the failures that
        count against the per-key execution breaker.
    exec_retries:
        Runtime re-runs after a transient execution failure (bounded by
        the service's ``retries`` setting per request).
    exec_degraded:
        ``execute()`` requests served degraded — a partial result
        carried by a missed deadline, or the offline simulator standing
        in for a runtime the breaker has given up on.
    exec_fast_fails:
        ``execute()`` requests rejected with
        :class:`~repro.exceptions.CircuitOpenError` because the
        execution breaker was open and degraded serving was disabled.
    """

    requests: int
    hits: int
    misses: int
    patched: int
    invalidations: int
    evictions: int
    rebuilds: int
    batches: int
    entries: int
    weight: int
    plan_p50_ms: Optional[float]
    plan_p90_ms: Optional[float]
    plan_p99_ms: Optional[float]
    plan_max_ms: Optional[float]
    hit_p50_ms: Optional[float]
    timeouts: int = 0
    retries: int = 0
    degraded: int = 0
    breaker_opens: int = 0
    breaker_probes: int = 0
    breaker_closes: int = 0
    fast_fails: int = 0
    lints: int = 0
    lint_errors: int = 0
    executions: int = 0
    exec_failures: int = 0
    exec_retries: int = 0
    exec_degraded: int = 0
    exec_fast_fails: int = 0

    @property
    def hit_rate(self) -> Optional[float]:
        """Fraction of requests served from cache (None before traffic)."""
        if self.requests == 0:
            return None
        return self.hits / self.requests

    def format(self) -> str:
        """Multi-line human-readable report (used by ``repro.cli serve-stats``)."""
        rate = "n/a" if self.hit_rate is None else f"{self.hit_rate:6.1%}"

        def ms(x: Optional[float]) -> str:
            return "n/a" if x is None else f"{x:.3f} ms"

        return "\n".join(
            [
                f"requests      : {self.requests}  (batches: {self.batches})",
                f"cache         : {self.hits} hits / {self.misses} misses  "
                f"(hit rate {rate})",
                f"maintenance   : {self.patched} patched, "
                f"{self.invalidations} invalidated, {self.rebuilds} tree rebuilds",
                f"evictions     : {self.evictions}",
                f"occupancy     : {self.entries} plans, weight {self.weight} (n + m)",
                f"resilience    : {self.timeouts} timeouts, {self.retries} retries, "
                f"{self.degraded} degraded",
                f"breaker       : {self.breaker_opens} opens, "
                f"{self.breaker_probes} probes, {self.breaker_closes} closes, "
                f"{self.fast_fails} fast-fails",
                f"lint          : {self.lints} runs, "
                f"{self.lint_errors} error diagnostics",
                f"execution     : {self.executions} runs, "
                f"{self.exec_failures} failures, {self.exec_retries} retries, "
                f"{self.exec_degraded} degraded, "
                f"{self.exec_fast_fails} fast-fails",
                f"build latency : p50 {ms(self.plan_p50_ms)}  "
                f"p90 {ms(self.plan_p90_ms)}  p99 {ms(self.plan_p99_ms)}  "
                f"max {ms(self.plan_max_ms)}",
                f"hit latency   : p50 {ms(self.hit_p50_ms)}",
            ]
        )


class StatsRecorder:
    """Thread-safe mutable counters behind :class:`ServiceStats`.

    Latencies are kept in bounded deques (newest ``maxlen`` samples) so
    a long-lived service never grows without bound; percentiles are over
    that window.
    """

    def __init__(self, latency_window: int = 4096) -> None:
        self._lock = threading.Lock()
        self.requests = 0
        self.hits = 0
        self.misses = 0
        self.patched = 0
        self.invalidations = 0
        self.evictions = 0
        self.rebuilds = 0
        self.batches = 0
        self.timeouts = 0
        self.retries = 0
        self.degraded = 0
        self.breaker_opens = 0
        self.breaker_probes = 0
        self.breaker_closes = 0
        self.fast_fails = 0
        self.lints = 0
        self.lint_errors = 0
        self.executions = 0
        self.exec_failures = 0
        self.exec_retries = 0
        self.exec_degraded = 0
        self.exec_fast_fails = 0
        self._build_latencies: Deque[float] = deque(maxlen=latency_window)
        self._hit_latencies: Deque[float] = deque(maxlen=latency_window)

    # ------------------------------------------------------------------
    def record_hit(self, seconds: float) -> None:
        with self._lock:
            self.requests += 1
            self.hits += 1
            self._hit_latencies.append(seconds)

    def record_miss(self, build_seconds: float) -> None:
        with self._lock:
            self.requests += 1
            self.misses += 1
            self._build_latencies.append(build_seconds)

    def record_batch(self) -> None:
        with self._lock:
            self.batches += 1

    def record_evictions(self, count: int) -> None:
        if count:
            with self._lock:
                self.evictions += count

    def record_invalidations(self, count: int) -> None:
        if count:
            with self._lock:
                self.invalidations += count

    def record_patched(self, count: int) -> None:
        if count:
            with self._lock:
                self.patched += count

    def record_rebuilds(self, count: int) -> None:
        if count:
            with self._lock:
                self.rebuilds += count

    def record_timeout(self) -> None:
        with self._lock:
            self.timeouts += 1

    def record_retry(self) -> None:
        with self._lock:
            self.retries += 1

    def record_degraded(self) -> None:
        with self._lock:
            self.degraded += 1

    def record_breaker_open(self) -> None:
        with self._lock:
            self.breaker_opens += 1

    def record_probe(self) -> None:
        with self._lock:
            self.breaker_probes += 1

    def record_breaker_close(self) -> None:
        with self._lock:
            self.breaker_closes += 1

    def record_fast_fail(self) -> None:
        with self._lock:
            self.fast_fails += 1

    def record_lint(self, *, errors: int = 0) -> None:
        with self._lock:
            self.lints += 1
            self.lint_errors += errors

    def record_execution(self) -> None:
        with self._lock:
            self.executions += 1

    def record_exec_failure(self) -> None:
        with self._lock:
            self.exec_failures += 1

    def record_exec_retry(self) -> None:
        with self._lock:
            self.exec_retries += 1

    def record_exec_degraded(self) -> None:
        with self._lock:
            self.exec_degraded += 1

    def record_exec_fast_fail(self) -> None:
        with self._lock:
            self.exec_fast_fails += 1

    # ------------------------------------------------------------------
    def snapshot(self, *, entries: int, weight: int) -> ServiceStats:
        """Freeze the counters into a :class:`ServiceStats`."""
        with self._lock:
            builds = sorted(self._build_latencies)
            hits = sorted(self._hit_latencies)

            def pct(vals: Sequence[float], q: float) -> Optional[float]:
                return nearest_rank(vals, q) * 1e3 if vals else None

            return ServiceStats(
                requests=self.requests,
                hits=self.hits,
                misses=self.misses,
                patched=self.patched,
                invalidations=self.invalidations,
                evictions=self.evictions,
                rebuilds=self.rebuilds,
                batches=self.batches,
                entries=entries,
                weight=weight,
                plan_p50_ms=pct(builds, 0.50),
                plan_p90_ms=pct(builds, 0.90),
                plan_p99_ms=pct(builds, 0.99),
                plan_max_ms=(builds[-1] * 1e3 if builds else None),
                hit_p50_ms=pct(hits, 0.50),
                timeouts=self.timeouts,
                retries=self.retries,
                degraded=self.degraded,
                breaker_opens=self.breaker_opens,
                breaker_probes=self.breaker_probes,
                breaker_closes=self.breaker_closes,
                fast_fails=self.fast_fails,
                lints=self.lints,
                lint_errors=self.lint_errors,
                executions=self.executions,
                exec_failures=self.exec_failures,
                exec_retries=self.exec_retries,
                exec_degraded=self.exec_degraded,
                exec_fast_fails=self.exec_fast_fails,
            )
