"""Instrumentation for :class:`repro.service.GossipService`.

Two halves:

* :class:`StatsRecorder` — the mutable, thread-safe collector the
  service updates on every request: one count per ``(operation,
  event)`` key plus bounded reservoirs of hit and build latencies;
* :class:`ServiceStats` — an immutable snapshot in the style of
  :class:`repro.simulator.metrics.ScheduleMetrics`, with nearest-rank
  latency percentiles, suitable for printing or asserting on.
"""

from __future__ import annotations

import threading
from collections import defaultdict, deque
from dataclasses import dataclass
from typing import DefaultDict, Deque, Dict, Optional, Sequence, Tuple

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
        probe failed).  Summed over the plan and execution breakers,
        like the two counters below.
    breaker_probes:
        Half-open probes dispatched after a cooldown elapsed.
    breaker_closes:
        Successful probes that healed a breaker (half-open -> closed).
    fast_fails:
        ``plan()`` requests the open breaker short-circuited without
        running the primary planner — served from the degraded fallback
        when one is configured, else rejected with
        :class:`~repro.exceptions.CircuitOpenError`.
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
        ``execute()`` requests the open execution breaker
        short-circuited without running the real runtime (each is
        served degraded by the simulator replay, so it also counts in
        ``exec_degraded``).
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


#: Each :class:`ServiceStats` counter and the ``(operation, event)``
#: keys it sums.  Operations are ``"plan"``, ``"execute"`` and
#: ``"cache"`` (bookkeeping shared by both); the breaker counters sum
#: over the two guarded operations.
COUNTERS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "requests": (("plan", "hit"), ("plan", "miss")),
    "hits": (("plan", "hit"),),
    "misses": (("plan", "miss"),),
    "patched": (("cache", "patched"),),
    "invalidations": (("cache", "invalidation"),),
    "evictions": (("cache", "eviction"),),
    "rebuilds": (("cache", "rebuild"),),
    "batches": (("plan", "batch"),),
    "timeouts": (("plan", "timeout"),),
    "retries": (("plan", "retry"),),
    "degraded": (("plan", "degraded"),),
    "breaker_opens": (("plan", "open"), ("execute", "open")),
    "breaker_probes": (("plan", "probe"), ("execute", "probe")),
    "breaker_closes": (("plan", "close"), ("execute", "close")),
    "fast_fails": (("plan", "fast_fail"),),
    "lints": (("plan", "lint"),),
    "lint_errors": (("plan", "lint_error"),),
    "executions": (("execute", "ok"), ("execute", "degraded")),
    "exec_failures": (("execute", "failure"),),
    "exec_retries": (("execute", "retry"),),
    "exec_degraded": (("execute", "degraded"),),
    "exec_fast_fails": (("execute", "fast_fail"),),
}


class StatsRecorder:
    """Thread-safe event counts behind :class:`ServiceStats`.

    Every event is counted under an ``(operation, event)`` key;
    :data:`COUNTERS` maps those keys onto the snapshot's fields.
    Latencies are kept in bounded deques (newest ``maxlen`` samples) so
    a long-lived service never grows without bound; percentiles are over
    that window.
    """

    def __init__(self, latency_window: int = 4096) -> None:
        self._lock = threading.Lock()
        self._counts: DefaultDict[Tuple[str, str], int] = defaultdict(int)
        self._latencies: Dict[Tuple[str, str], Deque[float]] = {
            ("plan", "hit"): deque(maxlen=latency_window),
            ("plan", "miss"): deque(maxlen=latency_window),
        }

    def record(
        self, op: str, event: str, count: int = 1, *,
        seconds: Optional[float] = None,
    ) -> None:
        """Count ``count`` occurrences of ``event`` in ``op``; a hit or
        miss also passes its latency in ``seconds``."""
        if not count:
            return
        key = (op, event)
        with self._lock:
            self._counts[key] += count
            if seconds is not None:
                self._latencies[key].append(seconds)

    def snapshot(self, *, entries: int, weight: int) -> ServiceStats:
        """Freeze the counters into a :class:`ServiceStats`."""
        with self._lock:
            counts = {
                field: sum(self._counts.get(key, 0) for key in keys)
                for field, keys in COUNTERS.items()
            }
            builds = sorted(self._latencies["plan", "miss"])
            hits = sorted(self._latencies["plan", "hit"])

        def pct(vals: Sequence[float], q: float) -> Optional[float]:
            return nearest_rank(vals, q) * 1e3 if vals else None

        return ServiceStats(
            **counts,
            entries=entries,
            weight=weight,
            plan_p50_ms=pct(builds, 0.50),
            plan_p90_ms=pct(builds, 0.90),
            plan_p99_ms=pct(builds, 0.99),
            plan_max_ms=(builds[-1] * 1e3 if builds else None),
            hit_p50_ms=pct(hits, 0.50),
        )
