"""Serving layer: cached, concurrent gossip-plan serving.

The paper's setting (Section 4) has networks that "remain constant for
long periods of time" while gossip runs repeatedly — so the expensive
pipeline (minimum-depth spanning tree -> DFS labelling -> schedule)
should be computed once per network and *served* thereafter.  This
package is that serving layer:

* :class:`~repro.service.service.GossipService` — the front end:
  content-addressed plan cache, request coalescing, batch fan-out,
  plan execution, topology maintenance hooks;
* :class:`~repro.service.cache.PlanCache` — the bounded thread-safe LRU
  underneath;
* :class:`~repro.service.guard.Guard` — the one retry → breaker →
  fallback policy that plan building and execution share;
* :class:`~repro.service.breaker.CircuitBreaker` — the per-key circuit
  breaker behind the service's ``breaker_threshold`` option;
* :class:`~repro.service.maintenance.MaintainedNetwork` — churn-aware
  cache patching/invalidation on top of
  :class:`~repro.networks.dynamic.TreeMaintainer`;
* :class:`~repro.service.stats.ServiceStats` — instrumentation;
* :mod:`~repro.service.workload` — the measurement workloads behind
  ``repro.cli bench`` / ``serve-stats`` and the cache benchmark.

Quickstart
----------
>>> from repro.service import GossipService
>>> from repro.networks import topologies
>>> service = GossipService()
>>> plan = service.plan(topologies.grid_2d(4, 4))   # cold: plans + caches
>>> service.plan(topologies.grid_2d(4, 4)) is plan  # warm: served from cache
True
"""

from .breaker import CircuitBreaker
from .cache import PlanCache, PlanKey, plan_weight, tree_fingerprint
from .maintenance import MaintainedNetwork
from .service import ExecutionOutcome, GossipService, Planner
from .stats import ServiceStats, StatsRecorder
from .workload import CacheBenchResult, bench_plan_cache, run_synthetic_workload

__all__ = [
    "ExecutionOutcome",
    "GossipService",
    "Planner",
    "CircuitBreaker",
    "PlanCache",
    "PlanKey",
    "plan_weight",
    "tree_fingerprint",
    "MaintainedNetwork",
    "ServiceStats",
    "StatsRecorder",
    "CacheBenchResult",
    "bench_plan_cache",
    "run_synthetic_workload",
]
