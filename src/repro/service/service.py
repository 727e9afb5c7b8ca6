"""The plan-serving front end: :class:`GossipService`.

The paper assumes networks "remain constant for long periods of time"
(Section 4) — exactly the regime where re-deriving the spanning tree,
labelling, and schedule on every :func:`~repro.core.gossip.gossip` call
is wasted work.  ``GossipService`` amortises it:

* plans are cached content-addressed — the key is
  ``(Graph.canonical_hash(), tree fingerprint, algorithm)`` — with LRU
  and total-weight bounds (:class:`~repro.service.cache.PlanCache`);
* concurrent requests for the same network **coalesce**: exactly one
  thread runs the planner, everyone else waits on its future;
* :meth:`plan_many` fans a batch out across a shared
  :class:`~concurrent.futures.ThreadPoolExecutor` (the planner's
  bit-parallel BFS runs inside numpy kernels that release the GIL, so
  batch planning overlaps);
* :meth:`maintain` binds a :class:`~repro.networks.dynamic.TreeMaintainer`
  to the cache so topology churn *patches or invalidates* affected
  entries instead of flushing everything
  (:class:`~repro.service.maintenance.MaintainedNetwork`);
* :meth:`~GossipService.execute` plans *and runs* a request on the
  simulator or a real runtime;
* both operations share one resilience policy, the
  :class:`~repro.service.guard.Guard`: transient failures are retried
  with backoff, and an optional per-``(operation, key)`` circuit
  breaker (:class:`~repro.service.breaker.CircuitBreaker`) stops
  hammering a planner or runtime that keeps failing — after
  ``breaker_threshold`` consecutive failures the key is served
  degraded (a cheaper plan, a partial result or the simulator replay)
  until a half-open probe succeeds;
* every request is instrumented
  (:class:`~repro.service.stats.ServiceStats`).

Plan construction is injectable (the ``planner`` argument), which the
tests use to count planning runs and which lets downstream users swap in
custom pipelines while keeping the serving machinery.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from time import perf_counter
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Tuple

if TYPE_CHECKING:
    from ..runtime.peer import RuntimeConfig
    from ..runtime.supervisor import RestartPolicy, RuntimeResult
    from ..runtime.transport import NetChaos
    from ..simulator.engine import ExecutionResult
    from .maintenance import MaintainedNetwork

from ..core.gossip import GossipPlan, NetworkSpec, gossip, resolve_network
from ..exceptions import (
    CircuitOpenError,
    PlanTimeoutError,
    ReproError,
    RuntimeDeadlineError,
    ScheduleLintError,
)
from ..lint import MODEL, PAPER, lint_schedule
from ..networks.graph import Graph
from ..tree.tree import Tree
from .cache import PlanCache, PlanKey, tree_fingerprint
from .guard import Guard
from .stats import ServiceStats, StatsRecorder

__all__ = ["ExecutionOutcome", "GossipService", "Planner"]

#: Execution engines :meth:`GossipService.execute` can drive.
_RUNTIMES = ("simulator", "network", "processes")

#: Signature of an injectable planner (keyword-only after the graph,
#: mirroring :func:`repro.core.gossip.gossip`).
Planner = Callable[..., GossipPlan]


def _fast_planner(
    graph: Graph, *, algorithm: str, tree: Optional[Tree] = None
) -> GossipPlan:
    """Default service planner: :func:`gossip` on the fast-path tree.

    The spanning tree comes from the pruned + batched center sweep
    (:func:`repro.networks.spanning_tree.center_sweep`): a double-sweep
    seed orders candidates near-center-first, cutoff BFS abandons losing
    candidates early, survivors are evaluated 64-at-a-time bit-parallel,
    and the winner's own parent array becomes the tree — no redundant
    traversal.  The result is *bit-identical* to the paper's exhaustive
    O(mn) construction (``benchmarks/bench_planner.py`` gates on it),
    and the heavy lifting happens inside numpy kernels that release the
    GIL, so :meth:`GossipService.plan_many` overlaps across threads.
    """
    if tree is None:
        from ..networks.bfs import require_connected
        from ..networks.spanning_tree import minimum_depth_spanning_tree

        require_connected(graph, "gossiping")
        tree = minimum_depth_spanning_tree(graph)
    return gossip(graph, algorithm=algorithm, tree=tree)


@dataclasses.dataclass(frozen=True)
class ExecutionOutcome:
    """What one :meth:`GossipService.execute` request produced.

    Attributes
    ----------
    plan:
        The (possibly cached) plan that was executed.
    requested:
        The execution engine the caller asked for: ``"simulator"``,
        ``"network"`` or ``"processes"``.
    runtime:
        The engine that actually produced :attr:`result` — differs from
        :attr:`requested` when the service degraded a failing real
        runtime to the offline simulator replay.
    degraded:
        Whether the service had to degrade: the result is either a
        partial :class:`~repro.runtime.supervisor.RuntimeResult` carried by
        a missed deadline, or the simulator standing in for a runtime
        the execution breaker has given up on.
    result:
        The execution record: an
        :class:`~repro.simulator.engine.ExecutionResult` (simulator), a
        :class:`~repro.runtime.supervisor.RuntimeResult` (network), or a
        :class:`~repro.runtime.supervisor.ProcResult` (processes).
    """

    plan: GossipPlan
    requested: str
    runtime: str
    degraded: bool
    result: "ExecutionResult | RuntimeResult"


class GossipService:
    """Cached, concurrent gossip-plan serving.

    Parameters
    ----------
    algorithm:
        Default algorithm for requests that don't specify one.
    max_entries / max_weight:
        Bounds of the underlying :class:`PlanCache` (weight is summed
        ``n + m`` per cached plan; ``None`` disables the weight bound).
    max_workers:
        Thread-pool width for :meth:`plan_many` (default: CPU count,
        capped at 8).
    planner:
        Plan constructor, called as ``planner(graph, algorithm=...,
        tree=...)``.  Defaults to :func:`repro.core.gossip.gossip` over
        the pruned, bit-parallel spanning-tree construction (numpy BFS
        kernels that release the GIL).
    planner_timeout:
        Per-request wall-clock budget (seconds) for one planner run.
        ``None`` (the default) disables the budget and runs the planner
        inline on the requesting thread.  With a budget set, each build
        runs on its own daemon thread; a build that exceeds it is
        *abandoned* (Python threads cannot be killed — the stray build
        finishes in the background and, once it passes the ``lint``
        gate, still warms the cache for later requests) and the request
        falls back to ``fallback_algorithm`` if one is configured, else
        raises :class:`~repro.exceptions.PlanTimeoutError`.
    retries / retry_backoff:
        Transient-failure retry budget and first backoff (seconds) of
        the :class:`~repro.service.guard.Guard` that planning and
        execution share: an :class:`Exception` that is not a
        :class:`~repro.exceptions.ReproError` is retried with
        exponential backoff; library errors are deterministic and never
        retried, and ``KeyboardInterrupt`` / ``SystemExit`` propagate.
    fallback_algorithm:
        The cheaper algorithm whose plan is served — flagged in
        :attr:`ServiceStats.degraded` — when the primary planner times
        out or keeps failing transiently.  Degraded plans are cached
        under the *fallback* key only, so the primary is re-attempted
        on the next request and the service heals itself once the
        planner recovers.
    breaker_threshold / breaker_cooldown:
        Enable the guard's per-``(operation, key)`` circuit breakers
        (:class:`~repro.service.breaker.CircuitBreaker`): after this many
        *consecutive* availability failures a key's breaker opens and
        short-circuits requests to the degraded answer — the
        ``fallback_algorithm`` plan (else a typed
        :class:`~repro.exceptions.CircuitOpenError`), or the simulator
        replay for :meth:`execute` — until, ``breaker_cooldown`` seconds
        (default 30) later, one half-open probe succeeds.  ``None`` (the
        default) disables breakers.
    clock:
        Monotonic time source for breaker cooldowns (injectable for
        tests; defaults to :func:`time.monotonic`).
    lint:
        Static-analysis gate on cache admission.  ``"off"`` (default)
        admits every freshly-built plan; ``"warn"`` runs
        :func:`repro.lint.lint_schedule` (``model`` rules, plus the
        ``paper`` invariants for ConcurrentUpDown plans) and records
        findings in :attr:`ServiceStats.lint_errors` while still
        admitting the plan; ``"error"`` additionally *rejects* a plan
        with error-severity findings by raising
        :class:`~repro.exceptions.ScheduleLintError` — a dirty plan
        never enters the cache.  Lint rejections are deterministic
        library errors: they never trip the circuit breaker and never
        trigger the degraded fallback.

    Examples
    --------
    >>> from repro.service import GossipService
    >>> from repro.networks import topologies
    >>> service = GossipService()
    >>> g = topologies.grid_2d(4, 4)
    >>> service.plan(g).total_time        # cold: builds and caches
    20
    >>> service.plan(g).total_time        # warm: cache hit
    20
    >>> service.stats().misses
    1
    """

    def __init__(
        self,
        *,
        algorithm: str = "concurrent-updown",
        max_entries: int = 256,
        max_weight: Optional[int] = None,
        max_workers: Optional[int] = None,
        planner: Optional[Planner] = None,
        planner_timeout: Optional[float] = None,
        retries: int = 2,
        retry_backoff: float = 0.05,
        fallback_algorithm: Optional[str] = None,
        breaker_threshold: Optional[int] = None,
        breaker_cooldown: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
        lint: str = "off",
    ) -> None:
        if planner_timeout is not None and planner_timeout <= 0:
            raise ReproError("planner_timeout must be positive (or None)")
        if lint not in ("off", "warn", "error"):
            raise ReproError(
                f"lint must be 'off', 'warn' or 'error', not {lint!r}"
            )
        self._algorithm = algorithm
        self._cache = PlanCache(max_entries=max_entries, max_weight=max_weight)
        self._stats = StatsRecorder()
        self._guard = Guard(
            self._stats, retries=retries, retry_backoff=retry_backoff,
            breaker_threshold=breaker_threshold,
            breaker_cooldown=breaker_cooldown, clock=clock,
        )
        self._planner: Planner = planner if planner is not None else _fast_planner
        self._planner_timeout = planner_timeout
        self._fallback_algorithm = fallback_algorithm
        self._lint = lint
        self._lock = threading.Lock()
        self._inflight: Dict[PlanKey, Future] = {}
        self._max_workers = max_workers or min(8, os.cpu_count() or 1)
        self._executor: Optional[ThreadPoolExecutor] = None

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def plan(
        self,
        network: NetworkSpec,
        *,
        algorithm: Optional[str] = None,
        tree: Optional[Tree] = None,
    ) -> GossipPlan:
        """Serve a plan for ``network``, from cache when possible.

        ``network`` is any :func:`~repro.core.gossip.resolve_network`
        spec — a :class:`Graph`, a :class:`Tree`, or a family string
        like ``"grid:64"``.  Passing ``tree`` pins the spanning tree
        (the cache key then includes the tree's fingerprint, so plans
        for differently-maintained trees of the same graph never mix).

        Concurrent calls for the same key run the planner exactly once.
        """
        graph, tree = resolve_network(network, tree=tree)
        key = self._key(graph, tree, algorithm)
        start = perf_counter()

        with self._lock:
            cached = self._cache.get(key)
            if cached is not None:
                self._stats.record("plan", "hit", seconds=perf_counter() - start)
                return cached
            future = self._inflight.get(key)
            owner = future is None
            if owner:
                future = Future()
                self._inflight[key] = future

        if not owner:
            plan = future.result()
            # Coalesced onto another thread's build: served without planning.
            self._stats.record("plan", "hit", seconds=perf_counter() - start)
            return plan

        try:
            plan, degraded = self._guard.run(
                "plan", key, lambda: (self._build(graph, tree, key), False),
                functools.partial(self._serve_fallback, graph, tree, key),
            )
        except BaseException as exc:
            with self._lock:
                self._inflight.pop(key, None)
            future.set_exception(exc)
            raise
        build_seconds = perf_counter() - start
        with self._lock:
            # A degraded plan is the *fallback* algorithm's plan: caching
            # it under the primary key would serve it silently forever.
            # _serve_fallback already cached it under the fallback key.
            evicted = 0 if degraded else self._cache.put(key, plan)
            self._inflight.pop(key, None)
        self._stats.record("plan", "miss", seconds=build_seconds)
        self._stats.record("cache", "eviction", evicted)
        future.set_result(plan)
        return plan

    # ------------------------------------------------------------------
    # Execution: plan *and run* a request through a runtime
    # ------------------------------------------------------------------
    def execute(
        self,
        network: NetworkSpec,
        *,
        algorithm: Optional[str] = None,
        tree: Optional[Tree] = None,
        runtime: str = "simulator",
        chaos: Optional["NetChaos"] = None,
        config: Optional["RuntimeConfig"] = None,
        policy: Optional["RestartPolicy"] = None,
        time_scale: float = 1.0,
    ) -> ExecutionOutcome:
        """Serve a plan for ``network`` and *run* it.

        Planning goes through :meth:`plan`, so the whole planning
        resilience policy (cache, coalescing, timeout, retries,
        breaker, degraded fallback) applies unchanged.  The run then
        goes through the same :class:`~repro.service.guard.Guard`,
        against a per-key, per-runtime breaker:

        * ``runtime="simulator"`` replays the schedule on the offline
          simulator (deterministic, no sockets);
        * ``runtime="network"`` drives
          :func:`repro.runtime.run_gossip_network` (one asyncio UDP
          task per vertex in this interpreter);
        * ``runtime="processes"`` drives
          :func:`repro.runtime.run_gossip_processes` (one supervised OS
          process per vertex, real crash injection and rejoin).

        Transient errors are retried; an availability failure (a missed
        :class:`~repro.exceptions.RuntimeDeadlineError` deadline, a
        :class:`~repro.exceptions.SupervisorError`, or a transient error
        past the retry budget) and an open breaker both degrade to the
        partial result the deadline carried, else to the offline
        simulator replay.  Other ``ReproError``\\ s indict the request,
        not the runtime: they re-raise and never trip the breaker.
        Every outcome is counted in
        :class:`~repro.service.stats.ServiceStats` (``executions`` /
        ``exec_failures`` / ``exec_retries`` / ``exec_degraded`` /
        ``exec_fast_fails``).
        """
        if runtime not in _RUNTIMES:
            raise ReproError(
                f"runtime must be one of {_RUNTIMES}, not {runtime!r}"
            )
        if runtime == "simulator" and (
            chaos is not None or config is not None or policy is not None
        ):
            raise ReproError(
                "chaos/config/policy only apply to the 'network' and "
                "'processes' runtimes"
            )
        if runtime == "network" and policy is not None:
            raise ReproError("policy only applies to the 'processes' runtime")
        graph, tree = resolve_network(network, tree=tree)
        plan = self.plan(graph, algorithm=algorithm, tree=tree)
        if runtime == "simulator":
            result = plan.execute()
            self._stats.record("execute", "ok")
            return ExecutionOutcome(
                plan=plan, requested=runtime, runtime=runtime,
                degraded=False, result=result,
            )

        def attempt() -> ExecutionOutcome:
            result = self._invoke_runtime(
                plan, runtime, chaos=chaos, config=config,
                policy=policy, time_scale=time_scale,
            )
            return ExecutionOutcome(
                plan=plan, requested=runtime, runtime=runtime,
                degraded=False, result=result,
            )

        key = (self._key(graph, tree, algorithm), runtime)
        return self._guard.run(
            "execute", key, attempt,
            functools.partial(self._degrade_execution, plan, runtime),
        )

    def _degrade_execution(
        self,
        plan: GossipPlan,
        requested: str,
        failure: Optional[Exception],
        _retry_after: Optional[float],
    ) -> ExecutionOutcome:
        """Serve a degraded execution result.

        ``failure`` is the runtime's availability error, or ``None``
        when an open breaker short-circuited the runtime without
        running it.  The degraded answer is the partial result a missed
        deadline carried when there is one, else the offline simulator
        replay of the very plan the runtime would have executed.
        """
        if isinstance(failure, RuntimeDeadlineError) and failure.partial is not None:
            return ExecutionOutcome(
                plan=plan, requested=requested, runtime=requested,
                degraded=True, result=failure.partial,  # type: ignore[arg-type]
            )
        return ExecutionOutcome(
            plan=plan, requested=requested, runtime="simulator",
            degraded=True, result=plan.execute(),
        )

    def _invoke_runtime(
        self,
        plan: GossipPlan,
        runtime: str,
        *,
        chaos: Optional["NetChaos"],
        config: Optional["RuntimeConfig"],
        policy: Optional["RestartPolicy"],
        time_scale: float,
    ) -> "RuntimeResult":
        """One real-runtime run (imports deferred: no asyncio at import)."""
        if runtime == "network":
            from ..runtime.clock import RealClock, ScaledClock
            from ..runtime.runner import run_gossip_network

            clock = RealClock() if time_scale >= 1.0 else ScaledClock(time_scale)
            return run_gossip_network(
                plan, chaos=chaos, config=config, clock=clock
            )
        from ..runtime.supervisor import run_gossip_processes

        return run_gossip_processes(
            plan, chaos=chaos, config=config, policy=policy,
            time_scale=time_scale,
        )

    # ------------------------------------------------------------------
    # Plan path: the attempt and the fallback the Guard runs
    # ------------------------------------------------------------------
    def _build(
        self, graph: Graph, tree: Optional[Tree], key: PlanKey
    ) -> GossipPlan:
        """One planner run for ``key``, admitted by the lint gate."""
        plan = self._invoke_planner(graph, tree, key)
        self._lint_admit(plan)
        return plan

    def _serve_fallback(
        self,
        graph: Graph,
        tree: Optional[Tree],
        key: PlanKey,
        failure: Optional[Exception],
        retry_after: Optional[float],
    ) -> Tuple[GossipPlan, bool]:
        """Serve the degraded fallback plan, or raise the typed error.

        ``failure`` is the primary planner's exception, or ``None`` when
        an open breaker short-circuited the primary without running it
        (``retry_after`` then carries the breaker's remaining cooldown).
        The fallback plan is cached under the *fallback* key only.
        """
        algorithm = key[2]
        fallback = self._fallback_algorithm
        if fallback is None or fallback == algorithm:
            if failure is not None:
                raise failure
            raise CircuitOpenError(
                f"circuit breaker open for algorithm {algorithm!r} "
                f"(retry in {retry_after:.3f}s) and no fallback_algorithm "
                f"is configured",
                algorithm=algorithm,
                retry_after=retry_after,
            )
        fallback_key = (key[0], key[1], fallback)
        with self._lock:
            cached = self._cache.get(fallback_key)
        if cached is None:
            try:
                cached = self._guard.retry(
                    "plan", lambda: self._build(graph, tree, fallback_key)
                )
            except Exception as exc:
                if failure is None:
                    raise CircuitOpenError(
                        f"circuit breaker open for algorithm {algorithm!r} "
                        f"and the degraded fallback ({fallback!r}) failed "
                        f"too: {exc!r}",
                        algorithm=algorithm,
                        retry_after=retry_after or 0.0,
                    ) from exc
                raise PlanTimeoutError(
                    f"primary planner ({algorithm!r}) failed "
                    f"({failure!r}) and the degraded fallback "
                    f"({fallback!r}) failed too: {exc!r}"
                ) from exc
            with self._lock:
                evicted = self._cache.put(fallback_key, cached)
            self._stats.record("cache", "eviction", evicted)
        return cached, True

    def breaker_state(
        self,
        network: NetworkSpec,
        *,
        algorithm: Optional[str] = None,
        tree: Optional[Tree] = None,
    ) -> Optional[str]:
        """The plan breaker's state for one network/algorithm key.

        Returns ``"closed"``, ``"open"`` or ``"half-open"``; ``None``
        when breakers are disabled or no request touched the key yet.
        """
        graph, tree = resolve_network(network, tree=tree)
        return self._guard.state("plan", self._key(graph, tree, algorithm))

    def _lint_admit(self, plan: GossipPlan) -> None:
        """Statically certify a fresh plan before it may enter the cache.

        Runs the ``model`` rules (and the ``paper`` invariants for
        ConcurrentUpDown plans) — never the efficiency lints, which are
        advisory.  ``"warn"`` only counts findings; ``"error"`` raises
        :class:`~repro.exceptions.ScheduleLintError` so the plan is
        neither cached nor served.  The exception is a deterministic
        :class:`ReproError`: it indicts the planner's output, not its
        availability, so it bypasses retries, breakers and fallbacks.
        Late builds that outlived their deadline pass the same gate.
        """
        if self._lint == "off":
            return
        tiers = [MODEL]
        if plan.algorithm == "concurrent-updown":
            tiers.append(PAPER)
        report = lint_schedule(
            plan.graph, plan.schedule, plan=plan, select=tiers
        )
        self._stats.record("plan", "lint")
        self._stats.record("plan", "lint_error", len(report.errors))
        if report.errors and self._lint == "error":
            raise ScheduleLintError(
                f"static analysis rejected the {plan.algorithm!r} plan: "
                f"{report.errors[0].message}"
                + (f" (+{len(report.errors) - 1} more)"
                   if len(report.errors) > 1 else ""),
                diagnostics=report.errors,
            )

    def _invoke_planner(
        self, graph: Graph, tree: Optional[Tree], key: PlanKey
    ) -> GossipPlan:
        """Run the planner, off-thread with a deadline when configured.

        Deadline builds each get a dedicated daemon thread rather than a
        shared pool: an abandoned (timed-out) build parked on a pool
        worker would starve the very fallback build meant to rescue the
        request.
        """
        algorithm = key[2]
        if self._planner_timeout is None:
            return self._planner(graph, algorithm=algorithm, tree=tree)
        build: Future = Future()

        def _run() -> None:
            try:
                result = self._planner(graph, algorithm=algorithm, tree=tree)
            except BaseException as exc:  # delivered via the future
                build.set_exception(exc)
            else:
                build.set_result(result)

        threading.Thread(target=_run, name="gossip-planner", daemon=True).start()
        try:
            return build.result(timeout=self._planner_timeout)
        except FutureTimeoutError:
            self._stats.record("plan", "timeout")
            # The thread cannot be interrupted; let the stray build warm
            # the cache when (if) it eventually finishes.
            build.add_done_callback(lambda f: self._adopt_late_build(key, f))
            raise PlanTimeoutError(
                f"planner for algorithm {algorithm!r} exceeded "
                f"{self._planner_timeout}s"
            ) from None

    def _adopt_late_build(self, key: PlanKey, build: Future) -> None:
        """Cache a timed-out build that eventually completed anyway —
        once it passes the same lint admission as an on-time build."""
        if build.cancelled() or build.exception() is not None:
            return
        plan = build.result()
        try:
            self._lint_admit(plan)
        except ScheduleLintError:
            return  # counted in lints / lint_errors; never cached
        with self._lock:
            evicted = self._cache.put(key, plan)
        self._stats.record("cache", "eviction", evicted)

    def plan_many(
        self,
        networks: Iterable[NetworkSpec],
        *,
        algorithm: Optional[str] = None,
    ) -> List[GossipPlan]:
        """Serve a batch of plans concurrently (order-preserving).

        Duplicate specs in one batch coalesce into a single planning run
        thanks to the in-flight future table; distinct networks plan in
        parallel on the service's thread pool.
        """
        specs = list(networks)
        self._stats.record("plan", "batch")
        if not specs:
            return []
        if len(specs) == 1:
            return [self.plan(specs[0], algorithm=algorithm)]
        executor = self._ensure_executor()
        futures = [
            executor.submit(self.plan, spec, algorithm=algorithm) for spec in specs
        ]
        return [f.result() for f in futures]

    def maintain(
        self, graph: Graph, *, policy: str = "eager"
    ) -> "MaintainedNetwork":
        """Maintain ``graph``'s spanning tree against this service's cache.

        Returns a :class:`~repro.service.maintenance.MaintainedNetwork`
        whose ``add_edge`` / ``remove_edge`` patch or invalidate the
        affected cache entries instead of flushing the cache.
        """
        from ..networks.dynamic import TreeMaintainer
        from .maintenance import MaintainedNetwork

        return MaintainedNetwork(self, TreeMaintainer.create(graph, policy=policy))

    # ------------------------------------------------------------------
    # Cache management
    # ------------------------------------------------------------------
    def invalidate(
        self,
        network: NetworkSpec,
        *,
        algorithm: Optional[str] = None,
        tree: Optional[Tree] = None,
    ) -> int:
        """Drop cached plans for one network.

        With ``algorithm`` given, drops just that entry; otherwise every
        algorithm's entry for the ``(graph, tree)`` pair.  Returns the
        number of entries removed.
        """
        graph, tree = resolve_network(network, tree=tree)
        ghash, tfp = graph.canonical_hash(), tree_fingerprint(tree)
        if algorithm is not None:
            count = int(self._cache.invalidate((ghash, tfp, algorithm)))
        else:
            count = self._cache.invalidate_where(
                lambda k, _p: k[0] == ghash and k[1] == tfp
            )
        self._stats.record("cache", "invalidation", count)
        return count

    def cache_clear(self) -> int:
        """Flush the cache entirely (counts as invalidations)."""
        count = self._cache.clear()
        self._stats.record("cache", "invalidation", count)
        return count

    @property
    def cache(self) -> PlanCache:
        """The underlying plan cache (shared, thread-safe)."""
        return self._cache

    def stats(self) -> ServiceStats:
        """Snapshot the service counters."""
        return self._stats.snapshot(
            entries=len(self._cache), weight=self._cache.weight
        )

    # ------------------------------------------------------------------
    # Maintenance hooks (used by MaintainedNetwork)
    # ------------------------------------------------------------------
    def _patch_entries(
        self, old_graph: Graph, new_graph: Graph, *, tree: Tree
    ) -> int:
        """Re-home cached plans onto a mutated graph whose tree survived.

        Every tree edge still exists in ``new_graph`` (the caller's
        maintainer guarantees it), and the paper's schedules only use
        tree edges — so the schedule stays valid verbatim and only the
        plan's ``graph`` field needs replacing.  Returns how many plans
        were patched across algorithms.
        """
        old_hash, tfp = old_graph.canonical_hash(), tree_fingerprint(tree)
        new_hash = new_graph.canonical_hash()
        donors = self._cache.items_where(
            lambda k, _p: k[0] == old_hash and k[1] == tfp
        )
        evicted = 0
        for (_, _, alg), plan in donors:
            patched = dataclasses.replace(plan, graph=new_graph)
            evicted += self._cache.put((new_hash, tfp, alg), patched)
        self._stats.record("cache", "patched", len(donors))
        self._stats.record("cache", "eviction", evicted)
        return len(donors)

    def _drop_graph_entries(self, graph: Graph) -> int:
        """Invalidate every cached plan for ``graph`` (all trees/algorithms)."""
        ghash = graph.canonical_hash()
        count = self._cache.invalidate_where(lambda k, _p: k[0] == ghash)
        self._stats.record("cache", "invalidation", count)
        return count

    def _note_rebuilds(self, count: int) -> None:
        self._stats.record("cache", "rebuild", count)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _ensure_executor(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=self._max_workers,
                    thread_name_prefix="gossip-service",
                )
            return self._executor

    def close(self) -> None:
        """Shut the thread pool down (idempotent; cache stays usable).

        Abandoned deadline builds run on daemon threads and are not
        waited for — a stuck planner is exactly why timeouts exist.
        """
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)

    def __enter__(self) -> "GossipService":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"GossipService(algorithm={self._algorithm!r}, cache={self._cache!r}, "
            f"workers={self._max_workers})"
        )

    # ------------------------------------------------------------------
    def _key(
        self, graph: Graph, tree: Optional[Tree], algorithm: Optional[str]
    ) -> PlanKey:
        alg = algorithm if algorithm is not None else self._algorithm
        if not isinstance(alg, str) or not alg:
            raise ReproError(f"bad algorithm name {alg!r}")
        return (graph.canonical_hash(), tree_fingerprint(tree), alg)
