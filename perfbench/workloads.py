"""The benchmark's four workloads and the process that measures them.

``run.py`` starts this file as a fresh interpreter::

    python3 perfbench/workloads.py --role setup|measure --workload W \
        --seed S --seconds R --trace 0|1

It imports ``repro``, builds the workload's inputs from the seed, warms
up, and prints ``READY <import seconds>``.  A ``setup`` child stops
there (``run.py`` times several of them for ``setup_s``).  A ``measure``
child then runs the timed loop (``--trace 0``) or the traced passes
(``--trace 1``), prints ``INFO`` lines and ends with ``RESULT <json>``.

Every workload runs in this one process on one thread.  Inputs reach
``repro`` only through its public functions.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import itertools
import json
import pathlib
import random
import resource
import sys
import time
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from harness import (REFERENCE_EVERY_S, REFERENCE_NOMINAL_S, WINDOW_OPS, Tracer, fingerprint,
                     host_reference, host_scale, layer_self_totals, median, tail, windows)

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"

WORKLOADS = ("serve", "certify", "net", "check")

#: Passes over each workload's inputs in a traced run: fixed, so that
#: the traced counts repeat exactly per seed.
TRACE_PASSES = {"serve": 3, "certify": 3, "net": 1, "check": 1}

_NULL = contextlib.nullcontext()


def ms_p50(tracer: Tracer, name: str) -> float:
    """Median duration, in ms, of the spans called ``name``."""
    return median(tracer.durations(name)) * 1e3


def import_repro() -> float:
    """Import every ``repro`` package the workloads use; return seconds."""
    start = perf_counter()
    import repro  # noqa: F401
    import repro.check  # noqa: F401
    import repro.runtime  # noqa: F401

    return perf_counter() - start


def relabeled_edges(graph: Any, rng: random.Random) -> List[Tuple[int, int]]:
    """``graph``'s edge list under a seeded vertex permutation."""
    perm = list(range(graph.n))
    rng.shuffle(perm)
    return [(perm[u], perm[v]) for u, v in graph.edge_list()]


def zipf_block(ranks: int, exponent: float, size: int) -> List[int]:
    """``size`` ranks, rank ``r`` appearing in proportion to ``1/(r+1)**exponent``.

    Counts are rounded by largest remainder, so they sum to ``size``
    exactly and every rank appears at least once.
    """
    weights = [1.0 / (r + 1) ** exponent for r in range(ranks)]
    spare = size - ranks
    quotas = [spare * w / sum(weights) for w in weights]
    counts = [1 + int(q) for q in quotas]
    by_remainder = sorted(range(ranks), key=lambda r: int(quotas[r]) - quotas[r])
    for r in by_remainder[:size - sum(counts)]:
        counts[r] += 1
    return [r for r in range(ranks) for _ in range(counts[r])]


def seeded_cycles(rng: random.Random, items: List[Any]) -> Iterator[Tuple[int, Any]]:
    """``items`` forever, each pass in a fresh seeded order: (pass, item)."""
    for pass_no in itertools.count():
        order = list(items)
        rng.shuffle(order)
        for item in order:
            yield pass_no, item


class Session:
    """State of one pass over a workload; ``execute`` is the timed op."""

    tracer: Optional[Tracer] = None

    def span(self, name: str) -> Any:
        return self.tracer.span(name) if self.tracer is not None else _NULL

    def execute(self, op: Any) -> Any:
        raise NotImplementedError

    def verify(self, op: Any, out: Any) -> Tuple[int, Optional[str]]:
        """Check one op's output: (work items done, failure or None)."""
        raise NotImplementedError

    def root(self, op: Any) -> str:
        """Name of the span that wraps the whole op."""
        raise NotImplementedError

    def finalize(self) -> List[str]:
        """Failures only visible once the loop is over."""
        return []

    def layer_metrics(self, tracer: Tracer) -> Tuple[Dict[str, float], List[str], List[str]]:
        """After a traced pass: (per-layer metrics, info lines, failures)."""
        raise NotImplementedError

    def close(self) -> None:
        """Release what the session holds (nothing by default)."""


# ----------------------------------------------------------------------
# serve: closed-loop Zipf stream of plan requests against one service
# ----------------------------------------------------------------------
SERVE_FAMILIES = ("grid", "torus", "random", "gnp", "random-tree",
                  "caterpillar", "broom", "wheel")
#: 24 requested sizes, 64 to 248 in steps of 8: a continuum, so neither
#: the hit nor the miss latencies fall into clusters by size.
SERVE_SIZES = tuple(range(64, 256, 8))
#: Half the working set of 24 networks.
SERVE_CACHE = 12
SERVE_ZIPF = 1.3
#: Rank 0 gets size 64 + 8 * 18 = 208: the most popular network is a
#: mid-to-large one, so the median op falls inside its hit latencies.
SERVE_OFFSET = 18
SERVE_BLOCK = 400
SERVE_WRITE_SHARE = 0.1
#: Alternating maintenance policies: eager writes rebuild the tree and
#: mostly invalidate, lazy ones keep it and patch the cached plan.
SERVE_POLICIES = ("eager", "lazy")


class Serve:
    """Inputs of the serve workload for one seed.

    Popularity rank ``r`` is family ``SERVE_FAMILIES[r % 8]`` at size
    ``SERVE_SIZES[(7 * r + SERVE_OFFSET) % 24]``, so sizes are spread
    evenly over the popularity levels and every seed sees the same mix;
    the seed relabels the vertices and orders the request stream.
    """

    name = "serve"
    pass_size = SERVE_BLOCK

    def __init__(self, seed: int) -> None:
        from repro.analysis.sweep import family_instance

        rng = random.Random(f"serve:{seed}")
        self.seed = seed
        self.networks: List[Tuple[int, List[Tuple[int, int]]]] = []
        for rank in range(len(SERVE_SIZES)):
            graph = family_instance(SERVE_FAMILIES[rank % len(SERVE_FAMILIES)],
                                    SERVE_SIZES[(7 * rank + SERVE_OFFSET) % len(SERVE_SIZES)])
            self.networks.append((graph.n, relabeled_edges(graph, rng)))
        self.block = zipf_block(len(self.networks), SERVE_ZIPF, SERVE_BLOCK)

    def ops(self) -> Iterator[Tuple[Any, ...]]:
        """The request stream: ``("read", r)`` or ``("write", r, kind, edge)``.

        Blocks of :data:`SERVE_BLOCK` requests, each holding every rank
        its Zipf share of times and exactly :data:`SERVE_WRITE_SHARE`
        writes, in a seeded order: the seed moves requests around, not
        the mix.  A write adds a seeded non-edge to network ``r``; the
        next write to ``r`` removes it again, so the network never drifts.
        """
        rng = random.Random(f"serve-stream:{self.seed}")
        pending: Dict[int, Tuple[int, int]] = {}
        edge_sets = [{(min(e), max(e)) for e in edges} for _, edges in self.networks]
        writes = round(SERVE_WRITE_SHARE * len(self.block))
        flags = [True] * writes + [False] * (len(self.block) - writes)
        while True:
            ranks = list(self.block)
            rng.shuffle(ranks)
            rng.shuffle(flags)
            for rank, write in zip(ranks, flags):
                if not write:
                    yield ("read", rank)
                elif rank in pending:
                    yield ("write", rank, "remove", pending.pop(rank))
                else:
                    n = self.networks[rank][0]
                    while True:
                        u, v = rng.randrange(n), rng.randrange(n)
                        if u != v and (min(u, v), max(u, v)) not in edge_sets[rank]:
                            break
                    pending[rank] = (u, v)
                    yield ("write", rank, "add", (u, v))

    def session(self, tracer: Optional[Tracer] = None) -> "ServeSession":
        return ServeSession(self, tracer)

    def warm_up(self) -> None:
        from repro import GossipService, Graph

        with GossipService(max_entries=SERVE_CACHE) as service:
            for n, edges in self.networks[:3]:
                service.plan(Graph(n, edges))
            n, edges = self.networks[0]
            handle = service.maintain(Graph(n, edges))
            handle.add_edge(*next(op[3] for op in self.ops() if op[:3] == ("write", 0, "add")))
            handle.plan()


def staged_planner(session: Optional["ServeSession"]) -> Callable[..., Any]:
    """A planner from the public stage functions, one span per stage.

    Returns the same plan as the service's default planner: the
    minimum-depth spanning tree, its DFS labelling, and the registered
    algorithm's schedule on it.  With a session, every build is counted
    on it and traced by its tracer.
    """
    from repro import ALGORITHMS, GossipPlan, LabeledTree, minimum_depth_spanning_tree

    def span(name: str) -> Any:
        return session.span(name) if session is not None else _NULL

    def planner(graph: Any, *, algorithm: str, tree: Any = None) -> Any:
        if session is not None:
            session.builds += 1
        if tree is None:
            with span("networks.sweep"):
                tree = minimum_depth_spanning_tree(graph)
        with span("tree.label"):
            labeled = LabeledTree(tree)
        with span("core.emit"):
            schedule = ALGORITHMS[algorithm](labeled)
        return GossipPlan(graph=graph, tree=tree, labeled=labeled,
                          schedule=schedule, algorithm=algorithm)

    return planner


class ServeSession(Session):
    def __init__(self, workload: Serve, tracer: Optional[Tracer]) -> None:
        from repro import GossipService, Graph

        self.tracer = tracer
        self.builds = 0
        self.workload = workload
        self._graph = Graph
        self.service = GossipService(
            max_entries=SERVE_CACHE,
            planner=staged_planner(self) if tracer is not None else None,
        )
        self.handles = [self.service.maintain(Graph(n, edges), policy=SERVE_POLICIES[r % 2])
                        for r, (n, edges) in enumerate(workload.networks)]

    def root(self, op: Tuple[Any, ...]) -> str:
        return "op.serve." + op[0]

    def _plan_span(self, call: Callable[[], Any]) -> Any:
        builds = self.builds
        with self.span("service.plan") as span:
            plan = call()
        if span is not None:
            span.name = "service.miss" if self.builds > builds else "service.hit"
        return plan

    def execute(self, op: Tuple[Any, ...]) -> Any:
        if op[0] == "read":
            n, edges = self.workload.networks[op[1]]
            with self.span("networks.graph"):
                graph = self._graph(n, edges)
            with self.span("networks.hash"):
                graph.canonical_hash()
            return graph, self._plan_span(lambda: self.service.plan(graph))
        handle = self.handles[op[1]]
        with self.span("service.write"):
            if op[2] == "add":
                handle.add_edge(*op[3])
            else:
                handle.remove_edge(*op[3])
        return handle.graph, self._plan_span(handle.plan)

    def verify(self, op: Tuple[Any, ...], out: Any) -> Tuple[int, Optional[str]]:
        graph, plan = out
        if plan.graph.canonical_hash() != graph.canonical_hash():
            return 0, f"serve {op[:2]}: plan is for another graph"
        if plan.total_time > plan.radius_bound:
            return 0, f"serve {op[:2]}: {plan.total_time} rounds > n + r = {plan.radius_bound}"
        if op[0] == "write":
            tree = plan.tree
            if tree != self.handles[op[1]].tree or not all(
                graph.has_edge(v, tree.parent(v)) for v in range(graph.n) if v != tree.root
            ):
                return 0, f"serve {op[:2]}: tree uses an edge outside the current graph"
        return graph.n, None

    def close(self) -> None:
        self.service.close()

    def layer_metrics(self, tracer: Tracer) -> Tuple[Dict[str, float], List[str], List[str]]:
        stats = self.service.stats()
        self.close()
        metrics = {f"{name}_ms_p50": ms_p50(tracer, name) for name in (
            "networks.graph", "networks.hash", "networks.sweep", "tree.label",
            "core.emit", "service.hit", "service.miss", "service.write")}
        metrics.update({
            "service.hit_ratio": stats.hits / stats.requests,
            "service.evictions": stats.evictions,
            "service.patched": stats.patched,
            "service.invalidations": stats.invalidations,
            "service.rebuilds": stats.rebuilds,
        })
        differs = same_as_default_planner(self.workload)
        return metrics, [], [differs] if differs else []


# ----------------------------------------------------------------------
# certify: cold plan + simulator replay + static lint, n ~ 128-144
# ----------------------------------------------------------------------
CERTIFY_NETWORKS = (("hypercube", 128), ("debruijn", 128), ("binary-tree", 127),
                    ("geometric", 144), ("random", 144), ("gnp", 144),
                    ("caterpillar", 144))


class Certify:
    """Seeded relabelings of seven same-size networks, cycled in seeded order."""

    name = "certify"
    pass_size = len(CERTIFY_NETWORKS)

    def __init__(self, seed: int) -> None:
        from repro import Graph
        from repro.analysis.sweep import family_instance

        rng = random.Random(f"certify:{seed}")
        self.graphs = []
        for family, n in CERTIFY_NETWORKS:
            graph = family_instance(family, n)
            self.graphs.append(Graph(graph.n, relabeled_edges(graph, rng),
                                     name=f"{family}:{n}"))
        self._seed = seed

    def ops(self) -> Iterator[Tuple[int, Any]]:
        return seeded_cycles(random.Random(f"certify-order:{self._seed}"), self.graphs)

    def session(self, tracer: Optional[Tracer] = None) -> "CertifySession":
        return CertifySession(tracer)

    def warm_up(self) -> None:
        session = self.session()
        session.verify(None, session.execute((0, self.graphs[2])))


class CertifySession(Session):
    def __init__(self, tracer: Optional[Tracer]) -> None:
        self.tracer = tracer
        self.transmissions = 0
        self.warnings = 0
        self.errors = 0

    def root(self, op: Any) -> str:
        return "op.certify"

    def execute(self, op: Tuple[int, Any]) -> Any:
        from repro import execute_schedule, gossip, lint_schedule
        from repro.simulator.state import labeled_holdings

        graph = op[1]
        with self.span("core.plan"):
            plan = gossip(graph)
        with self.span("simulator.execute"):
            result = execute_schedule(
                graph, plan.schedule,
                initial_holds=labeled_holdings(plan.labeled.labels()),
                require_complete=True,
            )
        with self.span("lint.lint"):
            report = lint_schedule(graph, plan.schedule, plan=plan)
        return plan, result, report

    def verify(self, op: Any, out: Any) -> Tuple[int, Optional[str]]:
        plan, result, report = out
        sent = len(plan.arrays().round)
        self.transmissions += sent
        self.warnings += len(report.warnings)
        self.errors += len(report.errors)
        name = plan.graph.name
        if not result.complete or result.makespan != plan.total_time:
            return 0, f"certify {name}: makespan {result.makespan} != {plan.total_time}"
        if report.errors:
            return 0, f"certify {name}: lint errors {report.errors[0]}"
        return sent, None

    def layer_metrics(self, tracer: Tracer) -> Tuple[Dict[str, float], List[str], List[str]]:
        metrics = {f"{name}_ms_p50": ms_p50(tracer, name)
                   for name in ("core.plan", "simulator.execute", "lint.lint")}
        metrics.update({
            "simulator.transmissions": self.transmissions,
            "simulator.tx_per_s":
                self.transmissions / sum(tracer.durations("simulator.execute")),
            "lint.warnings": self.warnings,
        })
        return metrics, [f"lint.diagnostics: {self.errors} error, "
                         f"{self.warnings} warning"], []


# ----------------------------------------------------------------------
# net: lossy loopback UDP runs of small plans
# ----------------------------------------------------------------------
NET_NETWORKS = (("grid", 16), ("hypercube", 16), ("cycle", 16), ("torus", 16),
                ("binary-tree", 15), ("random", 16), ("random-tree", 16))
NET_DROP = 0.05


class Net:
    """Plans for seven n ~ 16 networks, each run with its own chaos seed."""

    name = "net"
    pass_size = len(NET_NETWORKS)

    def __init__(self, seed: int) -> None:
        from repro import Graph, gossip
        from repro.analysis.sweep import family_instance

        rng = random.Random(f"net:{seed}")
        self.plans = []
        for family, n in NET_NETWORKS:
            graph = family_instance(family, n)
            self.plans.append(gossip(Graph(graph.n, relabeled_edges(graph, rng),
                                           name=f"{family}:{n}")))
        self._seed = seed

    def ops(self) -> Iterator[Tuple[Any, int]]:
        rng = random.Random(f"net-order:{self._seed}")
        for _, plan in seeded_cycles(rng, self.plans):
            yield plan, rng.getrandbits(32)

    def session(self, tracer: Optional[Tracer] = None) -> "NetSession":
        return NetSession(self, tracer)

    def warm_up(self) -> None:
        session = self.session()
        session.verify(None, session.execute((self.plans[0], 0)))


@dataclass
class NetRun:
    wall: float
    cpu: float
    result: Any


class NetSession(Session):
    def __init__(self, workload: Net, tracer: Optional[Tracer]) -> None:
        self.tracer = tracer
        self.workload = workload
        self.runs: List[NetRun] = []

    def root(self, op: Any) -> str:
        return "op.net"

    def execute(self, op: Tuple[Any, int]) -> NetRun:
        from repro.runtime import NetChaos, RuntimeConfig, run_gossip_network

        plan, chaos_seed = op
        cpu, wall = time.process_time(), perf_counter()
        with self.span("runtime.run"):
            result = run_gossip_network(
                plan,
                chaos=NetChaos(drop_rate=NET_DROP, seed=chaos_seed),
                config=RuntimeConfig(seed=chaos_seed),
            )
        return NetRun(perf_counter() - wall, time.process_time() - cpu, result)

    def verify(self, op: Any, out: NetRun) -> Tuple[int, Optional[str]]:
        self.runs.append(out)
        result = out.result
        everything = (1 << result.n) - 1
        if not result.complete or any(h != everything for h in result.final_holds):
            return 0, f"net n={result.n}: not every peer holds every message"
        return result.n * result.n, None

    def layer_metrics(self, tracer: Tracer) -> Tuple[Dict[str, float], List[str], List[str]]:
        from repro import run_online_gossip

        problems = []
        for plan in self.workload.plans:
            tracer.op += 1
            with tracer.span("core.online"):
                online = run_online_gossip(plan.labeled)
            if online != plan.schedule:
                problems.append(f"online schedule differs from the plan on {plan.graph.name}")
        results = [run.result for run in self.runs]
        metrics = {
            "runtime.round_ms_p50":
                median([r.wall_seconds / r.horizon for r in results]) * 1e3,
            "runtime.retransmissions": sum(r.retransmissions for r in results),
            "runtime.duplicates_suppressed": sum(r.duplicates_suppressed for r in results),
            "runtime.datagrams_sent": sum(r.stats.sent for r in results),
            "runtime.datagrams_dropped": sum(r.stats.dropped for r in results),
            "runtime.cpu_share": median([run.cpu / run.wall for run in self.runs]),
            "core.online_ms_p50": ms_p50(tracer, "core.online"),
        }
        return metrics, [], problems


# ----------------------------------------------------------------------
# check: exhaustive protocol exploration, one op per crash scenario
# ----------------------------------------------------------------------
CHECK_INSTANCES = (("path", 4), ("star", 4), ("complete", 4))


class Check:
    """Every crash scenario of path:4, star:4 and complete:4, seeded order."""

    name = "check"

    def __init__(self, seed: int) -> None:
        from repro.check.explore import crash_scenarios, plan_for

        self.items = []
        for family, n in CHECK_INSTANCES:
            plan = plan_for(family, n)
            for scenario in crash_scenarios(plan.schedule.total_time, plan.labeled.n, 1):
                self.items.append((f"{family}:{n}", plan, scenario))
        self.pass_size = len(self.items)
        pinned = json.loads((ROOT / "CHECK_protocol.json").read_text())["families"]
        self.pinned = {key: pinned[key] for key, _, _ in self.items}
        self._seed = seed

    def ops(self) -> Iterator[Tuple[int, Any]]:
        return seeded_cycles(random.Random(f"check-order:{self._seed}"), self.items)

    def session(self, tracer: Optional[Tracer] = None) -> "CheckSession":
        return CheckSession(self, tracer)

    def warm_up(self) -> None:
        session = self.session()
        session.verify((0, self.items[-1]), session.execute((0, self.items[-1])))


class CheckSession(Session):
    def __init__(self, workload: Check, tracer: Optional[Tracer]) -> None:
        self.tracer = tracer
        self.workload = workload
        self.states = 0
        self.transitions = 0
        self.ample = 0
        self.fallback = 0
        self._seen: Dict[Tuple[str, Any], int] = {}
        self._passes: Dict[int, Dict[str, List[int]]] = {}

    def root(self, op: Any) -> str:
        return "op.check"

    def execute(self, op: Tuple[int, Any]) -> Any:
        from repro.check import ProtocolModel, explore

        _, (_, plan, scenario) = op
        with self.span("check.model"):
            model = ProtocolModel(plan, crash=scenario)
        with self.span("check.explore"):
            return explore(model)

    def verify(self, op: Tuple[int, Any], report: Any) -> Tuple[int, Optional[str]]:
        pass_no, (key, _, scenario) = op
        self.states += report.states
        self.transitions += report.transitions
        self.ample += report.ample_states
        self.fallback += report.fallback_states
        totals = self._passes.setdefault(pass_no, {}).setdefault(key, [0, 0, 0])
        totals[0] += 1
        totals[1] += report.states
        totals[2] += report.transitions
        if not report.ok or report.fallback_states:
            return 0, f"check {key} {scenario}: not ok or fallback states"
        if self._seen.setdefault((key, scenario), report.states) != report.states:
            return 0, f"check {key} {scenario}: state count changed between passes"
        return report.states, None

    def layer_metrics(self, tracer: Tracer) -> Tuple[Dict[str, float], List[str], List[str]]:
        metrics = {f"{name}_ms_p50": ms_p50(tracer, name)
                   for name in ("check.model", "check.explore")}
        metrics.update({
            "check.states": self.states,
            "check.transitions": self.transitions,
            "check.ample_ratio": self.ample / self.states,
        })
        return metrics, [f"check.fallback_states: {self.fallback}"], []

    def finalize(self) -> List[str]:
        problems = []
        for pass_no, per_family in self._passes.items():
            for key, (count, states, transitions) in per_family.items():
                pin = self.workload.pinned[key]
                if count == pin["scenarios"] and (states, transitions) != (
                        pin["states"], pin["transitions"]):
                    problems.append(f"check pass {pass_no} {key}: {states} states / "
                                    f"{transitions} transitions, pinned {pin['states']} / "
                                    f"{pin['transitions']}")
        return problems


def make(name: str, seed: int) -> Any:
    return {"serve": Serve, "certify": Certify, "net": Net, "check": Check}[name](seed)


# ----------------------------------------------------------------------
# Loops
# ----------------------------------------------------------------------
@dataclass
class Tally:
    latencies: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    items: int = 0
    busy: float = 0.0
    #: Process CPU seconds spent inside ops.
    cpu: float = 0.0
    #: Durations of ``host_reference`` interleaved with the ops.
    reference: List[float] = field(default_factory=list)
    #: ``latencies`` split by pass over the inputs.
    passes: List[List[float]] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)


def run_one(session: Session, op: Any, tally: Tally) -> None:
    """Run, time and check one op; only the op itself is timed.

    An op that raises or fails its check counts as failed and adds no
    latency.
    """
    tracer = session.tracer
    cpu = time.process_time()
    start = perf_counter()
    try:
        if tracer is None:
            out = session.execute(op)
        else:
            tracer.op += 1
            with tracer.span(session.root(op)):
                out = session.execute(op)
    except Exception as exc:  # a failed op is counted, not fatal
        end = perf_counter()
        tally.cpu += time.process_time() - cpu
        items, problem = 0, f"{type(exc).__name__}: {exc}"
    else:
        end = perf_counter()
        tally.cpu += time.process_time() - cpu
        items, problem = session.verify(op, out)
    tally.attempted += 1
    tally.busy += end - start
    if problem is None:
        tally.latencies.append(end - start)
        tally.items += items
    else:
        tally.failed += 1
        tally.failures.append(problem)


def finish(session: Session, tally: Tally) -> Tally:
    late = session.finalize()
    tally.failed += len(late)
    tally.failures += late
    return tally


def run_ops(session: Session, ops: Iterable[Any], *, pass_size: int,
            seconds: Optional[float] = None, count: Optional[int] = None) -> Tally:
    """Run ops back to back (closed loop, one client) and tally them.

    Stops after ``count`` ops, or at the end of the first whole pass of
    ``pass_size`` ops that ends after ``seconds``: every run sees each
    input equally often, so the mix does not vary between runs.  A timed
    run (``seconds``) also times ``host_reference`` between ops, every
    :data:`REFERENCE_EVERY_S` or so.
    """
    tally = Tally()
    begin = last_reference = perf_counter()
    mark = 0
    for op in itertools.islice(ops, count):
        run_one(session, op, tally)
        if seconds is not None and perf_counter() - last_reference >= REFERENCE_EVERY_S:
            last_reference = perf_counter()
            host_reference()
            tally.reference.append(perf_counter() - last_reference)
        if tally.attempted % pass_size:
            continue
        tally.passes.append(tally.latencies[mark:])
        mark = len(tally.latencies)
        if seconds is not None and perf_counter() - begin >= seconds:
            break
    return finish(session, tally)


def run_paired(plain: Session, traced: Session, ops: Iterable[Any],
               count: int) -> Tuple[Tally, Tally]:
    """Each op both untraced and traced, so both tallies see the same host phases.

    Which of the two goes first alternates from op to op, so neither
    side keeps the benefit of the other having just warmed the caches.
    """
    untraced, tally = Tally(), Tally()
    for index, op in enumerate(itertools.islice(ops, count)):
        pair = [(plain, untraced), (traced, tally)]
        for session, into in pair[::-1] if index % 2 else pair:
            run_one(session, op, into)
    return finish(plain, untraced), finish(traced, tally)


def end_to_end(workload: Any, seconds: float) -> Dict[str, Any]:
    """The untraced timed run: every end-to-end metric but ``setup_s``.

    Timings are scaled to the nominal host speed by the host reference
    timed in the same run (``host_scale``); the raw figures are printed.
    """
    session = workload.session()
    tally = run_ops(session, workload.ops(), pass_size=workload.pass_size, seconds=seconds)
    session.close()
    cut = windows(tally.passes)
    tails = [tail(window) for window in cut]
    raw = {
        "op_p50_ms": sum(median(window) for window in cut) / len(cut) * 1e3,
        "op_tail_ms": sum(t[0] for t in tails) / len(cut) * 1e3,
        "ops_per_s": len(tally.latencies) / tally.busy,
        "items_per_s": tally.items / tally.busy,
    }
    share = tally.cpu / tally.busy
    scale = host_scale(tally.reference, share)
    metrics = {name: value * scale if name.endswith("_per_s") else value / scale
               for name, value in raw.items()}
    value, pct, samples = tail(tally.latencies)
    return {
        "tally": tally,
        "metrics": metrics,
        "info": [f"host: reference {sum(tally.reference) / len(tally.reference) * 1e3:.2f} ms "
                 f"mean over {len(tally.reference)} timings "
                 f"(nominal {REFERENCE_NOMINAL_S * 1e3:g} ms), "
                 f"ops {100 * share:.0f} % on CPU: timings divided by {scale:.4f}",
                 "raw " + ", ".join(f"{name} {value:.5g}" for name, value in raw.items()),
                 f"op_p50_ms, op_tail_ms: means over {len(cut)} windows of whole passes, "
                 f">= {WINDOW_OPS} ops each; the tail is p{min(t[1] for t in tails):.2f}"
                 f"-p{max(t[1] for t in tails):.2f} of {min(t[2] for t in tails)}"
                 f"-{max(t[2] for t in tails)} ops per window",
                 f"over all {samples} ops: median {median(tally.latencies) * 1e3:.4g} ms, "
                 f"p{pct:.2f} {value * 1e3:.4g} ms",
                 f"busy {tally.busy:.2f} s; items/op: {ITEM_UNITS[workload.name]}"],
    }


ITEM_UNITS = {
    "serve": "vertices of the requested network",
    "certify": "transmissions replayed and linted",
    "net": "(peer, message) holds delivered",
    "check": "model states explored (states_per_s)",
}


def traced(own: Any, seed: int) -> Dict[str, Any]:
    """Traced passes of every workload, plus the overhead on ``own``."""
    tracer = Tracer()
    metrics: Dict[str, float] = {}
    info: List[str] = []
    total = Tally()
    name = own.name
    for wl_name in WORKLOADS:
        workload = own if wl_name == name else make(wl_name, seed)
        session = workload.session(tracer)
        count = TRACE_PASSES[wl_name] * workload.pass_size
        if wl_name == name:
            untraced = workload.session()
            plain, tally = run_paired(untraced, session, workload.ops(), count)
            untraced.close()
            # Whichever run of an op goes second is faster (warm caches), so
            # the op-by-op differences are split by which side went first.
            diffs = [t - p for t, p in zip(tally.latencies, plain.latencies)]
            overhead = (median(diffs[0::2]) + median(diffs[1::2])) / 2
            metrics["trace.overhead_ms"] = overhead * 1e3
            info.append(f"tracing overhead on {name}: {overhead * 1e3:.3f} ms per op over "
                        f"{len(diffs)} ops run both ways (op_p50 traced "
                        f"{median(tally.latencies) * 1e3:.3f} ms, untraced "
                        f"{median(plain.latencies) * 1e3:.3f} ms)")
            total.failed += plain.failed
            total.failures += plain.failures
        else:
            tally = run_ops(session, workload.ops(), pass_size=workload.pass_size,
                            count=count)
        layer, lines, problems = session.layer_metrics(tracer)
        metrics.update(layer)
        info += lines
        total.attempted += tally.attempted
        total.failed += tally.failed + len(problems)
        total.failures += tally.failures + problems

    selfs = layer_self_totals(tracer.spans)
    for layer_name, seconds in sorted(selfs.items()):
        info.append(f"self time {layer_name:<10} {seconds:8.3f} s  "
                    f"{100 * seconds / sum(selfs.values()):5.1f} %")
    OUT.mkdir(parents=True, exist_ok=True)
    trace_file = OUT / f"trace-{name}-seed{seed}.json"
    trace_file.write_text(json.dumps(tracer.dump()))
    info.append(f"spans written to {trace_file.relative_to(ROOT)}")
    return {"tally": total, "metrics": metrics, "info": info}


def same_as_default_planner(workload: Serve) -> Optional[str]:
    """Whether the staged planner reproduces the default plan on every network."""
    from repro import GossipService, Graph

    staged = staged_planner(None)
    with GossipService() as service:
        for n, edges in workload.networks:
            graph = Graph(n, edges)
            ours = staged(graph, algorithm="concurrent-updown")
            theirs = service.plan(graph)
            if ours.tree != theirs.tree or ours.arrays() != theirs.arrays():
                return f"staged planner differs from the default on n={n}"
    return None


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--role", choices=("setup", "measure"), required=True)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    import_s = import_repro()
    workload = make(args.workload, args.seed)
    workload.warm_up()
    gc.collect()
    print(f"READY {import_s!r}", flush=True)
    if args.role == "setup":
        return 0

    run = traced(workload, args.seed) if args.trace else end_to_end(workload, args.seconds)
    tally: Tally = run["tally"]
    metrics = dict(run["metrics"])
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if not args.trace:
        metrics["peak_rss_mb"] = rss_kb / 1024.0
    for line in run["info"]:
        print(f"INFO {line}")
    for problem in tally.failures[:20]:
        print(f"INFO failed: {problem}")
    print("INFO fingerprint " + json.dumps(fingerprint()))
    print("RESULT " + json.dumps({"attempted": tally.attempted, "failed": tally.failed,
                                  "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
