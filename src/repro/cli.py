"""Command-line interface: ``python -m repro.cli`` (or ``repro-gossip``).

Subcommands:

* ``gossip``      — build and report a gossip schedule for a named topology;
* ``tables``      — regenerate the paper's Tables 1–4;
* ``compare``     — compare algorithms across the standard suite;
* ``paper``       — verify every paper figure claim and print a summary;
* ``bench``       — cold vs warm plan serving through :class:`GossipService`;
* ``serve-stats`` — replay a synthetic request stream and print service stats;
* ``chaos``       — seeded fault sweep (drop rate x topology) through recovery
  (``--permanent`` reroutes through the survival layer instead);
* ``survive``     — seeded permanent-failure sweep (fail-stop rate x topology)
  measuring survivor coverage through ``repro.core.survival``;
* ``plan-bench``  — pruned vs exhaustive sweep timings with the speedup gate;
* ``run-net``     — execute the online protocol over real UDP sockets on
  localhost (``repro.runtime``), optionally under seeded socket-level chaos
  (drops, delay jitter, killed peers) with failure detection and survival
  replanning (``--processes`` reroutes through the supervised
  multi-process runtime);
* ``run-proc``    — execute under supervision with one OS process per peer
  (``repro.runtime.supervisor``): real ``SIGKILL`` crash injection, capped
  restart-with-rejoin or survivor replanning, and a structured incident
  journal (``--journal`` writes it as JSON Lines);
* ``lint``        — static schedule analysis (``repro.lint``): verify plans
  against the model, efficiency and paper-invariant rules without executing
  them (``--json`` for CI, ``--check`` to gate on error diagnostics,
  ``--code`` for the AST code-conventions lint instead);
* ``check-protocol`` — explicit-state model checking of the runtime
  protocol (``repro.check``): exhaustively explore adversarial
  interleavings (reorder, crash-at-round) of small instances, checking
  safety invariants and reachability, with counterexample traces
  (``--trace``) and a committed state-count matrix gate (``--check``).

Examples
--------
::

    python -m repro.cli gossip --topology grid --n 16 --algorithm simple
    python -m repro.cli lint --family grid:16 --family random:24
    python -m repro.cli lint --all --check --no-warnings
    python -m repro.cli gossip --topology cycle --n 12 --show-schedule
    python -m repro.cli tables --vertex 4
    python -m repro.cli compare --sizes 16 32 64
    python -m repro.cli paper
    python -m repro.cli bench --topology grid --n 256 --check
    python -m repro.cli serve-stats --requests 500
    python -m repro.cli chaos --family random:48 --drop 0.2 --seed 7 --timeout 120
    python -m repro.cli survive --family random:32 --fail-stop 0.05 --check
    python -m repro.cli run-net --family grid:16 --drop 0.1 --kill 4:3 --seed 7
    python -m repro.cli run-proc --family path:8 --sigkill 3:2 --policy restart
    python -m repro.cli plan-bench --spec grid:400 --spec torus:1024 --check
    python -m repro.cli check-protocol --family path:4 --crashes 1 --trace
    python -m repro.cli check-protocol --check
    python -m repro.cli lint --code
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional

from .analysis.comparison import comparison_table, format_comparison
from .analysis.sweep import FAMILIES, family_instance
from .analysis.tables import paper_tables, render_timeline
from .core.gossip import ALGORITHMS, GossipPlan, gossip
from .networks.properties import summarize
from .viz.ascii import render_schedule, render_tree

if TYPE_CHECKING:  # the runtime is imported only by the commands that run it
    from .runtime import NetChaos, RuntimeResult

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for the test suite)."""
    parser = argparse.ArgumentParser(
        prog="repro-gossip",
        description="Gossiping in the multicasting communication environment",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gossip = sub.add_parser("gossip", help="schedule gossip on a topology")
    p_gossip.add_argument(
        "--topology", choices=sorted(FAMILIES), default="grid",
        help="topology family (size is approximate for structured families)",
    )
    p_gossip.add_argument("--n", type=int, default=16, help="target processor count")
    p_gossip.add_argument(
        "--algorithm", choices=sorted(ALGORITHMS), default="concurrent-updown"
    )
    p_gossip.add_argument(
        "--show-tree", action="store_true", help="print the labelled spanning tree"
    )
    p_gossip.add_argument(
        "--show-schedule", action="store_true", help="print every round"
    )

    p_tables = sub.add_parser("tables", help="regenerate the paper's Tables 1-4")
    p_tables.add_argument(
        "--vertex", type=int, action="append", default=None,
        help="vertex to tabulate (repeatable; default: 0 1 4 8)",
    )

    p_cmp = sub.add_parser("compare", help="compare algorithms across the suite")
    p_cmp.add_argument("--sizes", type=int, nargs="+", default=[16, 32])
    p_cmp.add_argument(
        "--families", nargs="+", choices=sorted(FAMILIES), default=None
    )
    p_cmp.add_argument(
        "--epidemic", action="store_true",
        help="adversarial suite: deterministic vs epidemic/coded baselines "
        "across fault regimes (seeded, byte-reproducible)",
    )
    p_cmp.add_argument("--n", type=int, default=16, help="[--epidemic] family size")
    p_cmp.add_argument(
        "--trials", type=int, default=100, help="[--epidemic] seeded trials per cell"
    )
    p_cmp.add_argument("--seed", type=int, default=0, help="[--epidemic] sweep seed")
    p_cmp.add_argument(
        "--drop", type=float, nargs="+", default=[0.0, 0.15],
        help="[--epidemic] delivery drop rates to sweep",
    )
    p_cmp.add_argument(
        "--fail-stop", type=float, nargs="+", default=[0.0],
        help="[--epidemic] permanent fail-stop rates to sweep",
    )
    p_cmp.add_argument(
        "--check", action="store_true",
        help="[--epidemic] assert the makespan + resilience gates",
    )

    sub.add_parser("paper", help="verify all paper-figure claims")

    p_bcast = sub.add_parser(
        "broadcast", help="broadcast from a source (multicast vs telephone)"
    )
    p_bcast.add_argument("--topology", choices=sorted(FAMILIES), default="grid")
    p_bcast.add_argument("--n", type=int, default=16)
    p_bcast.add_argument("--source", type=int, default=0)

    p_weighted = sub.add_parser(
        "weighted", help="weighted gossiping via chain splitting (Section 4)"
    )
    p_weighted.add_argument("--topology", choices=sorted(FAMILIES), default="grid")
    p_weighted.add_argument("--n", type=int, default=16)
    p_weighted.add_argument(
        "--max-weight", type=int, default=3,
        help="per-processor message counts drawn from 1..max-weight (seeded)",
    )

    p_online = sub.add_parser(
        "online", help="run the online protocol and diff against offline"
    )
    p_online.add_argument("--topology", choices=sorted(FAMILIES), default="grid")
    p_online.add_argument("--n", type=int, default=16)

    p_rep = sub.add_parser(
        "repeated", help="pipeline k gossip instances on one tree"
    )
    p_rep.add_argument("--topology", choices=sorted(FAMILIES), default="star")
    p_rep.add_argument("--n", type=int, default=16)
    p_rep.add_argument("--instances", type=int, default=4)

    p_bounds = sub.add_parser(
        "bounds", help="measured vs closed-form bounds across families"
    )
    p_bounds.add_argument("--sizes", type=int, nargs="+", default=[32])
    p_bounds.add_argument(
        "--families", nargs="+", choices=sorted(FAMILIES),
        default=["path", "star", "grid", "hypercube", "random-tree"],
    )

    p_bench = sub.add_parser(
        "bench", help="cold vs warm plan serving through GossipService"
    )
    p_bench.add_argument("--topology", choices=sorted(FAMILIES), default="grid")
    p_bench.add_argument("--n", type=int, default=256, help="target processor count")
    p_bench.add_argument(
        "--algorithm", choices=sorted(ALGORITHMS), default="concurrent-updown"
    )
    p_bench.add_argument("--batch", type=int, default=32, help="batch request count")
    p_bench.add_argument(
        "--warm-rounds", type=int, default=200, help="warm-hit samples to take"
    )
    p_bench.add_argument(
        "--check", action="store_true",
        help="exit non-zero unless the warm hit is >= 10x faster than cold",
    )

    p_stats = sub.add_parser(
        "serve-stats", help="replay a synthetic request stream; print service stats"
    )
    p_stats.add_argument(
        "--families", nargs="+", choices=sorted(FAMILIES),
        default=["grid", "star", "path", "hypercube"],
    )
    p_stats.add_argument("--sizes", type=int, nargs="+", default=[16, 64])
    p_stats.add_argument("--requests", type=int, default=200)
    p_stats.add_argument(
        "--algorithm", choices=sorted(ALGORITHMS), default="concurrent-updown"
    )

    p_chaos = sub.add_parser(
        "chaos", help="seeded fault sweep: inject losses, repair, report overhead"
    )
    p_chaos.add_argument(
        "--family", action="append", default=None, metavar="SPEC",
        help="network spec 'family:n' (repeatable; default: random:48)",
    )
    p_chaos.add_argument(
        "--drop", type=float, action="append", default=None,
        help="per-delivery drop probability (repeatable; default: 0.2)",
    )
    p_chaos.add_argument("--trials", type=int, default=20, help="trials per cell")
    p_chaos.add_argument("--seed", type=int, default=7, help="sweep seed")
    p_chaos.add_argument(
        "--algorithm", choices=sorted(ALGORITHMS), default="concurrent-updown"
    )
    p_chaos.add_argument(
        "--max-repair-rounds", type=int, default=None,
        help="repair-round budget per trial (default: max(256, 10x baseline))",
    )
    p_chaos.add_argument(
        "--link-outage", type=float, default=0.0,
        help="per-round link outage probability",
    )
    p_chaos.add_argument(
        "--crash", type=float, default=0.0,
        help="per-round transient processor crash probability",
    )
    p_chaos.add_argument(
        "--permanent", type=float, action="append", default=None, metavar="RATE",
        help="permanent fail-stop rate(s): route the sweep through the "
             "survival layer instead of transient recovery (repeatable)",
    )
    p_chaos.add_argument(
        "--check", action="store_true",
        help="exit non-zero unless every cell completes >= 95%% of trials "
             "and all repairs pass fault-free re-validation "
             "(with --permanent: the survivor-coverage gates)",
    )
    p_chaos.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget for the whole sweep; on expiry fail fast "
             "with the typed SweepTimeoutError instead of grinding on",
    )

    p_survive = sub.add_parser(
        "survive",
        help="seeded permanent-failure sweep: fail-stop, diagnose, re-plan "
             "degraded gossip per surviving component",
    )
    p_survive.add_argument(
        "--family", action="append", default=None, metavar="SPEC",
        help="network spec 'family:n' (repeatable; default: random:48)",
    )
    p_survive.add_argument(
        "--fail-stop", type=float, action="append", default=None,
        help="per-round permanent fail-stop probability "
             "(repeatable; default: 0.02)",
    )
    p_survive.add_argument(
        "--link-fail", type=float, default=0.0,
        help="per-round permanent link-failure probability",
    )
    p_survive.add_argument(
        "--drop", type=float, default=0.0,
        help="transient per-delivery drop probability layered on top",
    )
    p_survive.add_argument("--trials", type=int, default=20, help="trials per cell")
    p_survive.add_argument("--seed", type=int, default=7, help="sweep seed")
    p_survive.add_argument(
        "--algorithm", choices=sorted(ALGORITHMS), default="concurrent-updown"
    )
    p_survive.add_argument(
        "--check", action="store_true",
        help="exit non-zero unless every survivable trial reaches 100%% "
             "survivor coverage, every partitioned trial raises the typed "
             "error, and all schedules respect the degraded bound",
    )
    p_survive.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget for the whole sweep; on expiry fail fast "
             "with the typed SweepTimeoutError instead of grinding on",
    )

    p_runnet = sub.add_parser(
        "run-net",
        help="execute the online protocol over real UDP sockets on localhost, "
             "optionally under seeded socket-level chaos",
    )
    p_runnet.add_argument(
        "--family", default="grid:16", metavar="SPEC",
        help="network spec 'family:n' (default: grid:16)",
    )
    p_runnet.add_argument(
        "--algorithm", choices=sorted(ALGORITHMS), default="concurrent-updown"
    )
    p_runnet.add_argument("--seed", type=int, default=7, help="chaos seed")
    p_runnet.add_argument(
        "--drop", type=float, default=0.0,
        help="per-send-attempt datagram drop probability",
    )
    p_runnet.add_argument(
        "--delay", type=float, default=0.0,
        help="per-send-attempt datagram delay probability (reorders)",
    )
    p_runnet.add_argument(
        "--delay-max", type=float, default=0.02,
        help="upper bound of the drawn extra latency in seconds",
    )
    p_runnet.add_argument(
        "--kill", action="append", default=None, metavar="V:R",
        help="fail-stop vertex V at protocol round R (repeatable)",
    )
    p_runnet.add_argument(
        "--timeout", type=float, default=60.0,
        help="whole-run deadline in seconds (typed RuntimeDeadlineError)",
    )
    p_runnet.add_argument(
        "--time-scale", type=float, default=1.0,
        help="shrink every runtime wait by this factor in (0, 1] "
             "(1.0 = real time)",
    )
    p_runnet.add_argument(
        "--check", action="store_true",
        help="exit non-zero unless the run reaches full (degraded) coverage "
             "and a fault-free run matches the offline schedule exactly",
    )
    p_runnet.add_argument(
        "--processes", action="store_true",
        help="run under supervision with one OS process per peer instead of "
             "one asyncio task (--kill then injects real SIGKILLs)",
    )

    p_runproc = sub.add_parser(
        "run-proc",
        help="execute under supervision with one OS process per peer: real "
             "SIGKILL crash injection, restart-with-rejoin or survivor "
             "replanning, structured incident journal",
    )
    p_runproc.add_argument(
        "--family", default="grid:16", metavar="SPEC",
        help="network spec 'family:n' (default: grid:16)",
    )
    p_runproc.add_argument(
        "--algorithm", choices=sorted(ALGORITHMS), default="concurrent-updown"
    )
    p_runproc.add_argument("--seed", type=int, default=7, help="chaos seed")
    p_runproc.add_argument(
        "--drop", type=float, default=0.0,
        help="per-send-attempt datagram drop probability",
    )
    p_runproc.add_argument(
        "--delay", type=float, default=0.0,
        help="per-send-attempt datagram delay probability (reorders)",
    )
    p_runproc.add_argument(
        "--delay-max", type=float, default=0.02,
        help="upper bound of the drawn extra latency in seconds",
    )
    p_runproc.add_argument(
        "--sigkill", action="append", default=None, metavar="V:R",
        help="SIGKILL the OS process of vertex V at protocol round R "
             "(repeatable; a real, abrupt process death)",
    )
    p_runproc.add_argument(
        "--policy", choices=("replan", "restart"), default="replan",
        help="death resolution: replan around the dead (gossip among "
             "survivors) or restart-with-rejoin (full gossip re-completes)",
    )
    p_runproc.add_argument(
        "--max-restarts", type=int, default=3,
        help="restart attempts per victim before declaring fail-stop",
    )
    p_runproc.add_argument(
        "--rejoin-crashes", type=int, default=0,
        help="seeded chaos: this many restart attempts die again on boot",
    )
    p_runproc.add_argument(
        "--timeout", type=float, default=60.0,
        help="whole-run deadline in seconds (typed RuntimeDeadlineError)",
    )
    p_runproc.add_argument(
        "--time-scale", type=float, default=1.0,
        help="shrink every runtime wait by this factor in (0, 1] "
             "(1.0 = real time)",
    )
    p_runproc.add_argument(
        "--journal", default=None, metavar="PATH",
        help="write the structured incident journal here as JSON Lines",
    )
    p_runproc.add_argument(
        "--check", action="store_true",
        help="exit non-zero unless the run resolves: fault-free runs match "
             "the offline schedule exactly; crash-injected runs detect every "
             "victim and reach full (degraded) coverage",
    )

    p_pbench = sub.add_parser(
        "plan-bench",
        help="time the pruned vs exhaustive minimum-depth-tree sweep",
    )
    p_pbench.add_argument(
        "--spec", action="append", default=None, metavar="SPEC",
        help="network spec 'family:n' (repeatable; default: the standard sweep)",
    )
    p_pbench.add_argument(
        "--quick", action="store_true",
        help="benchmark the small tier-1 subset instead of the full sweep",
    )
    p_pbench.add_argument(
        "--repeats", type=int, default=3, help="timing repetitions (best-of)"
    )
    p_pbench.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write the BENCH_planner.json trajectory artefact here",
    )
    p_pbench.add_argument(
        "--check", action="store_true",
        help="exit non-zero unless trees are bit-identical, the grid:400-"
             "class speedup and cold-plan gates hold, and array schedules "
             "match the per-vertex reference on every family",
    )

    p_lint = sub.add_parser(
        "lint", help="statically analyze gossip plans without executing them"
    )
    p_lint.add_argument(
        "--family", action="append", default=None, metavar="SPEC",
        help="network spec 'family:n' (repeatable; default: a standard subset)",
    )
    p_lint.add_argument(
        "--all", action="store_true",
        help="lint every topology family (at size --n)",
    )
    p_lint.add_argument(
        "--n", type=int, default=16,
        help="processor count for specs without an explicit size",
    )
    p_lint.add_argument(
        "--algorithm", choices=sorted(ALGORITHMS), default="concurrent-updown"
    )
    p_lint.add_argument(
        "--json", action="store_true",
        help="emit one machine-readable JSON document (for CI)",
    )
    p_lint.add_argument(
        "--no-warnings", action="store_true",
        help="show error diagnostics only",
    )
    p_lint.add_argument(
        "--check", action="store_true",
        help="exit non-zero if any plan has error-severity diagnostics",
    )
    p_lint.add_argument(
        "--code", action="store_true",
        help="run the code-conventions lint (repro.check.codelint) over "
             "src/repro instead of the schedule lint",
    )

    p_proto = sub.add_parser(
        "check-protocol",
        help="explicit-state model checking of the runtime protocol "
             "(repro.check): exhaustively explore adversarial "
             "interleavings of small instances",
    )
    p_proto.add_argument(
        "--family", action="append", default=None, metavar="SPEC",
        help="instance spec 'family:n' with n in 2..8 (repeatable; "
             "default: the committed path/star/complete x 3..5 matrix)",
    )
    p_proto.add_argument(
        "--crashes", type=int, default=1,
        help="max simultaneous crash victims per scenario (0 = fault-free "
             "only; default 1)",
    )
    p_proto.add_argument(
        "--budget", type=int, default=None,
        help="per-scenario explored-state budget (default 250000)",
    )
    p_proto.add_argument(
        "--no-rejoin", action="store_true",
        help="skip the rejoin-recompletion certification at abort states",
    )
    p_proto.add_argument(
        "--trace", action="store_true",
        help="render any counterexample as its full wire-message trace",
    )
    p_proto.add_argument(
        "--json", action="store_true",
        help="emit one machine-readable JSON document (for CI)",
    )
    p_proto.add_argument(
        "--check", action="store_true",
        help="compare state counts against the committed "
             "CHECK_protocol.json and exit non-zero on any violation, "
             "deadlock, or drift",
    )
    p_proto.add_argument(
        "--update", action="store_true",
        help="rewrite CHECK_protocol.json with this run's state counts",
    )
    return parser


def _cmd_gossip(args: argparse.Namespace) -> int:
    graph = family_instance(args.topology, args.n)
    plan = gossip(graph, algorithm=args.algorithm)
    result = plan.execute()
    info = summarize(graph)
    print(f"network   : {graph.name} (n={graph.n}, m={graph.m}, radius={info.radius})")
    print(f"algorithm : {args.algorithm}")
    print(f"total time: {plan.total_time}   (n + r = {graph.n + info.radius}, "
          f"lower bound n - 1 = {graph.n - 1})")
    print(f"complete  : {result.complete}   duplicates: {result.duplicate_deliveries}")
    if args.show_tree:
        print()
        print(render_tree(plan.tree, plan.labeled))
    if args.show_schedule:
        print()
        print(render_schedule(plan.schedule))
    return 0


def _cmd_tables(args: argparse.Namespace) -> int:
    vertices = args.vertex if args.vertex else [0, 1, 4, 8]
    tables = paper_tables(vertices)
    published = {0: "Table 1", 1: "Table 2", 4: "Table 3", 8: "Table 4"}
    for v in vertices:
        title = published.get(v, f"timeline of vertex {v}")
        print(render_timeline(tables[v], title=f"{title} — vertex with message {v}:"))
        print()
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    if args.epidemic:
        from .analysis.comparison import run_epidemic_comparison

        report = run_epidemic_comparison(
            args.families,  # None = all families
            n=args.n,
            trials=args.trials,
            seed=args.seed,
            drop_rates=tuple(args.drop),
            fail_stop_rates=tuple(args.fail_stop),
        )
        print(report.format())
        return _gate(report, "check: makespan + resilience gates hold  OK") if args.check else 0
    graphs = [
        family_instance(fam, n)
        for fam in (args.families or sorted(FAMILIES))
        for n in args.sizes
    ]
    rows = comparison_table(graphs)
    print(format_comparison(rows))
    return 0


def _cmd_paper(_args: argparse.Namespace) -> int:
    from .networks.paper_networks import (
        fig1_ring,
        fig4_network,
        fig5_tree,
        n3_multicast_schedule,
        n3_network,
        petersen,
        petersen_gossip_schedule,
    )
    from .core.ring import hamiltonian_circuit, ring_gossip
    from .networks.spanning_tree import minimum_depth_spanning_tree
    from .simulator.validator import assert_gossip_schedule

    ring = fig1_ring()
    assert_gossip_schedule(ring, ring_gossip(list(range(ring.n))), max_total_time=ring.n - 1)
    print(f"Fig. 1  ring n={ring.n}: gossip in n-1 = {ring.n - 1} rounds  OK")

    p = petersen()
    assert hamiltonian_circuit(p) is None
    assert_gossip_schedule(p, petersen_gossip_schedule(), max_total_time=9)
    print("Fig. 2  Petersen: no Hamiltonian circuit; telephone gossip in 9 rounds  OK")

    n3 = n3_network()
    assert hamiltonian_circuit(n3) is None
    assert_gossip_schedule(n3, n3_multicast_schedule(), max_total_time=4)
    print("Fig. 3  N3: no Hamiltonian circuit; multicast gossip in n-1 = 4 rounds  OK")

    tree = minimum_depth_spanning_tree(fig4_network())
    assert tree == fig5_tree()
    print("Fig. 4/5: minimum-depth spanning tree reproduces the labelled example  OK")

    plan = gossip(fig4_network())
    plan.execute()
    print(
        f"Theorem 1 on Fig. 4: ConcurrentUpDown finishes in "
        f"{plan.total_time} = n + r = {plan.graph.n + tree.height} rounds  OK"
    )
    return 0


def _cmd_broadcast(args: argparse.Namespace) -> int:
    from .core.broadcast import broadcast, broadcast_time, telephone_broadcast

    graph = family_instance(args.topology, args.n)
    source = args.source % graph.n
    multicast = broadcast(graph, source)
    telephone = telephone_broadcast(graph, source)
    print(f"network  : {graph.name}  n={graph.n}  source={source} "
          f"(eccentricity {broadcast_time(graph, source)})")
    print(f"multicast: {multicast.total_time} rounds (optimal: = eccentricity)")
    print(f"telephone: {telephone.total_time} rounds "
          f"(>= max(ecc, ceil(log2 n)))")
    return 0


def _cmd_weighted(args: argparse.Namespace) -> int:
    import numpy as np

    from .core.weighted import weighted_gossip

    graph = family_instance(args.topology, args.n)
    rng = np.random.default_rng(0)
    weights = [int(w) for w in rng.integers(1, args.max_weight + 1, size=graph.n)]
    plan = weighted_gossip(graph, weights)
    result = plan.execute()
    print(f"network : {graph.name}  n={graph.n}  weights 1..{args.max_weight}")
    print(f"messages: N = {plan.total_messages}   expanded height r' = "
          f"{plan.expanded.height}")
    print(f"schedule: {plan.total_time} rounds = N + r'   complete={result.complete}")
    print(f"mimicking: at most {max(plan.real_round_load().values())} virtual "
          "sends per real processor per round")
    return 0


def _cmd_online(args: argparse.Namespace) -> int:
    from .core.concurrent_updown import concurrent_updown
    from .core.online import run_online_gossip
    from .networks.spanning_tree import minimum_depth_spanning_tree
    from .tree.labeling import LabeledTree

    graph = family_instance(args.topology, args.n)
    labeled = LabeledTree(minimum_depth_spanning_tree(graph))
    online = run_online_gossip(labeled)
    offline = concurrent_updown(labeled)
    identical = online == offline
    print(f"network : {graph.name}  n={graph.n}")
    print(f"online  : {online.total_time} rounds from (i, j, k)-local knowledge")
    print(f"offline : {offline.total_time} rounds")
    print(f"schedules identical: {identical}")
    return 0 if identical else 1


def _cmd_repeated(args: argparse.Namespace) -> int:
    from .core.repeated import repeated_gossip
    from .networks.spanning_tree import minimum_depth_spanning_tree
    from .tree.labeling import LabeledTree

    graph = family_instance(args.topology, args.n)
    labeled = LabeledTree(minimum_depth_spanning_tree(graph))
    plan = repeated_gossip(labeled, instances=args.instances)
    result = plan.execute()
    print(f"network  : {graph.name}  n={graph.n}  instances={args.instances}")
    print(f"offset   : {plan.offset} rounds between instance starts "
          f"(capacity floor n-1 = {graph.n - 1})")
    print(f"total    : {plan.total_time} rounds vs sequential "
          f"{plan.sequential_time}; amortised {plan.amortised_time:.1f}/instance")
    print(f"complete : {result.complete}")
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    """Measured schedule lengths vs every closed form the paper states."""
    from .core.updown import updown_total_time_bound
    from .networks.properties import radius as graph_radius

    header = (f"{'network':<18} {'n':>4} {'r':>3} "
              f"{'concurrent':>11} {'=n+r':>5} "
              f"{'simple':>7} {'=2n+r-3':>8} "
              f"{'updown':>7} {'<=n+3r-2':>9}")
    print(header)
    print("-" * len(header))
    exact = True
    for family in args.families:
        for n in args.sizes:
            g = family_instance(family, n)
            r = graph_radius(g)
            concurrent = gossip(g).total_time
            simple = gossip(g, algorithm="simple").total_time
            updown = gossip(g, algorithm="updown").total_time
            budget = updown_total_time_bound(g.n, r)
            print(f"{g.name:<18} {g.n:>4} {r:>3} "
                  f"{concurrent:>11} {g.n + r:>5} "
                  f"{simple:>7} {2 * g.n + r - 3:>8} "
                  f"{updown:>7} {budget:>9}")
            exact &= concurrent == g.n + r and simple == 2 * g.n + r - 3
            exact &= updown <= budget
    print()
    print("all bounds hold exactly" if exact else "BOUND VIOLATION — see above")
    return 0 if exact else 1


def _cmd_bench(args: argparse.Namespace) -> int:
    from .service.workload import bench_plan_cache

    graph = family_instance(args.topology, args.n)
    result = bench_plan_cache(
        graph,
        algorithm=args.algorithm,
        batch_size=args.batch,
        warm_rounds=args.warm_rounds,
    )
    print(result.format())
    if args.check:
        return _gate(result, "check: warm hit >= 10x faster than cold planning  OK")
    return 0


def _cmd_serve_stats(args: argparse.Namespace) -> int:
    from .service.workload import run_synthetic_workload

    stats = run_synthetic_workload(
        families=args.families,
        sizes=args.sizes,
        requests=args.requests,
        algorithm=args.algorithm,
    )
    print(f"workload  : {args.requests} requests over "
          f"{len(args.families) * len(args.sizes)} networks "
          f"({', '.join(args.families)} x {args.sizes})")
    print(stats.format())
    return 0


def _gate(report: Any, ok_line: str) -> int:
    """The ``--check`` gate: run ``report.check()`` and print ``ok_line``
    (exit 0), or print the failed assertion (exit 1)."""
    try:
        report.check()
    except AssertionError as err:
        print(f"CHECK FAILED: {err}")
        return 1
    print(ok_line)
    return 0


def _sweep(
    args: argparse.Namespace, run: Callable[..., Any], ok_line: str, **rates: Any
) -> int:
    """Run a seeded fault sweep over ``args.family`` under ``args.timeout``,
    print its report and, with ``--check``, gate it."""
    from .exceptions import SweepTimeoutError

    try:
        report = run(
            families=args.family or ["random:48"],
            trials=args.trials,
            seed=args.seed,
            algorithm=args.algorithm,
            deadline=args.timeout,
            **rates,
        )
    except SweepTimeoutError as err:
        print(f"TIMEOUT: {err}")
        return 1
    print(report.format())
    return _gate(report, ok_line) if args.check else 0


def _survival_sweep(args: argparse.Namespace, **rates: Any) -> int:
    from .analysis.survival import run_survival_sweep

    return _sweep(
        args, run_survival_sweep,
        "check: full survivor coverage, typed partitions, degraded bound hold  OK",
        **rates,
    )


def _cmd_chaos(args: argparse.Namespace) -> int:
    from .analysis.chaos import run_chaos_sweep

    if args.permanent is not None:
        # Permanent-failure mode: transient repair cannot help once
        # processors are gone for good, so route through survival.
        drops = args.drop if args.drop is not None else [0.0]
        return _survival_sweep(
            args, fail_stop_rates=args.permanent, drop_rate=drops[0]
        )
    return _sweep(
        args, run_chaos_sweep,
        "check: completion >= 95% and all repairs verified fault-free  OK",
        drop_rates=args.drop if args.drop is not None else [0.2],
        max_repair_rounds=args.max_repair_rounds,
        link_outage_rate=args.link_outage,
        crash_rate=args.crash,
    )


def _cmd_survive(args: argparse.Namespace) -> int:
    return _survival_sweep(
        args,
        fail_stop_rates=args.fail_stop if args.fail_stop is not None else [0.02],
        link_fail_rate=args.link_fail,
        drop_rate=args.drop,
    )


def _parse_kill_specs(specs: "Optional[List[str]]", flag: str
                      ) -> "Optional[List[tuple]]":
    """Parse repeatable ``V:R`` kill specs; None on a malformed one."""
    kills = []
    for spec in specs or []:
        vertex, _, rnd = spec.partition(":")
        try:
            kills.append((int(vertex), int(rnd)))
        except ValueError:
            print(f"bad {flag} spec {spec!r}; want V:R with integers")
            return None
    return kills


def _print_transport(result: RuntimeResult) -> None:
    """The transport line and, after deaths, the failures line of a
    runtime result (either host)."""
    print(f"transport : {result.stats.sent} sent, {result.stats.dropped} dropped, "
          f"{result.stats.delayed} delayed, {result.retransmissions} retransmitted, "
          f"{result.duplicates_suppressed} duplicates absorbed")
    if result.dead:
        print(f"failures  : dead={list(result.dead)}  "
              f"components={[list(c) for c in result.components]}")


def _transcript_ok(plan: GossipPlan, result: RuntimeResult, chaos: NetChaos) -> bool:
    """Under a null chaos model, print whether the run's transcript is
    the offline schedule row for row and return it; otherwise True."""
    if not chaos.is_null:
        return True
    online = sorted(
        (e.round, e.sender, e.message, e.destinations) for e in result.transcript
    )
    ok = plan.schedule.sends() == online
    print(f"transcript: {'identical to offline schedule' if ok else 'DIVERGED'}")
    return ok


def _cmd_run_net(args: argparse.Namespace) -> int:
    """Run gossip over real UDP sockets, report the runtime result."""
    from .exceptions import RuntimeDeadlineError
    from .runtime import (
        NetChaos,
        RealClock,
        RuntimeConfig,
        ScaledClock,
        run_gossip_network,
    )

    kills = _parse_kill_specs(args.kill, "--kill")
    if kills is None:
        return 2
    if getattr(args, "processes", False):
        # Reroute through the supervised multi-process runtime: the
        # kill specs become real SIGKILLs and resolution follows the
        # default replan policy.
        args.sigkill = args.kill
        args.policy = "replan"
        args.max_restarts = 3
        args.rejoin_crashes = 0
        args.journal = None
        return _cmd_run_proc(args)
    chaos = NetChaos(
        seed=args.seed,
        drop_rate=args.drop,
        delay_rate=args.delay,
        delay_max=args.delay_max if args.delay > 0 else 0.0,
        kill=tuple(kills),
    )
    config = RuntimeConfig(run_timeout=args.timeout, seed=args.seed)
    clock = RealClock() if args.time_scale >= 1.0 else ScaledClock(args.time_scale)

    plan = gossip(args.family, algorithm=args.algorithm)
    try:
        result = run_gossip_network(plan, chaos=chaos, config=config, clock=clock)
    except RuntimeDeadlineError as err:
        print(f"DEADLINE ({err.phase}): {err}")
        return 1
    print(f"network   : {plan.graph.name}  n={result.n}  "
          f"horizon={result.horizon} rounds")
    print(f"chaos     : drop={args.drop:.2f} delay={args.delay:.2f} "
          f"kill={kills or 'none'} seed={args.seed}")
    print(f"complete  : {result.complete}   coverage={result.coverage:.1%}   "
          f"makespan={'n/a' if result.makespan is None else f'{result.makespan:.3f}s'}")
    print(f"rounds    : {result.rounds_completed} online"
          + (f" + {result.survival_rounds} survival" if result.survival_rounds else ""))
    _print_transport(result)
    offline_ok = _transcript_ok(plan, result, chaos)
    if args.check:
        ok = offline_ok and result.coverage == 1.0
        if not ok:
            print("CHECK FAILED: coverage or transcript gate violated")
            return 1
        print("check: full (degraded) coverage and offline-exact transcript  OK")
    return 0


def _cmd_run_proc(args: argparse.Namespace) -> int:
    """Run gossip under the multi-process supervisor, report the story."""
    from .exceptions import RuntimeDeadlineError, SupervisorError
    from .runtime import (
        NetChaos,
        RestartPolicy,
        RuntimeConfig,
        run_gossip_processes,
    )

    sigkills = _parse_kill_specs(args.sigkill, "--sigkill")
    if sigkills is None:
        return 2
    chaos = NetChaos(
        seed=args.seed,
        drop_rate=args.drop,
        delay_rate=args.delay,
        delay_max=args.delay_max if args.delay > 0 else 0.0,
        sigkill=tuple(sigkills),
        rejoin_crashes=args.rejoin_crashes,
    )
    config = RuntimeConfig(run_timeout=args.timeout, seed=args.seed)
    policy = RestartPolicy(mode=args.policy, max_restarts=args.max_restarts)

    plan = gossip(args.family, algorithm=args.algorithm)
    try:
        result = run_gossip_processes(
            plan, chaos=chaos, config=config, policy=policy,
            time_scale=args.time_scale,
        )
    except RuntimeDeadlineError as err:
        print(f"DEADLINE ({err.phase}): {err}")
        return 1
    except SupervisorError as err:
        print(f"SUPERVISOR ERROR: {err}")
        for incident in err.incidents:
            print(f"  {incident.to_json()}")
        return 1
    print(f"network   : {plan.graph.name}  n={result.n}  "
          f"horizon={result.horizon} rounds  (1 OS process per peer)")
    print(f"chaos     : drop={args.drop:.2f} delay={args.delay:.2f} "
          f"sigkill={sigkills or 'none'} seed={args.seed}")
    print(f"resolved  : mode={result.mode}  complete={result.complete}  "
          f"coverage={result.coverage:.1%}  restarts={result.restarts}")
    print(f"rounds    : {result.rounds_completed} online"
          + (f" + {result.survival_rounds} "
             + ("rejoin-completion" if result.mode == "rejoin" else "survival")
             if result.survival_rounds else ""))
    _print_transport(result)
    if result.incidents:
        print(f"incidents : {len(result.incidents)}")
        for incident in result.incidents:
            print(f"  [{incident.wall_seconds:7.3f}s] {incident.kind:<20} "
                  f"vertex={incident.vertex:>3}  via {incident.detected_by}  "
                  f"{incident.details}")
    if args.journal:
        with open(args.journal, "w", encoding="utf-8") as fh:
            for incident in result.incidents:
                fh.write(incident.to_json() + "\n")
        print(f"wrote {args.journal}")
    offline_ok = _transcript_ok(plan, result, chaos)
    if args.check:
        detected = all(
            any(i.vertex == victim for i in result.incidents
                if i.kind in ("crash-detected", "suspicion"))
            for victim, _ in sigkills
        )
        ok = offline_ok and result.coverage == 1.0 and detected
        if not ok:
            print("CHECK FAILED: coverage, transcript or detection gate violated")
            return 1
        print("check: death detection, full (degraded) coverage and "
              "offline-exact transcript  OK")
    return 0


def _cmd_plan_bench(args: argparse.Namespace) -> int:
    from .analysis.planner_bench import QUICK_SPECS, run_planner_bench

    specs = args.spec
    if specs is None and args.quick:
        specs = list(QUICK_SPECS)
    report = run_planner_bench(specs, repeats=args.repeats)
    print(report.format())
    if args.json:
        report.write_json(args.json)
        print(f"wrote {args.json}")
    if args.check:
        return _gate(
            report,
            "check: bit-identical trees, identical schedules, and "
            "planner speedup + cold-plan gates hold  OK",
        )
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    """Plan each requested network, statically analyze, render diagnostics."""
    import json as json_mod

    from .lint import lint_schedule

    if args.code:
        from .check.codelint import main as codelint_main

        return codelint_main([])

    if args.all:
        specs = [f"{fam}:{args.n}" for fam in sorted(FAMILIES)]
    elif args.family is not None:
        specs = list(args.family)
    else:
        specs = ["grid:16", "path:16", "star:16", "hypercube:16", "random:24"]

    results = []
    failures = 0
    for spec in specs:
        fam, _, size = spec.partition(":")
        graph = family_instance(fam, int(size) if size else args.n)
        plan = gossip(graph, algorithm=args.algorithm)
        # Lint straight off the canonical array form — same diagnostics
        # as the object view (the differential tests pin that), and the
        # byte size it reports is the cache-weight unit.
        report = lint_schedule(plan.graph, plan.schedule, plan=plan)
        results.append((spec, plan, report))
        if not report.ok:
            failures += 1

    if args.json:
        doc = {
            "algorithm": args.algorithm,
            "ok": failures == 0,
            "reports": [
                dict(
                    report.to_dict(),
                    spec=spec,
                    schedule_nbytes=plan.schedule.nbytes,
                )
                for spec, plan, report in results
            ],
        }
        print(json_mod.dumps(doc, indent=2))
    else:
        for spec, _plan, report in results:
            verdict = "ok" if report.ok else "FAIL"
            print(f"{spec:<18} {verdict:>4}  {len(report.errors)} error(s), "
                  f"{len(report.warnings)} warning(s)")
            shown = report.diagnostics if not args.no_warnings else report.errors
            for diag in shown:
                print(f"    {diag.format()}")
        print(f"\nlinted {len(results)} plan(s) "
              f"({args.algorithm}): {failures} with errors")
    if args.check and failures:
        return 1
    return 0


def _cmd_check_protocol(args: argparse.Namespace) -> int:
    """Model-check the runtime protocol on small adversarial instances."""
    import json as json_mod
    import pathlib

    from .check.explore import (
        DEFAULT_BUDGET,
        MATRIX_FAMILIES,
        MATRIX_SIZES,
        check_family,
        parse_family_spec,
        plan_for,
    )
    from .check.model import ProtocolModel

    from .exceptions import ProtocolCheckError

    budget = args.budget if args.budget is not None else DEFAULT_BUDGET
    try:
        if args.family:
            specs = [parse_family_spec(spec) for spec in args.family]
        else:
            specs = [(fam, n) for fam in MATRIX_FAMILIES for n in MATRIX_SIZES]
    except ProtocolCheckError as exc:
        print(f"check-protocol: {exc}", file=sys.stderr)
        return 2
    rejoin = not args.no_rejoin

    summaries: Dict[str, Dict[str, int]] = {}
    total_states = 0
    total_transitions = 0
    failed = False
    for family, n in specs:
        spec = f"{family}:{n}"
        try:
            result = check_family(
                family, n, crashes=args.crashes, budget=budget, rejoin=rejoin
            )
        except ProtocolCheckError as exc:
            print(f"check-protocol: {spec}: {exc}", file=sys.stderr)
            return 2
        summaries[spec] = result.summary()
        total_states += result.states
        total_transitions += result.transitions
        if result.ok:
            if not args.json:
                print(
                    f"{spec:<14} ok    scenarios={result.scenarios:<4} "
                    f"states={result.states:<8} "
                    f"transitions={result.transitions:<8} "
                    f"fallback={result.fallback_states}"
                )
        else:
            failed = True
            cex = result.counterexample
            assert cex is not None
            print(f"{spec:<14} FAIL  {cex.violation}")
            if args.trace:
                model = ProtocolModel(plan_for(family, n), crash=cex.scenario)
                print(cex.render(model))
            else:
                print("    (re-run with --trace for the wire-message trace)")

    doc = {
        "check": "protocol",
        "crashes": args.crashes,
        "budget": budget,
        "ok": not failed,
        "families": summaries,
    }
    artifact = pathlib.Path(__file__).resolve().parents[2] / "CHECK_protocol.json"

    if args.json:
        print(json_mod.dumps(doc, indent=2))
    else:
        print(
            f"\nchecked {len(specs)} instance(s) "
            f"(crashes<={args.crashes}): {total_states} states, "
            f"{total_transitions} transitions"
        )
    if failed:
        return 1

    if args.update:
        artifact.write_text(json_mod.dumps(doc, indent=2) + "\n",
                            encoding="utf-8")
        if not args.json:
            print(f"wrote {artifact}")
    if args.check:
        if not artifact.exists():
            print(f"check: {artifact} missing; run with --update first")
            return 1
        committed = json_mod.loads(artifact.read_text(encoding="utf-8"))
        drift: List[str] = []
        for spec, summary in summaries.items():
            pinned = committed.get("families", {}).get(spec)
            if pinned is None:
                drift.append(f"{spec}: not in the committed matrix")
            elif pinned != summary:
                drift.append(f"{spec}: committed {pinned} != explored {summary}")
        if drift:
            for line in drift:
                print(f"check: state-count drift — {line}")
            return 1
        if not args.json:
            print("check: all invariants hold and state counts match "
                  "the committed matrix  OK")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "gossip": _cmd_gossip,
        "tables": _cmd_tables,
        "compare": _cmd_compare,
        "paper": _cmd_paper,
        "broadcast": _cmd_broadcast,
        "weighted": _cmd_weighted,
        "online": _cmd_online,
        "repeated": _cmd_repeated,
        "bounds": _cmd_bounds,
        "bench": _cmd_bench,
        "serve-stats": _cmd_serve_stats,
        "chaos": _cmd_chaos,
        "survive": _cmd_survive,
        "run-net": _cmd_run_net,
        "run-proc": _cmd_run_proc,
        "plan-bench": _cmd_plan_bench,
        "lint": _cmd_lint,
        "check-protocol": _cmd_check_protocol,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
