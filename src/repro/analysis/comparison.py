"""Algorithm comparison harness — deterministic and adversarial.

Runs several gossiping algorithms over one network (or a family of
networks) and tabulates total communication times next to the paper's
closed-form bounds — the engine behind
``benchmarks/bench_algorithm_comparison.py`` and the comparison example.

The *adversarial* half (:func:`run_epidemic_comparison`, ``cli compare
--epidemic``, ``benchmarks/bench_epidemic.py``) pits the paper's
deterministic ConcurrentUpDown schedules against the randomized
baselines of :mod:`repro.core.epidemic` and :mod:`repro.core.coded`
across topologies *and* fault regimes, measuring seeded
rounds-to-completion percentiles, message complexity and
redundant-delivery ratios.  The designed outcome, enforced by
:meth:`EpidemicReport.check`:

* at 0% drop the deterministic ``n + r`` schedule beats every epidemic
  variant's median completion on every topology family (randomization
  pays a collision/coupon tax the paper's schedules avoid);
* at drop rates that kill essentially every unrepaired deterministic
  transcript, the *online* push-pull protocol — re-deciding each round
  from actual possession state — still completes ≥ 95% of trials
  (redundancy buys survival, the other side of the trade).

Everything is seeded and wall-clock-free, so reports are byte-for-byte
reproducible (trial seeds follow the chaos-sweep derivation
``seed * 1_000_003 + i * 10_007 + j * 101 + k``; the same base seed
drives the protocol and the fault draws — their splitmix64 streams are
domain-separated by tag).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.coded import run_coded_gossip
from ..core.epidemic import EPIDEMIC_VARIANTS, run_epidemic
from ..core.gossip import gossip, resolve_network
from ..core.recovery import execute_plan_with_faults
from ..networks.graph import Graph
from ..networks.properties import radius as graph_radius
from ..percentile import nearest_rank
from ..simulator.lossy import FaultModel
from .bounds import (
    concurrent_updown_upper_bound,
    simple_exact_time,
    trivial_lower_bound,
    updown_upper_bound,
)
from .sweep import FAMILIES

__all__ = [
    "ComparisonRow",
    "compare_algorithms",
    "comparison_table",
    "DEFAULT_ALGORITHMS",
    "AlgoStats",
    "EpidemicCell",
    "EpidemicReport",
    "run_epidemic_comparison",
]

#: The algorithms every comparison includes by default.
DEFAULT_ALGORITHMS: Sequence[str] = (
    "concurrent-updown",
    "updown",
    "simple",
    "greedy",
    "telephone",
)


@dataclass(frozen=True)
class ComparisonRow:
    """One network's measured schedule lengths and reference bounds."""

    name: str
    n: int
    radius: int
    times: Dict[str, int]
    lower_bound: int
    concurrent_bound: int
    simple_bound: int
    updown_bound: int

    def winner(self) -> str:
        """Algorithm with the shortest measured schedule (ties: registry order).

        ``min`` scans the dict in insertion order and a strict ``<``
        keeps the first of equals, so comparing the time alone already
        breaks ties by registry order — O(k), no index scan.
        """
        return min(self.times, key=lambda a: self.times[a])

    def ratio(self, algorithm: str) -> float:
        """Measured time over the trivial lower bound ``n - 1``."""
        lb = max(self.lower_bound, 1)
        return self.times[algorithm] / lb


def compare_algorithms(
    graph: Graph,
    algorithms: Optional[Sequence[str]] = None,
    verify: bool = True,
) -> ComparisonRow:
    """Run each algorithm on ``graph`` and collect total times.

    ``verify=True`` executes every schedule on the simulator (complete
    gossip or an exception); switch it off in timing-sensitive loops.
    """
    algos = DEFAULT_ALGORITHMS if algorithms is None else algorithms
    times: Dict[str, int] = {}
    for algo in algos:
        plan = gossip(graph, algorithm=algo)
        if verify:
            plan.execute(on_tree_only=True)
        times[algo] = plan.total_time
    return ComparisonRow(
        name=graph.name or f"graph-n{graph.n}",
        n=graph.n,
        radius=graph_radius(graph),
        times=times,
        lower_bound=trivial_lower_bound(graph.n),
        concurrent_bound=concurrent_updown_upper_bound(graph),
        simple_bound=simple_exact_time(graph),
        updown_bound=updown_upper_bound(graph),
    )


def comparison_table(
    graphs: Iterable[Graph],
    algorithms: Optional[Sequence[str]] = None,
    verify: bool = True,
) -> List[ComparisonRow]:
    """Compare algorithms across a family of networks."""
    return [compare_algorithms(g, algorithms, verify) for g in graphs]


def format_comparison(rows: Sequence[ComparisonRow]) -> str:
    """Plain-text table of a comparison (benchmark report output).

    Columns are the first-seen union of every row's algorithms, so rows
    produced with different ``algorithms`` sequences render side by side
    — a missing measurement shows as ``—`` rather than raising.
    """
    if not rows:
        return "(no rows)"
    algos: List[str] = []
    for row in rows:
        for a in row.times:
            if a not in algos:
                algos.append(a)
    header = (
        f"{'network':<22} {'n':>5} {'r':>3} {'n-1':>5} {'n+r':>5} "
        + " ".join(f"{a:>18}" for a in algos)
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        cells = " ".join(
            f"{row.times[a]:>18}" if a in row.times else f"{'—':>18}" for a in algos
        )
        lines.append(
            f"{row.name:<22} {row.n:>5} {row.radius:>3} "
            f"{row.lower_bound:>5} {row.concurrent_bound:>5} {cells}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Adversarial suite: deterministic schedules vs randomized baselines.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AlgoStats:
    """One algorithm's seeded trial statistics inside one cell.

    ``rounds_p50`` / ``rounds_p95`` are nearest-rank percentiles of the
    completion round over the *completed* trials (``None`` if none
    completed); ``mean_messages`` counts attempted sends per trial and
    ``mean_redundancy`` averages each trial's redundant-delivery ratio
    (duplicates / successful deliveries).
    """

    algorithm: str
    trials: int
    completed: int
    rounds_p50: Optional[int]
    rounds_p95: Optional[int]
    mean_messages: float
    mean_redundancy: float

    @property
    def survival(self) -> float:
        """Fraction of trials that reached complete gossip."""
        return self.completed / self.trials if self.trials else 0.0


@dataclass(frozen=True)
class EpidemicCell:
    """One (family, fault-regime) cell of the adversarial comparison.

    ``deterministic_makespan`` is the fault-free ConcurrentUpDown
    schedule length for this family — the ``n + r`` yardstick every
    randomized percentile is gated against.
    """

    family: str
    n: int
    drop_rate: float
    fail_stop_rate: float
    deterministic_makespan: int
    stats: Tuple[AlgoStats, ...]

    @property
    def is_null(self) -> bool:
        """True for the fault-free regime (the makespan-gate cells)."""
        return self.drop_rate == 0.0 and self.fail_stop_rate == 0.0

    def algo(self, name: str) -> Optional[AlgoStats]:
        """This cell's stats for ``name`` (``None`` if not measured)."""
        for s in self.stats:
            if s.algorithm == name:
                return s
        return None


@dataclass(frozen=True)
class EpidemicReport:
    """A full adversarial comparison (see module docstring)."""

    cells: Tuple[EpidemicCell, ...]
    seed: int
    trials: int
    push_trials: int

    def format(self) -> str:
        """Deterministic table — no wall-clock numbers, byte-reproducible."""
        header = (
            f"{'network':<16} {'n':>4} {'drop':>5} {'fstop':>6} {'n+r':>5} "
            f"{'algorithm':<20} {'trials':>6} {'done':>5} {'rate':>7} "
            f"{'p50':>6} {'p95':>6} {'msgs':>8} {'redund':>7}"
        )
        lines = [
            f"epidemic comparison  seed={self.seed}  trials={self.trials}  "
            f"push-trials={self.push_trials}",
            header,
            "-" * len(header),
        ]
        for c in self.cells:
            for s in c.stats:
                p50 = f"{s.rounds_p50:>6}" if s.rounds_p50 is not None else f"{'n/a':>6}"
                p95 = f"{s.rounds_p95:>6}" if s.rounds_p95 is not None else f"{'n/a':>6}"
                lines.append(
                    f"{c.family:<16} {c.n:>4} {c.drop_rate:>5.2f} "
                    f"{c.fail_stop_rate:>6.4f} {c.deterministic_makespan:>5} "
                    f"{s.algorithm:<20} {s.trials:>6} {s.completed:>5} "
                    f"{s.survival:>6.1%} {p50} {p95} "
                    f"{s.mean_messages:>8.1f} {s.mean_redundancy:>7.3f}"
                )
        return "\n".join(lines)

    def check(
        self,
        *,
        min_pushpull_survival: float = 0.95,
        max_deterministic_survival: float = 0.5,
    ) -> None:
        """Assert the two statistical gates (raises ``AssertionError``).

        **Makespan gate** — in every fault-free cell, every randomized
        algorithm completes all its trials and its *median* completion
        round is strictly worse than the deterministic ``n + r``
        schedule.

        **Resilience gate** — in every pure-drop fault cell, the
        unrepaired deterministic schedule survives at most
        ``max_deterministic_survival`` of its trials while online
        push-pull survives at least ``min_pushpull_survival``.

        Both gates must be exercised: a report with no fault-free cells
        or no pure-drop fault cells fails rather than passing vacuously.
        """
        makespan_cells = resilience_cells = 0
        for c in self.cells:
            if c.is_null:
                makespan_cells += 1
                for s in c.stats:
                    if s.algorithm == "concurrent-updown":
                        continue
                    assert s.completed == s.trials, (
                        f"{c.family}: {s.algorithm} completed only "
                        f"{s.completed}/{s.trials} fault-free trials"
                    )
                    assert s.rounds_p50 is not None
                    assert c.deterministic_makespan < s.rounds_p50, (
                        f"{c.family}: deterministic makespan "
                        f"{c.deterministic_makespan} does not beat {s.algorithm} "
                        f"median {s.rounds_p50}"
                    )
            elif c.drop_rate > 0.0 and c.fail_stop_rate == 0.0:
                det = c.algo("concurrent-updown")
                pp = c.algo("epidemic-push-pull")
                if det is None or pp is None:
                    continue
                resilience_cells += 1
                assert det.survival <= max_deterministic_survival, (
                    f"{c.family} at drop {c.drop_rate:.2f}: unrepaired "
                    f"deterministic schedule survived {det.survival:.1%} "
                    f"(> {max_deterministic_survival:.0%}) — regime not adversarial"
                )
                assert pp.survival >= min_pushpull_survival, (
                    f"{c.family} at drop {c.drop_rate:.2f}: push-pull survived "
                    f"only {pp.survival:.1%} (< {min_pushpull_survival:.0%})"
                )
        assert makespan_cells > 0, "no fault-free cells: makespan gate not exercised"
        assert resilience_cells > 0, (
            "no pure-drop fault cells with both contestants: "
            "resilience gate not exercised"
        )


def _epidemic_stats(
    algorithm: str,
    outcomes: Sequence[Tuple[bool, Optional[int], int, float]],
) -> AlgoStats:
    """Fold per-trial ``(complete, rounds, messages, redundancy)`` tuples."""
    rounds = sorted(r for done, r, _, _ in outcomes if done and r is not None)
    n_trials = len(outcomes)
    return AlgoStats(
        algorithm=algorithm,
        trials=n_trials,
        completed=sum(1 for done, _, _, _ in outcomes if done),
        rounds_p50=nearest_rank(rounds, 0.50) if rounds else None,
        rounds_p95=nearest_rank(rounds, 0.95) if rounds else None,
        mean_messages=sum(m for _, _, m, _ in outcomes) / n_trials,
        mean_redundancy=sum(d for _, _, _, d in outcomes) / n_trials,
    )


def run_epidemic_comparison(
    families: Optional[Sequence[str]] = None,
    *,
    n: int = 16,
    trials: int = 100,
    push_trials: Optional[int] = None,
    seed: int = 0,
    drop_rates: Sequence[float] = (0.0, 0.15),
    fail_stop_rates: Sequence[float] = (0.0,),
    fanout: int = 1,
) -> EpidemicReport:
    """Run the adversarial deterministic-vs-randomized comparison.

    ``families`` are family names resolved as ``"family:n"`` (default:
    all of :data:`repro.analysis.sweep.FAMILIES`).  Cells are the
    product ``families × drop_rates × fail_stop_rates``:

    * the fault-free cell measures every epidemic variant plus coded
      gossip over ``trials`` seeded runs each (push over ``push_trials``
      — its uniform-selection random walk is ~50× slower on path-like
      families and its gate margin is enormous, so fewer trials lose no
      power) against the deterministic run, which is executed **once**
      and counted per trial (it is the same transcript every time);
    * fault cells measure the *online* push-pull protocol and coded
      gossip against per-trial unrepaired replays of the deterministic
      schedule under the same seeded :class:`FaultModel` family.

    hot-loop-ok: a measurement sweep, not a planner hot path.
    """
    from ..exceptions import ReproError

    if trials < 1:
        raise ReproError("trials must be >= 1")
    fams = list(FAMILIES) if families is None else list(families)
    n_push = max(1, trials // 5) if push_trials is None else push_trials
    cells: List[EpidemicCell] = []
    for i, family in enumerate(fams):
        graph, tree = resolve_network(f"{family}:{n}")
        plan = gossip(graph, algorithm="concurrent-updown", tree=tree)
        makespan = plan.schedule.total_time
        det_msgs = plan.schedule.total_messages()
        det_deliveries = plan.schedule.total_deliveries()
        regimes = [(d, f) for f in fail_stop_rates for d in drop_rates]
        for j, (drop, fstop) in enumerate(regimes):
            null_regime = drop == 0.0 and fstop == 0.0
            stats: List[AlgoStats] = []

            # Deterministic contestant: one fault-free execution counted
            # per trial in the null regime, per-trial lossy replays else.
            det_outcomes: List[Tuple[bool, Optional[int], int, float]] = []
            for k in range(trials):
                base = seed * 1_000_003 + i * 10_007 + j * 101 + k
                model = FaultModel(
                    seed=base, drop_rate=drop, fail_stop_rate=fstop
                )
                res = execute_plan_with_faults(plan, model)
                # Suppressed multicasts' deliveries are not itemised in
                # ``lost``, so this undercounts only in crash regimes —
                # exact in the null and pure-drop cells the gates read.
                landed = det_deliveries - len(res.lost)
                dup_ratio = (
                    res.duplicate_deliveries / landed if landed > 0 else 0.0
                )
                det_outcomes.append(
                    (
                        res.complete,
                        res.total_time if res.complete else None,
                        det_msgs,
                        dup_ratio,
                    )
                )
                if null_regime:
                    det_outcomes = det_outcomes * trials
                    break
            stats.append(_epidemic_stats("concurrent-updown", det_outcomes))

            variants = EPIDEMIC_VARIANTS if null_regime else ("push-pull",)
            for variant in variants:
                n_var = n_push if variant == "push" else trials
                outcomes = []
                for k in range(n_var):
                    base = seed * 1_000_003 + i * 10_007 + j * 101 + k
                    model = (
                        None
                        if null_regime
                        else FaultModel(
                            seed=base, drop_rate=drop, fail_stop_rate=fstop
                        )
                    )
                    r = run_epidemic(
                        graph, variant=variant, seed=base, fanout=fanout, model=model
                    )
                    outcomes.append(
                        (
                            r.complete,
                            r.completion_round,
                            r.messages_sent,
                            r.redundancy,
                        )
                    )
                stats.append(_epidemic_stats(f"epidemic-{variant}", outcomes))

            coded_outcomes = []
            for k in range(trials):
                base = seed * 1_000_003 + i * 10_007 + j * 101 + k
                model = (
                    None
                    if null_regime
                    else FaultModel(seed=base, drop_rate=drop, fail_stop_rate=fstop)
                )
                r = run_coded_gossip(graph, seed=base, fanout=fanout, model=model)
                coded_outcomes.append(
                    (r.complete, r.completion_round, r.packets_sent, r.redundancy)
                )
            stats.append(_epidemic_stats("coded", coded_outcomes))

            cells.append(
                EpidemicCell(
                    family=family,
                    n=graph.n,
                    drop_rate=drop,
                    fail_stop_rate=fstop,
                    deterministic_makespan=makespan,
                    stats=tuple(stats),
                )
            )
    return EpidemicReport(
        cells=tuple(cells), seed=seed, trials=trials, push_trials=n_push
    )
