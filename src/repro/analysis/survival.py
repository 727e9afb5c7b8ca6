"""Survival sweeps — seeded permanent-failure campaigns over :mod:`repro.core.survival`.

``repro.cli survive`` and ``benchmarks/bench_survival.py`` both drive
this module: plan gossip on each topology, execute the plan under a
seeded :class:`~repro.simulator.lossy.FaultModel` with permanent
fail-stop crashes (and optionally permanent link failures) for every
requested rate, then hand the residue to
:func:`~repro.core.survival.survive` and measure **survivor coverage**
— the fraction of (live processor, live-origin-in-component message)
pairs the degraded semantics guarantee.

The acceptance gates (:meth:`SurvivalReport.check`):

* every trial with at least one survivor reaches survivor coverage
  **1.0** in a single diagnose pass (:func:`survive` raises otherwise,
  so this is also exercised structurally);
* every partitioned trial raises the typed
  :class:`~repro.exceptions.PartitionedNetworkError` (with witness
  pairs) when re-run with ``allow_partition=False``;
* every survival schedule respects the degraded Theorem 1 bound
  ``max_i (n_i + r_i)`` over its component plans.

Everything is deterministic: trial seeds derive from the sweep seed and
the cell coordinates (same formula as the chaos sweep), appended rounds
are integer counts, and the formatted report contains no wall-clock
measurements — a survival run is byte-for-byte reproducible for a fixed
seed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..core.gossip import gossip, resolve_network
from ..core.recovery import execute_plan_with_faults
from ..core.survival import survive
from ..exceptions import (
    PartitionedNetworkError,
    ReproError,
    SurvivorSetError,
    SweepTimeoutError,
)
from ..percentile import nearest_rank
from ..simulator.lossy import FaultModel

__all__ = ["SurvivalCell", "SurvivalReport", "run_survival_sweep"]


@dataclass(frozen=True)
class SurvivalCell:
    """One (topology, fail-stop-rate) cell of a survival sweep.

    Attributes
    ----------
    trials / intact / partitioned / no_survivors:
        Trial counts: total, trials with no permanent failure at all,
        trials whose residual network split, trials where every
        processor died.
    covered:
        Trials that reached survivor coverage 1.0 (the gate expects
        ``covered == trials - no_survivors``).
    typed_partitions:
        Partitioned trials that raised the typed
        :class:`~repro.exceptions.PartitionedNetworkError` under
        ``allow_partition=False`` (the gate expects this to equal
        ``partitioned``).
    within_bound:
        Covered trials whose appended survival rounds respect the
        degraded bound ``max_i (n_i + r_i)``.
    dead_max / components_max:
        Worst-case dead-processor and component counts across trials.
    rounds_p50 / rounds_p90 / rounds_max:
        Percentiles of appended survival rounds over covered trials
        (``None`` when no trial appended rounds).
    """

    family: str
    n: int
    fail_stop_rate: float
    link_fail_rate: float
    trials: int
    intact: int
    partitioned: int
    no_survivors: int
    covered: int
    typed_partitions: int
    within_bound: int
    dead_max: int
    components_max: int
    rounds_p50: Optional[int]
    rounds_p90: Optional[int]
    rounds_max: Optional[int]

    @property
    def survivable(self) -> int:
        """Trials that left at least one processor alive."""
        return self.trials - self.no_survivors

    @property
    def coverage_rate(self) -> float:
        """Fraction of survivable trials that reached full coverage."""
        return self.covered / self.survivable if self.survivable else 1.0


@dataclass(frozen=True)
class SurvivalReport:
    """A full survival sweep: one :class:`SurvivalCell` per (family, rate)."""

    cells: Tuple[SurvivalCell, ...]
    seed: int
    algorithm: str

    def format(self) -> str:
        """Deterministic human-readable table (no wall-clock numbers)."""
        header = (
            f"{'network':<16} {'n':>4} {'fail':>5} {'trials':>6} "
            f"{'cov':>5} {'rate':>7} {'part':>5} {'dead':>5} "
            f"{'comp':>5} {'rnd p50':>8} {'p90':>5} {'max':>5}"
        )
        lines = [
            f"survival sweep  seed={self.seed}  algorithm={self.algorithm}",
            header,
            "-" * len(header),
        ]
        for c in self.cells:
            rnd = (
                (f"{c.rounds_p50:>8} {c.rounds_p90:>5} {c.rounds_max:>5}")
                if c.rounds_p50 is not None
                else f"{'n/a':>8} {'n/a':>5} {'n/a':>5}"
            )
            lines.append(
                f"{c.family:<16} {c.n:>4} {c.fail_stop_rate:>5.2f} "
                f"{c.trials:>6} {c.covered:>5} {c.coverage_rate:>6.1%} "
                f"{c.partitioned:>5} {c.dead_max:>5} {c.components_max:>5} {rnd}"
            )
        return "\n".join(lines)

    def check(self) -> None:
        """Assert the acceptance gates (raises ``AssertionError``)."""
        for c in self.cells:
            assert c.covered == c.survivable, (
                f"{c.family} at fail-stop {c.fail_stop_rate:.2f}: only "
                f"{c.covered}/{c.survivable} survivable trials reached "
                f"full survivor coverage"
            )
            assert c.typed_partitions == c.partitioned, (
                f"{c.family} at fail-stop {c.fail_stop_rate:.2f}: "
                f"{c.partitioned - c.typed_partitions} partitioned trials "
                f"did not raise the typed PartitionedNetworkError"
            )
            assert c.within_bound == c.covered, (
                f"{c.family} at fail-stop {c.fail_stop_rate:.2f}: "
                f"{c.covered - c.within_bound} survival schedules exceeded "
                f"the degraded bound max_i(n_i + r_i)"
            )


def run_survival_sweep(
    families: Sequence[str] = ("random:48",),
    fail_stop_rates: Sequence[float] = (0.0, 0.01, 0.05),
    *,
    trials: int = 20,
    seed: int = 7,
    algorithm: str = "concurrent-updown",
    link_fail_rate: float = 0.0,
    drop_rate: float = 0.0,
    deadline: Optional[float] = None,
) -> SurvivalReport:
    """Run a seeded fail-stop-rate × topology survival sweep.

    ``families`` entries are :func:`~repro.core.gossip.resolve_network`
    specs (``"random:48"``, ``"grid:64"``, ...).  Trial ``k`` of cell
    ``(i, j)`` uses the fault seed
    ``seed * 1_000_003 + i * 10_007 + j * 101 + k`` — deterministic,
    distinct per trial, reproducible across runs, and shared with the
    chaos sweep's formula so the two campaigns can be correlated.
    ``drop_rate`` layers transient losses on top of the permanent
    failures (the survival schedule itself always runs fault-free).

    ``deadline`` (seconds of wall clock) bounds the whole sweep: checked
    between trials, and on expiry the sweep fails fast with the typed
    :class:`~repro.exceptions.SweepTimeoutError` — the wall clock never
    influences any reported number, only whether the sweep finishes.
    """
    if trials < 1:
        raise ReproError("trials must be >= 1")
    if deadline is not None and deadline <= 0:
        raise ReproError("deadline must be positive (seconds)")
    started = time.monotonic()
    cells: List[SurvivalCell] = []
    for i, spec in enumerate(families):
        graph, tree = resolve_network(spec)
        plan = gossip(graph, algorithm=algorithm, tree=tree)
        for j, rate in enumerate(fail_stop_rates):
            intact = partitioned = no_survivors = covered = 0
            typed_partitions = within_bound = dead_max = components_max = 0
            rounds: List[int] = []
            for k in range(trials):
                if deadline is not None:
                    elapsed = time.monotonic() - started
                    if elapsed > deadline:
                        raise SweepTimeoutError(
                            f"survival sweep exceeded its {deadline:.1f}s "
                            f"deadline after {elapsed:.1f}s ({len(cells)} of "
                            f"{len(families) * len(fail_stop_rates)} cells "
                            "done)",
                            elapsed=elapsed,
                            completed_cells=len(cells),
                        )
                model = FaultModel(
                    seed=seed * 1_000_003 + i * 10_007 + j * 101 + k,
                    drop_rate=drop_rate,
                    fail_stop_rate=rate,
                    link_fail_rate=link_fail_rate,
                )
                faulty = execute_plan_with_faults(plan, model)
                try:
                    outcome = survive(graph, plan, faulty)
                except SurvivorSetError:
                    no_survivors += 1
                    continue
                diagnosis = outcome.diagnosis
                intact += diagnosis.intact
                dead_max = max(dead_max, len(diagnosis.dead))
                components_max = max(components_max, len(diagnosis.components))
                if outcome.survivor_coverage == 1.0:
                    covered += 1
                    bound = max(
                        (cp.degraded_bound for cp in outcome.component_plans),
                        default=0,
                    )
                    if outcome.appended_rounds <= bound or not outcome.schedule:
                        within_bound += 1
                    rounds.append(outcome.appended_rounds)
                if diagnosis.partitioned:
                    partitioned += 1
                    try:
                        survive(graph, plan, faulty, allow_partition=False)
                    except PartitionedNetworkError as exc:
                        if exc.pairs and exc.components == diagnosis.components:
                            typed_partitions += 1
            rounds.sort()
            cells.append(
                SurvivalCell(
                    family=graph.name or str(spec),
                    n=graph.n,
                    fail_stop_rate=rate,
                    link_fail_rate=link_fail_rate,
                    trials=trials,
                    intact=intact,
                    partitioned=partitioned,
                    no_survivors=no_survivors,
                    covered=covered,
                    typed_partitions=typed_partitions,
                    within_bound=within_bound,
                    dead_max=dead_max,
                    components_max=components_max,
                    rounds_p50=nearest_rank(rounds, 0.50) if rounds else None,
                    rounds_p90=nearest_rank(rounds, 0.90) if rounds else None,
                    rounds_max=rounds[-1] if rounds else None,
                )
            )
    return SurvivalReport(cells=tuple(cells), seed=seed, algorithm=algorithm)
