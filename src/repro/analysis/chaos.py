"""Chaos sweeps — seeded fault-injection campaigns over the recovery stack.

``repro.cli chaos`` and ``benchmarks/bench_recovery.py`` both drive this
module: plan gossip on each topology, execute the plan under a seeded
:class:`~repro.simulator.lossy.FaultModel` for every requested drop
rate, repair incomplete runs with :func:`~repro.core.recovery.recover`,
and report per-cell completion rates plus round-overhead percentiles.

Everything is deterministic: trial seeds derive from the sweep seed and
the cell coordinates, overheads are integer round counts, and the
formatted report contains no wall-clock measurements — so a chaos run is
byte-for-byte reproducible for a fixed seed (an acceptance criterion).

Each successful trial's repaired schedule is (optionally, on by
default) re-validated on the **fault-free** engine with
``require_complete=True`` — repairs must be model-legal schedules in
their own right, not just lucky under the faults that shaped them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..core.gossip import gossip, resolve_network
from ..core.recovery import execute_plan_with_faults, recover
from ..exceptions import RecoveryExhaustedError, ReproError, SweepTimeoutError
from ..percentile import nearest_rank
from ..simulator.engine import execute_schedule
from ..simulator.lossy import FaultModel
from ..simulator.state import labeled_holdings

__all__ = ["ChaosCell", "ChaosReport", "run_chaos_sweep"]


@dataclass(frozen=True)
class ChaosCell:
    """One (topology, drop-rate) cell of a chaos sweep.

    ``overhead_*`` percentiles are extra rounds beyond the fault-free
    schedule over the *completed* trials (``None`` if none completed);
    ``verified`` counts repaired schedules that passed the fault-free
    engine with ``require_complete=True``.
    """

    family: str
    n: int
    drop_rate: float
    trials: int
    completed: int
    verified: int
    baseline_total: int
    deliveries_lost: int
    repair_attempts_max: int
    overhead_p50: Optional[int]
    overhead_p90: Optional[int]
    overhead_max: Optional[int]

    @property
    def completion_rate(self) -> float:
        return self.completed / self.trials if self.trials else 0.0


@dataclass(frozen=True)
class ChaosReport:
    """A full chaos sweep: one :class:`ChaosCell` per (family, drop) pair."""

    cells: Tuple[ChaosCell, ...]
    seed: int
    algorithm: str
    max_repair_rounds: int

    def format(self) -> str:
        """Deterministic human-readable table (no wall-clock numbers)."""
        header = (
            f"{'network':<16} {'n':>4} {'drop':>5} {'trials':>6} "
            f"{'done':>5} {'rate':>7} {'lost':>6} "
            f"{'base':>5} {'ovh p50':>8} {'p90':>5} {'max':>5}"
        )
        lines = [
            f"chaos sweep  seed={self.seed}  algorithm={self.algorithm}  "
            f"max-repair-rounds={self.max_repair_rounds}",
            header,
            "-" * len(header),
        ]
        for c in self.cells:
            ovh = (
                (f"{c.overhead_p50:>8} {c.overhead_p90:>5} {c.overhead_max:>5}")
                if c.overhead_p50 is not None
                else f"{'n/a':>8} {'n/a':>5} {'n/a':>5}"
            )
            lines.append(
                f"{c.family:<16} {c.n:>4} {c.drop_rate:>5.2f} {c.trials:>6} "
                f"{c.completed:>5} {c.completion_rate:>6.1%} "
                f"{c.deliveries_lost:>6} {c.baseline_total:>5} {ovh}"
            )
        return "\n".join(lines)

    def check(self, *, min_completion_rate: float = 0.95) -> None:
        """Assert the acceptance gates (raises ``AssertionError``).

        Every cell must complete at least ``min_completion_rate`` of its
        trials, and every completed trial's repaired schedule must have
        passed the fault-free engine.
        """
        for c in self.cells:
            assert c.completion_rate >= min_completion_rate, (
                f"{c.family} at drop {c.drop_rate:.2f}: only "
                f"{c.completed}/{c.trials} trials completed "
                f"({c.completion_rate:.1%} < {min_completion_rate:.0%})"
            )
            assert c.verified == c.completed, (
                f"{c.family} at drop {c.drop_rate:.2f}: "
                f"{c.completed - c.verified} repaired schedules failed "
                "fault-free re-validation"
            )


def run_chaos_sweep(
    families: Sequence[str] = ("random:48",),
    drop_rates: Sequence[float] = (0.0, 0.1, 0.2),
    *,
    trials: int = 20,
    seed: int = 7,
    algorithm: str = "concurrent-updown",
    max_repair_rounds: Optional[int] = None,
    link_outage_rate: float = 0.0,
    crash_rate: float = 0.0,
    crash_length: int = 1,
    policy: str = "nearest-holder",
    verify_fault_free: bool = True,
    deadline: Optional[float] = None,
) -> ChaosReport:
    """Run a seeded drop-rate × topology fault sweep.

    ``families`` entries are :func:`~repro.core.gossip.resolve_network`
    specs (``"random:48"``, ``"grid:64"``, ...).  ``max_repair_rounds``
    defaults to ``max(256, 10 * baseline)`` per topology so deep
    topologies and high drop rates get a budget proportional to their
    fault-free schedule length.  Trial ``k`` of cell ``(i, j)`` uses the
    fault seed ``seed * 1_000_003 + i * 10_007 + j * 101 + k`` —
    deterministic, distinct per trial, reproducible across runs.

    ``deadline`` (seconds of wall clock) bounds the whole sweep: checked
    between trials, and on expiry the sweep fails fast with the typed
    :class:`~repro.exceptions.SweepTimeoutError` instead of grinding on —
    the wall clock gates only *whether* the sweep finishes, never any
    reported number, so determinism of the output is unaffected.
    """
    if trials < 1:
        raise ReproError("trials must be >= 1")
    if deadline is not None and deadline <= 0:
        raise ReproError("deadline must be positive (seconds)")
    started = time.monotonic()
    cells: List[ChaosCell] = []
    report_budget = 0
    for i, spec in enumerate(families):
        graph, tree = resolve_network(spec)
        plan = gossip(graph, algorithm=algorithm, tree=tree)
        baseline = plan.schedule.total_time
        budget = (
            max(256, 10 * baseline) if max_repair_rounds is None else max_repair_rounds
        )
        report_budget = max(report_budget, budget)
        holds0 = labeled_holdings(plan.labeled.labels())
        for j, drop in enumerate(drop_rates):
            completed = verified = lost_total = attempts_max = 0
            overheads: List[int] = []
            for k in range(trials):
                if deadline is not None:
                    elapsed = time.monotonic() - started
                    if elapsed > deadline:
                        raise SweepTimeoutError(
                            f"chaos sweep exceeded its {deadline:.1f}s deadline "
                            f"after {elapsed:.1f}s ({len(cells)} of "
                            f"{len(families) * len(drop_rates)} cells done)",
                            elapsed=elapsed,
                            completed_cells=len(cells),
                        )
                model = FaultModel(
                    seed=seed * 1_000_003 + i * 10_007 + j * 101 + k,
                    drop_rate=drop,
                    link_outage_rate=link_outage_rate,
                    crash_rate=crash_rate,
                    crash_length=crash_length,
                )
                faulty = execute_plan_with_faults(plan, model)
                lost_total += len(faulty.lost)
                try:
                    outcome = recover(
                        graph,
                        plan,
                        faulty,
                        max_repair_rounds=budget,
                        policy=policy,
                    )
                except RecoveryExhaustedError:
                    continue
                completed += 1
                attempts_max = max(attempts_max, outcome.attempts)
                overheads.append(outcome.overhead_rounds)
                if verify_fault_free:
                    replay = execute_schedule(
                        graph,
                        outcome.schedule,
                        initial_holds=holds0,
                        require_complete=True,
                    )
                    if replay.complete:
                        verified += 1
                else:
                    verified += 1
            overheads.sort()
            cells.append(
                ChaosCell(
                    family=graph.name or str(spec),
                    n=graph.n,
                    drop_rate=drop,
                    trials=trials,
                    completed=completed,
                    verified=verified,
                    baseline_total=baseline,
                    deliveries_lost=lost_total,
                    repair_attempts_max=attempts_max,
                    overhead_p50=nearest_rank(overheads, 0.50) if overheads else None,
                    overhead_p90=nearest_rank(overheads, 0.90) if overheads else None,
                    overhead_max=overheads[-1] if overheads else None,
                )
            )
    return ChaosReport(
        cells=tuple(cells),
        seed=seed,
        algorithm=algorithm,
        max_repair_rounds=report_budget,
    )
