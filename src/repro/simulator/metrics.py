"""Schedule and execution metrics for the benchmark reports.

Beyond the paper's single figure of merit — total communication time —
downstream users care about how *busy* the network is: how many
multicasts happen, how large their fan-out is, how evenly links are
loaded, and how much of Simple's traffic is redundant.  This module
computes all of that from a schedule plus (optionally) an execution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..core.schedule import Schedule
from ..networks.graph import Graph
from .engine import ExecutionResult

__all__ = ["ScheduleMetrics", "compute_metrics", "link_loads"]


@dataclass(frozen=True)
class ScheduleMetrics:
    """Aggregate statistics of one schedule (and optional execution).

    Attributes
    ----------
    total_time:
        Number of rounds (the paper's objective).
    total_multicasts:
        Number of (message, sender, D) tuples across all rounds.
    total_deliveries:
        Sum of fan-outs — point-to-point message hops.
    max_fan_out / mean_fan_out:
        Multicast width statistics (1.0 everywhere = telephone traffic).
    busiest_link_load:
        Most deliveries carried by a single undirected link.
    duplicate_deliveries:
        Deliveries of already-held messages (needs an execution).
    mean_completion_time / max_completion_time:
        Per-processor completion statistics (needs a *complete* execution).
    """

    total_time: int
    total_multicasts: int
    total_deliveries: int
    max_fan_out: int
    mean_fan_out: float
    busiest_link_load: int
    duplicate_deliveries: Optional[int] = None
    mean_completion_time: Optional[float] = None
    max_completion_time: Optional[int] = None

    @property
    def redundancy(self) -> Optional[float]:
        """Fraction of deliveries that were duplicates (None w/o execution)."""
        if self.duplicate_deliveries is None or self.total_deliveries == 0:
            return None
        return self.duplicate_deliveries / self.total_deliveries


def link_loads(schedule: Schedule) -> Dict[Tuple[int, int], int]:
    """Deliveries per undirected link ``(min, max) -> count``."""
    arrays = schedule.arrays()
    rows, dests = arrays.destination_pairs()
    senders = arrays.sender[rows].astype(np.int64)
    width = arrays.n + 1
    keys, counts = np.unique(
        np.minimum(senders, dests) * width + np.maximum(senders, dests),
        return_counts=True,
    )
    return {
        (key // width, key % width): count
        for key, count in zip(keys.tolist(), counts.tolist())
    }


def compute_metrics(
    schedule: Schedule,
    execution: Optional[ExecutionResult] = None,
    graph: Optional[Graph] = None,
) -> ScheduleMetrics:
    """Compute :class:`ScheduleMetrics` for ``schedule``.

    ``graph`` is unused today but reserved for per-degree normalisation;
    passing an ``execution`` enables the duplicate/completion fields.
    """
    multicasts = schedule.total_messages()
    deliveries = schedule.total_deliveries()
    loads = link_loads(schedule)
    completion: Optional[list] = None
    duplicates: Optional[int] = None
    if execution is not None:
        duplicates = execution.duplicate_deliveries
        if execution.complete:
            completion = [t for t in execution.completion_times if t is not None]
    return ScheduleMetrics(
        total_time=schedule.total_time,
        total_multicasts=multicasts,
        total_deliveries=deliveries,
        max_fan_out=schedule.max_fan_out(),
        mean_fan_out=(deliveries / multicasts) if multicasts else 0.0,
        busiest_link_load=max(loads.values()) if loads else 0,
        duplicate_deliveries=duplicates,
        mean_completion_time=(sum(completion) / len(completion)) if completion else None,
        max_completion_time=max(completion) if completion else None,
    )
