"""Execution substrate: the synchronous round-based network simulator.

Ground truth for schedule correctness: :func:`~repro.simulator.engine.execute_schedule`
enforces the communication rules of Section 1, answering from the lint
arrival matrix (one model semantics for linter, validator and engine),
and :mod:`~repro.simulator.validator` wraps it with structural checks.
:mod:`~repro.simulator.trace` extracts per-vertex timelines (the paper's
Tables 1–4); :mod:`~repro.simulator.metrics` summarises executions;
:mod:`~repro.simulator.faults` perturbs schedules for robustness tests;
:mod:`~repro.simulator.lossy` executes schedules under a seeded runtime
fault model (dropped deliveries, link outages, transient crashes) for
the recovery layer in :mod:`repro.core.recovery`.
"""

from .engine import ArrivalEvent, ExecutionResult, execute_schedule
from .lossy import (
    FaultModel,
    FaultyExecutionResult,
    LostDelivery,
    SuppressedSend,
    execute_with_faults,
)
from .metrics import ScheduleMetrics, compute_metrics, link_loads
from .state import identity_holdings, labeled_holdings
from .trace import VertexTimeline, all_timelines, vertex_timeline
from .validator import assert_gossip_schedule, check_static, validate_schedule

__all__ = [
    "execute_schedule",
    "ExecutionResult",
    "ArrivalEvent",
    "FaultModel",
    "FaultyExecutionResult",
    "LostDelivery",
    "SuppressedSend",
    "execute_with_faults",
    "identity_holdings",
    "labeled_holdings",
    "VertexTimeline",
    "vertex_timeline",
    "all_timelines",
    "ScheduleMetrics",
    "compute_metrics",
    "link_loads",
    "check_static",
    "validate_schedule",
    "assert_gossip_schedule",
]
