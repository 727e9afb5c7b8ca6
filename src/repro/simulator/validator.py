"""Static and dynamic schedule validation.

:class:`~repro.core.schedule.Round` already rejects per-round rule
violations at construction.  This module adds:

Every entry point accepts either a :class:`~repro.core.schedule.Schedule`
or a bare :class:`~repro.core.schedule.ArraySchedule` (the canonical
array form; both layers below normalise it through the facade):

* :func:`check_static` — network-level checks that need no execution:
  all endpoints and message ids in range, every transmission along an
  existing edge.  Implemented on top of the static analyzer's model
  rules (:data:`repro.lint.STATIC_MODEL_RULES`) so the static and
  dynamic layers cannot drift: both judge a schedule through the same
  rule registry;
* :func:`validate_schedule` — the full check: the static rules, then
  possession, adjacency and (optionally) completeness.  It builds one
  lint arrival pass (:func:`repro.lint.arrival_pass`) with the static
  and the execution rules active, raises the first static error if there
  is one, and otherwise reads the engine's verdict off the same pass
  (:func:`repro.simulator.engine.execution_result`), so the static and
  dynamic checks share one model semantics and one arrival matrix;
* :func:`assert_gossip_schedule` — one call asserting everything the
  paper requires of a gossip schedule, returning the execution result.

Keeping validation separate from construction lets the test suite verify
that *deliberately broken* schedules are caught (failure-injection tests
in ``tests/simulator/test_faults.py``).
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from ..core.schedule import ArraySchedule, Schedule
from ..exceptions import ScheduleError, SimulationError
from ..lint import (
    STATIC_MODEL_RULES,
    arrival_pass,
    diagnostic_exception,
    lint_schedule,
)
from ..networks.graph import Graph
from .engine import EXECUTION_RULES, ExecutionResult, execution_result
from .state import initial_holdings

__all__ = ["check_static", "validate_schedule", "assert_gossip_schedule"]


def check_static(
    graph: Graph,
    schedule: Union[Schedule, ArraySchedule],
    *,
    n_messages: Optional[int] = None,
) -> None:
    """Raise unless every transmission is statically well-formed.

    Checks vertex ranges, message-id ranges (``[0, n_messages)``,
    defaulting to ``[0, n)`` — an out-of-range id used to sail through
    and only explode inside the engine), and adjacency.  Runs the lint
    model rules in :data:`repro.lint.STATIC_MODEL_RULES` and re-raises
    the first error with its historical exception type
    (:class:`~repro.exceptions.ScheduleError` for range violations,
    :class:`~repro.exceptions.ModelViolationError` for non-edges).
    """
    report = lint_schedule(
        graph,
        schedule,
        n_messages=n_messages,
        select=STATIC_MODEL_RULES,
        require_complete=False,
    )
    if report.errors:
        raise diagnostic_exception(report.errors[0])


def validate_schedule(
    graph: Graph,
    schedule: Union[Schedule, ArraySchedule],
    initial_holds: Optional[Sequence[int]] = None,
    require_complete: bool = True,
) -> ExecutionResult:
    """Statically and dynamically validate ``schedule`` on ``graph``.

    Returns the engine's :class:`~repro.simulator.engine.ExecutionResult`
    on success; raises a :class:`~repro.exceptions.ScheduleError` subclass
    describing the first violation otherwise — a static error (as
    :func:`check_static` raises it) before any engine error.
    """
    try:
        holds = initial_holdings(graph.n, initial_holds, graph.n)
    except SimulationError:
        check_static(graph, schedule)  # a static error still comes first
        raise
    run = arrival_pass(
        graph, schedule, (*STATIC_MODEL_RULES, *EXECUTION_RULES),
        holds=holds, n_messages=graph.n,
    )
    static = [d for d in run.diagnostics() if d.rule in STATIC_MODEL_RULES]
    if static:
        raise diagnostic_exception(static[0])
    return execution_result(run, require_complete=require_complete)


def assert_gossip_schedule(
    graph: Graph,
    schedule: Union[Schedule, ArraySchedule],
    initial_holds: Optional[Sequence[int]] = None,
    max_total_time: Optional[int] = None,
) -> ExecutionResult:
    """Assert ``schedule`` solves gossiping on ``graph`` within a budget.

    ``max_total_time`` (e.g. the paper's ``n + r``) is checked when given.
    """
    result = validate_schedule(
        graph, schedule, initial_holds=initial_holds, require_complete=True
    )
    if max_total_time is not None and schedule.total_time > max_total_time:
        raise ScheduleError(
            f"schedule takes {schedule.total_time} rounds, exceeding the "
            f"budget {max_total_time}"
        )
    return result
