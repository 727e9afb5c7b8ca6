"""Static schedule analysis: execution-free verification of gossip plans.

:func:`lint_schedule` checks a schedule against the multicasting
communication model, a set of efficiency lints, and (given a
ConcurrentUpDown plan) the paper's structural invariants — all from
one arrival-matrix pass over the schedule's array columns, never by
executing.  Nothing in this package imports the simulator; a clean
:class:`LintReport` is a purely static certificate.  The same pass,
built by :func:`arrival_pass` with the execution rules only, is what
:func:`repro.simulator.engine.execute_schedule` answers from.

Quick start::

    from repro import gossip
    from repro.lint import lint_schedule

    plan = gossip("grid:16")
    report = lint_schedule(plan.graph, plan.schedule, plan=plan)
    assert report.ok
    print(report.format())

See ``docs/ALGORITHM.md`` section 16 for the rule catalogue and the
soundness argument.
"""

from .diagnostics import Diagnostic, LintReport, Severity
from .driver import (
    ArrivalPass,
    ScheduleLike,
    arrival_pass,
    diagnostic_exception,
    lint_schedule,
)
from .rules import (
    EFFICIENCY,
    MODEL,
    PAPER,
    RULES,
    STATIC_MODEL_RULES,
    TIERS,
    Rule,
    expand_selection,
)

__all__ = [
    "Diagnostic",
    "LintReport",
    "Severity",
    "Rule",
    "RULES",
    "TIERS",
    "MODEL",
    "EFFICIENCY",
    "PAPER",
    "STATIC_MODEL_RULES",
    "ScheduleLike",
    "ArrivalPass",
    "arrival_pass",
    "expand_selection",
    "diagnostic_exception",
    "lint_schedule",
]
