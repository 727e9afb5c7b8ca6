"""One differential harness over every executor of the multicasting model.

Four independently written judges of a schedule must agree:

* :func:`repro.simulator.engine.execute_schedule` — the engine;
* :func:`repro.simulator.lossy.execute_with_faults` under a null
  :class:`~repro.simulator.lossy.FaultModel` — the only round-walking
  executor in the package;
* ``tests/simulator/reference.py`` — the naive set-based oracle;
* ``tests/lint/oracle.py`` — the lint object walk, read as an executor
  (its model errors, ``incomplete-gossip`` and redundant deliveries).

Schedules come from every registry algorithm on random connected
graphs, either intact or corrupted by one :mod:`repro.simulator.faults`
mutator or one out-of-range id.  The judges must agree on whether there
is a violation and on its send round; on legal runs, also on
completeness, per-processor completion times, the duplicate count and
the final holds.  The engine's and the lossy executor's delivery logs
must be identical, event for event.  ``validate_schedule`` (the static
rules and the engine's in one arrival pass) must raise or return exactly
what running :func:`~repro.simulator.validator.check_static` and then the
engine does.

Under seeded, non-null fault models (drops, link outages, transient
crashes of length 1 and 3, fail-stops, link failures, each alone and all
together) the lossy executor must return a
:class:`~repro.simulator.lossy.FaultyExecutionResult` equal, field for
field, to ``reference_execute_with_faults`` (the object-walking loop the
package used to run), or raise the same error with the same text.
"""

import re
from typing import Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.gossip import ALGORITHMS, gossip
from repro.core.schedule import Schedule
from repro.exceptions import ModelViolationError, ReproError, ScheduleError
from repro.lint import rules as R
from repro.simulator import faults
from repro.simulator.engine import execute_schedule
from repro.simulator.validator import check_static, validate_schedule
from repro.simulator.lossy import FaultModel, execute_with_faults
from repro.simulator.state import bits_of, labeled_holdings
from tests.conftest import connected_graphs, pack, schedule_prefix
from tests.lint.oracle import oracle_lint_schedule
from tests.simulator.reference import reference_execute, reference_execute_with_faults

#: What every judge reports: ``("violation", send round)`` or
#: ``("ran", complete, completion times, duplicates, final holds)``.
Outcome = Tuple

_ROUND = re.compile(r"\bat (?:time )?(\d+)\b")

MUTATIONS = (
    "drop-round",
    "drop-transmission",
    "corrupt-message",
    "redirect",
    "swap-rounds",
    "bad-id",
)


def _round_of(exc: Exception) -> int:
    match = _ROUND.search(str(exc))
    assert match, f"no round in {exc!s}"
    return int(match.group(1))


def _ran(complete, times, duplicates, holds) -> Outcome:
    return ("ran", bool(complete), tuple(times), duplicates,
            tuple(frozenset(bits_of(h)) for h in holds))


def engine(graph, schedule, holds) -> Tuple[Outcome, list]:
    try:
        res = execute_schedule(graph, schedule, initial_holds=holds,
                               record_arrivals=True)
    except ModelViolationError as exc:
        return ("violation", _round_of(exc)), []
    quiet = execute_schedule(graph, schedule, initial_holds=holds)
    assert quiet.arrivals == []
    assert (quiet.completion_times, quiet.final_holds, quiet.duplicate_deliveries) == (
        res.completion_times, res.final_holds, res.duplicate_deliveries)
    return _ran(res.complete, res.completion_times, res.duplicate_deliveries,
                res.final_holds), res.arrivals


def lossy(graph, schedule, holds) -> Tuple[Outcome, list]:
    """Null-model lossy run.  A possession gap is a recorded suppression,
    not an error, so the first violation is the earliest of the first
    suppression and the round of a raised (adjacency or range) error —
    found by re-running the rounds before the raise."""
    model = FaultModel(seed=7)
    try:
        res = execute_with_faults(graph, schedule, model, initial_holds=holds,
                                  record_arrivals=True)
    except ModelViolationError as exc:
        raised = _round_of(exc)
        prefix = schedule_prefix(schedule, raised)
        early = execute_with_faults(graph, prefix, model, initial_holds=holds)
        assert not early.lost
        first = [s.time for s in early.suppressed] + [raised]
        return ("violation", min(first)), []
    assert not res.lost
    if res.suppressed:
        assert {s.reason for s in res.suppressed} == {"not-held"}
        return ("violation", res.suppressed[0].time), []
    return _ran(res.complete, res.completion_times, res.duplicate_deliveries,
                res.final_holds), res.arrivals


def reference(graph, schedule, holds) -> Outcome:
    try:
        res = reference_execute(graph, schedule,
                                initial_holds=[set(bits_of(h)) for h in holds])
    except ModelViolationError as exc:
        return ("violation", _round_of(exc))
    return ("ran", res.complete, res.completion_times, res.duplicate_deliveries,
            res.final_holds)


def lint_oracle(graph, schedule, holds) -> Outcome:
    """The lint walk as a judge: a model error is a violation at its
    round; otherwise it reports completeness and redundant deliveries."""
    report = oracle_lint_schedule(
        graph, schedule, initial_holds=holds,
        select=(R.MODEL, R.REDUNDANT_DELIVERY.id),
    )
    errors = [d.round for d in report.errors if d.rule != R.INCOMPLETE_GOSSIP.id]
    if errors:
        return ("violation", min(errors))
    complete = not any(d.rule == R.INCOMPLETE_GOSSIP.id for d in report.errors)
    duplicates = sum(d.rule == R.REDUNDANT_DELIVERY.id for d in report.diagnostics)
    return ("ran", complete, duplicates)


def _bad_id(schedule: Schedule, graph, data) -> Schedule:
    """Replace one transmission's sender or message by an out-of-range id.

    A negative sender cannot be packed into a schedule at all, so the
    ids drawn are the ones a schedule can carry onto a smaller network.
    """
    sends = schedule.arrays().sends()
    e = data.draw(st.integers(0, len(sends) - 1), label="bad-id row")
    t, s, m, ds = sends[e]
    field, value = data.draw(st.sampled_from(
        [("sender", graph.n), ("message", -1), ("message", graph.n)]
    ), label="bad id")
    sends[e] = (t, value, m, ds) if field == "sender" else (t, s, value, ds)
    return pack(sends, graph.n + 1)


def _mutate(kind: str, schedule: Schedule, graph, data) -> Optional[Schedule]:
    """One corrupted copy of ``schedule``; ``None`` when the mutator
    does not apply to it (e.g. every vertex is adjacent to the sender)."""
    total = schedule.total_time
    if total == 0:
        return None
    if kind == "bad-id":
        return _bad_id(schedule, graph, data)
    t = data.draw(st.integers(0, total - 1), label="round")
    width = len(schedule.round_at(t))
    i = data.draw(st.integers(0, max(width - 1, 0)), label="row")
    try:
        if kind == "drop-round":
            return faults.drop_round(schedule, t)
        if kind == "drop-transmission":
            return faults.drop_transmission(schedule, t, i)
        if kind == "corrupt-message":
            m = data.draw(st.integers(0, graph.n - 1), label="message")
            return faults.corrupt_message(schedule, t, i, m)
        if kind == "redirect":
            return faults.redirect_to_nonneighbor(schedule, graph, t, i)
        u = data.draw(st.integers(0, total - 1), label="other round")
        return faults.swap_rounds(schedule, t, u)
    except ScheduleError:
        return None


def _verdict(run):
    """A validator call's result fields, or its exception type and text."""
    try:
        res = run()
    except ReproError as exc:
        return type(exc), str(exc)
    return (res.completion_times, res.final_holds, res.duplicate_deliveries)


def validator_agrees(graph, schedule, holds) -> None:
    """``validate_schedule``'s single arrival pass raises (type and
    text) or returns exactly what its two-pass definition does: the
    static check, then the engine."""

    def two_pass():
        check_static(graph, schedule)
        return execute_schedule(graph, schedule, initial_holds=holds,
                                require_complete=True)

    assert _verdict(
        lambda: validate_schedule(graph, schedule, initial_holds=holds)
    ) == _verdict(two_pass)


def _judge(graph, schedule, holds) -> Outcome:
    """Run every judge; assert agreement; return the common outcome."""
    validator_agrees(graph, schedule, holds)
    outcome, arrivals = engine(graph, schedule, holds)
    lossy_outcome, lossy_arrivals = lossy(graph, schedule, holds)
    assert lossy_outcome == outcome
    assert lossy_arrivals == arrivals
    assert reference(graph, schedule, holds) == outcome
    lint = lint_oracle(graph, schedule, holds)
    if outcome[0] == "violation":
        assert lint == outcome
    else:
        assert lint == ("ran", outcome[1], outcome[3])
    return outcome


@given(graph=connected_graphs(max_n=10),
       algorithm=st.sampled_from(sorted(ALGORITHMS)))
@settings(max_examples=40, deadline=None)
def test_executors_agree_on_generated_schedules(graph, algorithm):
    plan = gossip(graph, algorithm=algorithm)
    holds = labeled_holdings(plan.labeled.labels())
    outcome = _judge(plan.graph, plan.schedule, holds)
    assert outcome[0] == "ran" and outcome[1]


@given(graph=connected_graphs(max_n=10),
       algorithm=st.sampled_from(sorted(ALGORITHMS)),
       kind=st.sampled_from(MUTATIONS), data=st.data())
@settings(max_examples=60, deadline=None)
def test_executors_agree_on_broken_schedules(graph, algorithm, kind, data):
    plan = gossip(graph, algorithm=algorithm)
    broken = _mutate(kind, plan.schedule, plan.graph, data)
    if broken is None:
        return
    outcome = _judge(plan.graph, broken, labeled_holdings(plan.labeled.labels()))
    if kind in ("redirect", "bad-id"):
        assert outcome[0] == "violation"


@pytest.mark.parametrize("spec", ["grid:25", "path:17", "random:32"])
def test_executors_agree_on_family_plans(spec):
    """Larger fixed plans than the strategies reach."""
    plan = gossip(spec)
    holds = labeled_holdings(plan.labeled.labels())
    outcome = _judge(plan.graph, plan.schedule, holds)
    assert outcome[:2] == ("ran", True) and outcome[3] == 0


#: Seeded non-null fault models: each hazard alone, then all together.
FAULT_MODELS = {
    "drop": dict(drop_rate=0.25),
    "link-outage": dict(link_outage_rate=0.2),
    "crash-1": dict(crash_rate=0.08, crash_length=1),
    "crash-3": dict(crash_rate=0.05, crash_length=3),
    "fail-stop": dict(fail_stop_rate=0.03),
    "link-fail": dict(link_fail_rate=0.04),
    "combined": dict(
        drop_rate=0.1, link_outage_rate=0.05, crash_rate=0.03, crash_length=2,
        fail_stop_rate=0.01, link_fail_rate=0.02,
    ),
}


def _lossy_verdict(executor, graph, schedule, holds, kind, seed, record):
    """One lossy run's result, or its error type and text."""
    model = FaultModel(seed=seed, **FAULT_MODELS[kind])
    try:
        return executor(graph, schedule, model, initial_holds=holds,
                        record_arrivals=record)
    except ReproError as exc:
        return type(exc), str(exc)


def lossy_matches_reference(graph, schedule, holds, kind, seed) -> None:
    """Every :class:`FaultyExecutionResult` field equals the reference's."""
    for record in (True, False):
        got = _lossy_verdict(execute_with_faults, graph, schedule, holds,
                             kind, seed, record)
        want = _lossy_verdict(reference_execute_with_faults, graph, schedule,
                              holds, kind, seed, record)
        assert got == want


@given(graph=connected_graphs(max_n=10),
       algorithm=st.sampled_from(sorted(ALGORITHMS)),
       kind=st.sampled_from(sorted(FAULT_MODELS)),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_lossy_matches_reference_under_faults(graph, algorithm, kind, seed):
    plan = gossip(graph, algorithm=algorithm)
    holds = labeled_holdings(plan.labeled.labels())
    lossy_matches_reference(plan.graph, plan.schedule, holds, kind, seed)


@given(graph=connected_graphs(max_n=10),
       algorithm=st.sampled_from(sorted(ALGORITHMS)),
       mutation=st.sampled_from(MUTATIONS),
       kind=st.sampled_from(sorted(FAULT_MODELS)),
       seed=st.integers(0, 2**32 - 1), data=st.data())
@settings(max_examples=60, deadline=None)
def test_lossy_matches_reference_on_broken_schedules(
    graph, algorithm, mutation, kind, seed, data
):
    plan = gossip(graph, algorithm=algorithm)
    broken = _mutate(mutation, plan.schedule, plan.graph, data)
    if broken is None:
        return
    holds = labeled_holdings(plan.labeled.labels())
    lossy_matches_reference(plan.graph, broken, holds, kind, seed)


@pytest.mark.parametrize("kind", sorted(FAULT_MODELS))
@pytest.mark.parametrize("spec", ["grid:25", "random:32"])
def test_lossy_matches_reference_on_family_plans(spec, kind):
    plan = gossip(spec)
    holds = labeled_holdings(plan.labeled.labels())
    for seed in (0, 1, 2):
        lossy_matches_reference(plan.graph, plan.schedule, holds, kind, seed)
