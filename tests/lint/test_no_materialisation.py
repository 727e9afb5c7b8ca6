"""Linting, executing and replanning never build the object view.

The driver reads :class:`~repro.core.schedule.Schedule` columns
directly, so :attr:`Schedule.rounds` is monkeypatched to raise while
plans are linted through every front door: :func:`lint_schedule`,
:func:`~repro.simulator.validator.check_static` and the service's lint
gate.  The same guard covers every other consumer of
a schedule that is not a display: the lossy executor, recovery,
survival, repeated gossip's offset search, the supervisor's script
slicer, the online driver and JSON export.  ``check_static`` must also
keep raising the same exception types with byte-identical text on the
broken-schedule corpus of ``tests/lint/test_differential.py``.
"""

import pytest

from repro.analysis.sweep import family_instance
from repro.core.concurrent_updown import concurrent_updown
from repro.core.gossip import gossip
from repro.core.online import run_online_gossip
from repro.core.recovery import execute_plan_with_faults, recover
from repro.core.repeated import repeated_gossip
from repro.core.schedule import Schedule
from repro.core.survival import survive
from repro.exceptions import ScheduleError
from repro.lint import STATIC_MODEL_RULES, diagnostic_exception, lint_schedule
from repro.networks import topologies
from repro.networks.builders import tree_to_graph
from repro.networks.io import schedule_from_json, schedule_to_json
from repro.networks.spanning_tree import minimum_depth_spanning_tree
from repro.runtime.supervisor import script_slices
from repro.service import GossipService
from repro.simulator.faults import (
    corrupt_message,
    drop_round,
    drop_transmission,
    redirect_to_nonneighbor,
    swap_rounds,
)
from repro.simulator.lossy import FaultModel
from repro.simulator.validator import check_static
from repro.tree.labeling import LabeledTree

from tests.lint.oracle import oracle_lint_schedule


@pytest.fixture
def no_object_view(monkeypatch):
    def refuse(self):
        raise AssertionError("lint materialised the Transmission object view")

    monkeypatch.setattr(Schedule, "rounds", property(refuse))


@pytest.mark.parametrize("family", ["grid", "random", "hypercube", "star"])
def test_lint_reads_columns_only(family, no_object_view):
    plan = gossip(family_instance(family, 48))
    report = lint_schedule(plan.graph, plan.schedule, plan=plan)
    assert report.ok
    assert report.rules_run
    check_static(plan.graph, plan.schedule)


def test_service_lint_gate_reads_columns_only(no_object_view):
    with GossipService(lint="error") as service:
        assert service.plan("grid:36").total_time > 0


def test_fault_paths_read_columns_only(no_object_view):
    """Lossy execution, recovery and survival, transient and permanent."""
    plan = gossip("grid:25")
    transient = execute_plan_with_faults(plan, FaultModel(seed=3, drop_rate=0.2))
    assert transient.lost
    assert recover(plan.graph, plan, transient).result.complete
    permanent = execute_plan_with_faults(
        plan, FaultModel(seed=5, drop_rate=0.1, fail_stop_rate=0.02)
    )
    assert survive(plan.graph, plan, permanent).schedule.total_time > 0


def test_replanning_and_export_read_columns_only(no_object_view):
    """Repeated gossip's offset search, the supervisor's script slicer,
    the online driver and JSON export."""
    plan = gossip("grid:16")
    assert repeated_gossip(plan.labeled, instances=2).offset > 0
    scripts = script_slices(plan.schedule, plan.total_time)
    assert sum(len(s.sends) for s in scripts.values()) == plan.schedule.total_messages()
    assert run_online_gossip(plan.labeled) == plan.schedule
    assert schedule_from_json(schedule_to_json(plan.schedule)) == plan.schedule


# ----------------------------------------------------------------------
# check_static: same exception type and text as the object walk
# ----------------------------------------------------------------------
def oracle_check_static(graph, schedule, n_messages=None):
    report = oracle_lint_schedule(
        graph, schedule, n_messages=n_messages,
        select=STATIC_MODEL_RULES, require_complete=False,
    )
    if report.errors:
        raise diagnostic_exception(report.errors[0])


def outcome(check, *args, **kwargs):
    try:
        check(*args, **kwargs)
    except ScheduleError as exc:
        return type(exc), str(exc)
    return None


def broken_corpus():
    """The fault-injection corpus of ``tests/lint/test_differential.py``."""
    tree = minimum_depth_spanning_tree(topologies.grid_2d(3, 4))
    network = tree_to_graph(tree)
    schedule = concurrent_updown(LabeledTree(tree))
    corpus = [schedule]
    corpus += [drop_round(schedule, t) for t in range(schedule.total_time)]
    corpus += [
        drop_transmission(schedule, t, i)
        for t in range(schedule.total_time)
        for i in range(len(schedule.round_at(t)))
    ]
    corpus += [swap_rounds(schedule, a, a + 1) for a in range(schedule.total_time - 1)]
    tx0 = schedule.round_at(0).transmissions[0]
    corpus += [
        corrupt_message(schedule, 0, 0, (tx0.message + 5) % network.n),
        corrupt_message(schedule, 0, 0, network.n + 7),
        redirect_to_nonneighbor(schedule, network, 1, 0),
    ]
    return network, corpus


def test_check_static_raises_as_before():
    network, corpus = broken_corpus()
    foreign = topologies.path_graph(network.n)
    raised = 0
    for schedule in corpus:
        for graph, n_messages in ((network, None), (foreign, None), (network, 6)):
            got = outcome(check_static, graph, schedule, n_messages=n_messages)
            want = outcome(oracle_check_static, graph, schedule, n_messages=n_messages)
            assert got == want
            raised += got is not None
    assert raised > len(corpus)
