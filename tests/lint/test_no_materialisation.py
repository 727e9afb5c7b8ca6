"""Linting array-backed plans never builds the ``Transmission`` object view.

The driver reads :class:`~repro.core.schedule.ArraySchedule` columns
directly, so :meth:`ArraySchedule.build_rounds` is monkeypatched to raise
while plans are linted through every front door: ``plan.schedule``,
``plan.arrays()``, :func:`~repro.simulator.validator.check_static` and
the service's lint gate.  ``check_static`` must also keep raising the
same exception types with byte-identical text on the broken-schedule
corpus of ``tests/lint/test_differential.py``.
"""

import pytest

from repro.analysis.sweep import family_instance
from repro.core.concurrent_updown import concurrent_updown
from repro.core.gossip import gossip
from repro.core.schedule import ArraySchedule
from repro.exceptions import ScheduleError
from repro.lint import STATIC_MODEL_RULES, diagnostic_exception, lint_schedule
from repro.networks import topologies
from repro.networks.builders import tree_to_graph
from repro.networks.spanning_tree import minimum_depth_spanning_tree
from repro.service import GossipService
from repro.simulator.faults import (
    corrupt_message,
    drop_round,
    drop_transmission,
    redirect_to_nonneighbor,
    swap_rounds,
)
from repro.simulator.validator import check_static
from repro.tree.labeling import LabeledTree

from tests.lint.oracle import oracle_lint_schedule


@pytest.fixture
def no_object_view(monkeypatch):
    def refuse(self):
        raise AssertionError("lint materialised the Transmission object view")

    monkeypatch.setattr(ArraySchedule, "build_rounds", refuse)


@pytest.mark.parametrize("family", ["grid", "random", "hypercube", "star"])
def test_lint_reads_columns_only(family, no_object_view):
    plan = gossip(family_instance(family, 48))
    assert plan.schedule.is_array_backed
    for schedule in (plan.schedule, plan.arrays()):
        report = lint_schedule(plan.graph, schedule, plan=plan)
        assert report.ok
        assert report.rules_run
    check_static(plan.graph, plan.schedule)
    check_static(plan.graph, plan.arrays())


def test_service_lint_gate_reads_columns_only(no_object_view):
    with GossipService(lint="error") as service:
        assert service.plan("grid:36").total_time > 0


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
            packed = outcome(check_static, graph, schedule.arrays(), n_messages=n_messages)
            assert packed == want
    assert raised > len(corpus)
