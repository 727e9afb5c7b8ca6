"""The model's offline reference reads the schedule's columns only.

:meth:`ProtocolModel.offline_records` (computed once per model) and
:meth:`GossipPlan.holds_at` (the truncated-schedule holds the supervisor
reconstructs SIGKILLed peers with, and the explorer checks abort states
against) read the columns of ``plan.schedule``; exploring never builds
the ``Transmission`` object view (:attr:`Schedule.rounds` is
monkeypatched to raise).  Both must still agree with a walk over that
object view.
"""

import pytest

from repro.check.explore import explore, plan_for
from repro.check.model import ProtocolModel, SentRecord
from repro.core.schedule import Schedule


@pytest.fixture
def no_object_view(monkeypatch):
    def refuse(self):
        raise AssertionError("the model materialised the Transmission object view")

    monkeypatch.setattr(Schedule, "rounds", property(refuse))


@pytest.mark.parametrize("crash", [(), ((1, 2),)])
def test_exploration_reads_columns_only(crash, no_object_view):
    plan = plan_for("path", 4)
    report = explore(ProtocolModel(plan, crash=crash))
    assert report.ok, report.counterexample
    assert report.quiescent == {"wavefront" if crash else "complete": 1}


@pytest.mark.parametrize("spec", [("path", 4), ("star", 5), ("binary-tree", 7)])
def test_columns_agree_with_the_object_view(spec):
    plan = plan_for(*spec)
    model = ProtocolModel(plan)
    rounds = plan.schedule.rounds
    assert model.offline_records() == frozenset(
        SentRecord(round=t, sender=tx.sender, message=tx.message,
                   destinations=tuple(sorted(tx.destinations)))
        for t, rnd in enumerate(rounds) for tx in rnd
    )
    for v in range(model.n):
        for death in range(plan.total_time + 2):
            holds = 1 << model.labels[v]
            for rnd in rounds[:death]:
                for tx in rnd:
                    if v in tx.destinations:
                        holds |= 1 << tx.message
            assert plan.holds_at(v, death) == holds
