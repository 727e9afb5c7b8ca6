"""Memoised peer-local transitions are exact.

A :class:`~repro.check.model.ProtocolModel` caches every peer-local
computation (step, delivery, step-enabledness, barrier over-admission)
keyed on the peer's own view.  Those caches must be invisible: on every
state the explorer reaches, a warm model — one whose caches were filled
by the whole exploration — must answer exactly what a fresh, cold model
answers, successor and rendered violations alike.
"""

import pytest

from repro.check.explore import explore, plan_for
from repro.check.model import ProtocolModel

SCENARIOS = [
    ("star", 4, ()),
    ("star", 4, ((0, 3),)),
    ("star", 4, ((3, 1),)),
    ("path", 4, ()),
    ("path", 4, ((0, 3),)),
    ("path", 4, ((3, 1),)),
]


def reached_states(model):
    """Explore ``model`` and return every state the explorer expanded."""
    states = []
    enabled = model.enabled

    def recording(state):
        states.append(state)
        return enabled(state)

    model.enabled = recording
    try:
        report = explore(model)
    finally:
        del model.enabled
    assert report.ok, report.counterexample
    return states


@pytest.mark.parametrize("family,n,crash", SCENARIOS)
def test_warm_model_answers_like_a_cold_one(family, n, crash):
    plan = plan_for(family, n)
    warm = ProtocolModel(plan, crash=crash)
    states = reached_states(warm)
    assert len(states) == explore(ProtocolModel(plan, crash=crash)).states
    probes = 0
    for state in states:
        for action in warm.enabled(state):
            cold = ProtocolModel(plan, crash=crash)
            assert warm.apply(state, action) == cold.apply(state, action)
            probes += 1
        for v in range(warm.n):
            cold = ProtocolModel(plan, crash=crash)
            assert warm.step_enabled(state, v) == cold.step_enabled(state, v)
            assert (warm.barrier_overadmission(state, v)
                    == cold.barrier_overadmission(state, v))
    assert probes >= len(states) - 1


@pytest.mark.parametrize("family,n,crash", SCENARIOS)
def test_reexploring_with_one_model_is_identical(family, n, crash):
    model = ProtocolModel(plan_for(family, n), crash=crash)
    first = explore(model)
    second = explore(model)
    assert first.ok
    assert first == second
    if crash:
        assert first.abort_state is not None


def test_warm_mutated_model_finds_the_same_counterexample():
    # fence_skew is a model constant, so the caches of a mutated model
    # hold the mutated steps: re-exploring refutes it again, identically
    model = ProtocolModel(plan_for("path", 4), fence_skew=1)
    first = explore(model)
    assert not first.ok
    assert explore(model) == first
