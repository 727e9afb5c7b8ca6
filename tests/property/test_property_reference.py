"""Unit tests of the naive reference executor (``tests/simulator/reference.py``).

Its agreement with the engine, the null-model lossy executor and the
lint oracle is checked in ``tests/property/test_property_executors.py``.
"""

import pytest

from repro.exceptions import ModelViolationError
from repro.networks import topologies
from tests.simulator.reference import reference_execute


class TestReferenceUnit:
    def test_trivial(self):
        from repro.core.schedule import Round, Schedule, Transmission

        g = topologies.path_graph(2)
        s = Schedule(
            [
                Round(
                    [
                        Transmission(sender=0, message=0, destinations=frozenset({1})),
                        Transmission(sender=1, message=1, destinations=frozenset({0})),
                    ]
                )
            ]
        )
        result = reference_execute(g, s)
        assert result.complete
        assert result.completion_times == (1, 1)

    def test_possession_violation(self):
        from repro.core.schedule import Round, Schedule, Transmission

        g = topologies.path_graph(2)
        s = Schedule(
            [Round([Transmission(sender=0, message=1, destinations=frozenset({1}))])]
        )
        with pytest.raises(ModelViolationError, match="lacks"):
            reference_execute(g, s)

    def test_adjacency_violation(self):
        from repro.core.schedule import Round, Schedule, Transmission

        g = topologies.path_graph(3)
        s = Schedule(
            [Round([Transmission(sender=0, message=0, destinations=frozenset({2}))])]
        )
        with pytest.raises(ModelViolationError, match="not a link"):
            reference_execute(g, s)
