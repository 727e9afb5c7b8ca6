"""Unit tests of the naive reference executor (``tests/simulator/reference.py``).

Its agreement with the engine, the null-model lossy executor and the
lint oracle is checked in ``tests/property/test_property_executors.py``.
"""

import pytest

from repro.exceptions import ModelViolationError
from repro.networks import topologies
from tests.conftest import sched, tx
from tests.simulator.reference import reference_execute


class TestReferenceUnit:
    def test_trivial(self):
        g = topologies.path_graph(2)
        s = sched([tx(0, 0, {1}), tx(1, 1, {0})])
        result = reference_execute(g, s)
        assert result.complete
        assert result.completion_times == (1, 1)

    def test_possession_violation(self):
        g = topologies.path_graph(2)
        s = sched([tx(0, 1, {1})])
        with pytest.raises(ModelViolationError, match="lacks"):
            reference_execute(g, s)

    def test_adjacency_violation(self):
        g = topologies.path_graph(3)
        s = sched([tx(0, 0, {2})])
        with pytest.raises(ModelViolationError, match="not a link"):
            reference_execute(g, s)
