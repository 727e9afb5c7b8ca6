"""Differential tests: the static analyzer vs the dynamic validator.

Two claims, both required by the issue:

1. **Agreement** — on every deliberately-broken schedule the
   fault-injection suite produces (``tests/simulator/test_faults.py``
   mutators), ``lint_schedule`` reports an error-severity diagnostic
   exactly when ``validate_schedule`` raises, with the right rule id and
   round locus.
2. **Execution-freedom** — producing those verdicts never imports the
   execution engine: the ``repro.lint`` package has no static import of
   ``repro.simulator``, and running the analyzer does not (re)load any
   ``repro.simulator*`` module.
"""

import ast
import pathlib
import sys

import pytest

import repro.lint
from repro.core.concurrent_updown import concurrent_updown
from repro.exceptions import (
    IncompleteGossipError,
    ModelViolationError,
    ScheduleError,
)
from repro.lint import lint_schedule
from repro.networks import topologies
from repro.networks.builders import tree_to_graph
from repro.networks.spanning_tree import minimum_depth_spanning_tree
from repro.simulator.faults import (
    corrupt_message,
    drop_round,
    drop_transmission,
    redirect_to_nonneighbor,
    swap_rounds,
)
from repro.simulator.state import labeled_holdings
from repro.simulator.validator import validate_schedule
from repro.tree.labeling import LabeledTree
from tests.conftest import schedule_prefix


@pytest.fixture(scope="module")
def setup():
    """The exact fixture of ``tests/simulator/test_faults.py``."""
    tree = minimum_depth_spanning_tree(topologies.grid_2d(3, 4))
    labeled = LabeledTree(tree)
    schedule = concurrent_updown(labeled)
    network = tree_to_graph(tree)
    holds = labeled_holdings(labeled.labels())
    return network, schedule, holds


def dynamic_verdict(network, schedule, holds):
    """True if the engine-backed validator accepts the schedule."""
    try:
        validate_schedule(network, schedule, initial_holds=holds)
    except (ScheduleError,):
        return False
    return True


def static_verdict(network, schedule, holds):
    report = lint_schedule(
        network, schedule, initial_holds=holds, select=["model"]
    )
    return report.ok, report


class TestAgreement:
    def test_unperturbed_agrees(self, setup):
        network, schedule, holds = setup
        ok, report = static_verdict(network, schedule, holds)
        assert ok
        assert dynamic_verdict(network, schedule, holds)

    def test_every_dropped_round_agrees(self, setup):
        network, schedule, holds = setup
        for index in range(schedule.total_time):
            broken = drop_round(schedule, index)
            ok, report = static_verdict(network, broken, holds)
            dyn = dynamic_verdict(network, broken, holds)
            assert ok == dyn, f"disagreement at dropped round {index}"
            assert not ok, f"dropping round {index} went undetected"

    def test_every_dropped_transmission_agrees(self, setup):
        network, schedule, holds = setup
        for t in range(schedule.total_time):
            for i in range(len(schedule.round_at(t))):
                broken = drop_transmission(schedule, t, i)
                ok, _ = static_verdict(network, broken, holds)
                assert ok == dynamic_verdict(network, broken, holds)

    def test_corrupt_message_agrees_with_locus(self, setup):
        network, schedule, holds = setup
        tx0 = schedule.round_at(0).transmissions[0]
        wrong = (tx0.message + 5) % network.n
        broken = corrupt_message(schedule, 0, 0, wrong)
        ok, report = static_verdict(network, broken, holds)
        assert not ok and not dynamic_verdict(network, broken, holds)
        # the forged send is flagged at its true locus: round 0
        possession = report.by_rule("model/send-without-hold")
        assert any(d.round == 0 and d.message_id == wrong for d in possession)

    def test_redirect_agrees_with_rule_id(self, setup):
        network, schedule, holds = setup
        broken = redirect_to_nonneighbor(schedule, network, 1, 0)
        ok, report = static_verdict(network, broken, holds)
        assert not ok and not dynamic_verdict(network, broken, holds)
        assert report.by_rule("model/non-edge")
        assert all(d.round == 1 for d in report.by_rule("model/non-edge"))

    def test_every_adjacent_swap_agrees(self, setup):
        network, schedule, holds = setup
        for a in range(schedule.total_time - 1):
            broken = swap_rounds(schedule, a, a + 1)
            ok, _ = static_verdict(network, broken, holds)
            assert ok == dynamic_verdict(network, broken, holds), (
                f"disagreement after swapping rounds {a} and {a + 1}"
            )

    def test_out_of_range_message_now_caught_statically(self, setup):
        """The satellite bugfix, differentially: the engine used to be
        the only layer rejecting a forged message id."""
        network, schedule, holds = setup
        broken = corrupt_message(schedule, 0, 0, network.n + 7)
        ok, report = static_verdict(network, broken, holds)
        assert not ok
        assert report.by_rule("model/message-range")
        with pytest.raises(ScheduleError):
            validate_schedule(network, broken, initial_holds=holds)

    def test_incomplete_maps_to_same_exception_family(self, setup):
        network, schedule, holds = setup
        truncated = schedule_prefix(schedule, schedule.total_time // 2)
        ok, report = static_verdict(network, truncated, holds)
        errors = {d.rule for d in report.errors}
        try:
            validate_schedule(network, truncated, initial_holds=holds)
            pytest.fail("engine accepted a truncated schedule")
        except IncompleteGossipError:
            assert "model/incomplete-gossip" in errors
        except ModelViolationError:
            assert errors & {"model/send-without-hold", "model/non-edge"}


class TestExecutionFree:
    LINT_DIR = pathlib.Path(repro.lint.__file__).parent

    def test_no_static_import_of_simulator(self):
        """No file in repro.lint imports repro.simulator, even lazily."""
        for path in self.LINT_DIR.glob("*.py"):
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    names = [a.name for a in node.names]
                elif isinstance(node, ast.ImportFrom):
                    mod = node.module or ""
                    # resolve relative imports against the package
                    names = [f"{'repro.' if node.level else ''}{mod}"]
                else:
                    continue
                for name in names:
                    assert "simulator" not in name, (
                        f"{path.name} imports {name!r}"
                    )

    def test_linting_never_loads_the_engine(self, setup):
        """Even at runtime: drop every repro.simulator* module from
        sys.modules, lint a broken schedule, and verify none returned.

        (A subprocess test is impossible — ``import repro`` itself pulls
        in the engine — so this isolates the analyzer's own behavior.)
        """
        network, schedule, holds = setup
        broken = drop_round(schedule, 2)
        saved = {
            name: sys.modules.pop(name)
            for name in list(sys.modules)
            if name == "repro.simulator" or name.startswith("repro.simulator.")
        }
        assert saved, "fixture should have loaded the simulator already"
        try:
            report = lint_schedule(network, broken, initial_holds=holds)
            assert not report.ok
            reloaded = [
                name for name in sys.modules
                if name == "repro.simulator" or name.startswith("repro.simulator.")
            ]
            assert reloaded == [], f"lint_schedule imported {reloaded}"
        finally:
            sys.modules.update(saved)
