"""Exhaustive small-scope exploration of the protocol model.

The full committed matrix (path/star/complete × 3..5) runs in CI via
``cli check-protocol --check``; tier-1 pins the n=3 column (and one n=4
instance) against the committed ``CHECK_protocol.json`` so state-count
drift — a changed model is a changed specification — fails fast.
Fault-free ``binary-tree:7`` (height 2) is the first branching depth-2
tree under the checker; its counts are pinned here, not in the matrix.
"""

import json
import pathlib

import pytest

from repro.check import check_family, parse_family_spec
from repro.check.explore import DEFAULT_BUDGET, explore, plan_for
from repro.check.model import ProtocolModel
from repro.exceptions import ProtocolCheckError

REPO = pathlib.Path(__file__).resolve().parents[2]
COMMITTED = json.loads((REPO / "CHECK_protocol.json").read_text())


class TestFaultFreeExploration:
    def test_path3_reaches_all_hold_all_everywhere(self):
        model = ProtocolModel(plan_for("path", 3))
        report = explore(model)
        assert report.ok, report.counterexample
        assert report.quiescent.get("complete", 0) > 0
        assert report.quiescent.get("wavefront", 0) == 0
        assert report.quiescent.get("deadlock", 0) == 0

    def test_fault_free_terminals_match_offline_schedule(self):
        # explore() self-checks every complete terminal against
        # offline_records(); a clean report certifies the agreement.
        for family in ("path", "star", "complete"):
            model = ProtocolModel(plan_for(family, 4))
            report = explore(model)
            assert report.ok, (family, report.counterexample)


class TestBranchingDepthTwoTree:
    def test_binary_tree7_explores_clean_to_the_offline_schedule(self):
        plan = plan_for("binary-tree", 7)
        assert (plan.labeled.n, plan.tree.height, plan.total_time) == (7, 2, 9)
        model = ProtocolModel(plan)
        report = explore(model)
        assert report.ok, report.counterexample
        assert report.fallback_states == 0
        assert (report.states, report.transitions) == (38_779, 56_140)
        assert report.quiescent == {"complete": 1}
        # every run reaches the unique terminal; follow one to it
        state = model.initial()
        while model.enabled(state):
            state, violations = model.apply(state, model.enabled(state)[0])
            assert violations == ()
        assert model.classify_quiescent(state) == ("complete", ())
        assert state.sent == model.offline_records()


class TestCrashExploration:
    @pytest.mark.parametrize("spec", ["path:3", "star:3", "complete:3", "star:4"])
    def test_matches_committed_matrix(self, spec):
        family, n = parse_family_spec(spec)
        result = check_family(family, n, crashes=1)
        assert result.ok, result.counterexample
        assert result.summary() == COMMITTED["families"][spec]

    def test_crash_scenarios_reach_unique_wavefront_aborts(self):
        result = check_family("path", 3, crashes=1)
        assert result.ok
        # every crashing scenario quiesces at a wavefront abort, the
        # fault-free one at all-hold-all
        assert result.wavefront_terminals > 0
        assert result.complete_terminals > 0

    def test_no_por_fallbacks(self):
        # the ample-set certification never fails on the real model
        result = check_family("star", 3, crashes=1)
        assert result.fallback_states == 0

    def test_committed_matrix_is_self_consistent(self):
        assert COMMITTED["ok"] is True
        assert COMMITTED["budget"] == DEFAULT_BUDGET
        assert set(COMMITTED["families"]) == {
            f"{fam}:{n}"
            for fam in ("path", "star", "complete")
            for n in (3, 4, 5)
        }
        for spec, summary in COMMITTED["families"].items():
            assert summary["fallback_states"] == 0, spec
            assert summary["states"] <= DEFAULT_BUDGET, spec


class TestInfrastructureErrors:
    def test_budget_exceeded_is_typed(self):
        with pytest.raises(ProtocolCheckError):
            check_family("path", 5, crashes=0, budget=50)

    @pytest.mark.parametrize("spec", ["path", "path:", "path:1", "path:99",
                                      "nosuch:4", "path:four"])
    def test_bad_family_spec_is_typed(self, spec):
        with pytest.raises(ProtocolCheckError):
            parse_family_spec(spec)

    def test_crash_victim_out_of_range_is_typed(self):
        with pytest.raises(ProtocolCheckError):
            ProtocolModel(plan_for("path", 3), crash=((7, 0),))
