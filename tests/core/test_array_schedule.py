"""The array-native schedule pipeline: structure, round-trips, parity.

Covers the :class:`~repro.core.schedule.ArraySchedule` canonical form
end to end:

* structural invariants of the flat columns and the destination-mask
  matrix, the analytic ``nbytes``, and the npz round-trip;
* losslessness of the array <-> object-view round-trip (property-tested
  over random labeled trees);
* bit-identity of the array-built ConcurrentUpDown against the
  per-vertex reference emitters across every topology family and
  random trees;
* identical diagnostics from every ``repro.lint`` rule on both forms;
* the engine judging an array-backed plan with and without a delivery
  log identically (results and error text);
* the removal of the legacy ``ScheduleBuilder`` accumulator.
"""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings

from repro.analysis.sweep import FAMILIES, family_instance
from repro.core.concurrent_updown import concurrent_updown
from repro.core.gossip import gossip
from repro.core.reference import concurrent_updown_reference
from repro.core.schedule import ArraySchedule, Schedule
from repro.exceptions import ScheduleConflictError, ScheduleError
from repro.lint import lint_schedule
from repro.networks.builders import tree_to_graph
from repro.networks.spanning_tree import minimum_depth_spanning_tree
from repro.simulator.engine import execute_schedule
from repro.simulator.state import labeled_holdings
from repro.tree.labeling import LabeledTree
from tests.conftest import labeled_trees, sched


def _plan(spec="grid:16"):
    return gossip(spec)


class TestStructure:
    def test_canonical_columns(self):
        arr = _plan().arrays()
        assert arr.round.dtype == np.int32
        assert arr.sender.dtype == np.int32
        assert arr.message.dtype == np.int32
        assert arr.dest_mask.dtype == np.uint64
        # strict (round, sender) lexicographic order
        key = arr.round.astype(np.int64) * arr.n + arr.sender
        assert np.all(np.diff(key) > 0)

    def test_nbytes_is_analytic(self):
        plan = _plan()
        arr = plan.arrays()
        words = (arr.n + 63) // 64
        expected = (
            arr.round.nbytes + arr.sender.nbytes + arr.message.nbytes
            + len(arr.round) * words * 8
        )
        assert arr.nbytes == expected

    def test_nbytes_does_not_materialise_lazy_masks(self):
        arr = _plan().arrays()
        if arr._dest_mask is not None:
            pytest.skip("mask already materialised for this build")
        _ = arr.nbytes
        assert arr._dest_mask is None

    def test_round_ptr_and_destination_pairs(self):
        arr = _plan().arrays()
        ptr = arr.round_ptr
        assert ptr[0] == 0 and ptr[-1] == len(arr.round)
        assert np.all(np.diff(ptr) >= 0)
        row, dest = arr.destination_pairs()
        assert len(row) == arr.delivery_count()
        assert np.all(np.diff(row) >= 0)
        assert dest.min() >= 0 and dest.max() < arr.n

    @pytest.mark.parametrize("spec", ["grid:16", "complete:70", "star:130", "hypercube:128"])
    def test_destination_pairs_match_the_unpacked_masks(self, spec):
        """Multi-word and dense masks: every set bit, rows in order,
        destinations ascending within a row."""
        arr = _plan(spec).arrays()
        bits = np.unpackbits(arr.dest_mask.view(np.uint8), axis=1, bitorder="little")
        want_row, want_dest = np.nonzero(bits)
        row, dest = arr.destination_pairs()
        assert row.dtype == dest.dtype == np.int64
        assert np.array_equal(row, want_row) and np.array_equal(dest, want_dest)

    def test_destination_pairs_of_an_empty_schedule(self):
        zero = np.zeros(0, dtype=np.int64)
        arr = ArraySchedule.from_events(
            zero, zero, zero, np.zeros((0, 1), dtype=np.uint64), n=5
        )
        row, dest = arr.destination_pairs()
        assert len(row) == len(dest) == 0 and row.dtype == np.int64

    def test_widen_preserves_contents(self):
        arr = _plan("path:9").arrays()
        wide = arr.widen(200)
        assert wide.n == 200
        assert np.array_equal(wide.round, arr.round)
        assert wide.dest_mask.shape[1] == (200 + 63) // 64
        with pytest.raises(ScheduleError):
            arr.widen(2)


class TestNpzRoundTrip:
    def test_lossless(self, tmp_path):
        arr = _plan().arrays()
        path = tmp_path / "sched.npz"
        arr.to_npz(path)
        back = ArraySchedule.from_npz(path)
        assert back == arr
        assert back.name == arr.name
        assert back.n == arr.n and back.n_messages == arr.n_messages

    def test_empty_schedule(self, tmp_path):
        arr = gossip("path:1").arrays()
        path = tmp_path / "empty.npz"
        arr.to_npz(path)
        back = ArraySchedule.from_npz(path)
        assert back == arr and back.total_time == 0


class TestNpzMalformed:
    """Every malformed artefact raises ``ScheduleError``, never loads."""

    @pytest.fixture
    def arr(self):
        return gossip("path:10").arrays()  # 18 rows

    def _write(self, tmp_path, arr, **override):
        fields = dict(
            round=arr.round, sender=arr.sender, message=arr.message,
            dest_mask=arr.dest_mask,
            meta=np.array([arr.n, arr.n_messages], dtype=np.int64),
            name=np.array(arr.name),
        )
        fields.update(override)
        path = tmp_path / "bad.npz"
        np.savez(path, **{k: v for k, v in fields.items() if v is not None})
        return path

    def test_short_message_column(self, tmp_path, arr):
        path = self._write(tmp_path, arr, message=arr.message[:15])
        with pytest.raises(ScheduleError, match="differ in length"):
            ArraySchedule.from_npz(path)

    def test_negative_n_messages(self, tmp_path, arr):
        path = self._write(tmp_path, arr, meta=np.array([10, -4], dtype=np.int64))
        with pytest.raises(ScheduleError, match="n_messages >= 0"):
            ArraySchedule.from_npz(path)

    def test_float_round_column(self, tmp_path, arr):
        path = self._write(tmp_path, arr, round=arr.round + 0.5)
        with pytest.raises(ScheduleError, match="expected integers"):
            ArraySchedule.from_npz(path)

    def test_round_beyond_int32(self, tmp_path, arr):
        # int64 rounds past 2**31 would wrap silently in the int32 column
        path = self._write(tmp_path, arr, round=arr.round.astype(np.int64) + 2**32)
        with pytest.raises(ScheduleError, match="exceeds int32"):
            ArraySchedule.from_npz(path)

    def test_missing_meta(self, tmp_path, arr):
        path = self._write(tmp_path, arr, meta=None)
        with pytest.raises(ScheduleError, match="meta"):
            ArraySchedule.from_npz(path)

    def test_three_entry_meta(self, tmp_path, arr):
        path = self._write(tmp_path, arr, meta=np.array([10, 10, 1], dtype=np.int64))
        with pytest.raises(ScheduleError, match="meta has shape"):
            ArraySchedule.from_npz(path)

    def test_non_zip_bytes(self, tmp_path):
        path = tmp_path / "junk.npz"
        path.write_bytes(b"this is not a zip archive at all")
        with pytest.raises(ScheduleError, match="unreadable"):
            ArraySchedule.from_npz(path)

    def test_missing_file_is_not_wrapped(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ArraySchedule.from_npz(tmp_path / "absent.npz")


class TestValidation:
    def _cols(self):
        t = np.array([0, 1], dtype=np.int64)
        s = np.array([0, 1], dtype=np.int64)
        m = np.array([0, 1], dtype=np.int64)
        return t, s, m

    def test_self_send_rejected(self):
        t, s, m = self._cols()
        masks = np.zeros((2, 1), dtype=np.uint64)
        masks[0, 0] = 1  # processor 0 multicasts to itself
        masks[1, 0] = 1
        with pytest.raises(ScheduleError):
            ArraySchedule.from_events(t, s, m, masks, n=4)

    def test_receiver_collision_rejected(self):
        t = np.array([0, 0], dtype=np.int64)
        s = np.array([0, 1], dtype=np.int64)
        m = np.array([0, 1], dtype=np.int64)
        masks = np.zeros((2, 1), dtype=np.uint64)
        masks[0, 0] = 1 << 2
        masks[1, 0] = 1 << 2  # processor 2 receives twice in round 0
        with pytest.raises(ScheduleConflictError):
            ArraySchedule.from_events(t, s, m, masks, n=4)

    def test_lazy_mask_validation_is_deferred(self):
        t, s, m = self._cols()

        def bad_masks():
            masks = np.zeros((2, 1), dtype=np.uint64)
            masks[0, 0] = 1  # self-send, only discovered on materialise
            masks[1, 0] = 1 << 2
            return masks

        fans = np.array([1, 1], dtype=np.int64)
        arr = ArraySchedule._from_canonical(
            t.astype(np.int32), s.astype(np.int32), m.astype(np.int32),
            None, fans, n=4, mask_builder=bad_masks,
        )
        with pytest.raises(ScheduleError):
            _ = arr.dest_mask


class TestInt32Range:
    """Ids outside int32 are refused, never wrapped, on every way in."""

    def test_from_sends_round_beyond_int32(self):
        with pytest.raises(ScheduleError, match="round column exceeds int32"):
            ArraySchedule.from_sends([(2**32 + 1, 0, 0, (1,))], n=2)

    def test_from_sends_message_beyond_int32(self):
        with pytest.raises(ScheduleError, match="message column exceeds int32"):
            ArraySchedule.from_sends([(0, 0, 2**32 + 3, (1,))], n=2)

    def test_from_sends_id_beyond_int64(self):
        with pytest.raises(ScheduleError, match="exceed int32"):
            ArraySchedule.from_sends([(0, 0, 2**70, (1,))], n=2)

    def test_from_events_round_beyond_int32(self):
        masks = np.array([[2]], dtype=np.uint64)
        with pytest.raises(ScheduleError, match="round column exceeds int32"):
            ArraySchedule.from_events(
                np.array([2**31]), np.array([0]), np.array([0]), masks, n=2
            )

    def test_direct_sender_beyond_int32(self):
        masks = np.array([[2]], dtype=np.uint64)
        with pytest.raises(ScheduleError, match="sender column exceeds int32"):
            ArraySchedule([0], [2**32], [0], masks, n=2)

    def test_negative_message_below_int32(self):
        masks = np.array([[2]], dtype=np.uint64)
        with pytest.raises(ScheduleError, match="message column exceeds int32"):
            ArraySchedule([0], [0], [-(2**31) - 1], masks, n=2)

    def test_int32_extremes_are_kept(self):
        arr = ArraySchedule.from_sends(
            [(0, 0, -(2**31), (1,)), (1, 1, 2**31 - 1, (0,))], n=2
        )
        assert arr.message.tolist() == [-(2**31), 2**31 - 1]


class TestLateRounds:
    """Construction costs O(rows), whatever the largest round id."""

    def test_one_late_send_allocates_little(self):
        tracemalloc.start()
        try:
            arr = ArraySchedule.from_sends([(2**20, 0, 0, (1,))], n=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert arr.total_time == 2**20 + 1
        assert peak < 1 << 20

    def test_largest_round_id_constructs(self):
        arr = ArraySchedule.from_sends([(2**31 - 1, 0, 0, (1,))], n=2)
        assert arr.total_time == 2**31
        assert arr.round.tolist() == [2**31 - 1]

    def test_late_receiver_collision_names_the_receiver(self):
        late = 2**31 - 1
        with pytest.raises(ScheduleConflictError) as info:
            ArraySchedule.from_sends(
                [(late, 0, 0, (1,)), (late, 2, 2, (1, 3))], n=4
            )
        assert str(info.value) == (
            "processor 1 receives two messages in one round: 0 and 2"
        )


class TestFacadeLaziness:
    def test_counters_answer_from_arrays(self):
        plan = _plan()
        sched = plan.schedule
        assert sched._rounds is None
        _ = sched.total_time
        _ = sched.total_deliveries()
        _ = sched.max_fan_out()
        assert sched._rounds is None  # nothing materialised yet
        _ = sched.rounds
        assert sched._rounds is not None

    def test_plan_accessors(self):
        plan = _plan()
        arr = plan.arrays()
        assert isinstance(arr, ArraySchedule)
        assert plan.rounds() == plan.schedule.rounds
        assert arr is plan.schedule.arrays()

    def test_facade_equals_object_schedule(self):
        plan = _plan("path:8")
        objects = sched(*plan.schedule.rounds, n=plan.graph.n, name=plan.schedule.name)
        assert plan.schedule == objects


@given(labeled=labeled_trees(max_n=24))
@settings(max_examples=40, deadline=None)
def test_array_object_round_trip_lossless(labeled):
    """arrays -> rounds -> arrays is the identity (property-tested)."""
    arr = concurrent_updown(labeled).arrays()
    rebuilt = ArraySchedule.from_sends(
        (
            (t, tx.sender, tx.message, tx.destinations)
            for t, rnd in enumerate(arr.build_rounds())
            for tx in rnd
        ),
        n=arr.n, n_messages=arr.n_messages, name=arr.name,
    )
    assert rebuilt == arr
    assert ArraySchedule.from_sends(
        arr.sends(), n=arr.n, n_messages=arr.n_messages, name=arr.name
    ) == arr


@given(labeled=labeled_trees(max_n=24))
@settings(max_examples=40, deadline=None)
def test_array_pipeline_matches_seed_builder_random(labeled):
    """Round-for-round bit-identity on hypothesis-random trees."""
    fast = concurrent_updown(labeled)
    seed = concurrent_updown_reference(labeled)
    assert fast.rounds == seed.rounds
    assert fast.arrays() == seed.arrays()


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_array_pipeline_matches_seed_builder_families(family):
    """Round-for-round bit-identity on every topology family."""
    graph = family_instance(family, 24)
    labeled = LabeledTree(minimum_depth_spanning_tree(graph, method="pruned"))
    fast = concurrent_updown(labeled)
    seed = concurrent_updown_reference(labeled)
    assert fast.arrays() == seed.arrays()
    assert fast.rounds == seed.rounds


class TestLintDifferential:
    @pytest.mark.parametrize("spec", ["grid:16", "path:12", "star:10", "random:24"])
    def test_identical_diagnostics_on_both_forms(self, spec):
        """Every lint rule judges the arrays, the facade and the raw
        object rounds identically."""
        plan = gossip(spec)
        on_arrays = lint_schedule(plan.graph, plan.arrays(), plan=plan)
        on_facade = lint_schedule(plan.graph, plan.schedule, plan=plan)
        on_objects = lint_schedule(plan.graph, list(plan.rounds()), plan=plan)
        assert len(on_arrays.rules_run) == 18
        assert on_arrays.rules_run == on_facade.rules_run == on_objects.rules_run
        assert on_arrays.diagnostics == on_facade.diagnostics == on_objects.diagnostics
        assert on_arrays.name == on_facade.name


class TestPackedStateParity:
    @pytest.mark.parametrize("spec", ["grid:25", "path:17", "random:32"])
    def test_fast_path_matches_object_engine(self, spec):
        plan = gossip(spec)
        holds = labeled_holdings(plan.labeled.labels())
        fast = execute_schedule(
            plan.graph, plan.schedule, initial_holds=holds,
            require_complete=True,
        )
        slow = execute_schedule(
            plan.graph, plan.schedule, initial_holds=holds,
            require_complete=True, record_arrivals=True,
        )
        assert fast.completion_times == slow.completion_times
        assert fast.duplicate_deliveries == slow.duplicate_deliveries
        assert fast.final_holds == slow.final_holds
        assert fast.makespan == slow.makespan

    def test_fast_path_reports_possession_violation(self):
        """Same error text as the object engine, receive-before-send."""
        plan = gossip("path:6")
        wrong_holds = [1 << 0] * plan.graph.n  # nobody holds their label
        with pytest.raises(Exception) as fast_err:
            execute_schedule(plan.graph, plan.schedule, initial_holds=wrong_holds)
        with pytest.raises(Exception) as slow_err:
            execute_schedule(
                plan.graph, plan.schedule, initial_holds=wrong_holds,
                record_arrivals=True,
            )
        assert str(fast_err.value) == str(slow_err.value)
        assert type(fast_err.value) is type(slow_err.value)


class TestDeprecations:
    def test_from_schedule_shim_is_gone(self):
        """``ScheduleBuilder``, ``ArraySchedule.from_schedule``,
        ``Schedule.is_array_backed``, ``HoldState`` and
        ``TelephonePolicy`` are gone; ``Schedule`` wraps arrays only."""
        import repro
        import repro.core
        import repro.core.schedule
        import repro.simulator

        for namespace in (repro, repro.core, repro.core.schedule):
            assert not hasattr(namespace, "ScheduleBuilder")
            assert not hasattr(namespace, "TelephonePolicy")
        with pytest.raises(ImportError):
            from repro.core.schedule import ScheduleBuilder  # noqa: F401
        assert not hasattr(ArraySchedule, "from_schedule")
        assert not hasattr(Schedule, "is_array_backed")
        assert not hasattr(repro.simulator, "HoldState")
        with pytest.raises(ScheduleError, match="wraps an ArraySchedule"):
            Schedule(_plan("path:6").rounds())

    def test_builder_builds_arrays_underneath(self):
        """The producers that used the builder pack straight to arrays."""
        for algorithm in ("simple", "updown", "concurrent-updown"):
            plan = gossip("grid:9", algorithm=algorithm)
            assert plan.schedule._rounds is None
            assert plan.arrays().n == 9

    def test_object_constructed_schedule_does_not_warn(self):
        """Packing the object view's sends back is warning-free."""
        plan = _plan("path:6")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            objects = sched(*plan.rounds(), n=plan.graph.n, name="objects")
        assert objects == plan.schedule
