"""Self-tests of the benchmark harness: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import itertools
import pathlib
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import workloads  # noqa: E402
from harness import (REFERENCE_NOMINAL_S, Span, host_scale, layer_self_totals,  # noqa: E402
                     median, nearest_rank, self_times, tail, windows)


# ----------------------------------------------------------------------
# Percentiles
# ----------------------------------------------------------------------
def test_nearest_rank_picks_a_sample_at_rank_ceil_qn() -> None:
    values = [float(v) for v in range(1, 101)]  # 1..100, shuffled below
    shuffled = values[50:] + values[:50]
    assert nearest_rank(shuffled, 50) == 50.0
    assert nearest_rank(shuffled, 99) == 99.0
    assert nearest_rank(shuffled, 99.5) == 100.0
    assert nearest_rank(shuffled, 100) == 100.0
    assert nearest_rank(shuffled, 0.1) == 1.0
    assert nearest_rank([3.0, 1.0, 2.0], 50) == 2.0
    assert median([4.0, 1.0, 3.0, 2.0]) == 2.0  # rank ceil(2) = 2, no interpolation


def test_nearest_rank_rejects_bad_input() -> None:
    with pytest.raises(ValueError):
        nearest_rank([], 50)
    with pytest.raises(ValueError):
        nearest_rank([1.0], 0)
    with pytest.raises(ValueError):
        nearest_rank([1.0], 101)


def test_tail_leaves_exactly_ten_samples_beyond() -> None:
    values = [float(v) for v in range(1, 101)]
    value, pct, n = tail(values)
    assert (value, pct, n) == (90.0, 90.0, 100)
    assert sum(v > value for v in values) == 10
    # The reported percentile's nearest rank is the tail sample itself.
    assert nearest_rank(values, pct) == value

    value, pct, n = tail([float(v) for v in range(1000)])
    assert (value, n) == (989.0, 1000) and pct == pytest.approx(99.0)

    value, pct, n = tail([5.0] * 3 + [1.0] * 8)  # 11 samples: the smallest
    assert (value, n) == (1.0, 11) and pct == pytest.approx(100 / 11)


def test_windows_are_the_fewest_whole_passes_reaching_the_minimum() -> None:
    passes = [[1.0] * 40, [2.0] * 40, [3.0] * 40, [4.0] * 40, [5.0] * 10]
    cut = windows(passes, min_ops=70)
    assert [len(w) for w in cut] == [80, 90]  # the 50-sample remainder joins the last
    assert cut[1] == [3.0] * 40 + [4.0] * 40 + [5.0] * 10
    assert windows([[1.0] * 5, [2.0] * 5], min_ops=70) == [[1.0] * 5 + [2.0] * 5]
    assert windows([[1.0] * 100, []], min_ops=100) == [[1.0] * 100]


def test_window_means_move_with_the_share_of_slow_passes() -> None:
    fast, slow = [1.0] * 60, [2.0] * 60
    cut = windows([fast, fast, slow], min_ops=60)
    assert sum(median(w) for w in cut) / len(cut) == pytest.approx(4 / 3)
    # The median over the whole run stays in the fast phase for any slow share below half.
    assert median(fast * 2 + slow) == 1.0


def test_host_scale_scales_only_the_cpu_share() -> None:
    slow = [1.5 * REFERENCE_NOMINAL_S, 2.5 * REFERENCE_NOMINAL_S]  # mean: twice nominal
    assert host_scale(slow, 1.0) == pytest.approx(2.0)
    assert host_scale(slow, 0.25) == pytest.approx(1.25)  # timers do not slow down
    assert host_scale(slow, 0.0) == pytest.approx(1.0)
    assert host_scale(slow, 1.3) == pytest.approx(2.0)  # shares are clamped to [0, 1]
    assert host_scale([REFERENCE_NOMINAL_S], 1.0) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        host_scale([], 1.0)


def test_run_ops_splits_latencies_by_pass() -> None:
    check = workloads.Check(1)
    tally = workloads.run_ops(check.session(), check.ops(), pass_size=check.pass_size,
                              count=check.pass_size)
    assert tally.failed == 0
    assert [len(p) for p in tally.passes] == [check.pass_size]
    assert tally.passes[0] == tally.latencies
    assert 0.0 < tally.cpu and tally.reference == []  # untimed: no host reference


def test_timed_run_interleaves_the_host_reference() -> None:
    check = workloads.Check(1)
    tally = workloads.run_ops(check.session(), check.ops(), pass_size=check.pass_size,
                              seconds=1.0)
    assert tally.failed == 0 and len(tally.passes) == 1
    assert len(tally.reference) >= 1 and all(t > 0 for t in tally.reference)


def test_tail_needs_more_than_ten_samples() -> None:
    with pytest.raises(ValueError):
        tail([1.0] * 10)


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
def test_self_time_subtracts_covered_child_time() -> None:
    spans = [
        Span("op.a", 0.0, 10.0, None, 1),        # 0: root
        Span("core.plan", 1.0, 4.0, 0, 1),       # 1: child of 0
        Span("networks.sweep", 1.5, 2.5, 1, 1),  # 2: grandchild
        Span("lint.lint", 5.0, 9.0, 0, 1),       # 3: child of 0
        Span("op.b", 20.0, 21.0, None, 2),       # 4: childless root
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0, 1.0])
    assert layer_self_totals(spans) == pytest.approx(
        {"op": 4.0, "core": 2.0, "networks": 1.0, "lint": 4.0})


def test_self_time_counts_overlapping_children_once() -> None:
    spans = [
        Span("op", 0.0, 10.0, None, 1),
        Span("a", 2.0, 6.0, 0, 1),
        Span("b", 4.0, 8.0, 0, 1),      # overlaps a on [4, 6]
        Span("c", 9.0, 12.0, 0, 1),     # runs past its parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


# ----------------------------------------------------------------------
# Seeded inputs and exact counts
# ----------------------------------------------------------------------
def serve_counts(seed: int, ops: int = 300) -> tuple:
    serve = workloads.Serve(seed)
    session = serve.session()
    tally = workloads.run_ops(session, serve.ops(), pass_size=serve.pass_size, count=ops)
    stats = session.service.stats()
    session.close()
    return (tally.failed, stats.hits, stats.misses, stats.evictions, stats.patched,
            stats.invalidations, stats.rebuilds)


def certify_counts(seed: int) -> tuple:
    certify = workloads.Certify(seed)
    session = certify.session()
    tally = workloads.run_ops(session, certify.ops(), pass_size=certify.pass_size, count=2)
    return tally.failed, session.transmissions, session.warnings, session.errors


def check_counts(seed: int) -> tuple:
    check = workloads.Check(seed)
    session = check.session()
    tally = workloads.run_ops(session, check.ops(), pass_size=check.pass_size, count=12)
    return tally.failed, session.states, session.transitions, session.ample


def test_same_seed_gives_the_same_stream_and_counts() -> None:
    first = list(itertools.islice(workloads.Serve(5).ops(), 2000))
    again = list(itertools.islice(workloads.Serve(5).ops(), 2000))
    assert first == again
    assert workloads.Serve(5).networks == workloads.Serve(5).networks
    counts = serve_counts(5)
    assert counts == serve_counts(5) and counts[0] == 0
    assert certify_counts(5) == certify_counts(5)
    assert check_counts(5) == check_counts(5)


def test_another_seed_gives_another_stream() -> None:
    first = list(itertools.islice(workloads.Serve(5).ops(), 2000))
    other = list(itertools.islice(workloads.Serve(6).ops(), 2000))
    assert first != other
    assert workloads.Serve(5).networks != workloads.Serve(6).networks
    a = [(key, scenario) for _, (key, _, scenario) in itertools.islice(workloads.Check(5).ops(), 79)]
    b = [(key, scenario) for _, (key, _, scenario) in itertools.islice(workloads.Check(6).ops(), 79)]
    assert a != b and sorted(a) == sorted(b)


def test_serve_stream_keeps_its_mix_in_every_block() -> None:
    serve = workloads.Serve(1)
    block = workloads.SERVE_BLOCK
    stream = list(itertools.islice(serve.ops(), 3 * block))
    for start in range(0, len(stream), block):
        chunk = stream[start:start + block]
        assert sorted(op[1] for op in chunk) == sorted(serve.block)
        writes = sum(op[0] == "write" for op in chunk)
        assert writes == round(workloads.SERVE_WRITE_SHARE * block)


def test_staged_planner_matches_the_default_planner() -> None:
    assert workloads.same_as_default_planner(workloads.Serve(3)) is None


def test_timed_runs_stop_only_at_the_end_of_a_pass() -> None:
    class Instant(workloads.Session):
        def execute(self, op: int) -> int:
            return op

        def verify(self, op: int, out: int) -> tuple:
            return 1, None

    tally = workloads.run_ops(Instant(), itertools.count(), pass_size=7, seconds=0.01)
    assert tally.attempted % 7 == 0 and tally.attempted >= 7


def test_a_failing_op_is_counted_not_raised() -> None:
    class Broken(workloads.Session):
        def execute(self, op: int) -> int:
            if op == 2:
                raise RuntimeError("boom")
            return op

        def verify(self, op: int, out: int) -> tuple:
            return 1, ("odd" if op == 3 else None)

    tally = workloads.run_ops(Broken(), range(5), pass_size=1, count=5)
    assert (tally.attempted, tally.failed, tally.items, len(tally.latencies)) == (5, 2, 3, 3)
