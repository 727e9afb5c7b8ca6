"""Differential oracle: the array-native lint pass vs the object walk.

``tests/lint/oracle.py`` keeps the per-destination, per-neighbour
possession walk the driver used to run.  Every test here asserts that
:func:`repro.lint.lint_schedule` returns the oracle's
:class:`~repro.lint.LintReport` field for field: the same diagnostics in
the same order with the same text, the same ``rules_run`` and the same
``name``.  Inputs: seeded raw rounds full of collisions, out-of-range
ids, non-edges and dropped or duplicated transmissions; every topology
family under every registered algorithm; and the seven same-size
networks of the certification benchmark.  Message universes that cross
64-bit words, and a batch budget small enough to split every round
block and candidate batch of the idle-sender scan, are checked too.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.sweep import FAMILIES, family_instance
from repro.core.gossip import ALGORITHMS, gossip
from repro.core.schedule import Round, Transmission
from repro.lint import driver, lint_schedule
from repro.networks.random_graphs import random_connected_gnp
from repro.simulator.faults import drop_transmission, swap_rounds

from tests.lint.cases import CERTIFY_NETWORKS, FAMILY_N, family_plan
from tests.lint.oracle import oracle_lint_schedule


def assert_same_report(graph, schedule, **options):
    got = lint_schedule(graph, schedule, **options)
    want = oracle_lint_schedule(graph, schedule, **options)
    assert got.name == want.name
    assert got.rules_run == want.rules_run
    for i, (mine, theirs) in enumerate(zip(got.diagnostics, want.diagnostics)):
        assert mine == theirs, f"diagnostic {i} differs"
    assert len(got.diagnostics) == len(want.diagnostics)
    return got


# ----------------------------------------------------------------------
# Seeded raw rounds
# ----------------------------------------------------------------------
@st.composite
def networks(draw):
    n = draw(st.integers(min_value=2, max_value=9))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    p = draw(st.floats(min_value=0.0, max_value=0.5))
    return random_connected_gnp(n, p, seed)


@st.composite
def transmissions(draw, n, n_messages):
    """One transmission, ids sometimes out of range on either side."""
    sender = draw(st.integers(min_value=-2, max_value=n + 1))
    message = draw(st.integers(min_value=-2, max_value=n_messages + 1))
    dests = draw(
        st.frozensets(st.integers(min_value=-2, max_value=n + 1), min_size=1, max_size=4)
    )
    dests = dests - {sender} or frozenset({sender + 1})
    return Transmission(sender=sender, message=message, destinations=dests)


@st.composite
def wide_masks(draw, n_messages):
    """An initial possession mask over ``n_messages`` messages: a few
    bits (some at or past ``n_messages``), or all messages but a few,
    each possibly complemented into a negative mask."""
    bits = draw(st.frozensets(st.integers(0, n_messages + 70), max_size=6))
    mask = sum(1 << b for b in bits)
    if draw(st.booleans()):
        mask ^= (1 << n_messages) - 1
    return ~mask if draw(st.integers(0, 3)) == 0 else mask


@st.composite
def mutated_rounds(draw, plan):
    """A real plan's rounds with transmissions dropped, duplicated into
    other rounds, relabelled or forged, and rounds swapped or padded."""
    rounds = [list(r) for r in plan.schedule]
    n = plan.graph.n
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        kind = draw(
            st.sampled_from(["drop", "dup", "relabel", "forge", "swap", "pad", "new"])
        )
        busy = [t for t, r in enumerate(rounds) if r]
        if kind in ("drop", "dup", "relabel", "forge") and busy:
            t = draw(st.sampled_from(busy))
            i = draw(st.integers(min_value=0, max_value=len(rounds[t]) - 1))
            if kind == "drop":
                rounds[t].pop(i)
            elif kind == "dup":
                rounds[draw(st.integers(0, len(rounds) - 1))].append(rounds[t][i])
            elif kind == "relabel":
                message = draw(st.integers(min_value=0, max_value=n - 1))
                rounds[t][i] = Transmission(
                    sender=rounds[t][i].sender, message=message,
                    destinations=rounds[t][i].destinations,
                )
            else:
                rounds[t][i] = draw(transmissions(n, n))
        elif kind == "swap" and len(rounds) >= 2:
            a = draw(st.integers(0, len(rounds) - 2))
            rounds[a], rounds[a + 1] = rounds[a + 1], rounds[a]
        elif kind == "pad":
            rounds.insert(draw(st.integers(0, len(rounds))), [])
        else:
            rounds.append([draw(transmissions(n, n))])
    return rounds


SETTINGS = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


class TestSeededRawRounds:
    @SETTINGS
    @given(data=st.data())
    def test_random_rounds(self, data):
        graph = data.draw(networks())
        n_messages = data.draw(st.sampled_from([None, graph.n - 1, graph.n + 1]))
        n_msgs = graph.n if n_messages is None else n_messages
        rounds = data.draw(
            st.lists(st.lists(transmissions(graph.n, n_msgs), max_size=4), max_size=6)
        )
        holds = data.draw(
            st.none() | st.lists(
                st.integers(min_value=-(2**12), max_value=2**12),
                min_size=graph.n, max_size=graph.n,
            )
        )
        assert_same_report(
            graph, rounds, n_messages=n_messages, initial_holds=holds,
            require_complete=data.draw(st.booleans()),
        )

    @SETTINGS
    @given(data=st.data())
    def test_multi_word_message_universes(self, data):
        """Universes that end just before, at and after a 64-bit word
        boundary; initial holds set bits at and past ``n_messages``, and
        some are negative (an infinite tail of held bits)."""
        graph = data.draw(networks())
        n_messages = data.draw(st.sampled_from([63, 64, 65, 127, 128, 129]))
        rounds = data.draw(
            st.lists(st.lists(transmissions(graph.n, n_messages), max_size=4), max_size=6)
        )
        holds = data.draw(
            st.lists(wide_masks(n_messages), min_size=graph.n, max_size=graph.n)
        )
        assert_same_report(
            graph, rounds, n_messages=n_messages, initial_holds=holds,
            require_complete=data.draw(st.booleans()),
        )

    @SETTINGS
    @given(data=st.data())
    def test_mutated_plans(self, data):
        graph = data.draw(networks())
        algorithm = data.draw(st.sampled_from(["concurrent-updown", "simple", "greedy"]))
        plan = gossip(graph, algorithm=algorithm)
        rounds = data.draw(mutated_rounds(plan))
        assert_same_report(graph, rounds, plan=plan)
        assert_same_report(graph, rounds)
        assert_same_report(graph, rounds, select=["model/non-edge", "efficiency"])
        assert_same_report(graph, rounds, ignore=["efficiency/idle-sender"])

    def test_round_objects_and_empty_input(self):
        graph = family_instance("grid", 9)
        plan = gossip(graph)
        assert_same_report(graph, [], plan=plan)
        assert_same_report(graph, [[], []])
        assert_same_report(graph, [Round(r) for r in plan.schedule], plan=plan)


# ----------------------------------------------------------------------
# Every family under every algorithm, object and array forms
# ----------------------------------------------------------------------
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_every_family_and_algorithm(family):
    for algorithm in sorted(ALGORITHMS):
        plan = family_plan(family, FAMILY_N, algorithm)
        assert_same_report(plan.graph, plan.schedule, plan=plan)
        assert_same_report(plan.graph, plan.arrays())


@pytest.mark.parametrize("family", ["grid", "random", "star"])
def test_broken_object_schedules_in_both_forms(family):
    """Broken schedules (as the fault mutators build them), through the
    facade and as bare arrays on the network's universe."""
    plan = gossip(family_instance(family, 16))
    for t in range(0, plan.total_time - 1, 3):
        for broken in (
            drop_transmission(plan.schedule, t, 0),
            swap_rounds(plan.schedule, t, t + 1),
        ):
            assert_same_report(plan.graph, broken, plan=plan)
            packed = broken.arrays(n=plan.graph.n)
            assert_same_report(plan.graph, packed, plan=plan)


@pytest.mark.parametrize("family,n", CERTIFY_NETWORKS)
def test_certify_networks(family, n):
    plan = family_plan(family, n)
    report = assert_same_report(plan.graph, plan.schedule, plan=plan)
    assert report.ok and report.warnings


# ----------------------------------------------------------------------
# A tiny batch budget: every round block and candidate batch splits
# ----------------------------------------------------------------------
#: Budget small enough that hold blocks span one to five rounds and
#: candidate batches a handful of candidates.
TINY_BATCH = 64


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_tiny_batches_on_every_family(family, monkeypatch):
    monkeypatch.setattr(driver, "_BATCH", TINY_BATCH)
    for algorithm in sorted(ALGORITHMS):
        plan = family_plan(family, FAMILY_N, algorithm)
        assert_same_report(plan.graph, plan.schedule, plan=plan)


@pytest.mark.parametrize("family,n", [("geometric", 144), ("caterpillar", 144)])
def test_tiny_batches_on_certify_networks(family, n, monkeypatch):
    monkeypatch.setattr(driver, "_BATCH", TINY_BATCH)
    plan = family_plan(family, n)
    report = assert_same_report(plan.graph, plan.schedule, plan=plan)
    assert report.by_rule("efficiency/idle-sender")
