"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import pytest
from hypothesis import strategies as st

from repro.core.schedule import Schedule, Transmission
from repro.networks import topologies
from repro.networks.builders import graph_to_tree
from repro.networks.graph import Graph
from repro.networks.paper_networks import fig4_network, fig5_tree
from repro.networks.random_graphs import random_connected_gnp, random_tree
from repro.tree.labeling import LabeledTree
from repro.tree.tree import Tree


@pytest.fixture
def small_path() -> Graph:
    """The odd path P_7 (the paper's lower-bound family)."""
    return topologies.path_graph(7)


@pytest.fixture
def small_cycle() -> Graph:
    """C_9 — Hamiltonian, radius 4."""
    return topologies.cycle_graph(9)


@pytest.fixture
def small_grid() -> Graph:
    """The 3x4 mesh."""
    return topologies.grid_2d(3, 4)


@pytest.fixture
def fig5() -> Tree:
    """The reconstructed Fig. 5 tree."""
    return fig5_tree()


@pytest.fixture
def fig5_labeled(fig5: Tree) -> LabeledTree:
    """Fig. 5 with its DFS labelling."""
    return LabeledTree(fig5)


@pytest.fixture
def fig4() -> Graph:
    """The reconstructed Fig. 4 network."""
    return fig4_network()


@pytest.fixture
def bound_suite() -> list:
    """The compact cross-topology collection used by bound tests."""
    from repro.analysis.sweep import small_suite

    return small_suite()


def pack(sends, n: int, name: str = "") -> Schedule:
    """A schedule from ``(time, sender, message, destinations)`` sends."""
    return Schedule.from_sends(sends, n=n, name=name)


def tx(sender, message, dests):
    """One send of a hand-written round: ``(sender, message, destinations)``."""
    return (sender, message, tuple(dests))


def sched(*rounds, n=None, name: str = "") -> Schedule:
    """A schedule from hand-written rounds (lists of :func:`tx` tuples or
    ``Transmission`` objects); ``n`` defaults to the largest sender or
    destination id plus one."""
    sends = [
        (t, *(
            (send.sender, send.message, tuple(send.destinations))
            if isinstance(send, Transmission) else send
        ))
        for t, rnd in enumerate(rounds)
        for send in rnd
    ]
    if n is None:
        n = max((v for _, s, _, ds in sends for v in (s, *ds)), default=-1) + 1
    return pack(sends, n, name)


def schedule_prefix(schedule: Schedule, rounds: int, name: str = "") -> Schedule:
    """The rounds of ``schedule`` sent before time ``rounds``."""
    return pack([s for s in schedule.sends() if s[0] < rounds], schedule.n, name)


# ----------------------------------------------------------------------
# Hypothesis strategies
# ----------------------------------------------------------------------
@st.composite
def connected_graphs(draw, max_n: int = 24):
    """A seeded random connected graph with 2..max_n vertices."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    p = draw(st.floats(min_value=0.0, max_value=0.3))
    return random_connected_gnp(n, p, seed)


@st.composite
def random_trees(draw, max_n: int = 30):
    """A uniformly random labelled tree with 1..max_n vertices."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    graph = random_tree(n, seed)
    root = draw(st.integers(min_value=0, max_value=n - 1))
    return graph_to_tree(graph, root=root)


@st.composite
def labeled_trees(draw, max_n: int = 30):
    """A DFS-labelled random tree."""
    return LabeledTree(draw(random_trees(max_n=max_n)))
