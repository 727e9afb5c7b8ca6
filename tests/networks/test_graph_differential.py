"""The vectorised ``Graph`` constructor against the scalar reference.

:class:`tests.networks.reference.ReferenceGraph` validates and stores an
edge list one edge at a time.  For every generated edge list, in every
input shape the constructor takes, both must either raise the same
exception with the same text (naming the same first faulty edge) or
build the same graph: the same neighbours, degrees, CSR arrays, edge
list, edge membership, equality classes and cache key.

Endpoints here are integers (Python ints, bools or numpy scalars).  The
inputs whose treatment changed on purpose (non-integer endpoints such as
floats, ``None`` or the bare string ``"01"``) are pinned in
``test_graph_errors.py``.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, List, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import GraphError
from repro.networks.graph import Graph
from tests.networks.reference import ReferenceGraph

#: Ways of handing the same edges to a constructor.  Each builds a fresh
#: object, so a generator is consumed by one constructor only.
SHAPES: List[Tuple[str, Callable[[List[Tuple[int, int]]], Any]]] = [
    ("list", lambda edges: list(edges)),
    ("tuple-of-lists", lambda edges: tuple(list(e) for e in edges)),
    ("generator", lambda edges: (e for e in edges)),
    ("numpy-int64", lambda edges: np.array(edges, dtype=np.int64).reshape(-1, 2)),
    ("numpy-int32", lambda edges: np.array(edges, dtype=np.int32).reshape(-1, 2)),
    ("numpy-scalars", lambda edges: [(np.int64(u), np.int16(v)) for u, v in edges]),
    ("mixed-scalars", lambda edges: [(u, np.int32(v)) if i % 2 else (np.uint8(u % 256), v)
                                     for i, (u, v) in enumerate(edges)]),
]


def outcome(make: Callable[[], Any]) -> Tuple[str, ...]:
    try:
        make()
    except GraphError as exc:
        return ("GraphError", str(exc))
    return ("ok",)


def assert_same_graph(ref: ReferenceGraph, new: Graph) -> None:
    assert new.n == ref.n and new.m == ref.m
    assert [new.neighbors(v) for v in range(new.n)] == list(ref.adj)
    assert new.degrees().tolist() == ref.degrees().tolist()
    assert [new.degree(v) for v in range(new.n)] == ref.degrees().tolist()
    assert new.indptr.tolist() == ref.indptr.tolist()
    assert new.indices.tolist() == ref.indices.tolist()
    assert new.edge_list() == ref.edge_list()
    assert list(new.edges()) == ref.edge_list()
    for u, v in itertools.product(range(new.n), repeat=2):
        assert new.has_edge(u, v) == ref.has_edge(u, v)
    assert new.canonical_hash() == ref.canonical_hash()


def check(n: int, edges: List[Any], shapes=SHAPES) -> None:
    for label, shape in shapes:
        expected = outcome(lambda: ReferenceGraph(n, shape(edges)))
        got = outcome(lambda: Graph(n, shape(edges)))
        assert got == expected, label
        if expected == ("ok",):
            assert_same_graph(ReferenceGraph(n, shape(edges)), Graph(n, shape(edges)))


@st.composite
def edge_lists(draw, faulty: bool, max_n: int = 7) -> Tuple[int, List[Tuple[int, int]]]:
    """A vertex count and edges; with ``faulty``, ids stray out of range."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    lo, hi = (-3, n + 2) if faulty else (0, n - 1)
    ends = st.integers(min_value=lo, max_value=hi)
    edges = draw(st.lists(st.tuples(ends, ends), max_size=3 * n + 2))
    if not faulty:
        edges = list({(min(e), max(e)): e for e in edges if e[0] != e[1]}.values())
    return n, edges


@st.composite
def repeated_edge_lists(draw) -> Tuple[int, List[Tuple[int, int]]]:
    """In-range edges on up to 30 vertices, some repeated in either orientation."""
    n, edges = draw(edge_lists(faulty=False, max_n=30))
    rng = draw(st.randoms(use_true_random=False))
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        u, v = rng.choice(edges) if edges else (0, 0)
        edges.insert(rng.randrange(len(edges) + 1), (v, u) if rng.random() < 0.5 else (u, v))
    return n, edges


@settings(max_examples=150, deadline=None)
@given(edge_lists(faulty=False), st.randoms(use_true_random=False))
def test_valid_edge_lists_build_the_same_graph(case, rng):
    n, edges = case
    rng.shuffle(edges)
    edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
    check(n, edges)


@settings(max_examples=300, deadline=None)
@given(edge_lists(faulty=True))
def test_faulty_edge_lists_fail_on_the_same_edge(case):
    n, edges = case
    check(n, edges, [s for s in SHAPES if s[0] != "mixed-scalars"])


@settings(max_examples=200, deadline=None)
@given(repeated_edge_lists())
def test_the_earliest_repeat_is_named(case):
    n, edges = case
    check(n, edges, SHAPES[:1])


@settings(max_examples=100, deadline=None)
@given(edge_lists(faulty=True), st.integers(min_value=0, max_value=8),
       st.sampled_from([(0,), (0, 1, 2), 5, None, ()]))
def test_a_malformed_edge_fails_after_earlier_faults(case, where, junk):
    n, edges = case
    edges = edges[:where] + [junk] + edges[where:]
    check(n, edges, [SHAPES[0], SHAPES[2]])


@pytest.mark.parametrize("n", [0, -1, 1])
@pytest.mark.parametrize("label,shape", SHAPES, ids=[s[0] for s in SHAPES])
def test_empty_and_degenerate_sizes(n, label, shape):
    check(n, [], [(label, shape)])


def test_sets_of_edges():
    edges = {(0, 1), (2, 1), (3, 0), (1, 3)}
    assert_same_graph(ReferenceGraph(4, edges), Graph(4, edges))
    for bad in ({(0, 1), (1, 0)}, {(0, 1), (2, 2)}, {(0, 1), (0, 9)}):
        assert outcome(lambda: Graph(4, bad)) == outcome(lambda: ReferenceGraph(4, bad))


@pytest.mark.parametrize("edges", [
    [(0, 1), (1, 2), (2, 0), (1, 3)],
    [(1, 0), (2, 1), (0, 2), (3, 1)],
    [(3, 1), (0, 2), (1, 2), (0, 1)],
    [(0, 1), (1, 2), (2, 0)],
    [(0, 1), (1, 2), (2, 3), (1, 3)],
])
def test_equality_and_hash_classes_match(edges):
    base = [(0, 1), (1, 2), (2, 0), (1, 3)]
    same_ref = ReferenceGraph(4, edges) == ReferenceGraph(4, base)
    assert (Graph(4, edges) == Graph(4, base)) == same_ref
    if same_ref:
        assert hash(Graph(4, edges)) == hash(Graph(4, base))
    assert Graph(4, edges) != Graph(5, edges)


@settings(max_examples=150, deadline=None)
@given(edge_lists(faulty=False), edge_lists(faulty=True), st.randoms(use_true_random=False))
def test_derived_graphs_match_the_reference(case, extra_case, rng):
    n, edges = case
    extra = [e for e in extra_case[1] if max(e) < n + 2][:4]
    graph = Graph(n, edges, name="g")
    # add_edges fails exactly where the concatenated edge list fails.
    expected = outcome(lambda: ReferenceGraph(n, edges + extra))
    assert outcome(lambda: graph.add_edges(extra)) == expected
    if expected == ("ok",):
        assert_same_graph(ReferenceGraph(n, edges + extra), graph.add_edges(extra))
    # remove_edges drops a subset, given in any order and orientation.
    gone = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges if rng.random() < 0.4]
    keys = {(min(e), max(e)) for e in gone}
    kept = [e for e in edges if (min(e), max(e)) not in keys]
    assert_same_graph(ReferenceGraph(n, kept), graph.remove_edges(gone))
    assert graph.remove_edges(gone).name == "g"
    # relabeled renames every endpoint.
    perm = list(range(n))
    rng.shuffle(perm)
    moved = [(perm[u], perm[v]) for u, v in edges]
    assert_same_graph(ReferenceGraph(n, moved), graph.relabeled(perm))
    assert_same_graph(ReferenceGraph(n, edges), graph.with_name("h"))
