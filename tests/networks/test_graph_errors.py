"""Malformed networks raise :class:`GraphError`, and nothing else.

The constructor and the graph readers (:func:`graph_from_edgelist`,
:func:`graph_from_json`) take input from outside the program, so every
fault in it must surface as the library's typed error.  The table holds
the inputs that used to escape as ``TypeError``, ``ValueError``,
``KeyError`` or ``JSONDecodeError``, or to be accepted silently; the
hypothesis tests throw generated junk at all three entry points.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import GraphError
from repro.networks.graph import Graph, GraphBuilder
from repro.networks.io import graph_from_edgelist, graph_from_json


@pytest.mark.parametrize("make,text", [
    (lambda: Graph(3, [(None, 1)]), "edge (None, 1) has a non-integer endpoint"),
    (lambda: Graph(3, [(0.5, 1)]), "edge (0.5, 1) has a non-integer endpoint"),
    (lambda: Graph(3, [(1.0, 2)]), "edge (1.0, 2) has a non-integer endpoint"),
    (lambda: Graph(3, np.array([[0.0, 1.0]])), "has a non-integer endpoint"),
    # A bare two-character string unpacks to two characters, not two ids.
    (lambda: Graph(3, ["01"]), "edge '01' has a non-integer endpoint"),
    (lambda: Graph(3, None), "edges must be an iterable of pairs"),
    (lambda: Graph(3, [{0, 1}]), "edges must be (u, v) sequences of integers"),
    (lambda: Graph(3, np.array(5)), "edges must be an iterable of pairs"),
    (lambda: Graph(3, np.zeros((2, 3), dtype=int)), "is not a pair"),
    (lambda: Graph(3, np.zeros((2, 2, 2), dtype=int)), "has a non-integer endpoint"),
    (lambda: Graph(3.0, []), "vertex count must be an integer"),
    (lambda: Graph("3", []), "vertex count must be an integer"),
    (lambda: Graph(2**40, []), "more than the"),
    (lambda: Graph(3, [(0, 2**70)]), f"edge (0, {2**70}) out of range for n=3"),
    (lambda: Graph(3, [(0, 5), ("a", 1)]), "edge (0, 5) out of range for n=3"),
    (lambda: Graph(3, [(0, 1), (1, 0), (None, 1)]), "duplicate edge (1, 0)"),
    (lambda: graph_from_edgelist("3 2\n0 1\n1 x"), "edge list does not parse"),
    (lambda: graph_from_edgelist("3 2\n0 1\n1 2 3"), "edge list does not parse"),
    (lambda: graph_from_edgelist("3 x\n0 1"), "edge list does not parse"),
    (lambda: graph_from_json('{"n": 3}'), "object with 'n' and 'edges'"),
    (lambda: graph_from_json("[]"), "object with 'n' and 'edges'"),
    (lambda: graph_from_json("{"), "graph JSON does not parse"),
    (lambda: graph_from_json('{"n": 3, "edges": [[0, 1, 2]]}'), "edge [0, 1, 2] is not a pair"),
    (lambda: graph_from_json('{"n": null, "edges": []}'), "vertex count must be an integer"),
    # Float vertex ids are refused, never truncated to an int.
    (lambda: GraphBuilder(3).add_edge(0.5, 1.9), "vertex 0.5 is not an integer"),
    (lambda: GraphBuilder(3).add_edge(0, 1.0), "vertex 1.0 is not an integer"),
    (lambda: Graph(3, [(0, 1)]).has_edge(0.7, 1), "vertex 0.7 is not an integer"),
    (lambda: Graph(3, [(0, 1)]).neighbors(1.5), "vertex 1.5 is not an integer"),
    (lambda: Graph(3, [(0, 1)]).degree(0.2), "vertex 0.2 is not an integer"),
    (lambda: GraphBuilder(3.0), "vertex count must be an integer"),
    (lambda: GraphBuilder(0), "graph needs at least one vertex"),
    (lambda: GraphBuilder(2**40), "vertices, more than the"),
])
def test_malformed_input_raises_graph_error(make, text):
    with pytest.raises(GraphError) as info:
        make()
    assert text in str(info.value)


def test_numpy_unsigned_scalars_are_vertex_ids():
    # np.uint64 next to a Python int makes numpy infer float64.
    g = Graph(3, [(np.uint64(0), 1), (2, np.uint64(1))])
    assert g.edge_list() == [(0, 1), (1, 2)]
    assert Graph(3, np.array([[2, 0]], dtype=np.uint64)).edge_list() == [(0, 2)]
    with pytest.raises(GraphError, match="out of range"):
        Graph(3, np.array([[0, 2**64 - 1]], dtype=np.uint64))
    # Numpy integers are vertex ids on every other way in too.
    b = GraphBuilder(np.int64(3)).add_edge(np.int32(0), np.uint8(1))
    g = b.add_edge(np.int64(1), 2).build()
    assert g.edge_list() == [(0, 1), (1, 2)]
    assert g.has_edge(np.int64(1), np.uint64(0))
    assert g.neighbors(np.int16(1)) == (0, 2)
    assert g.degree(np.int64(2)) == 1


def test_derived_constructions_raise_graph_error():
    g = Graph(3, [(0, 1), (1, 2)])
    for call in (
        lambda: g.add_edges([(0, None)]),
        lambda: g.add_edges([(0, 0.5)]),
        lambda: g.remove_edges([(0,)]),
        lambda: g.remove_edges([(0, 2)]),
        lambda: g.relabeled([0, 1]),
        lambda: g.relabeled([0.0, 1.0, 2.0]),
    ):
        with pytest.raises(GraphError):
            call()


scalars = st.one_of(
    st.integers(min_value=-3, max_value=12),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=True),
    st.none(),
    st.booleans(),
    st.text(max_size=3),
)
junk_edges = st.one_of(
    st.tuples(scalars, scalars),
    st.lists(scalars, max_size=4),
    scalars,
    st.frozensets(st.integers(min_value=0, max_value=5), max_size=3),
)
vertex_counts = st.one_of(
    st.integers(min_value=-3, max_value=40),
    st.floats(), st.none(), st.booleans(), st.text(max_size=2),
)


def _only_graph_errors(make) -> None:
    try:
        make()
    except GraphError:
        pass


@settings(max_examples=300, deadline=None)
@given(vertex_counts, st.lists(junk_edges, max_size=6))
def test_constructor_raises_only_graph_error(n, edges):
    _only_graph_errors(lambda: Graph(n, edges))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.sampled_from(["0", "1", "2", "3", "7", "-1", "x", "1.5", "2e1"]),
                         max_size=4), max_size=6))
def test_edgelist_reader_raises_only_graph_error(lines):
    _only_graph_errors(lambda: graph_from_edgelist("\n".join(" ".join(line) for line in lines)))


json_leaves = st.one_of(st.none(), st.booleans(), st.integers(min_value=-3, max_value=12),
                        st.floats(allow_nan=False), st.text(max_size=3))
json_edges = st.lists(st.one_of(json_leaves, st.lists(json_leaves, max_size=3)), max_size=4)
json_values = st.one_of(
    json_leaves,
    json_edges,
    st.dictionaries(st.sampled_from(["n", "edges", "name"]), st.one_of(json_leaves, json_edges),
                    max_size=3),
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(json_values.map(json.dumps), st.text(max_size=12)))
def test_json_reader_raises_only_graph_error(text):
    _only_graph_errors(lambda: graph_from_json(text))
