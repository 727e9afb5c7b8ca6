"""The scalar ``Graph`` constructor, kept as a differential oracle.

:class:`ReferenceGraph` is :class:`repro.networks.graph.Graph` as it was
written before it moved to arrays: one Python pass over the edges that
fills per-vertex sets and an edge set, then sorted neighbour tuples and
CSR arrays copied from them, and a hash fed one ``sha256.update`` per
endpoint.  It lives outside the package only so
``tests/networks/test_graph_differential.py`` can check that the
vectorised constructor accepts and rejects the same edge lists, with the
same exception text, and builds the same views and the same cache key.

:func:`reference_bfs_parents` is ``bfs_tree``'s per-vertex parent scan
from before it moved to one CSR pass, kept as the oracle for the
smallest-id parent rule.
"""

from __future__ import annotations

import hashlib
from typing import FrozenSet, Iterable, List, Set, Tuple

import numpy as np

from repro.exceptions import GraphError
from repro.networks.bfs import UNREACHED, bfs_levels
from repro.networks.graph import Graph

__all__ = ["ReferenceGraph", "reference_bfs_parents"]


class ReferenceGraph:
    """Simple undirected graph on ``0..n-1``, built one edge at a time."""

    def __init__(self, n: int, edges: Iterable[Tuple[int, int]]) -> None:
        if n < 1:
            raise GraphError(f"graph needs at least one vertex, got n={n}")
        adj: List[Set[int]] = [set() for _ in range(n)]
        edge_set: Set[Tuple[int, int]] = set()
        for e in edges:
            try:
                u, v = e
            except (TypeError, ValueError) as exc:
                raise GraphError(f"edge {e!r} is not a pair") from exc
            u, v = int(u), int(v)
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise GraphError(f"self-loop at vertex {u} is not allowed")
            key = (u, v) if u < v else (v, u)
            if key in edge_set:
                raise GraphError(f"duplicate edge ({u}, {v})")
            edge_set.add(key)
            adj[u].add(v)
            adj[v].add(u)
        self.n = n
        self.m = len(edge_set)
        self.adj: Tuple[Tuple[int, ...], ...] = tuple(tuple(sorted(s)) for s in adj)
        self.edge_set: FrozenSet[Tuple[int, int]] = frozenset(edge_set)
        degrees = np.fromiter((len(a) for a in self.adj), dtype=np.int64, count=n)
        self.indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degrees, out=self.indptr[1:])
        self.indices = np.empty(self.m * 2, dtype=np.int64)
        for v, neigh in enumerate(self.adj):
            self.indices[self.indptr[v] : self.indptr[v + 1]] = neigh

    def neighbors(self, v: int) -> Tuple[int, ...]:
        return self.adj[v]

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def has_edge(self, u: int, v: int) -> bool:
        key = (u, v) if u < v else (v, u)
        return key in self.edge_set

    def edge_list(self) -> List[Tuple[int, int]]:
        return sorted(self.edge_set)

    def canonical_hash(self) -> str:
        h = hashlib.sha256()
        h.update(self.n.to_bytes(8, "little"))
        for u, v in sorted(self.edge_set):
            h.update(u.to_bytes(8, "little"))
            h.update(v.to_bytes(8, "little"))
        return h.hexdigest()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ReferenceGraph):
            return NotImplemented
        return self.n == other.n and self.edge_set == other.edge_set

    def __hash__(self) -> int:
        return hash((self.n, self.edge_set))


def reference_bfs_parents(graph: Graph, source: int) -> np.ndarray:
    """Smallest-id BFS parent of every vertex, one neighbour tuple at a time."""
    dist = bfs_levels(graph, source)
    parent = np.full(graph.n, -1, dtype=np.int64)
    for v in range(graph.n):
        if v == source or dist[v] == UNREACHED:
            continue
        # neighbors(v) is sorted ascending, so the first hit is smallest-id.
        for u in graph.neighbors(v):
            if dist[u] == dist[v] - 1:
                parent[v] = u
                break
    return parent
