"""Immutable undirected graph used as the network substrate.

The paper's communication network ``N`` is an undirected, unweighted,
connected graph on ``n >= 1`` processors.  :class:`Graph` stores it in
one form, as int64 arrays:

* the edge pairs ``(u, v)`` with ``u < v`` in lexicographic order, an
  ``(m, 2)`` array that equality, hashing, the edge list and the cache
  key (:meth:`Graph.canonical_hash`) read, and
* the CSR pair ``indptr`` / ``indices`` derived from it, which the
  traversals in :mod:`repro.networks.bfs` run over (see the HPC guide:
  group memory accesses, avoid per-edge Python objects in inner loops).

The constructor checks and sorts an edge list in one vectorised pass:
range, self-loop and duplicate faults are array masks, and duplicates
are found by one stable argsort of the keys ``min(u, v) * n + max(u,
v)``, which also orders the pairs.  Only when an edge is malformed does
it walk the list, to name the first faulty edge.

Per-vertex neighbour tuples (``neighbors``, ``adjacency``) and the edge
set behind ``has_edge`` are views built from the arrays on first use and
cached, so a graph that is only built, hashed and looked up in the plan
cache holds no per-edge Python objects.

Instances are immutable and hashable; all mutating construction goes
through :class:`GraphBuilder` or the helpers in
:mod:`repro.networks.builders`.
"""

from __future__ import annotations

import hashlib
import operator
from typing import Any, Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..exceptions import GraphError
from ..types import Edge, Vertex

__all__ = ["Graph", "GraphBuilder"]

_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1
#: Largest vertex count whose edge keys ``min * n + max`` fit in int64.
_MAX_VERTICES = 2**31


def _vertex_count(n: int) -> int:
    try:
        count = operator.index(n)
    except TypeError:
        raise GraphError(f"vertex count must be an integer, got {n!r}") from None
    if count < 1:
        raise GraphError(f"graph needs at least one vertex, got n={count}")
    if count > _MAX_VERTICES:
        raise GraphError(f"graph has {count} vertices, more than the {_MAX_VERTICES} supported")
    return int(count)


def _vertex_id(v: Any) -> int:
    """``v`` as a vertex id; a non-integer (a float, say) raises
    :class:`GraphError` rather than being truncated."""
    try:
        return operator.index(v)
    except TypeError:
        raise GraphError(f"vertex {v!r} is not an integer") from None


def _edge_fault(edge: Any, n: int) -> Optional[str]:
    """Why ``edge`` is not a pair of int64 vertex ids, or ``None`` if it is one."""
    try:
        u, v = edge
    except (TypeError, ValueError):
        return f"edge {edge!r} is not a pair"
    try:
        u, v = operator.index(u), operator.index(v)
    except TypeError:
        return f"edge {edge!r} has a non-integer endpoint"
    if not (_INT64_MIN <= u <= _INT64_MAX and _INT64_MIN <= v <= _INT64_MAX):
        return f"edge ({u}, {v}) out of range for n={n}"
    return None


def _edge_array(edges: Iterable[Edge], n: int) -> np.ndarray:
    """``edges`` as an ``(m, 2)`` int64 array, in the caller's order and orientation.

    Raises :class:`GraphError` for the first edge that is not a pair of
    integers, unless an earlier edge fails :func:`_sorted_pairs` first.
    """
    try:
        seq: Any = edges if isinstance(edges, (list, tuple, np.ndarray)) else list(edges)
        if len(seq) == 0:
            return np.empty((0, 2), dtype=np.int64)
    except TypeError:  # not iterable, or a 0-d array
        raise GraphError(f"edges must be an iterable of pairs, got {edges!r}") from None
    try:
        arr = np.asarray(seq)
    except (TypeError, ValueError):  # pairs mixed with other shapes
        arr = np.empty(0)
    if arr.ndim == 2 and arr.shape[1] == 2 and arr.dtype.kind in "biu":
        if arr.dtype.kind != "u" or arr.max() <= _INT64_MAX:
            return arr.astype(np.int64, copy=False)
    for index, edge in enumerate(seq):
        fault = _edge_fault(edge, n)
        if fault is not None:
            _sorted_pairs(_edge_array(seq[:index], n), n)  # an earlier edge may fail first
            raise GraphError(fault)
    # Every edge unpacks to two int64 ids, but numpy did not type them as
    # integers: np.uint64 scalars next to Python ints promote to float64.
    try:
        return np.array(seq, dtype=np.int64)
    except (TypeError, ValueError):  # unordered pairs such as {u, v}
        raise GraphError("edges must be (u, v) sequences of integers") from None


def _sorted_pairs(edges: np.ndarray, n: int) -> np.ndarray:
    """Check an ``(m, 2)`` edge array; return its ``(min, max)`` pairs, sorted.

    Raises :class:`GraphError` for the first edge, in input order, that
    is out of range, a self-loop, or a repeat of an earlier edge in
    either orientation: the edge a one-at-a-time scan would stop at.
    """
    u, v = edges[:, 0], edges[:, 1]
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    bad = (lo < 0) | (hi >= n) | (lo == hi)
    valid = int(bad.argmax()) if bad.any() else len(edges)
    lo, hi = lo[:valid], hi[:valid]
    keys = lo * n + hi
    order = np.argsort(keys, kind="stable")
    ranked = keys[order]
    # Stable: among equal keys the first occurrence comes first, so the
    # rest are repeats, and the earliest of them is the first fault.
    repeats = order[1:][ranked[1:] == ranked[:-1]]
    if repeats.size:
        first = int(repeats.min())
        raise GraphError(f"duplicate edge ({int(u[first])}, {int(v[first])})")
    if valid < len(edges):
        a, b = int(u[valid]), int(v[valid])
        if not (0 <= a < n and 0 <= b < n):
            raise GraphError(f"edge ({a}, {b}) out of range for n={n}")
        raise GraphError(f"self-loop at vertex {a} is not allowed")
    return np.stack((lo[order], hi[order]), axis=1)


class Graph:
    """An immutable, simple, undirected graph on vertices ``0..n-1``.

    Parameters
    ----------
    n:
        Number of vertices.  Must be at least 1.
    edges:
        Iterable of ``(u, v)`` integer pairs, or an ``(m, 2)`` integer
        array.  Self-loops are rejected; duplicate edges (in either
        orientation) are rejected so accidental multi-edges surface
        immediately instead of silently skewing degree-based heuristics.
        Every fault raises :class:`~repro.exceptions.GraphError` naming
        the first faulty edge.
    name:
        Optional human-readable topology name (used in benchmark reports).

    Examples
    --------
    >>> g = Graph(3, [(0, 1), (1, 2)])
    >>> g.n, g.m
    (3, 2)
    >>> g.neighbors(1)
    (0, 2)
    """

    __slots__ = (
        "_n",
        "_pairs",
        "_indptr",
        "_indices",
        "_name",
        "_adj",
        "_edge_set",
        "_hash",
        "_canonical",
    )

    def __init__(self, n: int, edges: Iterable[Edge], name: str = "") -> None:
        n = _vertex_count(n)
        self._init(n, _sorted_pairs(_edge_array(edges, n), n), name)

    def _init(self, n: int, pairs: np.ndarray, name: str) -> None:
        """Store sorted, checked ``pairs`` and derive the CSR arrays from them."""
        tails = np.concatenate((pairs[:, 0], pairs[:, 1]))
        heads = np.concatenate((pairs[:, 1], pairs[:, 0]))
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(tails, minlength=n), out=indptr[1:])
        self._n = n
        self._pairs = pairs
        self._indptr = indptr
        # Arc keys are distinct, so one argsort orders them by (tail, head).
        self._indices = heads[np.argsort(tails * n + heads)]
        self._name = name
        self._adj: Optional[Tuple[Tuple[int, ...], ...]] = None
        self._edge_set: Optional[FrozenSet[Edge]] = None
        self._hash: Optional[int] = None
        self._canonical: Optional[str] = None

    @classmethod
    def _from_pairs(cls, n: int, pairs: np.ndarray, name: str) -> "Graph":
        """A graph on already sorted, checked ``pairs``."""
        graph = cls.__new__(cls)
        graph._init(n, pairs, name)
        return graph

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of vertices (processors)."""
        return self._n

    @property
    def m(self) -> int:
        """Number of undirected edges (communication links)."""
        return len(self._pairs)

    @property
    def name(self) -> str:
        """Human-readable topology name (may be empty)."""
        return self._name

    @property
    def indptr(self) -> np.ndarray:
        """CSR row-pointer array of shape ``(n + 1,)`` (read-only view)."""
        view = self._indptr.view()
        view.flags.writeable = False
        return view

    @property
    def indices(self) -> np.ndarray:
        """CSR column-index array of shape ``(2 m,)`` (read-only view)."""
        view = self._indices.view()
        view.flags.writeable = False
        return view

    def vertices(self) -> range:
        """All vertex ids as a ``range`` object."""
        return range(self._n)

    def neighbors(self, v: Vertex) -> Tuple[int, ...]:
        """Sorted tuple of the neighbours of ``v``."""
        return self._neighbour_tuples()[self._check_vertex(v)]

    def degree(self, v: Vertex) -> int:
        """Number of neighbours of ``v``."""
        v = self._check_vertex(v)
        return int(self._indptr[v + 1] - self._indptr[v])

    def degrees(self) -> np.ndarray:
        """Degree of every vertex as an ``int64`` array of shape ``(n,)``."""
        return np.diff(self._indptr)

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        """Whether the undirected edge ``{u, v}`` is present."""
        u, v = _vertex_id(u), _vertex_id(v)
        key = (u, v) if u < v else (v, u)
        if self._edge_set is None:
            self._edge_set = frozenset(self.edge_list())
        return key in self._edge_set

    def edges(self) -> Iterator[Edge]:
        """Iterate over edges as ``(u, v)`` with ``u < v``, sorted."""
        return iter(self.edge_list())

    def edge_list(self) -> List[Edge]:
        """Sorted list of edges as ``(u, v)`` with ``u < v``."""
        return list(zip(self._pairs[:, 0].tolist(), self._pairs[:, 1].tolist()))

    def adjacency(self) -> Dict[int, Tuple[int, ...]]:
        """Adjacency mapping ``vertex -> sorted neighbour tuple``."""
        return dict(enumerate(self._neighbour_tuples()))

    def canonical_hash(self) -> str:
        """Content-addressed fingerprint of this network.

        A hex SHA-256 digest of ``(n, sorted edge set)``: two graphs get
        the same fingerprint iff they are equal as *labeled* graphs, no
        matter in which order (or orientation) their edges were supplied
        to the constructor, and regardless of :attr:`name`.  The hashed
        bytes are ``n`` and then every sorted pair ``(u, v)``, ``u < v``,
        each as a little-endian 8-byte integer: the sorted pair array's
        own bytes.

        The fingerprint deliberately identifies the labeled graph rather
        than its isomorphism class — a :class:`~repro.core.gossip.GossipPlan`
        schedules concrete vertex ids, so serving a plan computed for an
        isomorphic-but-relabeled network would be wrong.  This is the
        cache key used by :class:`repro.service.GossipService`.

        Computed once and cached on the (immutable) instance; stable
        across processes and Python versions, unlike :func:`hash`.
        """
        if self._canonical is None:
            data = self._n.to_bytes(8, "little") + self._pairs.astype("<i8", copy=False).tobytes()
            self._canonical = hashlib.sha256(data).hexdigest()
        return self._canonical

    # ------------------------------------------------------------------
    # Derived constructions
    # ------------------------------------------------------------------
    def with_name(self, name: str) -> "Graph":
        """Return a copy of this graph carrying a different name."""
        return Graph._from_pairs(self._n, self._pairs, name)

    def add_edges(self, extra: Iterable[Edge], name: str | None = None) -> "Graph":
        """Return a new graph with ``extra`` edges added."""
        both = np.concatenate((self._pairs, _edge_array(extra, self._n)))
        return Graph._from_pairs(
            self._n, _sorted_pairs(both, self._n), self._name if name is None else name
        )

    def remove_edges(self, gone: Iterable[Edge], name: str | None = None) -> "Graph":
        """Return a new graph with the given edges removed.

        Raises :class:`~repro.exceptions.GraphError` if an edge to remove
        is absent, so typos in experiment scripts fail loudly.
        """
        n = self._n
        drop = _edge_array(gone, n)
        lo, hi = drop.min(axis=1), drop.max(axis=1)
        keys = np.where((lo >= 0) & (hi < n), lo * n + hi, -1)
        mine = self._pairs[:, 0] * n + self._pairs[:, 1]
        absent = np.flatnonzero(~np.isin(keys, mine))
        if absent.size:
            u, v = drop[absent[0]].tolist()
            raise GraphError(f"cannot remove absent edge ({u}, {v})")
        kept = self._pairs[~np.isin(mine, keys)]
        return Graph._from_pairs(n, kept, self._name if name is None else name)

    def relabeled(self, permutation: Sequence[int], name: str | None = None) -> "Graph":
        """Return the graph with vertex ``v`` renamed ``permutation[v]``.

        ``permutation`` must be a permutation of ``range(n)``.
        """
        perm = np.asarray(permutation)
        if not (
            perm.shape == (self._n,)
            and perm.dtype.kind in "iu"
            and np.array_equal(np.sort(perm), np.arange(self._n))
        ):
            raise GraphError("relabeled() needs a permutation of range(n)")
        moved = perm.astype(np.int64)[self._pairs]
        return Graph._from_pairs(
            self._n, _sorted_pairs(moved, self._n), self._name if name is None else name
        )

    # ------------------------------------------------------------------
    # Dunder protocol
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._n == other._n and np.array_equal(self._pairs, other._pairs)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self._n, self._pairs.tobytes()))
        return self._hash

    def __contains__(self, v: object) -> bool:
        return isinstance(v, int) and 0 <= v < self._n

    def __len__(self) -> int:
        return self._n

    def __repr__(self) -> str:
        label = f" name={self._name!r}" if self._name else ""
        return f"Graph(n={self._n}, m={self.m}{label})"

    # ------------------------------------------------------------------
    def _neighbour_tuples(self) -> Tuple[Tuple[int, ...], ...]:
        """Per-vertex sorted neighbour tuples, built from the CSR arrays once."""
        if self._adj is None:
            flat, bounds = self._indices.tolist(), self._indptr.tolist()
            self._adj = tuple(tuple(flat[a:b]) for a, b in zip(bounds, bounds[1:]))
        return self._adj

    def _check_vertex(self, v: Vertex) -> int:
        v = _vertex_id(v)
        if not 0 <= v < self._n:
            raise GraphError(f"vertex {v} out of range for n={self._n}")
        return v


class GraphBuilder:
    """Mutable helper for incrementally assembling a :class:`Graph`.

    Useful inside topology generators where edges are discovered one at a
    time; duplicate inserts are tolerated (idempotent) unlike the strict
    :class:`Graph` constructor.

    Examples
    --------
    >>> b = GraphBuilder(4)
    >>> b.add_edge(0, 1).add_edge(1, 2).add_edge(1, 2)
    GraphBuilder(n=4, m=2)
    >>> b.build().m
    2
    """

    __slots__ = ("_n", "_edges", "_name")

    def __init__(self, n: int, name: str = "") -> None:
        self._n = _vertex_count(n)
        self._edges: Set[Tuple[int, int]] = set()
        self._name = name

    def add_edge(self, u: Vertex, v: Vertex) -> "GraphBuilder":
        """Insert the undirected edge ``{u, v}`` (idempotent)."""
        u, v = _vertex_id(u), _vertex_id(v)
        if not (0 <= u < self._n and 0 <= v < self._n):
            raise GraphError(f"edge ({u}, {v}) out of range for n={self._n}")
        if u == v:
            raise GraphError(f"self-loop at vertex {u} is not allowed")
        self._edges.add((u, v) if u < v else (v, u))
        return self

    def add_path(self, vertices: Sequence[Vertex]) -> "GraphBuilder":
        """Insert edges of the path visiting ``vertices`` in order."""
        for u, v in zip(vertices, vertices[1:]):
            self.add_edge(u, v)
        return self

    def add_cycle(self, vertices: Sequence[Vertex]) -> "GraphBuilder":
        """Insert edges of the cycle visiting ``vertices`` in order."""
        self.add_path(vertices)
        if len(vertices) >= 3:
            self.add_edge(vertices[-1], vertices[0])
        return self

    def add_clique(self, vertices: Sequence[Vertex]) -> "GraphBuilder":
        """Insert every edge between distinct members of ``vertices``."""
        verts = list(vertices)
        for a in range(len(verts)):
            for b in range(a + 1, len(verts)):
                self.add_edge(verts[a], verts[b])
        return self

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        """Whether the edge has been inserted already."""
        key = (u, v) if u < v else (v, u)
        return key in self._edges

    @property
    def n(self) -> int:
        """Number of vertices the built graph will have."""
        return self._n

    @property
    def m(self) -> int:
        """Number of edges inserted so far."""
        return len(self._edges)

    def build(self, name: str | None = None) -> Graph:
        """Freeze into an immutable :class:`Graph`."""
        return Graph(
            self._n, sorted(self._edges), name=self._name if name is None else name
        )

    def __repr__(self) -> str:
        return f"GraphBuilder(n={self._n}, m={len(self._edges)})"
