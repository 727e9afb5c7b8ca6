"""Breadth-first traversal primitives.

Everything in the paper's preprocessing stage reduces to BFS: shortest
path distances, eccentricities, the radius/center, and the minimum-depth
spanning tree (one BFS per vertex, keep the shallowest — Section 3.1).

The level-synchronous frontier expansion below is written against the
graph's CSR arrays with numpy so the per-round work is a handful of
vectorised operations instead of a Python loop over edges.  A pure-Python
reference implementation is kept alongside for cross-checking in tests.
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional, Tuple

import numpy as np

from ..exceptions import DisconnectedGraphError, GraphError
from ..types import Vertex
from .graph import Graph

__all__ = [
    "bfs_levels",
    "bfs_levels_multi",
    "bfs_tree",
    "bfs_levels_reference",
    "bfs_parents_from_levels",
    "eccentricity",
    "all_eccentricities",
    "all_eccentricities_reference",
    "distance_matrix",
    "is_connected",
    "connected_components",
    "require_connected",
    "shortest_path",
    "UNREACHED",
]

#: Sentinel distance for vertices not reached by a traversal.
UNREACHED: int = -1

#: Sources per bit-parallel pass of :func:`bfs_levels_multi` (one uint64
#: lane per source).
_BATCH = 64


def bfs_levels(graph: Graph, source: Vertex, *, cutoff: Optional[int] = None) -> np.ndarray:
    """Distances (in edges) from ``source`` to every vertex.

    Returns an ``int64`` array ``dist`` with ``dist[v]`` the length of the
    shortest path from ``source`` to ``v``, or :data:`UNREACHED` when no
    path exists.

    With ``cutoff`` set, the traversal abandons frontiers beyond that
    depth: every vertex within ``cutoff`` edges gets its exact distance
    and everything farther stays :data:`UNREACHED`.  The pruned
    eccentricity sweep (:func:`repro.networks.spanning_tree.center_sweep`)
    uses this to discard a root candidate the moment its BFS proves it
    cannot beat the best eccentricity found so far.

    Implementation: level-synchronous frontier expansion on the CSR
    arrays.  Each round gathers all neighbours of the current frontier in
    one vectorised pass, filters out already-visited vertices, and
    deduplicates with ``np.unique``.
    """
    n = graph.n
    if not 0 <= source < n:
        raise GraphError(f"source {source} out of range for n={n}")
    if cutoff is not None and cutoff < 0:
        raise GraphError(f"cutoff must be non-negative, got {cutoff}")
    indptr, indices = graph.indptr, graph.indices
    dist = np.full(n, UNREACHED, dtype=np.int64)
    dist[source] = 0
    frontier = np.array([source], dtype=np.int64)
    level = 0
    while frontier.size:
        if cutoff is not None and level >= cutoff:
            break
        level += 1
        # Gather all CSR slices of the frontier in one shot.
        starts = indptr[frontier]
        stops = indptr[frontier + 1]
        counts = stops - starts
        total = int(counts.sum())
        if total == 0:
            break
        # Build the concatenated neighbour array without a Python loop:
        # offsets[i] enumerates positions, shifted into each CSR slice.
        offsets = np.repeat(starts - np.concatenate(([0], np.cumsum(counts)[:-1])), counts)
        neighbours = indices[np.arange(total, dtype=np.int64) + offsets]
        fresh = neighbours[dist[neighbours] == UNREACHED]
        if fresh.size == 0:
            break
        frontier = np.unique(fresh)
        dist[frontier] = level
    return dist


def bfs_levels_multi(graph: Graph, sources) -> np.ndarray:
    """Distances from several sources at once, bit-parallel.

    Returns an ``int64`` array of shape ``(len(sources), n)`` where row
    ``i`` equals ``bfs_levels(graph, sources[i])`` (property-tested —
    the per-source :func:`bfs_levels` is the reference implementation).

    Implementation: multi-source BFS in batches of 64 sources.  Each
    vertex carries one ``uint64`` whose bit ``i`` records whether source
    ``i`` of the batch has reached it; a round propagates every lane at
    once with a single gather + segmented bitwise-OR over the CSR
    arrays.  One pass therefore costs O(m) per *level* for the whole
    batch instead of O(m) per *source*, which is what makes
    :func:`all_eccentricities` and :func:`distance_matrix` fast on the
    wide, shallow graphs the service plans for.
    """
    src = np.asarray(list(sources), dtype=np.int64)
    n = graph.n
    if src.size and (src.min() < 0 or src.max() >= n):
        bad = src[(src < 0) | (src >= n)][0]
        raise GraphError(f"source {int(bad)} out of range for n={n}")
    out = np.full((src.size, n), UNREACHED, dtype=np.int64)
    if src.size == 0:
        return out
    indptr, indices = graph.indptr, graph.indices
    if indices.size == 0:
        # Edgeless graph: every source reaches exactly itself.
        out[np.arange(src.size), src] = 0
        return out
    degrees = np.diff(indptr)
    starts = np.minimum(indptr[:-1], indices.size - 1)
    isolated = degrees == 0
    for lo in range(0, src.size, _BATCH):
        batch = src[lo : lo + _BATCH]
        rows = out[lo : lo + batch.size]
        front = np.zeros(n, dtype=np.uint64)
        np.bitwise_or.at(front, batch, np.uint64(1) << np.arange(batch.size, dtype=np.uint64))
        reached = front.copy()
        rows[np.arange(batch.size), batch] = 0
        level = 0
        while True:
            level += 1
            # For every vertex, OR the frontier lanes of its neighbours.
            gathered = front[indices]
            nxt = np.bitwise_or.reduceat(gathered, starts)
            if isolated.any():
                nxt[isolated] = 0
            nxt &= ~reached
            if not nxt.any():
                break
            reached |= nxt
            # Unpack the 64 lanes into per-source rows and stamp the level.
            lanes = np.unpackbits(
                nxt.view(np.uint8).reshape(n, 8), axis=1, bitorder="little"
            )[:, : batch.size]
            rows[lanes.T.astype(bool)] = level
            front = nxt
    return out


def bfs_parents_from_levels(graph: Graph, dist: np.ndarray) -> np.ndarray:
    """Smallest-id parent array recovered from a BFS distance array.

    Given the ``dist`` array of a completed :func:`bfs_levels` run,
    returns the same parent array :func:`bfs_tree` would produce for
    that source — ``parent[v]`` is the smallest-id neighbour of ``v``
    one level closer to the source (``-1`` for the source and for
    unreached vertices) — without re-running the traversal.  This is the
    "reuse, don't recompute" half of the fast planner: the winning sweep
    already holds the distances, so the spanning tree costs one
    vectorised pass instead of an (n+1)-th BFS.
    """
    n = graph.n
    parent = np.full(n, -1, dtype=np.int64)
    indptr, indices = graph.indptr, graph.indices
    if n == 1 or indices.size == 0:
        return parent
    dist = np.asarray(dist, dtype=np.int64)
    degrees = np.diff(indptr)
    # A directed CSR entry (v -> u) is a parent candidate when u sits one
    # level closer to the source than v.  Unreached vertices (dist -1)
    # target level -2, which no vertex has, so they keep parent -1; the
    # source targets level -1, which no *neighbour of a reached vertex*
    # has, so it keeps -1 too.
    targets = np.repeat(dist - 1, degrees)
    candidates = np.where(dist[indices] == targets, indices, n)
    starts = np.minimum(indptr[:-1], indices.size - 1)
    mins = np.minimum.reduceat(candidates, starts)
    mins[degrees == 0] = n
    chosen = mins < n
    parent[chosen] = mins[chosen]
    return parent


def bfs_tree(graph: Graph, source: Vertex) -> Tuple[np.ndarray, np.ndarray]:
    """BFS distances and a deterministic parent array rooted at ``source``.

    Returns ``(dist, parent)`` where ``parent[v]`` is the *smallest-id*
    neighbour of ``v`` on a shortest path back to the source
    (``parent[source] == -1``; unreachable vertices also get ``-1``).

    The smallest-id tie-break makes tree construction reproducible, which
    the paper leaves unspecified ("fix the ordering of the subtrees in any
    arbitrary order") — see the child-order ablation benchmark.  The
    parents come from one CSR pass (:func:`bfs_parents_from_levels`), so
    the graph's per-vertex neighbour tuples are never built.
    """
    dist = bfs_levels(graph, source)
    return dist, bfs_parents_from_levels(graph, dist)


def bfs_levels_reference(graph: Graph, source: Vertex) -> List[int]:
    """Textbook deque-based BFS used to cross-check :func:`bfs_levels`."""
    n = graph.n
    if not 0 <= source < n:
        raise GraphError(f"source {source} out of range for n={n}")
    dist = [UNREACHED] * n
    dist[source] = 0
    queue: deque[int] = deque([source])
    while queue:
        u = queue.popleft()
        for v in graph.neighbors(u):
            if dist[v] == UNREACHED:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def eccentricity(graph: Graph, v: Vertex) -> int:
    """Largest shortest-path distance from ``v`` to any vertex.

    Raises :class:`~repro.exceptions.DisconnectedGraphError` when some
    vertex is unreachable from ``v``.
    """
    dist = bfs_levels(graph, v)
    if (dist == UNREACHED).any():
        raise DisconnectedGraphError(
            f"vertex {v} cannot reach the whole graph; eccentricity undefined"
        )
    return int(dist.max())


def all_eccentricities(graph: Graph) -> np.ndarray:
    """Eccentricity of every vertex (the paper's O(mn) sweep, batched).

    Runs :func:`bfs_levels_multi` in 64-source bit-parallel passes, so
    the whole sweep costs O(m · diameter) per batch instead of one full
    BFS per vertex.  Output is identical to
    :func:`all_eccentricities_reference` (property-tested).  Raises
    :class:`~repro.exceptions.DisconnectedGraphError` on disconnected
    input.
    """
    n = graph.n
    ecc = np.empty(n, dtype=np.int64)
    for lo in range(0, n, _BATCH):
        hi = min(n, lo + _BATCH)
        dist = bfs_levels_multi(graph, range(lo, hi))
        if (dist == UNREACHED).any():
            raise DisconnectedGraphError("graph is disconnected; eccentricities undefined")
        ecc[lo:hi] = dist.max(axis=1)
    return ecc


def all_eccentricities_reference(graph: Graph) -> np.ndarray:
    """One-BFS-per-vertex eccentricity sweep (the reference implementation).

    Kept alongside the batched :func:`all_eccentricities` for
    cross-checking in the property tests and the planner benchmark.
    """
    n = graph.n
    ecc = np.empty(n, dtype=np.int64)
    for v in range(n):
        dist = bfs_levels(graph, v)
        if (dist == UNREACHED).any():
            raise DisconnectedGraphError("graph is disconnected; eccentricities undefined")
        ecc[v] = dist.max()
    return ecc


def distance_matrix(graph: Graph) -> np.ndarray:
    """All-pairs shortest path distances as an ``(n, n)`` int64 matrix.

    Unreachable pairs hold :data:`UNREACHED`.  Computed with the
    bit-parallel :func:`bfs_levels_multi` (64 sources per pass)."""
    return bfs_levels_multi(graph, range(graph.n))


def is_connected(graph: Graph) -> bool:
    """Whether every vertex is reachable from vertex 0."""
    return not (bfs_levels(graph, 0) == UNREACHED).any()


def connected_components(graph: Graph) -> List[List[int]]:
    """Connected components as sorted vertex lists, ordered by min vertex."""
    n = graph.n
    seen = np.zeros(n, dtype=bool)
    components: List[List[int]] = []
    for start in range(n):
        if seen[start]:
            continue
        dist = bfs_levels(graph, start)
        members = [v for v in range(n) if dist[v] != UNREACHED]
        for v in members:
            seen[v] = True
        components.append(members)
    return components


def require_connected(graph: Graph, context: str = "operation") -> None:
    """Raise :class:`DisconnectedGraphError` unless ``graph`` is connected."""
    if not is_connected(graph):
        raise DisconnectedGraphError(f"{context} requires a connected graph")


def shortest_path(graph: Graph, source: Vertex, target: Vertex) -> Optional[List[int]]:
    """One shortest path from ``source`` to ``target`` (or ``None``).

    Uses the deterministic smallest-id parent tree, so repeated calls
    return the same path.
    """
    dist, parent = bfs_tree(graph, source)
    if target != source and parent[target] == -1:
        return None
    path = [int(target)]
    while path[-1] != source:
        path.append(int(parent[path[-1]]))
    path.reverse()
    return path
