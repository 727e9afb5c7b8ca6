"""Accelerated all-pairs shortest paths and tree construction.

The paper's preprocessing needs eccentricities of *every* vertex (the
O(mn) sweep of Section 3.1).  The pure-Python/numpy BFS in
:mod:`repro.networks.bfs` is the readable reference; this module offers
a drop-in fast backend built on ``scipy.sparse.csgraph`` (C-compiled
BFS over the same CSR arrays), used by the scaling benchmarks and by
:func:`minimum_depth_spanning_tree_fast`.

Guarantees:

* :func:`all_pairs_distances` returns exactly
  :func:`repro.networks.bfs.distance_matrix` (property-tested);
* :func:`minimum_depth_spanning_tree_fast` returns a tree **equal** to
  :func:`repro.networks.spanning_tree.minimum_depth_spanning_tree` — it
  now simply delegates to it, since the pruned + batched center sweep
  in :mod:`repro.networks.spanning_tree` outruns a full scipy all-pairs
  pass by skipping most candidate roots entirely.

The distance helpers fall back to the reference implementation when
scipy is unavailable.
"""

from __future__ import annotations

import importlib.util

import numpy as np

from ..exceptions import DisconnectedGraphError
from ..tree.tree import Tree
from .bfs import distance_matrix
from .graph import Graph
from .spanning_tree import minimum_depth_spanning_tree

__all__ = [
    "all_pairs_distances",
    "fast_eccentricities",
    "fast_radius",
    "minimum_depth_spanning_tree_fast",
]

#: Whether scipy is installed; found without importing it, so loading
#: this module (and ``import repro``) never pays scipy's import cost.
_HAVE_SCIPY = importlib.util.find_spec("scipy") is not None


def all_pairs_distances(graph: Graph) -> np.ndarray:
    """All-pairs shortest path distances, ``-1`` for unreachable pairs.

    Uses scipy's C BFS when available; otherwise the reference
    implementation.  Output matches
    :func:`repro.networks.bfs.distance_matrix` exactly.
    """
    if not _HAVE_SCIPY:
        return distance_matrix(graph)
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import shortest_path

    n = graph.n
    data = np.ones(graph.indices.shape[0], dtype=np.int8)
    adjacency = csr_matrix(
        (data, graph.indices, graph.indptr), shape=(n, n)
    )
    dist = shortest_path(adjacency, method="D", unweighted=True)
    out = np.where(np.isinf(dist), -1, dist).astype(np.int64)
    return out


def fast_eccentricities(graph: Graph) -> np.ndarray:
    """Eccentricity of every vertex (fast backend).

    Raises :class:`DisconnectedGraphError` on disconnected input, like
    the reference :func:`repro.networks.bfs.all_eccentricities`.
    """
    dist = all_pairs_distances(graph)
    if (dist < 0).any():
        raise DisconnectedGraphError("graph is disconnected; eccentricities undefined")
    return dist.max(axis=1)


def fast_radius(graph: Graph) -> int:
    """Network radius via the fast backend."""
    return int(fast_eccentricities(graph).min())


def minimum_depth_spanning_tree_fast(graph: Graph) -> Tree:
    """Fast minimum-depth spanning tree; equal to the reference result.

    Since the pruned + batched center sweep landed,
    :func:`repro.networks.spanning_tree.minimum_depth_spanning_tree` is
    itself the fastest construction (it beats the full scipy
    all-pairs sweep because it avoids visiting most candidate roots and
    reuses the winner's parent array), so this delegates to it.  Kept as
    a distinct entry point for callers pinned to the old name; the
    scipy-backed eccentricity helpers above remain for analysis code
    that needs full distance matrices.
    """
    return minimum_depth_spanning_tree(graph)
