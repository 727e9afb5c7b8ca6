"""The concrete networks appearing in the paper's figures.

* **Fig. 1** (``N1``) — a network with a Hamiltonian circuit; gossiping
  completes in the optimal ``n - 1`` rounds by rotating messages.
* **Fig. 2** (``N2``) — the Petersen graph: no Hamiltonian circuit, yet
  gossiping finishes in ``n - 1 = 9`` rounds even under the telephone
  model.  :func:`petersen_gossip_schedule` constructs such a certificate
  schedule explicitly (rotate the outer 5-cycle and the inner pentagram
  for four rounds, swap across the spokes, then rotate four more rounds).
* **Fig. 3** (``N3``) — a network without a Hamiltonian circuit where
  gossiping needs ``n - 1`` rounds under multicast but provably more
  under telephone.  The paper's drawing is not machine-readable; we use
  ``K_{2,3}`` which has exactly the claimed properties, both certified in
  code: :func:`n3_multicast_schedule` is a 4-round (= ``n - 1``)
  multicast schedule, while a counting argument (each of the three
  degree-2 vertices must receive 4 messages, all from the two centers,
  who can deliver at most 2 unicasts per round: ``12 / 2 = 6 > 4``)
  shows telephone needs at least 6 rounds — asserted against the exact
  search in :mod:`repro.core.optimal` for small horizons.
* **Fig. 4 / Fig. 5** — the worked 16-vertex example.  The tree of
  Fig. 5 is pinned by Tables 1–4 (see DESIGN.md); :func:`fig4_network`
  returns a radius-4 graph whose minimum-depth spanning tree under the
  library's deterministic tie-breaking is exactly :func:`fig5_tree`.
"""

from __future__ import annotations

from typing import List, Tuple

from ..core.schedule import Schedule
from ..exceptions import GraphError
from ..tree.tree import Tree
from .graph import Graph, GraphBuilder

__all__ = [
    "fig1_ring",
    "petersen",
    "n3_network",
    "fig4_network",
    "fig5_tree",
    "petersen_gossip_schedule",
    "n3_multicast_schedule",
    "FIG5_PARENTS",
]


def fig1_ring(n: int = 8) -> Graph:
    """Fig. 1's network ``N1``: a Hamiltonian circuit on ``n`` processors."""
    if n < 3:
        raise GraphError("the ring needs at least 3 processors")
    return GraphBuilder(n, name="N1").add_cycle(range(n)).build()


def petersen() -> Graph:
    """Fig. 2's network ``N2``: the Petersen graph.

    Vertices 0–4 form the outer 5-cycle, 5–9 the inner pentagram
    (vertex ``5 + i`` adjacent to ``5 + (i ± 2) mod 5``), spokes
    ``i — 5 + i``.
    """
    b = GraphBuilder(10, name="N2")
    for i in range(5):
        b.add_edge(i, (i + 1) % 5)            # outer cycle
        b.add_edge(5 + i, 5 + (i + 2) % 5)    # inner pentagram
        b.add_edge(i, 5 + i)                  # spokes
    return b.build()


def n3_network() -> Graph:
    """Fig. 3's network ``N3`` (reconstructed as ``K_{2,3}``).

    Centers are vertices 0 and 1; the three degree-2 vertices are 2, 3, 4.
    No Hamiltonian circuit exists (the bipartition is unbalanced), yet
    multicast gossiping completes in ``n - 1 = 4`` rounds
    (:func:`n3_multicast_schedule`) while the telephone model needs at
    least 6.
    """
    b = GraphBuilder(5, name="N3")
    for center in (0, 1):
        for leaf in (2, 3, 4):
            b.add_edge(center, leaf)
    return b.build()


#: Parent array of the reconstructed Fig. 5 tree.  Vertex ids equal the
#: DFS labels of the figure (root = 0); with ascending-id child order the
#: DFS preorder is 0, 1, 2, ..., 15, so ``label_of(v) == v``.
FIG5_PARENTS: List[int] = [
    -1,  # 0: root
    0,   # 1
    1,   # 2
    1,   # 3
    0,   # 4
    4,   # 5
    5,   # 6
    5,   # 7
    4,   # 8
    8,   # 9
    8,   # 10
    0,   # 11
    11,  # 12
    11,  # 13
    13,  # 14
    13,  # 15
]


def fig5_tree() -> Tree:
    """The reconstructed Fig. 5 tree (16 vertices, height 3).

    The structure is pinned by Tables 1–4 for the subtrees rooted at
    vertices 0, 1, 4 and 8; the shapes of the remaining subtrees are the
    paper-consistent choice documented in DESIGN.md.  DFS labels equal
    vertex ids.
    """
    return Tree(FIG5_PARENTS, root=0, name="fig5")


def fig4_network() -> Graph:
    """A reconstruction of Fig. 4: a 16-vertex network of radius 3.

    Contains all Fig. 5 tree edges plus cross edges chosen so that

    * every BFS distance from vertex 0 equals the Fig. 5 level,
    * the smallest-id parent rule reproduces the Fig. 5 parent array, and
    * vertex 0 is the smallest-id center (eccentricity 4 = radius).

    Hence ``minimum_depth_spanning_tree(fig4_network())`` is exactly
    :func:`fig5_tree` — verified in the test suite.
    """
    b = GraphBuilder(16, name="fig4")
    for v, p in enumerate(FIG5_PARENTS):
        if p >= 0:
            b.add_edge(p, v)
    # Cross edges: within a level or between adjacent levels, never
    # providing a smaller-id alternative parent.
    for u, v in [(2, 3), (3, 4), (5, 8), (6, 7), (9, 15), (12, 13), (14, 15)]:
        b.add_edge(u, v)
    return b.build()


def _rotation_sends(
    t: int, order: List[int], carried: List[int]
) -> List[Tuple[int, int, int, Tuple[int]]]:
    """One rotation step at time ``t``: position ``p`` of ``order`` sends
    ``carried[p]`` to position ``p + 1`` (cyclically).  The caller
    updates ``carried``."""
    k = len(order)
    return [(t, order[p], carried[p], (order[(p + 1) % k],)) for p in range(k)]


def petersen_gossip_schedule() -> Schedule:
    """A 9-round (= ``n - 1``) telephone gossip schedule for the Petersen graph.

    Construction (all unicasts, so it is valid under both models):

    * rounds 0–3: rotate the outer cycle clockwise and the inner
      pentagram along its own 5-cycle; every vertex forwards the message
      it just received.  After 4 rounds each ring knows its own 5
      messages.
    * round 4: swap across the spokes — vertex ``i`` sends its own
      message ``i`` to ``5 + i`` and vice versa.
    * rounds 5–8: rotate both rings again, forwarding the freshly
      injected cross-ring messages; the five injected messages are
      distinct, so each vertex receives four more new ones.

    Validity and completeness are machine-checked in the test suite.
    """
    outer = [0, 1, 2, 3, 4]
    inner = [5, 7, 9, 6, 8]  # the pentagram traversed as a 5-cycle
    sends: List[Tuple[int, int, int, Tuple[int]]] = []

    out_carried = list(outer)  # message at each outer position
    in_carried = list(inner)
    for t in range(4):
        sends += _rotation_sends(t, outer, out_carried)
        sends += _rotation_sends(t, inner, in_carried)
        out_carried = [out_carried[-1]] + out_carried[:-1]
        in_carried = [in_carried[-1]] + in_carried[:-1]

    # Round 4: spoke swap of the vertices' own messages.
    sends += [(4, i, i, (5 + i,)) for i in range(5)]
    sends += [(4, 5 + i, 5 + i, (i,)) for i in range(5)]

    # Rounds 5-8: rotate the injected cross-ring messages.
    out_carried = [5 + v for v in outer]          # outer vertex i now carries 5+i
    in_carried = [v - 5 for v in inner]           # inner vertex 5+i carries i
    for t in range(5, 9):
        sends += _rotation_sends(t, outer, out_carried)
        sends += _rotation_sends(t, inner, in_carried)
        out_carried = [out_carried[-1]] + out_carried[:-1]
        in_carried = [in_carried[-1]] + in_carried[:-1]

    return Schedule.from_sends(sends, n=10, name="petersen-telephone-9")


def n3_multicast_schedule() -> Schedule:
    """A 4-round (= ``n - 1``) multicast gossip schedule for ``N3``.

    Impossible under telephone (≥ 6 rounds by the counting argument in
    the module docstring), demonstrating the power of multicasting.
    Vertices: centers 0, 1; leaves 2, 3, 4; message ``m`` starts at
    vertex ``m``.
    """
    sends = [
        # (time, sender, message, destinations)
        (0, 0, 0, (3, 4)), (0, 1, 1, (2,)), (0, 2, 2, (0, 1)),
        (1, 0, 0, (2,)), (1, 1, 1, (3, 4)), (1, 3, 3, (0, 1)),
        (2, 0, 2, (3, 4)), (2, 1, 3, (2,)), (2, 4, 4, (0, 1)),
        (3, 0, 4, (2, 3)), (3, 1, 3, (4,)), (3, 2, 0, (1,)), (3, 3, 1, (0,)),
    ]
    return Schedule.from_sends(sends, n=5, name="n3-multicast-4")
