"""Hamiltonian-circuit gossiping (paper Section 1, Fig. 1).

On a network with a Hamiltonian circuit, gossiping meets the trivial
lower bound ``n - 1``: in round 0 every processor sends its own message
to its clockwise neighbour, and in every later round it forwards the
message it just received from its counter-clockwise neighbour.  After
``n - 1`` rounds every message has visited every processor.

:func:`ring_gossip` emits that schedule for any given Hamiltonian circuit
(by default the identity circuit ``0, 1, ..., n-1`` of a cycle graph);
:func:`hamiltonian_circuit` searches for a circuit in an arbitrary graph
by backtracking — exponential in general (the decision problem is
NP-complete, [10]), usable for the small instances in tests and benches.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..exceptions import GraphError
from ..networks.graph import Graph
from .schedule import ArraySchedule, Schedule

__all__ = ["ring_gossip", "hamiltonian_circuit", "ring_gossip_on_graph"]


def ring_gossip(circuit: Sequence[int]) -> Schedule:
    """The rotating ``n - 1``-round schedule along a Hamiltonian circuit.

    ``circuit`` lists the vertices in circuit order; message ids are the
    vertex ids (message ``v`` starts at processor ``v``).
    """
    order = [int(v) for v in circuit]
    n = len(order)
    if n < 3:
        raise GraphError("a Hamiltonian circuit needs at least 3 vertices")
    if sorted(order) != list(range(n)):
        raise GraphError("circuit must visit each of 0..n-1 exactly once")
    # In round t, circuit position p forwards the message that started
    # t positions behind it.
    sends = [
        (t, order[p], order[(p - t) % n], (order[(p + 1) % n],))
        for t in range(n - 1)
        for p in range(n)
    ]
    return Schedule.from_arrays(ArraySchedule.from_sends(sends, n=n, name="ring"))


def hamiltonian_circuit(graph: Graph) -> Optional[List[int]]:
    """Find a Hamiltonian circuit by backtracking, or ``None``.

    Exponential worst case; prunes on degree-one dead ends.  Intended for
    the small paper networks (it proves, e.g., that the Petersen graph
    and N3 really have no circuit).
    """
    n = graph.n
    if n < 3:
        return None
    if int(graph.degrees().min()) < 2:
        return None
    path = [0]
    on_path = [False] * n
    on_path[0] = True

    def extend() -> bool:
        if len(path) == n:
            return graph.has_edge(path[-1], path[0])
        for nxt in graph.neighbors(path[-1]):
            if not on_path[nxt]:
                path.append(nxt)
                on_path[nxt] = True
                if extend():
                    return True
                on_path[nxt] = False
                path.pop()
        return False

    return list(path) if extend() else None


def ring_gossip_on_graph(graph: Graph) -> Schedule:
    """Find a Hamiltonian circuit in ``graph`` and gossip along it.

    Raises :class:`GraphError` when the graph has none — use the tree
    algorithms instead in that case.
    """
    circuit = hamiltonian_circuit(graph)
    if circuit is None:
        raise GraphError(
            f"graph {graph.name or graph!r} has no Hamiltonian circuit"
        )
    return ring_gossip(circuit)
