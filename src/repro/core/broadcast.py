"""Multicast broadcasting (paper Section 2).

Broadcasting one message under the multicasting model is "trivial to
solve": the source multicasts to all neighbours at time 0; afterwards
every processor that just received the message multicasts it to the
neighbours that still lack it, with ties (several candidates wanting to
inform the same processor) broken offline.  Processor ``v`` receives the
message exactly at time ``dist(source, v)``, so the schedule completes in
``ecc(source)`` rounds — optimal, since a message traverses one edge per
round.

We break ties deterministically: a frontier vertex is informed by its
smallest-id informed neighbour (the BFS-tree parent), and each sender
multicasts once to all the frontier vertices assigned to it.
"""

from __future__ import annotations

from typing import List, Set

from ..exceptions import DisconnectedGraphError
from ..networks.bfs import UNREACHED, bfs_tree
from ..networks.graph import Graph
from ..types import Message, Vertex
from .schedule import Schedule

__all__ = ["broadcast", "broadcast_time", "telephone_broadcast"]


def broadcast(graph: Graph, source: Vertex, message: Message | None = None) -> Schedule:
    """Schedule broadcasting ``message`` from ``source`` to everyone.

    ``message`` defaults to ``source`` (the paper's convention that
    processor ``v`` originates message ``v``).  The schedule has exactly
    ``eccentricity(source)`` rounds; processor ``v`` receives the message
    at time ``dist(source, v)``.
    """
    msg = source if message is None else message
    dist, parent = bfs_tree(graph, source)
    if (dist == UNREACHED).any():
        raise DisconnectedGraphError("cannot broadcast over a disconnected graph")
    # Vertex v is informed at time dist(v) by its BFS parent, which sends
    # at dist(v) - 1; the packer fuses each parent's sends into one
    # multicast.
    sends = [
        (int(dist[v]) - 1, int(parent[v]), msg, (v,))
        for v in range(graph.n)
        if v != source
    ]
    return Schedule.from_sends(sends, n=graph.n, name=f"broadcast-from-{source}")


def broadcast_time(graph: Graph, source: Vertex) -> int:
    """The optimal broadcast time from ``source``: its eccentricity."""
    dist = bfs_tree(graph, source)[0]
    if (dist == UNREACHED).any():
        raise DisconnectedGraphError("cannot broadcast over a disconnected graph")
    return int(dist.max())


def telephone_broadcast(
    graph: Graph, source: Vertex, message: Message | None = None
) -> Schedule:
    """Greedy broadcasting under the telephone (unicast) model.

    The classical doubling strategy: each round, every informed processor
    calls one uninformed neighbour (earliest-informed processors choose
    first; each picks its smallest-id unclaimed uninformed neighbour).
    At best the informed set doubles, so the schedule needs at least
    ``max(ecc(source), ceil(log2 n))`` rounds — in contrast with the
    multicast model's exact ``ecc(source)`` (:func:`broadcast`).  On a
    star the gap is extreme: 1 round multicast vs ``n - 1`` telephone.
    """
    msg = source if message is None else message
    dist = bfs_tree(graph, source)[0]
    if (dist == UNREACHED).any():
        raise DisconnectedGraphError("cannot broadcast over a disconnected graph")
    informed_order: List[int] = [int(source)]
    informed: Set[int] = {int(source)}
    sends = []
    t = 0
    while len(informed) < graph.n:
        claimed: Set[int] = set()
        calls = 0
        for caller in informed_order:
            target = next(
                (
                    u
                    for u in graph.neighbors(caller)
                    if u not in informed and u not in claimed
                ),
                None,
            )
            if target is not None:
                claimed.add(target)
                sends.append((t, caller, msg, (target,)))
                calls += 1
        if not calls:  # pragma: no cover - impossible on connected graphs
            raise DisconnectedGraphError("broadcast stalled; graph disconnected?")
        informed_order.extend(sorted(claimed))
        informed |= claimed
        t += 1
    return Schedule.from_sends(
        sends, n=graph.n, name=f"telephone-broadcast-from-{source}"
    )
