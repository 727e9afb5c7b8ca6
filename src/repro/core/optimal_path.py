"""The non-uniform optimal schedule for odd paths (paper Discussion).

Section 4: *"One may improve the performance of our algorithm by one
unit, but the protocol for each processor will not be uniform and the
algorithm will be much more complex.  The reason is that one needs to
alternate the delivery of messages from different subtrees."*

This module makes that remark constructive for the lower-bound family
itself: on the odd path ``P_{2m+1}`` (radius ``m``), gossiping completes
in exactly ``n + r - 1 = 3m`` rounds — one below ConcurrentUpDown's
``n + r`` and matching the Section 1 lower bound, so the schedule is
*optimal* (certified against the exhaustive search for small ``m``).

Construction (center at position 0, arms ``-m..-1`` and ``1..m``):

* **alternated inward streams** — the center receives the two arms'
  messages on alternating rounds: the left message from ``-d`` arrives
  at time ``2d - 1``, the right message from ``+d`` at time ``2d``;
  each is relayed across to the opposite arm in its arrival round.
  This alternation is exactly what a uniform per-vertex protocol cannot
  express, and it saves the final round;
* **origin multicasts** — a message's very first transmission goes both
  inward (towards the center) and outward (towards its own arm's tip)
  in one multicast;
* **outward relays** — every vertex forwards cross-arm and
  center-originated messages outward at the earliest calendar-feasible
  round (its inward slots and its outward neighbour's receive slots are
  fully determined by the fixed streams, leaving exactly enough gaps).

The last delivery is the far arm's tip receiving the opposite tip's
message at time ``3m``.  Validity, completeness and the exact total are
property-tested for all ``m`` up to 40.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from ..exceptions import ReproError
from ..networks.graph import Graph
from ..networks.topologies import path_graph
from .schedule import Schedule

__all__ = ["optimal_path_gossip", "optimal_path_time"]


def optimal_path_time(n: int) -> int:
    """The optimal total time ``n + r - 1 = 3m`` for the odd path."""
    if n < 3 or n % 2 == 0:
        raise ReproError(f"the optimal path schedule needs odd n >= 3, got {n}")
    return n + (n - 1) // 2 - 1


def optimal_path_gossip(n: int) -> Tuple[Graph, Schedule]:
    """Build the odd path ``P_n`` and its optimal gossip schedule.

    Returns ``(graph, schedule)`` with message ids equal to vertex ids
    (processor ``v`` originates message ``v``); vertices are numbered
    left to right, so the center is ``m = (n - 1) // 2``.
    """
    if n < 3 or n % 2 == 0:
        raise ReproError(f"the optimal path schedule needs odd n >= 3, got {n}")
    m = (n - 1) // 2
    center = m

    def vid(pos: int) -> int:
        return pos + m

    sends: List[Tuple[int, int, int, List[int]]] = []
    send_cal: List[Dict[int, int]] = [dict() for _ in range(n)]
    recv_busy: List[Set[int]] = [set() for _ in range(n)]
    arrivals: List[List[Tuple[int, int]]] = [[] for _ in range(n)]

    def emit(t: int, sender: int, message: int, dests: List[int]) -> None:
        sends.append((t, sender, message, dests))
        send_cal[sender][t] = message
        for d in dests:
            recv_busy[d].add(t + 1)
            arrivals[d].append((t + 1, message))

    # Alternated inward streams: left message -d reaches the center at
    # 2d - 1, right message +d at 2d; a message's first hop multicasts
    # outward as well.
    for side in (-1, 1):
        for d in range(1, m + 1):
            msg = vid(side * d)
            center_arrival = 2 * d - 1 if side < 0 else 2 * d
            for q in range(d, 0, -1):
                dests = [vid(side * (q - 1))]
                if q == d and d < m:
                    dests.append(vid(side * (q + 1)))
                emit(center_arrival - q, vid(side * q), msg, dests)

    # The center: own message at time 0 to both arms; every arrival is
    # forwarded across in its own round (receive-before-send).
    emit(0, center, center, [vid(-1), vid(1)])
    for d in range(1, m + 1):
        emit(2 * d - 1, center, vid(-d), [vid(1)])
        emit(2 * d, center, vid(d), [vid(-1)])

    # Outward relays, processed center-out: forward every message that
    # did not originate farther out on the same arm, at the earliest
    # calendar-feasible round.
    for side in (-1, 1):
        for q in range(1, m):
            v = vid(side * q)
            nxt = vid(side * (q + 1))
            for avail, msg in sorted(arrivals[v]):
                origin = msg - m  # message id -> origin position
                if side * origin > q:
                    continue  # inward traffic, already handled
                if msg in (v, nxt):
                    continue
                t = avail
                while send_cal[v].get(t, msg) != msg or (t + 1) in recv_busy[nxt]:
                    t += 1
                emit(t, v, msg, [nxt])

    return path_graph(n), Schedule.from_sends(sends, n=n, name=f"optimal-path-{n}")
