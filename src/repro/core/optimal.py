"""Exact optimal gossip search for tiny instances.

The gossiping decision problem is NP-hard in general, but on instances of
up to ~6 processors an exact search is feasible and serves two purposes
in the reproduction:

* certify *lower bounds* — e.g. that the odd path ``P_3`` needs
  ``n + r - 1 = 3`` rounds (Section 1's argument) and that ``N3`` cannot
  be gossiped in ``n - 1`` rounds under the telephone model (Fig. 3);
* measure ConcurrentUpDown's true optimality gap on small networks.

The search is iterative-deepening DFS over hold-set states with an
admissible heuristic: every processor still missing ``q`` messages needs
at least ``q`` more rounds (one receive per round), and a message must
travel at least the shortest-path distance from its nearest holder.

Round enumeration assigns each receiver either nothing or a
``(sender, message)`` pair such that senders stay single-message
(multicasting the same message to several receivers is one send) and,
under ``telephone=True``, single-receiver.  Deliveries of already-held
messages are never enumerated: duplicate receives cannot help because
hold sets grow monotonically.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..exceptions import ReproError
from ..networks.bfs import distance_matrix, require_connected
from ..networks.graph import Graph
from .schedule import ArraySchedule, Schedule

__all__ = ["minimum_gossip_time", "is_gossipable_within", "optimal_schedule"]

_MAX_EXACT_N = 7

#: One move of the search: ``(sender, message, destinations)`` sends.
_Move = List[Tuple[int, int, Tuple[int, ...]]]


def _heuristic(holds: Tuple[int, ...], full: int, dist: np.ndarray) -> int:
    """Admissible lower bound on the remaining rounds from ``holds``."""
    n = len(holds)
    best = 0
    for v in range(n):
        missing = full & ~holds[v]
        count = missing.bit_count()
        if count > best:
            best = count
        m = missing
        while m:
            low = m & -m
            msg = low.bit_length() - 1
            m ^= low
            # distance from v to the nearest current holder of msg
            nearest = min(
                int(dist[v][u]) for u in range(n) if holds[u] >> msg & 1
            )
            if nearest > best:
                best = nearest
    return best


def _enumerate_rounds(
    graph: Graph, holds: Tuple[int, ...], telephone: bool
) -> List[Tuple[Tuple[int, ...], _Move]]:
    """All useful next rounds as ``(new_holds, sends)``.

    Exponential — intended for ``n <= 7`` only.
    """
    n = graph.n
    receivers = [v for v in range(n) if any(
        holds[u] & ~holds[v] for u in graph.neighbors(v)
    )]
    results: List[Tuple[Tuple[int, ...], _Move]] = []
    # committed: sender -> (message, receiver-list)
    committed: Dict[int, Tuple[int, List[int]]] = {}

    def recurse(idx: int) -> None:
        if idx == len(receivers):
            if not committed:
                return
            new_holds = list(holds)
            move: _Move = []
            for sender, (message, dests) in committed.items():
                move.append((sender, message, tuple(dests)))
                for d in dests:
                    new_holds[d] |= 1 << message
            results.append((tuple(new_holds), move))
            return
        v = receivers[idx]
        # Option: receive nothing.
        recurse(idx + 1)
        # Option: receive (sender, message).
        seen: set = set()
        for u in graph.neighbors(v):
            useful = holds[u] & ~holds[v]
            m = useful
            while m:
                low = m & -m
                msg = low.bit_length() - 1
                m ^= low
                if (u, msg) in seen:
                    continue
                seen.add((u, msg))
                if u in committed:
                    prev_msg, prev_dests = committed[u]
                    if prev_msg != msg or telephone:
                        continue
                    prev_dests.append(v)
                    recurse(idx + 1)
                    prev_dests.pop()
                else:
                    committed[u] = (msg, [v])
                    recurse(idx + 1)
                    del committed[u]

    recurse(0)
    return results


def minimum_gossip_time(
    graph: Graph, telephone: bool = False, upper_limit: Optional[int] = None
) -> int:
    """The exact optimal total communication time for gossiping.

    Raises :class:`ReproError` for ``n > 7`` (search space explodes) or
    when ``upper_limit`` is given and no schedule meets it.
    """
    require_connected(graph, "gossiping")
    n = graph.n
    if n > _MAX_EXACT_N:
        raise ReproError(f"exact search supports n <= {_MAX_EXACT_N}, got {n}")
    if n == 1:
        return 0
    full = (1 << n) - 1
    dist = distance_matrix(graph)
    start = tuple(1 << v for v in range(n))
    limit_cap = upper_limit if upper_limit is not None else 2 * n + n
    depth = _heuristic(start, full, dist)
    while depth <= limit_cap:
        if _search(graph, start, full, dist, depth, telephone, {}):
            return depth
        depth += 1
    raise ReproError(
        f"no gossip schedule within {limit_cap} rounds "
        f"({'telephone' if telephone else 'multicast'} model)"
    )


def _search(
    graph: Graph,
    holds: Tuple[int, ...],
    full: int,
    dist: np.ndarray,
    budget: int,
    telephone: bool,
    visited: Dict[Tuple[int, ...], int],
) -> bool:
    """Depth-limited DFS: can gossip finish within ``budget`` rounds?"""
    if all(h == full for h in holds):
        return True
    h = _heuristic(holds, full, dist)
    if h > budget:
        return False
    prior = visited.get(holds)
    if prior is not None and prior >= budget:
        return False
    visited[holds] = budget
    options = _enumerate_rounds(graph, holds, telephone)
    # Explore most-progress-first: more new bits = likely shorter.
    options.sort(
        key=lambda item: -sum(x.bit_count() for x in item[0])
    )
    for new_holds, _move in options:
        if _search(graph, new_holds, full, dist, budget - 1, telephone, visited):
            return True
    return False


def is_gossipable_within(
    graph: Graph, rounds: int, telephone: bool = False
) -> bool:
    """Whether some schedule finishes within ``rounds`` rounds."""
    require_connected(graph, "gossiping")
    if graph.n > _MAX_EXACT_N:
        raise ReproError(f"exact search supports n <= {_MAX_EXACT_N}")
    if graph.n == 1:
        return True
    full = (1 << graph.n) - 1
    dist = distance_matrix(graph)
    start = tuple(1 << v for v in range(graph.n))
    return _search(graph, start, full, dist, rounds, telephone, {})


def optimal_schedule(graph: Graph, telephone: bool = False) -> Schedule:
    """An optimal schedule, reconstructed from the exact search.

    Runs :func:`minimum_gossip_time` then re-traces one optimal path,
    recording the chosen rounds.
    """
    opt = minimum_gossip_time(graph, telephone=telephone)
    full = (1 << graph.n) - 1
    dist = distance_matrix(graph)
    holds = tuple(1 << v for v in range(graph.n))
    sends = []
    budget = opt
    while not all(h == full for h in holds):
        options = _enumerate_rounds(graph, holds, telephone)
        options.sort(key=lambda item: -sum(x.bit_count() for x in item[0]))
        advanced = False
        for new_holds, move in options:
            if _search(graph, new_holds, full, dist, budget - 1, telephone, {}):
                sends.extend((opt - budget, s, m, d) for s, m, d in move)
                holds = new_holds
                budget -= 1
                advanced = True
                break
        if not advanced:  # pragma: no cover - cannot happen if opt is right
            raise ReproError("failed to re-trace the optimal schedule")
    return Schedule.from_arrays(
        ArraySchedule.from_sends(
            sends, n=graph.n, name=f"optimal-{'tel' if telephone else 'mc'}"
        )
    )
