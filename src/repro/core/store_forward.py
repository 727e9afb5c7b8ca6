"""Policy-driven store-and-forward gossip scheduling.

A small offline scheduling engine: rounds are built one at a time; in
each round every processor *proposes* one (message, destinations)
multicast chosen by a pluggable policy from its current hold set, and a
deterministic arbiter resolves receive conflicts (each processor accepts
at most one incoming message per round, per the model).  Proposals are
processed in ascending (message label, sender) order, so lower-labelled
messages win contended receivers — the same label-ordered pipelining
principle the paper's algorithms hard-code analytically.

Two policies are provided:

* :class:`GreedyMulticastPolicy` — send the lowest-labelled held message
  some neighbour still lacks, to *all* such neighbours.  A strong generic
  baseline for the comparison benchmarks; with ``max_fan_out=1`` the
  arbiter keeps one receiver per send, which is the telephone (unicast)
  model the paper contrasts with.
* :class:`UpDownTreePolicy` — the reconstruction of Gonzalez's two-phase
  UpDown algorithm [15] (the paper gives only its phase structure and
  bound, not its pseudo-code — see DESIGN.md): body messages stream
  toward the root with strict label priority, piggybacking the downward
  distribution to siblings, and o-messages are relayed down whenever the
  upward stream leaves the send slot idle.  Unlike ConcurrentUpDown it
  has no lookahead (lip) trick, so messages do get stuck and finish later
  than ``n + r``; tests check it stays within the paper's
  ``(n - 1 + r) + (2(r - 1) + 1)`` two-phase budget.

Progress guarantee: while gossip is incomplete and the network connected,
some holder of a missing message neighbours a non-holder; the
first-processed such proposal always wins its receiver, so every round
delivers at least one new message and the engine needs at most
``n * (n - 1)`` rounds.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Protocol, Sequence, Tuple

from ..exceptions import SimulationError
from ..networks.builders import tree_to_graph
from ..networks.graph import Graph
from ..simulator.state import initial_holdings, labeled_holdings
from ..tree.labeling import LabeledTree
from .gossip import register_algorithm
from .schedule import ArraySchedule, Schedule

__all__ = [
    "SendPolicy",
    "GreedyMulticastPolicy",
    "UpDownTreePolicy",
    "store_forward_schedule",
    "greedy_multicast_gossip",
    "greedy_updown_gossip",
    "telephone_gossip",
    "telephone_gossip_on_graph",
    "greedy_gossip_on_graph",
]

#: A proposal: (message, candidate destinations in preference order).
Proposal = Tuple[int, Sequence[int]]


class SendPolicy(Protocol):
    """Chooses what each processor offers to send in the current round."""

    def propose_ranked(
        self, vertex: int, holds: Sequence[int], graph: Graph, time: int
    ) -> List[Proposal]:
        """Proposals ``(message, destinations)`` in decreasing preference.

        ``holds`` is every processor's hold bitset (bit ``m`` set: holds
        message ``m``).  ``destinations`` must be neighbours of
        ``vertex``; the arbiter trims them to the receivers still free
        this round and falls back to the next proposal when one wins no
        receiver.  An empty list stays silent.
        """
        ...


class GreedyMulticastPolicy:
    """Multicast the lowest-labelled held message a neighbour lacks."""

    def propose_ranked(
        self, vertex: int, holds: Sequence[int], graph: Graph, time: int
    ) -> List[Proposal]:
        neighbours = graph.neighbors(vertex)
        lacking_union = 0
        hold = holds[vertex]
        for u in neighbours:
            lacking_union |= hold & ~holds[u]
        if not lacking_union:
            return []
        message = (lacking_union & -lacking_union).bit_length() - 1
        return [(message, [u for u in neighbours if not holds[u] >> message & 1])]


class UpDownTreePolicy:
    """UpDown reconstruction: label-ordered up-stream, idle-slot down-stream.

    Must be used on the tree network of the :class:`LabeledTree` it was
    built from (vertex ids and message labels must correspond).  The
    ranked interface matters here: a vertex whose upward send loses the
    parent's receive slot to a sibling falls back to relaying a message
    down instead of idling — the concurrency that gives UpDown its
    ``n - 1 + r`` first phase.
    """

    def __init__(self, labeled: LabeledTree) -> None:
        self._labeled = labeled

    def propose_ranked(
        self, vertex: int, holds: Sequence[int], graph: Graph, time: int
    ) -> List[Proposal]:
        labeled = self._labeled
        tree = labeled.tree
        block = labeled.block(vertex)
        hold = holds[vertex]
        kids = tree.children(vertex)
        ranked: List[Proposal] = []
        # Preference 1 — upward: lowest held body message the parent
        # lacks; piggyback the downward distribution of the same message
        # to lacking children.
        if not tree.is_root(vertex):
            parent = tree.parent(vertex)
            body_mask = ((1 << (block.j + 1)) - 1) ^ ((1 << block.i) - 1)
            pending_up = hold & body_mask & ~holds[parent]
            if pending_up:
                message = (pending_up & -pending_up).bit_length() - 1
                dests = [parent] + [c for c in kids if not holds[c] >> message & 1]
                ranked.append((message, dests))
        # Preference 2 — downward: lowest held message some child lacks.
        lacking_union = 0
        for c in kids:
            lacking_union |= hold & ~holds[c]
        if lacking_union:
            message = (lacking_union & -lacking_union).bit_length() - 1
            ranked.append(
                (message, [c for c in kids if not holds[c] >> message & 1])
            )
        return ranked


def store_forward_schedule(
    graph: Graph,
    policy: SendPolicy,
    initial_holds: Optional[Sequence[int]] = None,
    max_fan_out: Optional[int] = None,
    max_rounds: Optional[int] = None,
    name: str = "store-forward",
) -> Schedule:
    """Run the round-building loop until gossip completes.

    Parameters
    ----------
    graph:
        The (connected) network.
    policy:
        The per-vertex send policy.
    initial_holds:
        Initial hold bitsets (default: processor ``v`` holds message ``v``).
    max_fan_out:
        Cap on receivers per multicast; ``1`` yields the telephone model.
    max_rounds:
        Safety valve; defaults to ``n * n`` (far above the progress bound).
    """
    n = graph.n
    holds = initial_holdings(n, initial_holds, n)
    full = (1 << n) - 1
    limit = n * n if max_rounds is None else max_rounds
    sends: List[Tuple[int, int, int, List[int]]] = []
    pending: List[Tuple[int, int]] = []  # (receiver, message) applied next round
    time = 0
    while not all(h == full for h in holds):
        if time > limit:
            raise SimulationError(
                f"store-and-forward did not finish within {limit} rounds"
            )
        for receiver, message in pending:
            holds[receiver] |= 1 << message
        pending = []
        if all(h == full for h in holds):
            break
        ranked_by_vertex: Dict[int, List[Proposal]] = {}
        for v in range(n):
            ranked = [
                (m, d) for (m, d) in policy.propose_ranked(v, holds, graph, time) if d
            ]
            if ranked:
                ranked_by_vertex[v] = ranked
        taken = [False] * n
        granted_sender = [False] * n
        max_rank = max((len(r) for r in ranked_by_vertex.values()), default=0)
        for rank in range(max_rank):
            # Senders still empty-handed try their rank-th preference,
            # lower message labels first.
            tier = sorted(
                (ranked_by_vertex[v][rank][0], v, ranked_by_vertex[v][rank][1])
                for v in ranked_by_vertex
                if not granted_sender[v] and rank < len(ranked_by_vertex[v])
            )
            for message, sender, dests in tier:
                granted = [d for d in dests if not taken[d]]
                if max_fan_out is not None:
                    granted = granted[:max_fan_out]
                if not granted:
                    continue
                for d in granted:
                    taken[d] = True
                granted_sender[sender] = True
                sends.append((time, sender, message, granted))
                pending.extend((d, message) for d in granted)
        time += 1
    return Schedule.from_arrays(ArraySchedule.from_sends(sends, n=n, name=name))


# ----------------------------------------------------------------------
# Registry-compatible wrappers (LabeledTree -> Schedule, DFS-label ids)
# ----------------------------------------------------------------------
@register_algorithm("greedy")
def greedy_multicast_gossip(labeled: LabeledTree) -> Schedule:
    """Greedy multicast store-and-forward gossip on the tree network."""
    return store_forward_schedule(
        tree_to_graph(labeled.tree),
        GreedyMulticastPolicy(),
        initial_holds=labeled_holdings(labeled.labels()),
        name="Greedy",
    )


@register_algorithm("updown-greedy")
def greedy_updown_gossip(labeled: LabeledTree) -> Schedule:
    """Greedy no-lookahead up/down gossip (the no-lip ablation fallback).

    Uses :class:`UpDownTreePolicy` — adaptive rather than timetabled, so
    it may beat or lose to the fixed algorithms on individual trees; its
    role is quantifying what the (U3) lookahead buys (see
    :mod:`repro.core.ablations`).
    """
    return store_forward_schedule(
        tree_to_graph(labeled.tree),
        UpDownTreePolicy(labeled),
        initial_holds=labeled_holdings(labeled.labels()),
        name="UpDown-greedy",
    )


@register_algorithm("telephone")
def telephone_gossip(labeled: LabeledTree) -> Schedule:
    """Telephone-model (unicast) gossip on the tree network."""
    return store_forward_schedule(
        tree_to_graph(labeled.tree),
        GreedyMulticastPolicy(),
        initial_holds=labeled_holdings(labeled.labels()),
        max_fan_out=1,
        name="Telephone",
    )


def telephone_gossip_on_graph(graph: Graph) -> Schedule:
    """Telephone-model gossip directly on an arbitrary network."""
    return store_forward_schedule(
        graph, GreedyMulticastPolicy(), max_fan_out=1, name="Telephone"
    )


def greedy_gossip_on_graph(graph: Graph) -> Schedule:
    """Greedy multicast gossip directly on an arbitrary network."""
    return store_forward_schedule(graph, GreedyMulticastPolicy(), name="Greedy")
