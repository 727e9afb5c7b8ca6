"""The online gossiping protocol (paper Section 4).

*"Our algorithms can be easily adapted for the online case.  The only
global information that they need is the value of i, j, and k."*

:class:`OnlineProcessor` is a per-processor state machine that decides
its own transmissions using only local knowledge:

* its block ``(i, j, k)``, whether it is its parent's first child, the
  total processor count ``n``, its parent's id, and its children's ids
  with their subtree intervals (a parent learns its children's ``(i, j)``
  while the labelling is disseminated);
* the messages it has received so far, with their arrival times and the
  link they arrived on.

Each round the driver (:func:`run_online_gossip`) asks every processor
what it sends; no processor ever inspects another's state.  The emitted
transmissions are exactly the (U3)/(U4)/(D2)/(D3) events of
ConcurrentUpDown, so the online execution reproduces the offline
schedule verbatim — asserted by :func:`online_matches_offline` and the
test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..exceptions import SimulationError
from ..tree.labeling import LabeledTree
from .schedule import ArraySchedule, Schedule

__all__ = ["OnlineProcessor", "run_online_gossip", "online_matches_offline"]


@dataclass(frozen=True)
class _ChildInfo:
    """What a parent knows about one child: its id and subtree interval."""

    vertex: int
    i: int
    j: int


class OnlineProcessor:
    """One processor executing ConcurrentUpDown from local knowledge only."""

    def __init__(
        self,
        vertex: int,
        n: int,
        i: int,
        j: int,
        k: int,
        parent: Optional[int],
        is_first_child: bool,
        children: Sequence[_ChildInfo],
    ) -> None:
        self.vertex = vertex
        self.n = n
        self.i = i
        self.j = j
        self.k = k
        self.parent = parent
        self.is_first_child = is_first_child
        self.children = list(children)
        self.w = 1 if is_first_child else 0
        # messages currently held: own message plus everything received
        self._held: Dict[int, int] = {i: 0}  # message -> arrival time
        # o-messages from the parent held back by the (D2) delay rule
        self._delayed: List[int] = []
        # o-messages to relay this round (arrival time == now)
        self._fresh_from_parent: Optional[int] = None
        # links this processor actually has (deliveries elsewhere are bogus)
        self._links = frozenset(
            c.vertex for c in self.children
        ) | (frozenset() if parent is None else frozenset({parent}))
        # exact (time, sender, message) triples already delivered
        self._delivered: Set[Tuple[int, int, int]] = set()

    # ------------------------------------------------------------------
    def receive(self, time: int, sender: int, message: int) -> None:
        """Deliver ``message`` (sent by ``sender`` in round ``time - 1``).

        Validates the delivery against the communication model before
        touching any state — a datagram-fed driver must not be able to
        corrupt the protocol with malformed input:

        * ``sender`` must be a tree neighbour (messages only travel on
          this processor's own links);
        * ``message`` must be a DFS label in ``[0, n)``;
        * ``time`` must be a possible arrival round — at least 1 (round-0
          sends land at 1) and within the ``2n`` horizon that bounds
          every tree schedule (Theorem 1's ``n + height < 2n``);
        * the exact ``(time, sender, message)`` triple must be new — the
          same physical delivery handed over twice means the driver's
          dedup is broken.  (A *different* delivery of an already-held
          message stays legal and is ignored, as the model prescribes.)

        Violations raise :class:`~repro.exceptions.SimulationError`
        naming the processor and the offending delivery.
        """
        locus = (
            f"processor {self.vertex}: delivery of message {message} "
            f"from {sender} at time {time}"
        )
        if sender not in self._links:
            raise SimulationError(
                f"{locus} arrived on an unknown link (neighbours: "
                f"{sorted(self._links)})"
            )
        if not 0 <= message < self.n:
            raise SimulationError(
                f"{locus} carries an out-of-range message id (n={self.n})"
            )
        if not 1 <= time <= 2 * self.n:
            raise SimulationError(
                f"{locus} has an impossible arrival round "
                f"(valid range: 1..{2 * self.n})"
            )
        triple = (time, sender, message)
        if triple in self._delivered:
            raise SimulationError(f"{locus} was already delivered (duplicate)")
        self._delivered.add(triple)
        if message in self._held:
            return
        self._held[message] = time
        if self.parent is not None and sender == self.parent:
            is_o_message = message < self.i or message > self.j
            if is_o_message:
                if time in (self.i - self.k, self.i - self.k + 1):
                    self._delayed.append(message)
                else:
                    self._fresh_from_parent = message

    def _owner_child(self, message: int) -> Optional[int]:
        for child in self.children:
            if child.i <= message <= child.j:
                return child.vertex
        return None

    def send(self, time: int) -> Optional[Tuple[int, Tuple[int, ...]]]:
        """What this processor sends in round ``time``: ``(message,
        destinations ascending)``, or ``None`` when it stays silent.

        Computes the (U3)/(U4) upward event and the (D2)/(D3) downward
        event for this round and fuses them when they carry the same
        message (the only overlap, per Theorem 1).
        """
        i, j, k = self.i, self.j, self.k
        up_message: Optional[int] = None
        if self.parent is not None:
            if time == 0 and self.is_first_child and self.w:
                up_message = i  # (U3): the lip-message
            else:
                m = time + k  # (U4): message m goes up at time m - k
                if i + self.w <= m <= j:
                    up_message = m

        down_message: Optional[int] = None
        down_dests: List[int] = []
        if self.children:
            # (D3): body message m at time m - k; s-message special cases.
            m = time + k
            if i < m <= j:
                down_message = m
                owner = self._owner_child(m)
                down_dests = [c.vertex for c in self.children if c.vertex != owner]
            s_time = (j - k + 1) if i == k else (i - k)
            if time == s_time:
                down_message = i
                down_dests = [c.vertex for c in self.children]
            # (D2): relay the o-message that arrived this round, or flush
            # the delayed ones at j - k + 1 / j - k + 2.
            if self._fresh_from_parent is not None:
                if down_message is not None:
                    raise SimulationError(
                        f"processor {self.vertex}: (D2) relay of "
                        f"{self._fresh_from_parent} collides with (D3) at {time}"
                    )
                down_message = self._fresh_from_parent
                down_dests = [c.vertex for c in self.children]
            elif self._delayed and time in (j - k + 1, j - k + 2):
                if down_message is None:
                    down_message = self._delayed.pop(0)
                    down_dests = [c.vertex for c in self.children]
        self._fresh_from_parent = None

        if up_message is not None and up_message == down_message:
            if up_message not in self._held:
                raise SimulationError(
                    f"processor {self.vertex} must send {up_message} at "
                    f"{time} but has not received it"
                )
            return up_message, tuple(sorted({self.parent, *down_dests}))
        sends: List[Tuple[int, Tuple[int, ...]]] = []
        if up_message is not None:
            if up_message not in self._held:
                raise SimulationError(
                    f"processor {self.vertex} must send {up_message} up at "
                    f"{time} but has not received it"
                )
            sends.append((up_message, (self.parent,)))
        if down_message is not None and down_dests:
            if down_message not in self._held:
                raise SimulationError(
                    f"processor {self.vertex} must send {down_message} down "
                    f"at {time} but has not received it"
                )
            sends.append((down_message, tuple(sorted(down_dests))))
        if len(sends) > 1:
            raise SimulationError(
                f"processor {self.vertex} would send two different messages "
                f"at time {time}: {sends}"
            )
        return sends[0] if sends else None

    @property
    def held_messages(self) -> List[int]:
        """Messages held so far, sorted."""
        return sorted(self._held)

    def is_complete(self) -> bool:
        """Whether all ``n`` messages have been collected."""
        return len(self._held) == self.n


def build_processor(labeled: LabeledTree, v: int) -> OnlineProcessor:
    """Instantiate vertex ``v``'s :class:`OnlineProcessor`.

    This models the dissemination phase: the processor is told its own
    ``(i, j, k)``, its parent, whether it is a first child, and its
    children's intervals — nothing else.
    """
    tree = labeled.tree
    block = labeled.block(v)
    children = [
        _ChildInfo(vertex=c, i=labeled.block(c).i, j=labeled.block(c).j)
        for c in tree.children(v)
    ]
    return OnlineProcessor(
        vertex=v,
        n=labeled.n,
        i=block.i,
        j=block.j,
        k=block.k,
        parent=None if tree.is_root(v) else tree.parent(v),
        is_first_child=block.is_first_child,
        children=children,
    )


def build_processors(labeled: LabeledTree) -> List[OnlineProcessor]:
    """One :class:`OnlineProcessor` per vertex (see :func:`build_processor`)."""
    return [build_processor(labeled, v) for v in range(labeled.n)]


def run_online_gossip(labeled: LabeledTree, max_rounds: Optional[int] = None) -> Schedule:
    """Drive the online protocol round by round until everyone is done.

    Returns the schedule the processors collectively emitted; it equals
    the offline ConcurrentUpDown schedule.
    """
    procs = build_processors(labeled)
    horizon = labeled.n + labeled.height if max_rounds is None else max_rounds
    sends: List[Tuple[int, int, int, Tuple[int, ...]]] = []
    pending: List[Tuple[int, int, int]] = []  # (receiver, sender, message)
    for t in range(horizon + 1):
        for receiver, sender, message in pending:
            procs[receiver].receive(t, sender, message)
        pending = []
        if all(p.is_complete() for p in procs):
            break
        for p in procs:
            sent = p.send(t)
            if sent is not None:
                message, dests = sent
                sends.append((t, p.vertex, message, dests))
                pending.extend((d, p.vertex, message) for d in dests)
    else:
        raise SimulationError(
            f"online gossip did not finish within {horizon} rounds"
        )
    return Schedule.from_arrays(
        ArraySchedule.from_sends(sends, n=labeled.n, name="ConcurrentUpDown-online")
    )


def online_matches_offline(labeled: LabeledTree) -> bool:
    """Whether the online emission equals the offline schedule exactly."""
    from .concurrent_updown import concurrent_updown

    return run_online_gossip(labeled) == concurrent_updown(labeled)
