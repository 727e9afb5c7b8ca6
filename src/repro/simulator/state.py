"""Round-by-round hold-set state.

Each processor's hold set ``h_i`` (the messages it has) is a Python
integer used as a bitset: bit ``m`` set means message ``m`` is held.
Bitsets make the per-round bookkeeping O(1) amortised per delivery and
the "who is complete" test a single comparison with ``(1 << n) - 1``.

:class:`HoldState` is the state of the code that has to walk rounds:
:func:`repro.simulator.lossy.execute_with_faults` (a loss can starve a
later sender) and the store-and-forward schedule builders.  The fault-free
engine keeps no state: it reads possession off the lint arrival matrix.
Both the engine and :class:`HoldState` validate their initial holdings
through :func:`initial_holdings`.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from ..exceptions import SimulationError
from ..types import Message, Vertex

__all__ = [
    "HoldState",
    "identity_holdings",
    "initial_holdings",
    "labeled_holdings",
]


def identity_holdings(n: int) -> List[int]:
    """Initial hold sets where processor ``v`` holds message ``v``."""
    return [1 << v for v in range(n)]


def labeled_holdings(labels: Sequence[int]) -> List[int]:
    """Initial hold sets where processor ``v`` holds message ``labels[v]``.

    This is the right initial state after DFS labelling: the message ids
    in a schedule produced by the core algorithms are DFS labels, and the
    vertex with label ``m`` is the one that starts with message ``m``.
    """
    return [1 << int(lbl) for lbl in labels]


def initial_holdings(
    n: int, initial: Optional[Sequence[int]], n_messages: int
) -> List[int]:
    """Validated initial hold bitsets (default: ``v`` holds ``v``).

    Raises :class:`~repro.exceptions.SimulationError` for an empty
    network, a length that is not ``n``, or a bit at or past
    ``n_messages``.
    """
    if n < 1:
        raise SimulationError("need at least one processor")
    holds = list(identity_holdings(n) if initial is None else map(int, initial))
    if len(holds) != n:
        raise SimulationError(
            f"initial holdings has {len(holds)} entries for n={n} processors"
        )
    full = (1 << n_messages) - 1
    for v, h in enumerate(holds):
        if h & ~full:
            raise SimulationError(
                f"processor {v} initially holds a message >= n_messages"
            )
    return holds


class HoldState:
    """Mutable hold sets of all ``n`` processors for ``n_messages`` messages.

    Tracks, besides the raw bitsets, the first time each processor became
    *complete* (holds every message) and the number of duplicate
    deliveries (a processor receiving a message it already had — legal in
    the model, but a waste the metrics report).
    """

    __slots__ = (
        "n",
        "n_messages",
        "_full",
        "_holds",
        "_completion_time",
        "_duplicates",
    )

    def __init__(
        self,
        n: int,
        initial: Optional[Sequence[int]] = None,
        n_messages: Optional[int] = None,
    ) -> None:
        self.n = n
        self.n_messages = n if n_messages is None else n_messages
        self._full = (1 << self.n_messages) - 1
        self._holds = initial_holdings(n, initial, self.n_messages)
        self._completion_time: List[Optional[int]] = [
            0 if h == self._full else None for h in self._holds
        ]
        self._duplicates = 0

    # ------------------------------------------------------------------
    def holds(self, v: Vertex, m: Message) -> bool:
        """Whether processor ``v`` currently holds message ``m``."""
        return bool(self._holds[v] >> m & 1)

    def hold_set(self, v: Vertex) -> int:
        """The raw bitset of processor ``v``."""
        return self._holds[v]

    def messages_of(self, v: Vertex) -> List[int]:
        """Sorted list of messages held by ``v``."""
        return bits_of(self._holds[v])

    def missing_of(self, v: Vertex) -> List[int]:
        """Sorted list of messages ``v`` still lacks."""
        return bits_of(self._full & ~self._holds[v])

    def deliver(self, v: Vertex, m: Message, time: int) -> None:
        """Add message ``m`` to processor ``v`` at ``time``."""
        if not 0 <= m < self.n_messages:
            raise SimulationError(f"message {m} out of range")
        bit = 1 << m
        if self._holds[v] & bit:
            self._duplicates += 1
            return
        self._holds[v] |= bit
        if self._holds[v] == self._full and self._completion_time[v] is None:
            self._completion_time[v] = time

    def is_complete(self, v: Vertex) -> bool:
        """Whether ``v`` holds every message."""
        return self._holds[v] == self._full

    def all_complete(self) -> bool:
        """Whether every processor holds every message (gossip done)."""
        return all(h == self._full for h in self._holds)

    def completion_time(self, v: Vertex) -> Optional[int]:
        """First time ``v`` held all messages, or ``None`` if it never did."""
        return self._completion_time[v]

    def completion_times(self) -> List[Optional[int]]:
        """Per-processor completion times."""
        return list(self._completion_time)

    @property
    def duplicate_deliveries(self) -> int:
        """Count of deliveries of already-held messages."""
        return self._duplicates

    def snapshot(self) -> List[int]:
        """Copy of all hold bitsets."""
        return list(self._holds)


def bits_of(bitset: int) -> List[int]:
    """Indices of the set bits of ``bitset``, ascending."""
    out: List[int] = []
    m = bitset
    while m:
        low = m & -m
        out.append(low.bit_length() - 1)
        m ^= low
    return out


def popcount(bitset: int) -> int:
    """Number of set bits (messages held)."""
    return bitset.bit_count()


def union_all(bitsets: Iterable[int]) -> int:
    """Union of several hold sets."""
    acc = 0
    for b in bitsets:
        acc |= b
    return acc
