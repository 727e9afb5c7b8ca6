"""Hold sets as bitsets.

Each processor's hold set ``h_i`` (the messages it has) is a Python
integer used as a bitset: bit ``m`` set means message ``m`` is held, so
a delivery is one ``|=`` and the "who is complete" test a single
comparison with ``(1 << n_messages) - 1``.

The code that walks rounds keeps a plain ``List[int]`` of these, one per
processor: :func:`repro.simulator.lossy.execute_with_faults` (a loss can
starve a later sender) and the store-and-forward policies of
:mod:`repro.core.store_forward`.  The fault-free engine keeps no state:
it reads possession off the lint arrival matrix.  All of them validate
their initial holdings through :func:`initial_holdings`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..exceptions import SimulationError

__all__ = [
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


def bits_of(bitset: int) -> List[int]:
    """Indices of the set bits of ``bitset``, ascending."""
    out: List[int] = []
    m = bitset
    while m:
        low = m & -m
        out.append(low.bit_length() - 1)
        m ^= low
    return out
