"""Schedule perturbation — failure injection for the validator tests.

The engine and validator claim to catch every violation of the
communication model.  The mutators here produce *minimally broken*
variants of a correct schedule so the test suite can verify each failure
mode is actually detected (and that an unperturbed copy still passes):

* :func:`drop_round` — delete one round: gossip ends incomplete;
* :func:`drop_transmission` — delete one multicast: incomplete, or a
  later sender no longer holds what it sends;
* :func:`corrupt_message` — change a message id: possession violation;
* :func:`redirect_to_nonneighbor` — retarget a destination off-edge:
  adjacency violation;
* :func:`duplicate_receiver` — aim two same-round transmissions at one
  processor: refused by :class:`~repro.core.schedule.ArraySchedule`;
* :func:`swap_rounds` — exchange two rounds: a pipelined schedule
  typically turns into a possession violation (rarely the swap is
  harmless; the tests accept either verdict).
"""

from __future__ import annotations

from typing import List, Tuple

from ..core.schedule import ArraySchedule, Schedule
from ..exceptions import ScheduleError
from ..networks.graph import Graph

__all__ = [
    "drop_round",
    "drop_transmission",
    "corrupt_message",
    "redirect_to_nonneighbor",
    "duplicate_receiver",
    "swap_rounds",
]

#: One row of a schedule: ``(time, sender, message, destinations)``.
_Send = Tuple[int, int, int, Tuple[int, ...]]


def _rebuild(arrays: ArraySchedule, sends: List[_Send], name: str, n: int = 0) -> Schedule:
    """Re-pack edited rows; the packer re-checks the two rules."""
    return Schedule.from_arrays(
        ArraySchedule.from_sends(
            sends, n=max(arrays.n, n), n_messages=arrays.n_messages, name=name
        )
    )


def _round_rows(arrays: ArraySchedule, round_index: int) -> range:
    """Row positions of round ``round_index``, indexed like a list of
    rounds (negative indices count from the last round)."""
    t = range(arrays.total_time)[round_index]
    ptr = arrays.round_ptr
    return range(int(ptr[t]), int(ptr[t + 1]))


def _row(arrays: ArraySchedule, round_index: int, tx_index: int) -> int:
    """Row position of transmission ``tx_index`` of round ``round_index``."""
    try:
        return _round_rows(arrays, round_index)[tx_index]
    except IndexError as exc:
        raise ScheduleError(
            f"no transmission ({round_index}, {tx_index}) in schedule"
        ) from exc


def drop_round(schedule: Schedule, index: int) -> Schedule:
    """Remove the round at ``index`` entirely (later rounds shift earlier)."""
    arrays = schedule.arrays()
    if not 0 <= index < arrays.total_time:
        raise ScheduleError(
            f"no round {index} in a {arrays.total_time}-round schedule"
        )
    sends = [
        (t - (t > index), s, m, ds) for t, s, m, ds in arrays.sends() if t != index
    ]
    return _rebuild(arrays, sends, f"{schedule.name}-dropped-round-{index}")


def drop_transmission(schedule: Schedule, round_index: int, tx_index: int) -> Schedule:
    """Remove one multicast from one round."""
    arrays = schedule.arrays()
    sends = arrays.sends()
    del sends[_row(arrays, round_index, tx_index)]
    return _rebuild(arrays, sends, f"{schedule.name}-dropped-tx")


def corrupt_message(
    schedule: Schedule, round_index: int, tx_index: int, new_message: int
) -> Schedule:
    """Replace the message id of one transmission."""
    arrays = schedule.arrays()
    sends = arrays.sends()
    e = _row(arrays, round_index, tx_index)
    t, s, _, ds = sends[e]
    sends[e] = (t, s, new_message, ds)
    return _rebuild(arrays, sends, f"{schedule.name}-corrupt-msg")


def redirect_to_nonneighbor(
    schedule: Schedule, graph: Graph, round_index: int, tx_index: int
) -> Schedule:
    """Retarget one destination of one transmission to a non-neighbour.

    Raises :class:`ScheduleError` when the sender is adjacent to every
    other vertex (no off-edge target exists).
    """
    arrays = schedule.arrays()
    sends = arrays.sends()
    e = _row(arrays, round_index, tx_index)
    t, sender, message, dests = sends[e]
    receiving = {
        d for other in _round_rows(arrays, round_index) for d in sends[other][3]
    }
    strangers = [
        v
        for v in range(graph.n)
        if v != sender
        and not graph.has_edge(sender, v)
        and v not in receiving  # keep the round structurally valid
    ]
    if not strangers:
        raise ScheduleError(f"vertex {sender} is adjacent to everyone")
    sends[e] = (t, sender, message, (*dests[:-1], strangers[0]))
    return _rebuild(arrays, sends, f"{schedule.name}-offedge", n=graph.n)


def swap_rounds(schedule: Schedule, a: int, b: int) -> Schedule:
    """Exchange the rounds at positions ``a`` and ``b``.

    Reordering a pipelined schedule typically makes some vertex send a
    message before it arrives — a possession violation the engine must
    catch (or, rarely, the swap is harmless and the schedule still
    completes; the tests accept either verdict but never a silent wrong
    result).
    """
    arrays = schedule.arrays()
    total = arrays.total_time
    if not (0 <= a < total and 0 <= b < total):
        raise ScheduleError(f"cannot swap rounds ({a}, {b}) of {total}")
    swap = {a: b, b: a}
    sends = [(swap.get(t, t), s, m, ds) for t, s, m, ds in arrays.sends()]
    return _rebuild(arrays, sends, f"{schedule.name}-swapped-{a}-{b}")


def duplicate_receiver(schedule: Schedule, round_index: int) -> Schedule:
    """Make two transmissions of one round target the same receiver.

    Needs a round with at least two transmissions; the packer refuses the
    result with :class:`~repro.exceptions.ScheduleConflictError`, proving
    rule 1 is enforced structurally.
    """
    arrays = schedule.arrays()
    sends = arrays.sends()
    try:
        rows = _round_rows(arrays, round_index)
    except IndexError as exc:
        raise ScheduleError(f"no round {round_index} in schedule") from exc
    if len(rows) < 2:
        raise ScheduleError(f"round {round_index} has fewer than two transmissions")
    for a in rows:
        for b in rows:
            if a == b:
                continue
            t, sender, message, dests = sends[b]
            for victim in sends[a][3]:
                if victim != sender and victim not in dests:
                    sends[b] = (t, sender, message, (*dests, victim))
                    return _rebuild(arrays, sends, f"{schedule.name}-dup-receiver")
    raise ScheduleError(f"round {round_index} admits no receiver duplication")
