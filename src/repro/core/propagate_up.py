"""Algorithm Propagate-Up (paper Section 3.2, steps U1–U4).

Generates the *upward* half of the ConcurrentUpDown schedule: every
message travels from its origin to the root so that the root receives
message ``m`` exactly at time ``m`` (for ``m >= 1``; it owns message 0).

Per nonroot vertex ``v`` with block ``(i, j, k)``:

* **(U3)** at time 0, ``v`` sends its lip-message to its parent — the
  message ``i`` when ``v`` is its parent's first child.  Sending the
  lookahead one round early is the paper's key trick: without it the
  downward stream would collide with the upward stream and messages would
  get stuck at every level (see the ``no_lip`` ablation).
* **(U4)** with ``w`` the number of lip-messages (0 or 1), ``v`` sends its
  rip-messages ``i+w .. j`` to its parent in increasing label order;
  message ``m`` leaves at time ``m - k``.

Steps (U1) and (U2) are the *receive* side of the same transmissions
(l-message at time 1, r-message ``m`` at time ``m - k``) and need no
separate events; Lemma 2 proves the two sides line up, and the test
suite checks it by simulation.

The production path (:func:`propagate_up_events`) emits all events as
flat numpy columns in one vectorised sweep — the rip streams of all
vertices are expanded with a single repeat/offset trick, never touching
per-message Python objects.  Every event is implicitly a unicast to the
sender's parent, so no destination masks are materialised here; the
callers (:func:`propagate_up` and the ConcurrentUpDown assembly) set the
parent bits where they need them.  The seed's per-vertex emission is
kept in :mod:`repro.core.reference` as the differential-testing oracle.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..tree.labeling import LabeledTree
from .schedule import ArraySchedule, Schedule, _bit_of, _mask_width

__all__ = ["propagate_up_events", "parent_masks", "propagate_up"]


def _repeat_offsets(counts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """For per-group sizes ``counts``: (group index, 0-based offset) per item."""
    reps = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    bounds = np.zeros(len(counts), dtype=np.int64)
    np.cumsum(counts[:-1], out=bounds[1:])
    offs = np.arange(len(reps), dtype=np.int64) - np.repeat(bounds, counts)
    return reps, offs


def propagate_up_events(
    labeled: LabeledTree,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All (U3)/(U4) sends as flat ``(time, sender, message)`` columns.

    Every event is a unicast to ``parent(sender)``.  The (U4) stream
    gives each nonroot vertex strictly increasing send times and (U3)
    fires at time 0 only where the first rip leaves at time >= 1, so the
    ``(time, sender)`` pairs are all distinct — the ConcurrentUpDown
    assembly relies on (and re-verifies) this.
    """
    arr = labeled.arrays
    nonroot = np.flatnonzero(arr.parent >= 0)

    # (U3): the lip-message, one round ahead of the rip stream.
    lip_v = nonroot[arr.w[nonroot] == 1]
    lip_t = np.zeros(len(lip_v), dtype=np.int64)
    lip_m = arr.i[lip_v]

    # (U4): rip-messages i+w .. j, message m at time m - k.
    starts = arr.i[nonroot] + arr.w[nonroot]
    counts = arr.j[nonroot] - starts + 1
    reps, offs = _repeat_offsets(counts)
    rip_v = nonroot[reps]
    rip_m = starts[reps] + offs
    rip_t = rip_m - arr.k[rip_v]

    times = np.concatenate([lip_t, rip_t])
    senders = np.concatenate([lip_v, rip_v])
    messages = np.concatenate([lip_m, rip_m])
    return times, senders, messages


def parent_masks(labeled: LabeledTree, senders: np.ndarray) -> np.ndarray:
    """Destination bitmask rows for upward unicasts: the sender's parent."""
    masks = np.zeros((len(senders), _mask_width(labeled.n)), dtype=np.uint64)
    if len(senders):
        word, bit = _bit_of(labeled.arrays.parent[senders])
        masks[np.arange(len(senders)), word] = bit
    return masks


def propagate_up(labeled: LabeledTree) -> Schedule:
    """The standalone Propagate-Up schedule (for inspection and tests).

    On its own this schedule delivers every message to the root by time
    ``n - 1`` (Lemma 2); it is one half of the ConcurrentUpDown overlap.
    """
    times, senders, messages = propagate_up_events(labeled)
    arrays = ArraySchedule.from_events(
        times, senders, messages, parent_masks(labeled, senders),
        n=labeled.n, n_messages=labeled.n, name="Propagate-Up",
    )
    return Schedule.from_arrays(arrays)
