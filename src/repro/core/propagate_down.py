"""Algorithm Propagate-Down (paper Section 3.2, steps D1–D3).

Generates the *downward* half of the ConcurrentUpDown schedule: every
vertex relays towards the leaves the messages originating elsewhere.

Per vertex ``v`` with block ``(i, j, k)`` and children in DFS order:

* **(D3)** — distribute the subtree's own body messages: message ``m`` of
  ``i..j`` leaves at time ``m - k`` towards every child except the one
  whose subtree originated ``m`` (that child already carries it upward);
  only the s-message ``i`` goes to *all* children.  Special case
  ``i == k`` (``v`` lies on the leftmost root-to-leaf spine): the
  s-message cannot leave at time ``i - k = 0`` — that slot is taken by
  the (U3) lip send (or, at the root, by the children's time-1 lookahead
  receive) — so it is postponed to time ``j - k + 1``.
* **(D2)** — cut-through forwarding: every o-message received from the
  parent is multicast to all children *in the same round it arrives*,
  except the arrivals at times ``i - k`` and ``i - k + 1`` (the parent's
  last body messages below ``i``), which would collide with (D3); they
  are held and flushed at times ``j - k + 1`` and ``j - k + 2``.
* **(D1)** is the receive side: o-messages arrive during
  ``2 .. i-k+1`` and ``j-k+3 .. n+k`` (Lemma 3); it generates no events.

The production path (:func:`propagate_down_events`) is level-synchronous
and vectorised: all (D3) events of the whole tree are expanded in one
shot (every nonroot vertex's body interval ``[i, j]`` is a contiguous
run, so its parent's sends towards the *other* children come from a
single repeat/offset expansion), and (D2) walks the levels root-to-leaf,
deriving each level's forwards from the previous level's *actual* event
rows — the generated schedule is exactly the recursive object Lemma 3
reasons about, including the arrival gaps visible in the paper's
Table 4.

Events are compact ``(time, sender, message, excluded-child)`` columns —
the destination set is always "children of the sender, minus the
excluded child" (``-1`` = none excluded), so no bitmask rows are
materialised here; the callers build masks exactly once.  The seed's
per-vertex emission is kept in :mod:`repro.core.reference` as the
differential-testing oracle.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..tree.labeling import LabeledTree
from .propagate_up import _repeat_offsets
from .schedule import Schedule, _bit_of, _mask_width

__all__ = [
    "propagate_down_events",
    "children_masks",
    "down_event_masks",
    "propagate_down",
]


def children_masks(labeled: LabeledTree) -> np.ndarray:
    """Packed ``(n, W)`` bitmask of each vertex's children."""
    arr = labeled.arrays
    n = labeled.n
    masks = np.zeros((n, _mask_width(n)), dtype=np.uint64)
    if len(arr.child_ids):
        parents_flat = np.repeat(
            np.arange(n, dtype=np.int64), np.diff(arr.child_ptr)
        )
        word, bit = _bit_of(arr.child_ids)
        np.bitwise_or.at(masks, (parents_flat, word), bit)
    return masks


def down_event_masks(
    labeled: LabeledTree, senders: np.ndarray, excl: np.ndarray
) -> np.ndarray:
    """Destination bitmask rows for (D2)/(D3) events.

    Row ``e`` holds the children of ``senders[e]`` minus the excluded
    child ``excl[e]`` (ignored when ``-1``).
    """
    masks = children_masks(labeled)[senders]
    has_excl = np.flatnonzero(excl >= 0)
    if len(has_excl):
        word, bit = _bit_of(excl[has_excl])
        masks[has_excl, word] &= ~bit
    return masks


def propagate_down_events(
    labeled: LabeledTree,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """All (D2)/(D3) sends as flat ``(time, sender, message, excl)`` columns.

    Events whose destination set is empty (the excluded child was the
    sender's only child) are already dropped, mirroring the reference
    emitter.  hot-loop-ok: the only Python loop below is over tree
    *levels* — the (D2) stream of level ``l`` is defined by the actual
    sends of level ``l - 1``, a genuine sequential dependency; every
    per-level step is whole-array numpy.
    """
    arr = labeled.arrays
    n = labeled.n
    deg = np.diff(arr.child_ptr)
    internal = deg > 0
    height = arr.height
    lp = arr.level_ptr
    gap = arr.i - arr.k  # first held-arrival slot per vertex
    flush0 = arr.j - arr.k + 1  # first flush slot per vertex

    # ---- (D3) s-events: i to all children; postponed when i == k. ----
    # by_level order keeps them grouped by the sender's level.
    s_v = arr.by_level[internal[arr.by_level]]
    s_t = np.where(arr.i[s_v] == arr.k[s_v], flush0[s_v], gap[s_v])
    s_m = arr.i[s_v]
    s_bounds = np.searchsorted(arr.k[s_v], np.arange(height + 1))

    # ---- (D3) body events: every nonroot c owns the contiguous run
    # [i_c, j_c] of its parent's body messages; the parent sends each m
    # of that run at m - k_parent to its children minus c.  Owners are
    # taken in level order so the events stay grouped by sender level
    # (sender level = owner level - 1). ----
    owners = arr.by_level[lp[1] :]  # every nonroot vertex, level-ascending
    reps, offs = _repeat_offsets(arr.size[owners])
    b_excl = owners[reps]
    b_sender = arr.parent[b_excl]
    b_m = arr.i[b_excl] + offs
    b_t = b_m - arr.k[b_sender]
    # Drop empty-destination events now (the excluded child was the
    # sender's only child — the reference emitter's skip); this keeps
    # every later stage filter-free.
    bkeep = deg[b_sender] > 1
    if not bkeep.all():
        b_t, b_sender, b_m, b_excl = (
            b_t[bkeep], b_sender[bkeep], b_m[bkeep], b_excl[bkeep]
        )
    b_bounds = np.searchsorted(arr.k[b_sender], np.arange(height + 1))

    # Internal-children CSR (only vertices with children forward anything).
    flat_parents = np.repeat(np.arange(n, dtype=np.int64), deg)
    int_keep = internal[arr.child_ids]
    int_child_ids = arr.child_ids[int_keep]
    int_deg = np.bincount(flat_parents[int_keep], minlength=n).astype(np.int64)
    int_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(int_deg, out=int_ptr[1:])

    def expand(pt, ps, pm, px=None):
        # Arrival rows at the *internal* children of each parent event
        # (leaf children receive but never forward), minus the excluded
        # child when ``px`` is given.
        reps2, offs2 = _repeat_offsets(int_deg[ps])
        child = int_child_ids[int_ptr[ps][reps2] + offs2]
        if px is not None:
            keepers = child != px[reps2]
            reps2, child = reps2[keepers], child[keepers]
        return pt[reps2] + 1, child, pm[reps2]

    def expand_bulk(pt, ps, pm):
        # Same expansion, no exclusions — the (D2) bulk stream.  Internal
        # fan-out is tiny (column 0 covers nearly every event), so a
        # short column loop over the shrinking high-fan-out remainder is
        # cheaper than the repeat/offset machinery.
        d = int_deg[ps]
        if not len(d) or not d.any():
            e = np.empty(0, dtype=np.int64)
            return e, e, e
        base = int_ptr[ps]
        sel = np.flatnonzero(d > 0)
        parts = []
        for c in range(int(d.max())):
            if c:
                sel = sel[d[sel] > c]
            parts.append((pt[sel] + 1, int_child_ids[base[sel] + c], pm[sel]))
        if len(parts) == 1:
            return parts[0]
        return (
            np.concatenate([p[0] for p in parts]),
            np.concatenate([p[1] for p in parts]),
            np.concatenate([p[2] for p in parts]),
        )

    # ---- (D2): forward o-messages level by level. ----
    all_t: List[np.ndarray] = [s_t, b_t]
    all_s: List[np.ndarray] = [s_v, b_sender]
    all_m: List[np.ndarray] = [s_m, b_m]
    p_t = p_s = p_m = None  # previous level's forwards (never excluded)
    for lvl in range(height):  # hot-loop-ok (see docstring)
        # Events sent from level `lvl`: s- and body events of this level
        # (static, tiny) + the forwards computed last round (the bulk).
        sl = slice(s_bounds[lvl], s_bounds[lvl + 1])
        bl = slice(b_bounds[lvl], b_bounds[lvl + 1])
        parts = []
        if sl.stop > sl.start or bl.stop > bl.start:
            parts.append(expand(
                np.concatenate([s_t[sl], b_t[bl]]),
                np.concatenate([s_v[sl], b_sender[bl]]),
                np.concatenate([s_m[sl], b_m[bl]]),
                np.concatenate(
                    [np.full(sl.stop - sl.start, -1, dtype=np.int64), b_excl[bl]]
                ),
            ))
        if p_t is not None and len(p_t):
            parts.append(expand_bulk(p_t, p_s, p_m))
        if not parts:
            p_t = None
            continue
        if len(parts) == 1:
            e_t, child, e_m = parts[0]
        else:
            e_t = np.concatenate([p[0] for p in parts])
            child = np.concatenate([p[1] for p in parts])
            e_m = np.concatenate([p[2] for p in parts])
        if len(child) == 0:
            p_t = None
            continue
        # A vertex forwards each arrival in the same round — except the
        # held arrivals (times gap, gap+1), which flush at j - k + 1,
        # j - k + 2 in arrival order.  The send list is therefore the
        # arrival list with the held rows' times rewritten in place.
        cgap = gap[child]
        held = np.flatnonzero((e_t == cgap) | (e_t == cgap + 1))
        if len(held):
            h_child = child[held]
            order = np.lexsort((e_t[held], h_child))
            h_child = h_child[order]
            first = np.ones(len(h_child), dtype=bool)
            first[1:] = h_child[1:] != h_child[:-1]
            starts = np.flatnonzero(first)
            rank = np.arange(len(h_child), dtype=np.int64) - np.repeat(
                starts, np.diff(np.append(starts, len(h_child)))
            )
            e_t[held[order]] = flush0[h_child] + rank
        p_t, p_s, p_m = e_t, child, e_m
        all_t.append(e_t); all_s.append(child); all_m.append(e_m)

    times = np.concatenate(all_t)
    senders = np.concatenate(all_s)
    messages = np.concatenate(all_m)
    # Only the (D3) body block carries an excluded child; it sits at a
    # fixed offset right after the s-events.
    excl = np.full(len(times), -1, dtype=np.int64)
    excl[len(s_v) : len(s_v) + len(b_t)] = b_excl
    return times, senders, messages, excl


def propagate_down(labeled: LabeledTree) -> Schedule:
    """The standalone Propagate-Down schedule (for inspection and tests).

    Alone it distributes o-messages and body messages downward but never
    moves a message towards the root; it is the second half of the
    ConcurrentUpDown overlap (Lemma 3).
    """
    times, senders, messages, excl = propagate_down_events(labeled)
    return Schedule.from_events(
        times, senders, messages, down_event_masks(labeled, senders, excl),
        n=labeled.n, n_messages=labeled.n, name="Propagate-Down",
    )
