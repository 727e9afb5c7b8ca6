"""Algorithm ConcurrentUpDown — the paper's main contribution (Theorem 1).

``ConcurrentUpDown`` simply *overlaps* the schedules generated by
Propagate-Up (U1–U4) and Propagate-Down (D1–D3).  Theorem 1 shows the two
never interfere: all receives happen at distinct times, and the only
coinciding sends — (U4) to the parent and (D3) to the children at times
``i-k+w .. j-k`` — carry the *same* message, so they fuse into a single
multicast, which the model permits.

The resulting schedule solves gossiping on any tree of height ``r`` in
exactly ``n + r`` rounds; combined with the minimum-depth spanning tree of
Section 3.1 this yields ``n + r`` for any network of radius ``r`` — at
most 1.5x optimal since ``r <= n/2`` and every schedule needs ``n - 1``
rounds.

The production path is fully array-native: the two halves' flat event
columns are merged by a sorted-key union (each half's ``(time, sender)``
keys are strictly unique, so a fused row is exactly one up unicast OR-ed
into one down multicast), destination bitmasks are materialised once for
the merged rows, and the resulting
:class:`~repro.core.schedule.Schedule` construction *verifies* the
no-interference property: a same-key pair carrying different messages
raises :class:`~repro.exceptions.ScheduleConflictError` here, and any
receiver collision raises inside the schedule's structural validation.
Theorem 1 is thereby machine-checked on every invocation.  The seed's
per-vertex construction is kept as
:func:`repro.core.reference.concurrent_updown_reference` so the two
paths can be compared transmission for transmission (see the planner
benchmark's identity gate and the differential tests).
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ScheduleConflictError
from ..tree.labeling import LabeledTree
from ..tree.tree import Tree
from .gossip import register_algorithm
from .propagate_down import children_masks, propagate_down_events
from .propagate_up import propagate_up_events
from .schedule import Schedule, _bit_of

__all__ = ["concurrent_updown", "concurrent_updown_on_tree"]


def _check_unique_keys(sorted_keys: np.ndarray, half: str, n: int) -> None:
    """Raise on the first ``time * n + sender`` key one half repeats.

    Lemmas 2 and 3 give every vertex at most one send per round in each
    half, so a repeated key means the labelling broke the construction.
    """
    repeated = sorted_keys[1:] == sorted_keys[:-1]
    if repeated.any():
        t, s = divmod(int(sorted_keys[1:][repeated][0]), n)
        raise ScheduleConflictError(
            f"{half} sends twice from processor {s} at time {t}"
        )


@register_algorithm("concurrent-updown")
def concurrent_updown(labeled: LabeledTree) -> Schedule:
    """Build the ConcurrentUpDown schedule for a labelled tree.

    Parameters
    ----------
    labeled:
        A DFS-labelled tree (see :func:`repro.tree.labeling.label_tree`).

    Returns
    -------
    Schedule
        A conflict-free gossiping schedule of total communication time
        exactly ``n + height`` for ``n >= 2`` (0 for the trivial
        single-vertex tree).  The columns are built directly;
        ``Round``/``Transmission`` objects materialise only on demand.
    """
    arr = labeled.arrays
    n = labeled.n
    ut, us, um = propagate_up_events(labeled)
    dt, ds, dm, dx = propagate_down_events(labeled)
    if len(ut) + len(dt) == 0:
        return Schedule._empty(n, n, "ConcurrentUpDown")

    # Canonicalise and merge by the (time, sender) key.  Both halves are
    # key-unique by construction (Lemmas 2 and 3); re-verify cheaply and
    # raise on the first repeated key if ever violated.
    dkey = dt * n + ds
    ukey = ut * n + us
    max_t = max(int(dt.max()) if len(dt) else 0, int(ut.max()) if len(ut) else 0)
    key_span = (max_t + 1) * n
    dense_keys = key_span <= max(2_000_000, 4 * (len(dkey) + len(ukey)))
    if dense_keys:
        # Counting merge: the key space (total time x n senders) is small
        # — n + height rounds — so a bincount over it both verifies key
        # uniqueness and assigns every event its final row in one pass,
        # with no per-half argsort and no reordering of the down columns.
        # The up half is tiny (O(n) events), so its uniqueness check is a
        # small sort and its keys are marked into the table directly.
        counts_d = np.bincount(dkey, minlength=key_span)
        if len(dkey) and counts_d.max() > 1:
            _check_unique_keys(np.sort(dkey), "Propagate-Down", n)
        _check_unique_keys(np.sort(ukey), "Propagate-Up", n)
        # An up key landing on an occupied down key is the Theorem 1
        # (U4)/(D3) coincidence: the parent unicast fuses into the
        # children multicast (same message — verified after the scatter,
        # where the down message is already sitting in the shared row).
        fused = counts_d[ukey] > 0
        counts_d[ukey] = 1
        row_of = np.cumsum(counts_d, out=counts_d)
        n_tx = int(row_of[-1]) if key_span else 0
        d_row = row_of[dkey]
        d_row -= 1
        u_row = row_of[ukey]
        u_row -= 1
    else:
        # Sparse keys (deep skinny trees): argsort each half and merge
        # the two strictly-sorted sequences by binary search.
        dord = np.argsort(dkey, kind="stable")
        dkey, dt, ds, dm, dx = dkey[dord], dt[dord], ds[dord], dm[dord], dx[dord]
        uord = np.argsort(ukey, kind="stable")
        ukey, ut, us, um = ukey[uord], ut[uord], us[uord], um[uord]
        _check_unique_keys(dkey, "Propagate-Down", n)
        _check_unique_keys(ukey, "Propagate-Up", n)
        pos = np.searchsorted(dkey, ukey).clip(max=max(len(dkey) - 1, 0))
        fused = (dkey[pos] == ukey) if len(dkey) else np.zeros(len(ukey), dtype=bool)
        new_u = ~fused
        ins = np.searchsorted(dkey, ukey[new_u])
        bump = np.zeros(len(dkey) + 1, dtype=np.int64)
        np.add.at(bump, ins, 1)
        d_row = np.arange(len(dkey), dtype=np.int64) + np.cumsum(bump[:-1])
        u_row = np.empty(len(ukey), dtype=np.int64)
        u_row[new_u] = np.arange(len(ins), dtype=np.int64) + ins
        u_row[fused] = d_row[pos[fused]]
        n_tx = len(dkey) + int(new_u.sum())

    # Scatter both halves straight into their canonical rows (directly
    # in the stored int32 dtype — all values are label/time bounded by
    # 2n).  A fused pair shares one row; after the clash check below
    # the up write repeats the identical (time, sender, message)
    # triple, so the overwrite is a no-op.
    times = np.empty(n_tx, dtype=np.int32)
    senders = np.empty(n_tx, dtype=np.int32)
    messages = np.empty(n_tx, dtype=np.int32)
    times[d_row], senders[d_row], messages[d_row] = dt, ds, dm
    f_idx = np.flatnonzero(fused)
    if len(f_idx):
        clash = f_idx[messages[u_row[f_idx]] != um[f_idx]]
        if len(clash):
            c = int(clash[0])
            raise ScheduleConflictError(
                f"processor {int(us[c])} would send both message {int(um[c])} "
                f"and message {int(messages[u_row[c]])} at time {int(ut[c])}"
            )
    times[u_row], senders[u_row], messages[u_row] = ut, us, um

    # Destination masks are a pure function of the merged rows: every
    # row is "children of the sender", the few unfused up rows zeroed,
    # the (D3) body rows lose their excluded-child bit, and every up
    # event ORs in its parent bit (fused rows get children + parent).
    # The packed matrix is built lazily by this closure on first
    # access (simulation, serialisation, object view) — the structural
    # checks below run on the flat delivery stream instead.
    has_excl = np.flatnonzero(dx >= 0)
    u_only = u_row[~fused]
    excl_rows = d_row[has_excl]
    excl_ids = dx[has_excl]
    up_parents = arr.parent[us]

    def _build_masks() -> np.ndarray:
        masks = children_masks(labeled)[senders]
        masks[u_only] = 0
        if len(excl_rows):
            word, bit = _bit_of(excl_ids)
            masks[excl_rows, word] &= ~bit
        word, bit = _bit_of(up_parents)
        masks[u_row, word] |= bit
        return masks

    # Analytic fan-outs (re-checked against mask popcounts whenever the
    # matrix materialises): |children| - excluded down, + 1 per unicast.
    deg = np.diff(arr.child_ptr)
    deg_s = deg[ds]
    fans = np.zeros(n_tx, dtype=np.int64)
    fans[d_row] = deg_s
    if len(has_excl):
        fans[d_row[has_excl]] -= 1
    fans[u_row] += 1

    if not dense_keys:
        # Sparse-key fallback: the delivery-count table below would be
        # huge, so materialise the masks now and run the full
        # mask-level validation instead.
        return Schedule._from_canonical(
            times, senders, messages, _build_masks(), fans,
            n=n, n_messages=n, name="ConcurrentUpDown",
        )

    # Theorem 1, Rule 1 — each processor receives at most one message
    # per round — machine-checked on the flat delivery stream: expand
    # every multicast into (time, receiver) slots and count.  Receivers
    # are children/parent of the sender by construction, so self-sends
    # are structurally impossible (re-verified at mask materialisation).
    # The expansion repeats values directly (no index indirection):
    # delivery c of event e targets child_ids[child_ptr[sender_e] + c].
    bounds = np.zeros(len(deg_s), dtype=np.int64)
    np.cumsum(deg_s[:-1], out=bounds[1:])
    total = int(bounds[-1]) + (int(deg_s[-1]) if len(deg_s) else 0)
    idx = np.arange(total, dtype=np.int64)
    idx += np.repeat(arr.child_ptr[ds] - bounds, deg_s)
    rec_keys = np.repeat(dkey - ds, deg_s)
    rec_keys += arr.child_ids[idx]
    slot_counts = np.bincount(
        np.concatenate([rec_keys, ut * n + up_parents]), minlength=key_span
    )
    if len(has_excl):
        np.subtract.at(slot_counts, dt[has_excl] * n + excl_ids, 1)
    if len(slot_counts) and slot_counts.max() > 1:
        # Eagerly materialise and run the mask-level validation: it
        # pinpoints the offending round and raises the historical
        # ScheduleConflictError with the exact object-view text.
        Schedule(
            times, senders, messages, _build_masks(),
            n=n, n_messages=n, name="ConcurrentUpDown",
        )
        raise ScheduleConflictError(  # pragma: no cover — validation raises
            "ConcurrentUpDown produced a receiver collision"
        )

    return Schedule._from_canonical(
        times, senders, messages, None, fans,
        n=n, n_messages=n, name="ConcurrentUpDown",
        mask_builder=_build_masks,
    )


def concurrent_updown_on_tree(tree: Tree) -> Schedule:
    """Convenience wrapper: label ``tree`` then run ConcurrentUpDown."""
    return concurrent_updown(LabeledTree(tree))
