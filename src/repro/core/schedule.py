"""Communication schedules — the paper's central object (Section 1).

A *communication round* ``C`` is a set of tuples ``(m, l, D)``: message
``m`` is multicast from processor ``P_l`` to the processors in ``D``.  A
round must satisfy the network rules:

1. every pair of ``D`` sets in ``C`` is disjoint (each processor receives
   at most one message per round), and
2. all sender indices ``l`` are distinct (each processor sends at most one
   message per round).

A *communication schedule* is a sequence of rounds.  Round ``t`` is sent
at time ``t`` and received at time ``t + 1``; the *total communication
time* is the number of rounds (equivalently, the latest time at which a
communication happens).

One representation lives here, with a view over it:

* :class:`Schedule` — **the** schedule: parallel ``round`` /
  ``sender`` / ``message`` numpy columns plus a packed destination
  bitmask matrix, one row per ``(m, l, D)`` tuple.  Every producer packs
  its sends through :meth:`Schedule.from_sends` or
  :meth:`Schedule.from_events`, the one place where the two rules
  are checked.
* :class:`Round` / :class:`Transmission` — a read-only object view,
  built only by :attr:`Schedule.rounds` for display (ASCII timelines,
  the paper's Tables 1–4) and accepted as raw input by the linter.
  Their constructors check nothing: validation lives once, in
  ``Schedule``.

The *semantic* rules (the sender actually holds the message, every
destination is an adjacent processor) depend on the network and on the
execution history and are checked by :mod:`repro.simulator.validator`
and :mod:`repro.lint`.
"""

from __future__ import annotations

import copy
import zipfile
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import ScheduleConflictError, ScheduleError
from ..types import Message, Time, Vertex

__all__ = [
    "Transmission",
    "Round",
    "Schedule",
    "merge_schedules",
]

#: Set-bit count and ascending set-bit positions of every byte value
#: (rows padded with zeros), for :meth:`Schedule.destination_pairs`.
_BYTE_POPCOUNT = np.array([v.bit_count() for v in range(256)], dtype=np.int64)
_BYTE_BITS = np.array(
    [[b for b in range(8) if v >> b & 1] + [0] * (8 - v.bit_count()) for v in range(256)],
    dtype=np.int64,
)


def _mask_width(n: int) -> int:
    """Number of uint64 words needed for an ``n``-bit destination mask."""
    return max(1, (int(n) + 63) >> 6)


def _bit_of(ids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per-id (word index, single-bit uint64 mask) pair."""
    word = ids >> 6
    bit = np.left_shift(np.uint64(1), (ids & 63).astype(np.uint64))
    return word, bit


def _popcounts(masks: np.ndarray) -> np.ndarray:
    """Per-row set-bit counts of a packed (rows, words) uint64 matrix."""
    return np.bitwise_count(masks).sum(axis=1, dtype=np.int64)


_INT32 = np.iinfo(np.int32)


def _int32_column(values, name: str) -> np.ndarray:
    """``values`` as a contiguous int32 column; ids outside int32 raise
    :class:`~repro.exceptions.ScheduleError` instead of wrapping."""
    col = np.asarray(values)
    if col.dtype != np.int32 and col.size and (
        col.min() < _INT32.min or col.max() > _INT32.max
    ):
        raise ScheduleError(f"array schedule {name} column exceeds int32")
    return np.ascontiguousarray(col, dtype=np.int32)


@dataclass(frozen=True)
class Transmission:
    """One multicast of the object view: ``message`` from ``sender`` to
    ``destinations``.

    A plain record: the construction checks (non-empty destinations, no
    self-send) live in :class:`Schedule`, so a raw ``Transmission``
    can carry a broken send to the linter.

    Ordering compares ``(sender, message)`` only: within one round
    senders are unique, so that is a total order — comparing the
    destination frozensets would be a subset *partial* order, unsafe for
    sorting.  Equality still covers all three fields.
    """

    sender: Vertex
    message: Message
    destinations: FrozenSet[Vertex]

    def __lt__(self, other: "Transmission") -> bool:
        if not isinstance(other, Transmission):
            return NotImplemented
        return (self.sender, self.message) < (other.sender, other.message)

    def __post_init__(self) -> None:
        if not isinstance(self.destinations, frozenset):
            object.__setattr__(self, "destinations", frozenset(self.destinations))

    def fan_out(self) -> int:
        """Number of simultaneous receivers (1 = unicast)."""
        return len(self.destinations)

    def __repr__(self) -> str:
        dests = ",".join(map(str, sorted(self.destinations)))
        return f"({self.message}, {self.sender} -> {{{dests}}})"


class Round:
    """One round of the read-only object view: its transmissions, sorted.

    Offers O(1) lookup of "who sends what" and "who receives what".  It
    checks nothing — rounds built by :attr:`Schedule.rounds`
    already obey the two rules, and a hand-built raw round may break
    them on purpose (the linter's collision rules read such input).
    """

    __slots__ = ("_transmissions", "_by_sender", "_by_receiver")

    def __init__(self, transmissions: Iterable[Transmission] = ()) -> None:
        txs = tuple(sorted(transmissions, key=lambda tx: (tx.sender, tx.message)))
        self._transmissions = txs
        self._by_sender = {tx.sender: tx for tx in txs}
        self._by_receiver = {d: tx for tx in txs for d in tx.destinations}

    @property
    def transmissions(self) -> Tuple[Transmission, ...]:
        """All transmissions, sorted by (sender, message)."""
        return self._transmissions

    def sent_by(self, v: Vertex) -> Optional[Transmission]:
        """The transmission ``v`` performs this round, if any."""
        return self._by_sender.get(v)

    def received_by(self, v: Vertex) -> Optional[Transmission]:
        """The transmission delivering a message to ``v`` this round, if any."""
        return self._by_receiver.get(v)

    def senders(self) -> FrozenSet[int]:
        """All processors that send this round."""
        return frozenset(self._by_sender)

    def receivers(self) -> FrozenSet[int]:
        """All processors that receive this round."""
        return frozenset(self._by_receiver)

    def message_count(self) -> int:
        """Number of distinct multicasts this round."""
        return len(self._transmissions)

    def delivery_count(self) -> int:
        """Total point-to-point deliveries (sum of fan-outs)."""
        return sum(tx.fan_out() for tx in self._transmissions)

    def is_empty(self) -> bool:
        """Whether no communication happens this round."""
        return not self._transmissions

    def __iter__(self) -> Iterator[Transmission]:
        return iter(self._transmissions)

    def __len__(self) -> int:
        return len(self._transmissions)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Round):
            return NotImplemented
        return self._transmissions == other._transmissions

    def __hash__(self) -> int:
        return hash(self._transmissions)

    def __repr__(self) -> str:
        return f"Round({list(self._transmissions)!r})"


class Schedule:
    """A communication schedule: one row per multicast.

    Columns (parallel arrays, one entry per transmission, sorted by
    ``(round, sender)`` with senders unique within a round):

    ============  =========  =============================================
    column        dtype      meaning
    ============  =========  =============================================
    ``round``     int32      send time of the multicast
    ``sender``    int32      sending processor
    ``message``   int32      message id (a DFS label for tree schedules)
    ``dest_mask`` uint64     packed destination bitset, shape ``(E, W)``
                             with ``W = ceil(n / 64)``; bit ``d`` of row
                             ``e`` (word ``d >> 6``, bit ``d & 63``,
                             little-endian within the row) means
                             processor ``d`` receives transmission ``e``
    ============  =========  =============================================

    ``n`` is the number of processors (fixes the mask width),
    ``n_messages`` the number of distinct message ids and ``name`` the
    producing algorithm (used in reports).  The structural rules of
    Section 1 are enforced vectorised at construction, for every way in:
    :meth:`from_sends`, :meth:`from_events`, :meth:`from_npz` and direct
    construction.

    Round ``t`` is *sent* at time ``t`` and *received* at time ``t + 1``;
    :attr:`total_time` is one past the last send time.  Every accessor
    answers from the columns; the ``Round`` / ``Transmission`` view is
    built from them only when :attr:`rounds`, :meth:`round_at` or
    iteration asks for it, and then cached.

    Two schedules are equal when their sends are: ``n``, ``n_messages``
    and ``name`` are not compared, and all-zero trailing mask words are
    ignored, so equal sends compare (and hash) equal whatever universe
    each side declares.
    """

    __slots__ = (
        "n",
        "n_messages",
        "name",
        "round",
        "sender",
        "message",
        "_dest_mask",
        "_mask_builder",
        "_round_ptr",
        "_fan_outs",
        "_rounds",
    )

    def __init__(
        self,
        round: np.ndarray,
        sender: np.ndarray,
        message: np.ndarray,
        dest_mask: Optional[np.ndarray],
        *,
        n: int,
        n_messages: Optional[int] = None,
        name: str = "",
        validate: bool = True,
        mask_builder=None,
    ) -> None:
        self.n = int(n)
        self.n_messages = self.n if n_messages is None else int(n_messages)
        self.name = name
        self.round = _int32_column(round, "round")
        self.sender = _int32_column(sender, "sender")
        self.message = _int32_column(message, "message")
        if dest_mask is None:
            if mask_builder is None:
                raise ScheduleError(
                    "a Schedule needs a dest_mask matrix or a mask_builder"
                )
            self._dest_mask: Optional[np.ndarray] = None
            self._mask_builder = mask_builder
        else:
            self._dest_mask = self._check_mask_shape(dest_mask)
            self._mask_builder = None
        self._round_ptr: Optional[np.ndarray] = None
        self._fan_outs: Optional[np.ndarray] = None
        self._rounds: Optional[Tuple[Round, ...]] = None
        if validate:
            self._validate()

    def _check_mask_shape(self, dest_mask: np.ndarray) -> np.ndarray:
        masks = np.ascontiguousarray(dest_mask, dtype=np.uint64)
        if masks.ndim != 2 or masks.shape != (
            len(self.round),
            _mask_width(self.n),
        ):
            raise ScheduleError(
                f"dest_mask has shape {masks.shape}; expected "
                f"({len(self.round)}, {_mask_width(self.n)}) for n={self.n}"
            )
        return masks

    @property
    def dest_mask(self) -> np.ndarray:
        """Packed ``(E, W)`` destination matrix.

        Usually stored eagerly; schedules built by the array pipeline
        (:meth:`_from_canonical` with a ``mask_builder``) materialise it
        here on first access — their Rule 1 check already ran on the
        flat delivery stream, and the mask-level checks re-run at
        materialisation as defence in depth.
        """
        if self._dest_mask is None:
            self._dest_mask = self._check_mask_shape(self._mask_builder())
            self._mask_builder = None
            self._validate_masks()
        return self._dest_mask

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_events(
        cls,
        times: np.ndarray,
        senders: np.ndarray,
        messages: np.ndarray,
        masks: np.ndarray,
        *,
        n: int,
        n_messages: Optional[int] = None,
        name: str = "",
    ) -> "Schedule":
        """Canonicalise raw send events into a :class:`Schedule`.

        The one place where sends are fused and checked: events with
        empty destination sets are dropped, same-time same-sender events
        carrying the *same* message fuse into one multicast (their
        destination masks are OR-ed — the Theorem 1 overlap), and a
        same-time same-sender pair with *different* messages raises
        :class:`~repro.exceptions.ScheduleConflictError`, machine-checking
        the no-interference property on every construction.
        """
        times = np.asarray(times, dtype=np.int64)
        senders = np.asarray(senders, dtype=np.int64)
        messages = np.asarray(messages, dtype=np.int64)
        masks = np.asarray(masks, dtype=np.uint64)
        if len(times) == 0:
            return cls._empty(n, n_messages, name)
        keep = _popcounts(masks) > 0
        if not keep.all():
            times, senders, messages, masks = (
                times[keep], senders[keep], messages[keep], masks[keep],
            )
        if len(times) == 0:
            return cls._empty(n, n_messages, name)

        order = np.lexsort((messages, senders, times))
        times, senders, messages, masks = (
            times[order], senders[order], messages[order], masks[order],
        )
        new_group = np.empty(len(times), dtype=bool)
        new_group[0] = True
        np.logical_or(
            np.diff(times) != 0, np.diff(senders) != 0, out=new_group[1:]
        )
        starts = np.flatnonzero(new_group)
        if len(starts) != len(times):
            # At least one (time, sender) pair carries several events.
            ends = np.append(starts[1:], len(times)) - 1
            bad = messages[starts] != messages[ends]
            if bad.any():
                g = int(np.flatnonzero(bad)[0])
                raise ScheduleConflictError(
                    f"processor {int(senders[starts[g]])} would send both "
                    f"message {int(messages[starts[g]])} and message "
                    f"{int(messages[ends[g]])} at time {int(times[starts[g]])}"
                )
            masks = np.bitwise_or.reduceat(masks, starts, axis=0)
            times, senders, messages = times[starts], senders[starts], messages[starts]
        return cls(
            times, senders, messages, masks,
            n=n, n_messages=n_messages, name=name,
        )

    @classmethod
    def from_sends(
        cls,
        sends: Iterable[Tuple[Time, Vertex, Message, Iterable[Vertex]]],
        *,
        n: int,
        n_messages: Optional[int] = None,
        name: str = "",
    ) -> "Schedule":
        """Pack ``(time, sender, message, destinations)`` send tuples.

        The front door for producers that emit sends one by one: the
        destination lists are packed into masks and handed to
        :meth:`from_events`, so fusion and conflict checks are the same.
        """
        sends = list(sends)
        times, senders, messages, dests = (
            zip(*sends) if sends else ((), (), (), ())
        )
        try:
            times, senders, messages = (
                np.asarray(col, dtype=np.int64) for col in (times, senders, messages)
            )
        except OverflowError as exc:
            raise ScheduleError(f"send ids exceed int32: {exc}") from exc
        if len(times) and times.min() < 0:
            raise ScheduleError(f"negative send time {int(times.min())}")
        return cls.from_events(
            times, senders, messages,
            _masks_from_dest_lists([tuple(d) for d in dests], int(n)),
            n=int(n), n_messages=n_messages, name=name,
        )

    @classmethod
    def _from_canonical(
        cls,
        round: np.ndarray,
        sender: np.ndarray,
        message: np.ndarray,
        dest_mask: Optional[np.ndarray],
        fan_outs: np.ndarray,
        *,
        n: int,
        n_messages: Optional[int] = None,
        name: str = "",
        mask_builder=None,
    ) -> "Schedule":
        """Construct from already-canonical rows with known fan-outs.

        ``fan_outs`` must equal the per-row mask popcounts.  With an
        eager ``dest_mask`` the full structural validation runs (and
        cross-checks the claimed fan-outs against the mask unions).
        With ``dest_mask=None`` plus a ``mask_builder`` callable the
        packed matrix materialises lazily on first access: the caller
        vouches that Rule 1 was checked on its flat delivery stream
        (the ConcurrentUpDown assembly counts receivers per round
        directly), only the column-level checks run here, and the
        mask-level checks re-run whenever the matrix materialises.
        """
        self = cls(
            round, sender, message, dest_mask,
            n=n, n_messages=n_messages, name=name, validate=False,
            mask_builder=mask_builder,
        )
        self._fan_outs = np.ascontiguousarray(fan_outs, dtype=np.int64)
        if self._dest_mask is None:
            self._validate_columns()
        else:
            self._validate()
        return self

    @classmethod
    def _empty(cls, n: int, n_messages: Optional[int], name: str) -> "Schedule":
        zero = np.zeros(0, dtype=np.int32)
        return cls(
            zero, zero, zero,
            np.zeros((0, _mask_width(n)), dtype=np.uint64),
            n=n, n_messages=n_messages, name=name, validate=False,
        )

    # ------------------------------------------------------------------
    # Structural validation (vectorised; object fallback for error text)
    # ------------------------------------------------------------------
    def _validate(self) -> None:
        self._validate_columns()
        if len(self.round):
            self._validate_masks()

    def _validate_columns(self) -> None:
        """Checks that need only the flat columns (not the mask matrix)."""
        rnd, snd, msg = self.round, self.sender, self.message
        if self.n < 0 or self.n_messages < 0:
            raise ScheduleError(
                f"array schedule needs n >= 0 and n_messages >= 0, got "
                f"n={self.n}, n_messages={self.n_messages}"
            )
        if not len(rnd) == len(snd) == len(msg):
            raise ScheduleError(
                f"array schedule columns differ in length: round {len(rnd)}, "
                f"sender {len(snd)}, message {len(msg)}"
            )
        if len(rnd) == 0:
            return
        if np.any(rnd < 0):
            raise ScheduleError(f"array schedule has negative round {int(rnd.min())}")
        bad = (snd < 0) | (snd >= self.n)
        if bad.any():
            raise ScheduleError(
                f"array schedule sender {int(snd[bad.argmax()])} is not one of "
                f"the {self.n} processors"
            )
        key_sorted = np.all(
            (rnd[:-1] < rnd[1:])
            | ((rnd[:-1] == rnd[1:]) & (snd[:-1] < snd[1:]))
        )
        if not key_sorted:
            raise ScheduleError(
                "array schedule rows must be strictly sorted by (round, sender); "
                "build via Schedule.from_events()"
            )
        pops = self.fan_outs()
        if np.any(pops == 0):
            e = int(np.flatnonzero(pops == 0)[0])
            raise ScheduleError(
                f"transmission of message {int(msg[e])} from {int(snd[e])} "
                "has an empty destination set"
            )

    def _validate_masks(self) -> None:
        """Mask-level checks: no self-sends, Rule 1 receiver disjointness."""
        rnd, snd, msg = self.round, self.sender, self.message
        masks = self.dest_mask
        pops = self.fan_outs()
        word, bit = _bit_of(snd.astype(np.int64))
        self_send = (masks[np.arange(len(snd)), word] & bit) != 0
        if self_send.any():
            e = int(np.flatnonzero(self_send)[0])
            raise ScheduleError(
                f"processor {int(snd[e])} cannot send message {int(msg[e])} to itself"
            )
        # Rule 1 — each processor receives at most one message per round:
        # within every round the destination masks must be pairwise
        # disjoint, i.e. popcount(OR) == sum(popcounts).  Round starts
        # come from the rows, so the cost never scales with a round id.
        new_round = np.ones(len(rnd), dtype=bool)
        new_round[1:] = rnd[1:] != rnd[:-1]
        starts = np.flatnonzero(new_round)
        if len(starts):
            union = np.bitwise_or.reduceat(masks, starts, axis=0)
            union_pop = _popcounts(union)
            sum_pop = np.add.reduceat(pops, starts)
            clash = union_pop != sum_pop
            if clash.any():
                t = int(rnd[starts[int(np.flatnonzero(clash)[0])]])
                raise ScheduleConflictError(self._receiver_collision(t))

    def _receiver_collision(self, t: int) -> str:
        """The rule-1 error text for round ``t``: the first receiver (rows
        in sender order, destinations ascending) that an earlier row of
        the same round already reaches."""
        lo, hi = np.searchsorted(self.round, [t, t + 1]).tolist()
        first: Dict[int, int] = {}
        for e in range(lo, hi):
            bits = np.unpackbits(self.dest_mask[e].view(np.uint8), bitorder="little")
            for d in np.flatnonzero(bits).tolist():
                if d in first:
                    return (
                        f"processor {d} receives two messages in one round: "
                        f"{first[d]} and {int(self.message[e])}"
                    )
                first[d] = int(self.message[e])
        return f"round {t} has a receiver collision"  # pragma: no cover

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def total_time(self) -> int:
        """The paper's total communication time (number of rounds).

        The last round is sent at ``total_time - 1`` and received at
        ``total_time``.
        """
        return int(self.round[-1]) + 1 if len(self.round) else 0

    def total_messages(self) -> int:
        """Total multicasts across all rounds."""
        return len(self.round)

    @property
    def round_ptr(self) -> np.ndarray:
        """CSR offsets: transmissions of round ``t`` are rows ``ptr[t]:ptr[t+1]``."""
        if self._round_ptr is None:
            self._round_ptr = np.searchsorted(
                self.round, np.arange(self.total_time + 1), side="left"
            ).astype(np.int64)
        return self._round_ptr

    def fan_outs(self) -> np.ndarray:
        """Per-transmission receiver counts (popcount of each mask row)."""
        if self._fan_outs is None:
            self._fan_outs = _popcounts(self.dest_mask)
        return self._fan_outs

    def total_deliveries(self) -> int:
        """Total point-to-point deliveries across all rounds."""
        return int(self.fan_outs().sum())

    def max_fan_out(self) -> int:
        """Largest multicast fan-out anywhere in the schedule (0 if empty)."""
        return int(self.fan_outs().max()) if len(self.round) else 0

    @property
    def nbytes(self) -> int:
        """Memory footprint of the canonical arrays (cache weight unit).

        The destination matrix contributes its full ``E x W x 8`` bytes
        whether or not it has materialised yet, so the value is a stable
        property of the schedule, not of access history.
        """
        return (
            self.round.nbytes
            + self.sender.nbytes
            + self.message.nbytes
            + len(self.round) * _mask_width(self.n) * 8
        )

    def destination_pairs(self) -> Tuple[np.ndarray, np.ndarray]:
        """Flattened ``(transmission row, destination)`` delivery pairs.

        Rows appear in transmission order, destinations ascending — the
        vectorised expansion of every multicast into unicasts.
        """
        masks = self.dest_mask
        word_row, word_col = np.nonzero(masks)
        # Expand only the non-zero words, byte by byte through a lookup
        # table: unpacking whole rows would allocate E x n bytes.
        byte = masks[word_row, word_col].view(np.uint8)
        nz = np.flatnonzero(byte)
        value = byte[nz]
        count = _BYTE_POPCOUNT[value]
        first = np.cumsum(count) - count
        rank = np.arange(int(count.sum())) - np.repeat(first, count)
        word = np.repeat(nz >> 3, count)
        dest = (
            word_col[word] * 64
            + np.repeat((nz & 7) * 8, count)
            + _BYTE_BITS[np.repeat(value, count), rank]
        )
        return word_row[word].astype(np.int64), dest.astype(np.int64)

    def widen(self, n: int, n_messages: Optional[int] = None) -> "Schedule":
        """The same schedule on a larger processor universe.

        Pads the destination matrix to ``ceil(n / 64)`` words; contents
        are untouched so no re-validation is needed.
        """
        n = int(n)
        if n < self.n:
            raise ScheduleError(f"cannot narrow an n={self.n} schedule to n={n}")
        n_msgs = self.n_messages if n_messages is None else int(n_messages)
        if n == self.n and n_msgs == self.n_messages:
            return self
        w_old, w_new = _mask_width(self.n), _mask_width(n)
        masks = self.dest_mask
        if w_new > w_old:
            masks = np.hstack(
                [masks, np.zeros((len(self.round), w_new - w_old), dtype=np.uint64)]
            )
        return Schedule(
            self.round, self.sender, self.message, masks,
            n=n, n_messages=n_msgs, name=self.name, validate=False,
        )

    def with_name(self, name: str) -> "Schedule":
        """The same schedule carrying a different name.

        Shares the columns and every cache; a destination matrix that
        has not materialised yet stays lazy and, once built by either
        copy, is built only once.
        """
        twin = copy.copy(self)
        twin.name = name
        if self._dest_mask is None:
            twin._mask_builder = lambda: self.dest_mask
        return twin

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_npz(self, path) -> None:
        """Serialise the canonical arrays to a ``.npz`` file."""
        np.savez(
            path,
            round=self.round,
            sender=self.sender,
            message=self.message,
            dest_mask=self.dest_mask,
            meta=np.array([self.n, self.n_messages], dtype=np.int64),
            name=np.array(self.name),
        )

    @classmethod
    def from_npz(cls, path) -> "Schedule":
        """Load (and re-validate) an :meth:`to_npz` artefact.

        A malformed file raises :class:`~repro.exceptions.ScheduleError`:
        a missing field, a misshapen ``meta``, non-integer columns, ids
        outside int32 or bytes that are not an npz archive here, and
        unequal column lengths or a negative ``n`` / ``n_messages`` in
        the constructor's validation.  A missing file still raises
        :class:`FileNotFoundError`.
        """
        keys = ("round", "sender", "message", "dest_mask", "meta")
        try:
            with np.load(path, allow_pickle=False) as data:
                rnd, snd, msg, masks, meta = (data[key] for key in keys)
                name = str(data["name"])
        except FileNotFoundError:
            raise
        except (KeyError, ValueError, OSError, zipfile.BadZipFile) as exc:
            raise ScheduleError(f"unreadable schedule npz {path}: {exc}") from exc
        for key, col in zip(keys, (rnd, snd, msg, masks, meta)):
            if col.dtype.kind not in "iu":
                raise ScheduleError(
                    f"schedule npz field {key!r} has dtype {col.dtype}; "
                    "expected integers"
                )
        if meta.shape != (2,):
            raise ScheduleError(
                f"schedule npz meta has shape {meta.shape}; expected (2,) = "
                "(n, n_messages)"
            )
        n, n_messages = (int(x) for x in meta)
        return cls(rnd, snd, msg, masks, n=n, n_messages=n_messages, name=name)

    # ------------------------------------------------------------------
    # Object view
    # ------------------------------------------------------------------
    def sends(self) -> List[Tuple[int, int, int, Tuple[int, ...]]]:
        """Every row as a ``(time, sender, message, destinations)`` send
        tuple, destinations ascending — the input form of
        :meth:`from_sends`, in ``(round, sender)`` order."""
        _, dest = self.destination_pairs()
        bounds = np.zeros(len(self.round) + 1, dtype=np.int64)
        np.cumsum(self.fan_outs(), out=bounds[1:])
        dests, edges = dest.tolist(), bounds.tolist()
        return [
            (t, s, m, tuple(dests[edges[e] : edges[e + 1]]))
            for e, (t, s, m) in enumerate(
                zip(self.round.tolist(), self.sender.tolist(), self.message.tolist())
            )
        ]

    @property
    def rounds(self) -> Tuple[Round, ...]:
        """The read-only object view, one :class:`Round` per send time.

        The only place ``Round`` and ``Transmission`` objects are made,
        once per schedule; for display and for consumers that want
        objects, never for the hot path.
        """
        if self._rounds is None:
            rows = self.sends()
            ptr = self.round_ptr.tolist()
            self._rounds = tuple(
                Round(
                    Transmission(sender=s, message=m, destinations=frozenset(ds))
                    for _, s, m, ds in rows[ptr[t] : ptr[t + 1]]
                )
                for t in range(self.total_time)
            )
        return self._rounds

    def round_at(self, t: Time) -> Round:
        """The round sent at time ``t`` (empty if past the end)."""
        rounds = self.rounds
        if 0 <= t < len(rounds):
            return rounds[t]
        return _EMPTY_ROUND

    def transmissions_at(self, t: Time) -> Tuple[Transmission, ...]:
        """Transmissions sent at time ``t``."""
        return self.round_at(t).transmissions

    def __iter__(self) -> Iterator[Round]:
        return iter(self.rounds)

    # ------------------------------------------------------------------
    def _significant_masks(self) -> np.ndarray:
        """The destination matrix without its all-zero trailing words."""
        masks = self.dest_mask
        used = np.flatnonzero(masks.any(axis=0))
        return masks[:, : int(used[-1]) + 1 if len(used) else 0]

    def __eq__(self, other: object) -> bool:
        """The same sends in the same rounds (see the class docstring)."""
        if not isinstance(other, Schedule):
            return NotImplemented
        return (
            np.array_equal(self.round, other.round)
            and np.array_equal(self.sender, other.sender)
            and np.array_equal(self.message, other.message)
            and np.array_equal(self._significant_masks(), other._significant_masks())
        )

    def __hash__(self) -> int:
        return hash((
            self.round.tobytes(), self.sender.tobytes(), self.message.tobytes(),
            self._significant_masks().tobytes(),
        ))

    def __len__(self) -> int:
        return self.total_time

    def __repr__(self) -> str:
        label = f" name={self.name!r}" if self.name else ""
        return (
            f"Schedule(n={self.n}, total_time={self.total_time}, "
            f"transmissions={len(self.round)}{label})"
        )


def _masks_from_dest_lists(
    dests: Sequence[Sequence[int]], n: int
) -> np.ndarray:
    """Packed (E, W) destination matrix from per-event destination lists."""
    masks = np.zeros((len(dests), _mask_width(n)), dtype=np.uint64)
    counts = np.fromiter((len(d) for d in dests), dtype=np.int64, count=len(dests))
    total = int(counts.sum())
    if total:
        flat = np.fromiter(
            (d for ds in dests for d in ds), dtype=np.int64, count=total
        )
        if flat.min() < 0 or flat.max() >= n:
            bad = int(flat.min()) if flat.min() < 0 else int(flat.max())
            raise ScheduleError(
                f"destination {bad} is outside processors 0..{n - 1}"
            )
        rows = np.repeat(np.arange(len(dests)), counts)
        word, bit = _bit_of(flat)
        np.bitwise_or.at(masks, (rows, word), bit)
    return masks


_EMPTY_ROUND = Round(())


def merge_schedules(first: Schedule, second: Schedule, name: str = "") -> Schedule:
    """Overlap two schedules into one (the ConcurrentUpDown combination).

    The two inputs' event rows are concatenated and re-canonicalised by
    :meth:`Schedule.from_events`, which raises
    :class:`ScheduleConflictError` when the overlap breaks a model rule
    — by Theorem 1 this never happens for the Propagate-Up /
    Propagate-Down pair.
    """
    n = max(first.n, second.n)
    a, b = first.widen(n), second.widen(n)
    return Schedule.from_events(
        np.concatenate([a.round, b.round]),
        np.concatenate([a.sender, b.sender]),
        np.concatenate([a.message, b.message]),
        np.vstack([a.dest_mask, b.dest_mask]),
        n=n,
        n_messages=max(a.n_messages, b.n_messages),
        name=name,
    )
