"""The one nearest-rank percentile of the package.

A leaf module — it imports nothing from :mod:`repro` — so the analysis
sweeps and the service statistics can share it without a layering
cycle.
"""

from __future__ import annotations

from typing import Sequence, TypeVar

__all__ = ["nearest_rank"]

T = TypeVar("T")


def nearest_rank(sorted_values: Sequence[T], q: float) -> T:
    """The ``q``-quantile (``0 <= q <= 1``) of a sorted non-empty sequence.

    Picks index ``round(q * (len - 1))`` clamped to the sequence; ``round``
    is Python's half-to-even, so the median of two values is the lower
    one and ``q = 0.5`` over ten values picks index 4.
    """
    rank = max(0, min(len(sorted_values) - 1, round(q * (len(sorted_values) - 1))))
    return sorted_values[int(rank)]
