"""Lint test inputs shared by the differential and digest tests.

Plans are built once per test session: the coded and epidemic
producers dominate the cost of the family sweep, and three test modules
lint the same plans.
"""

from __future__ import annotations

from functools import lru_cache

from repro.analysis.sweep import family_instance
from repro.core.gossip import GossipPlan, gossip

#: Size the sweep families are built at.
FAMILY_N = 12

#: The seven networks of the ``certify`` benchmark workload.
CERTIFY_NETWORKS = (
    ("hypercube", 128), ("debruijn", 128), ("binary-tree", 127),
    ("geometric", 144), ("random", 144), ("gnp", 144), ("caterpillar", 144),
)


@lru_cache(maxsize=None)
def family_plan(family: str, n: int, algorithm: str = "concurrent-updown") -> GossipPlan:
    """The plan of ``algorithm`` on ``family_instance(family, n)``."""
    return gossip(family_instance(family, n), algorithm=algorithm)
