"""Injectable monotonic clock for the asyncio runtime.

Every time-dependent decision in :mod:`repro.runtime` — retransmit
backoff, heartbeat cadence, failure-detector staleness, round and
whole-run deadlines — goes through a :class:`Clock` instance instead of
calling :func:`time.monotonic` / :func:`asyncio.sleep` directly.  The
conventions gate (``repro.check.codelint`` rule 5) enforces this: bare
``asyncio.sleep`` / ``time.time`` / ``time.monotonic`` /
``asyncio.wait_for`` calls are forbidden in ``src/repro/runtime``
outside this module.

Why injectable: the runtime's tests need to shrink every timeout by a
constant factor to run a whole failure-detection scenario in tens of
milliseconds, and a pluggable clock keeps that a configuration change
rather than a monkeypatch.  :class:`ScaledClock` is that test double; a
fully virtual clock could implement the same protocol.
"""

from __future__ import annotations

import asyncio
import time
from typing import Awaitable, Protocol, TypeVar

__all__ = ["Clock", "RealClock", "ScaledClock"]

T = TypeVar("T")


class Clock(Protocol):
    """What the runtime needs from a time source."""

    def time(self) -> float:
        """Current monotonic time in seconds (origin unspecified)."""
        ...

    async def sleep(self, seconds: float) -> None:
        """Suspend the calling task for ``seconds``."""
        ...

    async def wait_for(self, awaitable: Awaitable[T], timeout: float) -> T:
        """Await ``awaitable``, raising :class:`asyncio.TimeoutError` after
        ``timeout`` seconds."""
        ...


class RealClock:
    """The production clock: monotonic time and real asyncio waits."""

    def time(self) -> float:
        return time.monotonic()

    async def sleep(self, seconds: float) -> None:
        await asyncio.sleep(seconds)

    async def wait_for(self, awaitable: Awaitable[T], timeout: float) -> T:
        return await asyncio.wait_for(awaitable, timeout)


class ScaledClock:
    """A clock whose *sleeps and timeouts* run ``scale`` times faster.

    ``scale=0.1`` turns a 2-second failure-detection window into 200 ms
    of real waiting while reported :meth:`time` stays in *virtual*
    seconds (real elapsed divided by ``scale``), so staleness arithmetic
    against configured intervals is unchanged.  Used by the test suite;
    production code always gets :class:`RealClock`.
    """

    def __init__(self, scale: float = 0.1) -> None:
        if not 0.0 < scale <= 1.0:
            from ..exceptions import GossipRuntimeError

            raise GossipRuntimeError(f"clock scale {scale} not in (0, 1]")
        self.scale = scale
        self._origin = time.monotonic()

    def time(self) -> float:
        return (time.monotonic() - self._origin) / self.scale

    async def sleep(self, seconds: float) -> None:
        await asyncio.sleep(seconds * self.scale)

    async def wait_for(self, awaitable: Awaitable[T], timeout: float) -> T:
        return await asyncio.wait_for(awaitable, timeout * self.scale)
