"""The one resilience policy behind :class:`~repro.service.GossipService`.

Both of the service's operations — building a plan (``"plan"``) and
running one on a real runtime (``"execute"``) — go through
:meth:`Guard.run`, which takes the same decisions in the same order:

1. an *open* circuit breaker short-circuits to ``fallback(None,
   retry_after)`` without running the attempt;
2. the attempt runs;
3. an *availability* error (:data:`AVAILABILITY_ERRORS`) counts against
   the breaker and goes to ``fallback(failure, None)``;
4. any other :class:`~repro.exceptions.ReproError` is deterministic — it
   indicts the request, not the service — so it cancels a half-open
   probe and re-raises;
5. any other :class:`Exception` is *transient*: it is retried
   ``retries`` times with ``retry_backoff * 2**attempt`` seconds of
   backoff, then handled like an availability error;
6. a :class:`BaseException` that is not an :class:`Exception`
   (``KeyboardInterrupt``, ``SystemExit``) cancels a probe and
   propagates untouched: never retried, never counted against the
   breaker, never served degraded.

Breakers are per ``(operation, key)`` and created on first use.  Every
decision is counted in the service's
:class:`~repro.service.stats.StatsRecorder` under ``(operation,
event)``.  Callers own only what differs between the operations: the
attempt (the plan path keeps its planner deadline inside it) and the
fallback.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, Hashable, Optional, Tuple, TypeVar

from ..exceptions import (
    PlanTimeoutError,
    ReproError,
    RuntimeDeadlineError,
    SupervisorError,
)
from .breaker import CircuitBreaker
from .stats import StatsRecorder

__all__ = ["AVAILABILITY_ERRORS", "Guard"]

#: Errors that mean "the service could not answer in time", not "the
#: request is wrong": they trip breakers and are served degraded.
AVAILABILITY_ERRORS = (PlanTimeoutError, RuntimeDeadlineError, SupervisorError)

T = TypeVar("T")


class Guard:
    """Retry → breaker → fallback, once, for every guarded operation.

    Parameters
    ----------
    stats:
        Where the guard counts its decisions (``retry``, ``failure``,
        ``ok``, ``degraded``, ``fast_fail``, ``probe``, ``open``,
        ``close``), each under the operation it guarded.
    retries / retry_backoff:
        Transient-failure retry budget and first backoff in seconds.
    breaker_threshold / breaker_cooldown:
        Per-key :class:`~repro.service.breaker.CircuitBreaker` settings;
        ``breaker_threshold=None`` disables breakers.
    clock:
        Monotonic time source for breaker cooldowns.
    """

    def __init__(
        self,
        stats: StatsRecorder,
        *,
        retries: int,
        retry_backoff: float,
        breaker_threshold: Optional[int],
        breaker_cooldown: float,
        clock: Callable[[], float],
    ) -> None:
        if retries < 0:
            raise ReproError("retries must be >= 0")
        if breaker_threshold is not None and breaker_threshold < 1:
            raise ReproError("breaker_threshold must be >= 1 (or None)")
        if breaker_cooldown <= 0:
            raise ReproError("breaker_cooldown must be positive")
        self._stats = stats
        self._retries = retries
        self._retry_backoff = retry_backoff
        self._threshold = breaker_threshold
        self._cooldown = breaker_cooldown
        self._clock = clock
        self._lock = threading.Lock()
        self._breakers: Dict[Tuple[str, Hashable], CircuitBreaker] = {}

    def run(
        self,
        op: str,
        key: Hashable,
        attempt: Callable[[], T],
        fallback: Callable[[Optional[Exception], Optional[float]], T],
    ) -> T:
        """Answer one ``op`` request for ``key`` under the policy.

        ``fallback(failure, retry_after)`` is called with the
        availability failure (``retry_after`` is then ``None``), or with
        ``failure=None`` and the breaker's remaining cooldown when an
        open breaker skipped the attempt.  It returns the degraded
        answer or raises the error the caller wants surfaced.
        """
        breaker, decision, retry_after = self._acquire(op, key)
        if decision == "reject":
            self._stats.record(op, "fast_fail")
            degraded = fallback(None, retry_after)
            self._stats.record(op, "degraded")
            return degraded
        probing = decision == "probe"
        if probing:
            self._stats.record(op, "probe")
        try:
            result = self.retry(op, attempt)
        except AVAILABILITY_ERRORS as exc:
            failure: Exception = exc
        except ReproError:
            self._cancel_probe(breaker, probing)
            raise  # deterministic: the request is at fault, not the service
        except Exception as exc:
            failure = exc  # transient, and it outlived the retry budget
        except BaseException:
            self._cancel_probe(breaker, probing)
            raise  # an interrupt is not a failure: never retried or degraded
        else:
            self._stats.record(op, "ok")
            if breaker is not None:
                with self._lock:
                    healed = breaker.record_success()
                if healed:
                    self._stats.record(op, "close")
            return result
        self._stats.record(op, "failure")
        if breaker is not None:
            with self._lock:
                opened = breaker.record_failure(self._clock())
            if opened:
                self._stats.record(op, "open")
        degraded = fallback(failure, None)
        self._stats.record(op, "degraded")
        return degraded

    def retry(self, op: str, attempt: Callable[[], T]) -> T:
        """Run ``attempt``, retrying transient failures with backoff.

        Only plain :class:`Exception`\\ s that are not
        :class:`~repro.exceptions.ReproError` are retried: library
        errors are deterministic (or, for availability errors, already
        burnt their budget) and interrupts are not failures.  The plan
        path builds its fallback plan through this directly, since the
        fallback has no breaker of its own.
        """
        tries = 0
        while True:
            try:
                return attempt()
            except ReproError:
                raise
            except Exception:
                if tries >= self._retries:
                    raise
            self._stats.record(op, "retry")
            time.sleep(self._retry_backoff * 2**tries)
            tries += 1

    def state(self, op: str, key: Hashable) -> Optional[str]:
        """The breaker state for ``(op, key)``; ``None`` if it has none."""
        with self._lock:
            breaker = self._breakers.get((op, key))
            return None if breaker is None else breaker.state

    # ------------------------------------------------------------------
    def _acquire(
        self, op: str, key: Hashable
    ) -> Tuple[Optional[CircuitBreaker], str, float]:
        """The key's breaker (created on first use), its decision and
        remaining cooldown; ``(None, "allow", 0.0)`` with breakers off."""
        if self._threshold is None:
            return None, "allow", 0.0
        with self._lock:
            breaker = self._breakers.get((op, key))
            if breaker is None:
                breaker = CircuitBreaker(self._threshold, self._cooldown)
                self._breakers[op, key] = breaker
            now = self._clock()
            return breaker, breaker.acquire(now), breaker.retry_after(now)

    def _cancel_probe(
        self, breaker: Optional[CircuitBreaker], probing: bool
    ) -> None:
        if probing and breaker is not None:
            with self._lock:
                breaker.cancel_probe()
