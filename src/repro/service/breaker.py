"""A per-key circuit breaker for the service's guarded operations.

Classic three-state breaker (closed → open → half-open), one per
``(operation, key)`` of plan building and execution, held by
:class:`~repro.service.guard.Guard`:

* **closed** — requests run the planner or runtime normally;
  ``threshold`` *consecutive* availability failures (timeouts, missed
  deadlines, or transient errors that survived the retry budget) trip
  the breaker;
* **open** — requests are short-circuited without touching the planner
  or runtime (served degraded, or fast-failed with a typed
  :class:`~repro.exceptions.CircuitOpenError`) until ``cooldown``
  seconds have passed;
* **half-open** — after the cooldown, exactly *one* request is let
  through as a probe; success closes the breaker, failure re-opens it
  for another cooldown.  Concurrent requests during the probe are still
  short-circuited, so a struggling service never sees a thundering herd.

The breaker itself is clock-agnostic and unlocked: the guard passes
``now`` in (injectable clock for tests) and serialises calls under its
own lock.
"""

from __future__ import annotations

from ..exceptions import ReproError

__all__ = ["CircuitBreaker", "CLOSED", "OPEN", "HALF_OPEN"]

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


class CircuitBreaker:
    """Consecutive-failure circuit breaker with a half-open probe.

    Parameters
    ----------
    threshold:
        Consecutive failures that trip the breaker (>= 1).
    cooldown:
        Seconds an open breaker rejects before allowing a probe (> 0).
    """

    __slots__ = ("threshold", "cooldown", "_state", "_failures", "_opened_at")

    def __init__(self, threshold: int, cooldown: float) -> None:
        if threshold < 1:
            raise ReproError("breaker threshold must be >= 1")
        if cooldown <= 0:
            raise ReproError("breaker cooldown must be positive")
        self.threshold = threshold
        self.cooldown = cooldown
        self._state = CLOSED
        self._failures = 0
        self._opened_at = 0.0

    @property
    def state(self) -> str:
        """Current state: ``"closed"``, ``"open"`` or ``"half-open"``."""
        return self._state

    @property
    def consecutive_failures(self) -> int:
        """Consecutive failures recorded since the last success."""
        return self._failures

    def retry_after(self, now: float) -> float:
        """Seconds until an open breaker will allow a probe (0 otherwise)."""
        if self._state != OPEN:
            return 0.0
        return max(0.0, self.cooldown - (now - self._opened_at))

    # ------------------------------------------------------------------
    def acquire(self, now: float) -> str:
        """Gate one request: ``"allow"``, ``"probe"`` or ``"reject"``.

        ``"probe"`` moves the breaker to half-open and is handed to
        exactly one caller per cooldown expiry; the caller *must* report
        back via :meth:`record_success`, :meth:`record_failure` or
        :meth:`cancel_probe`.
        """
        if self._state == CLOSED:
            return "allow"
        if self._state == OPEN and now - self._opened_at >= self.cooldown:
            self._state = HALF_OPEN
            return "probe"
        # Open and cooling down, or a probe already in flight.
        return "reject"

    def record_success(self) -> bool:
        """Note a successful attempt; returns True on a half-open → closed
        transition (the breaker healed)."""
        healed = self._state == HALF_OPEN
        self._state = CLOSED
        self._failures = 0
        return healed

    def record_failure(self, now: float) -> bool:
        """Note a failed attempt; returns True when this failure *opens*
        the breaker (threshold reached, or a probe failed)."""
        self._failures += 1
        if self._state == HALF_OPEN or (
            self._state == CLOSED and self._failures >= self.threshold
        ):
            self._state = OPEN
            self._opened_at = now
            return True
        return False

    def cancel_probe(self) -> None:
        """Abort a probe that never exercised the planner or runtime
        (the attempt raised a deterministic input error, or was
        interrupted): back to open with the original timestamp, so the
        next request may probe again."""
        if self._state == HALF_OPEN:
            self._state = OPEN

    def __repr__(self) -> str:
        return (
            f"CircuitBreaker(state={self._state!r}, "
            f"failures={self._failures}/{self.threshold}, "
            f"cooldown={self.cooldown})"
        )
