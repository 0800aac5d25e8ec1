"""A circuit breaker for the daemon's prover backend.

When the prover starts failing on every submission — a poisoned native
library, a corrupted cache, a bug a recent kernel keeps tripping —
retrying every submission against it at full price turns one fault into
service-wide latency collapse.  The classic remedy is a circuit
breaker: after ``threshold`` *consecutive* backend failures the breaker
**opens** and the daemon stops paying for doomed verifications;
submissions are answered *degraded* (a cached verdict for a source the
daemon has proved before, or a residue-only answer).  After
``cooldown`` seconds the breaker goes **half-open** and admits exactly
one trial verification; success closes it, failure re-opens it and
restarts the cooldown clock.  The trial is the only way back to
closed: only a real verification says whether the prover works again.

The breaker is deliberately ignorant of what "failure" means — the
server feeds it (an exception escaping the prover).  The clock is
injectable so the state machine is unit-testable without sleeping.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

#: Consecutive backend failures before the breaker opens.
DEFAULT_THRESHOLD = 3

#: Seconds an open breaker waits before admitting a half-open trial.
DEFAULT_COOLDOWN = 5.0


class CircuitBreaker:
    """Closed → open → half-open state machine over backend health."""

    def __init__(self, threshold: int = DEFAULT_THRESHOLD,
                 cooldown: float = DEFAULT_COOLDOWN,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.threshold = max(1, int(threshold))
        self.cooldown = max(0.0, float(cooldown))
        self._clock = clock
        self._lock = threading.Lock()
        self._state = "closed"
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._opened_total = 0
        self._failures_total = 0

    @property
    def state(self) -> str:
        """``closed``, ``open``, or ``half-open`` (cooldown elapsed)."""
        with self._lock:
            return self._state_locked()

    def _state_locked(self) -> str:
        if (self._state == "open"
                and self._clock() - self._opened_at >= self.cooldown):
            self._state = "half-open"
        return self._state

    def allow(self) -> bool:
        """May the caller run a real verification right now?

        Closed: always.  Open: no — serve degraded.  Half-open: exactly
        one caller gets a trial (the transition back to ``open`` is
        immediate, so concurrent callers cannot stampede the backend —
        the trial itself re-opens or closes the breaker by its result).
        """
        with self._lock:
            state = self._state_locked()
            if state == "closed":
                return True
            if state == "half-open":
                # The trial is in flight: treat further traffic as open
                # until record_success/record_failure resolves it.
                self._state = "open"
                self._opened_at = self._clock()
                return True
            return False

    def record_success(self) -> None:
        """A real verification completed with a healthy backend."""
        with self._lock:
            self._consecutive_failures = 0
            self._state = "closed"

    def record_failure(self) -> None:
        """The backend failed (an exception escaped the prover)."""
        with self._lock:
            self._failures_total += 1
            self._consecutive_failures += 1
            if self._state != "closed":
                # A failure while open/half-open re-arms the cooldown.
                self._state = "open"
                self._opened_at = self._clock()
                return
            if self._consecutive_failures >= self.threshold:
                self._state = "open"
                self._opened_at = self._clock()
                self._opened_total += 1

    def to_dict(self) -> dict:
        """JSON-ready breaker state (no timestamps — reports stay
        reproducible)."""
        with self._lock:
            return {
                "state": self._state_locked(),
                "threshold": self.threshold,
                "cooldown": self.cooldown,
                "consecutive_failures": self._consecutive_failures,
                "failures_total": self._failures_total,
                "opened_total": self._opened_total,
            }
