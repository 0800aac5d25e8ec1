"""Admission control and backpressure for the serve daemon.

PR 8's daemon queued submissions in an unbounded :class:`queue.Queue`:
a flood of clients (or one looping script) could grow `_submissions` —
and the daemon's memory — without bound, while every queued client
waited arbitrarily long for an answer.  Production services *shed*
instead: past capacity, a submit is refused immediately with a
machine-readable ``overloaded`` frame carrying a ``retry_after_ms``
hint, and :class:`~repro.serve.client.ServeClient` backs off with
jittered exponential delays.

:class:`AdmissionController` is the policy object.  It bounds two
things:

* the **total** number of admitted-but-unanswered submissions
  (``max_queued`` — the daemon-wide backlog), and
* the number a single session may have in flight at once
  (``session_inflight`` — one greedy client cannot starve the rest).

``try_admit`` either returns an :class:`AdmissionTicket` — which the
server releases exactly once when the submission's *terminal* frame is
delivered — or ``None``, in which case the caller sends the shed frame
from :meth:`shed_frame`.  The retry hint scales linearly with how far
over capacity the backlog is, so a deeper pile-up spreads retries
further apart.

The CLI flags ``--max-queued`` and ``--session-inflight`` set the two
bounds.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional, Tuple

#: Default daemon-wide backlog of admitted, unanswered submissions.
DEFAULT_MAX_QUEUED = 64

#: Default per-session in-flight submissions.
DEFAULT_SESSION_INFLIGHT = 4

#: Base retry hint (milliseconds) at exactly-full capacity.
DEFAULT_RETRY_AFTER_MS = 200


class AdmissionTicket:
    """Proof that one submission was admitted; release exactly once.

    The server releases the ticket when the submission's terminal frame
    (verdict or error) is handed to the connection thread — *not* when
    the client reads it, so a stalled reader cannot pin capacity beyond
    its own session cap.  ``release()`` is idempotent: terminal frames
    can race (prover fan-out vs. shutdown drain) and double-release must
    never corrupt the accounting.
    """

    __slots__ = ("_controller", "_sid", "_released")

    def __init__(self, controller: "AdmissionController",
                 sid: str) -> None:
        self._controller = controller
        self._sid = sid
        self._released = False

    @property
    def sid(self) -> str:
        return self._sid

    def release(self) -> None:
        """Return this submission's capacity (idempotent)."""
        if self._released:
            return
        self._released = True
        self._controller._release(self._sid)


class AdmissionController:
    """Bounded admission with per-session fairness and load shedding."""

    def __init__(self,
                 max_queued: int = DEFAULT_MAX_QUEUED,
                 session_inflight: int = DEFAULT_SESSION_INFLIGHT,
                 retry_after_ms: int = DEFAULT_RETRY_AFTER_MS) -> None:
        self.max_queued = max(1, int(max_queued))
        self.session_inflight = max(1, int(session_inflight))
        self.retry_after_ms = max(1, int(retry_after_ms))
        self._lock = threading.Lock()
        self._inflight: Dict[str, int] = {}
        self._total = 0
        self._admitted = 0
        self._shed_capacity = 0
        self._shed_session = 0
        self._peak = 0

    def try_admit(self, sid: str) -> Tuple[Optional[AdmissionTicket],
                                           Optional[dict]]:
        """Admit one submission for session ``sid``, or shed it.

        Returns ``(ticket, None)`` on admission, or ``(None, frame)``
        when either the daemon-wide backlog or the session's in-flight
        cap is full — the caller sends the terminal shed ``frame``
        immediately instead of queueing.
        """
        with self._lock:
            if self._total >= self.max_queued:
                self._shed_capacity += 1
                reason = "capacity"
            elif self._inflight.get(sid, 0) >= self.session_inflight:
                self._shed_session += 1
                reason = "session"
            else:
                self._total += 1
                self._admitted += 1
                self._peak = max(self._peak, self._total)
                self._inflight[sid] = self._inflight.get(sid, 0) + 1
                return AdmissionTicket(self, sid), None
        return None, self.shed_frame(reason)

    def _release(self, sid: str) -> None:
        with self._lock:
            self._total = max(0, self._total - 1)
            left = self._inflight.get(sid, 0) - 1
            if left <= 0:
                self._inflight.pop(sid, None)
            else:
                self._inflight[sid] = left

    def retry_hint_ms(self) -> int:
        """A ``retry_after_ms`` hint scaled by current congestion.

        At exactly-full capacity the hint is the base; every full
        capacity's worth of additional pressure would double it, so the
        hint grows linearly with backlog depth (clients add their own
        jittered exponential growth on repeated refusals).
        """
        with self._lock:
            over = max(0, self._total - self.max_queued + 1)
        scale = 1.0 + over / float(self.max_queued)
        return int(self.retry_after_ms * scale)

    def shed_frame(self, reason: str = "capacity") -> dict:
        """The terminal frame for a shed submission.

        ``code`` stays machine-readable (``overloaded``) so clients can
        distinguish backpressure from real errors; ``reason`` says which
        limit tripped (``capacity`` or ``session``).
        """
        return {
            "type": "error",
            "code": "overloaded",
            "error": ("the daemon is at capacity; retry after the "
                      "hinted delay"),
            "reason": reason,
            "retry_after_ms": self.retry_hint_ms(),
        }

    @property
    def inflight(self) -> int:
        """Currently admitted, unanswered submissions (daemon-wide)."""
        with self._lock:
            return self._total

    def stats(self) -> dict:
        """JSON-ready admission counters (for ``stats`` frames)."""
        with self._lock:
            return {
                "max_queued": self.max_queued,
                "session_inflight": self.session_inflight,
                "inflight": self._total,
                "peak_inflight": self._peak,
                "admitted": self._admitted,
                "shed_capacity": self._shed_capacity,
                "shed_session": self._shed_session,
            }
