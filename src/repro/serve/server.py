"""The verification daemon: warm, concurrent, incremental, overload-safe.

One process hosts everything the prover keeps warm — the intern table,
the symbolic memo caches and a shared content-addressed proof store —
and serves verification over a socket.
Clients hold *sessions*: a client submits kernel source, the daemon
parses it, computes fragment-level dependency digests, and the engine's
fragment-grained search re-proves only the obligations whose content
keys changed since that session's last submission; everything else is
served from the store after checker revalidation.

Concurrency model (deliberate, and load-bearing for soundness):

* one **connection thread per client** does framing I/O only — it never
  touches the intern table or any symbolic state;
* one **prover thread** owns all parsing and verification.  The
  symbolic layer (intern table, memo caches) is process-global and
  not thread-safe; funnelling every submission through one thread
  makes that a non-issue and gives request *batching* for free: the
  prover drains whatever is queued, groups identical sources, and
  coalesces them into one ``verify_all`` pass whose verdict fans out
  to every waiting session (``serve.batch.coalesced``);
* between batches — a quiescent point by construction — the
  :class:`~repro.serve.housekeeping.CacheGovernor` may start a new
  cache generation, so thousands of unrelated kernels cannot grow the
  process without bound;
* the prover thread hands each frame to its connection thread through
  the waiter's reply queue and goes straight on to the next group.
  The woken connection thread still needs the GIL, which CPython takes
  from a busy thread only after its switch interval (5 ms by default),
  so at the default a verdict can wait that long before it is sent.
  :meth:`VerificationServer.start` lowers the process's switch interval
  to :data:`_SWITCH_INTERVAL_S`.  Idle connection threads block in
  ``recv`` or on their queue and do not ask for the GIL, so the prover
  thread is interrupted only while a frame is waiting to be sent.
  Socket writes stay on the connection threads: a slow client never
  blocks verification;
* each verify group records straight into the daemon's one telemetry
  sink, tagged with the group's submit ids.  The telemetry lock is held
  for one event append or one connection-thread counter bump at a
  time, never for a verification, so a shed stays immediate; readers
  on other threads (the sampler, the ``stats``/``metrics``/``health``
  frames) copy what they read in one step.

Resilience model (the PR 9 layer):

* **admission control** (:mod:`repro.serve.admission`): the backlog of
  admitted-but-unanswered submissions is bounded daemon-wide and
  per-session; past either cap a submit is *shed* with an immediate
  terminal ``error``/``overloaded`` frame carrying ``retry_after_ms``,
  so a flood cannot grow ``_submissions`` — or daemon memory — without
  bound;
* **deadlines**: ``deadline_ms`` on a submit frame becomes an absolute
  :class:`~repro.prover.engine.ProverOptions` deadline, which the engine
  checks between obligations; past it the client gets a *partial*
  verdict whose residue marks the unfinished properties with status
  ``deadline`` — degraded answers, not hangs.  Parsing, the symbolic
  step build and a single search call run to completion before the
  next check (see docs/serve.md);
* **circuit breaking** (:mod:`repro.serve.breaker`): consecutive
  backend failures (exceptions escaping the prover) open the breaker;
  while open, submissions are answered *degraded* — a cached verdict
  when this daemon has verified the identical source before, a
  residue-only answer otherwise.  After the cooldown one half-open
  trial verification runs: success closes the breaker, failure
  re-opens it.

Responses stream obligation-progress events (the flight-recorder
envelope of PR 4) and terminate with a verdict carrying the *unproved
residue* (:mod:`repro.serve.residue`) rather than a bare boolean.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import queue
import socket
import sys
import tempfile
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

from .. import obs
from ..frontend import parse_program
from ..lang.errors import ReflexError
from ..obs.events import Event, EventLog
from ..obs.export import prometheus_exposition
from ..obs.timeseries import Sampler, TimeSeries, registry_snapshot
from ..prover import DEADLINE_MESSAGE, ProverOptions, Verifier
from ..prover.incremental import (
    InvalidationMap,
    Part,
    changed_parts,
    # Re-exported: perfbench/layers.py times digest work by this name.
    fragment_digests,  # noqa: F401
)
from ..prover.proofstore import ProofStore
from .admission import (
    DEFAULT_MAX_QUEUED,
    DEFAULT_SESSION_INFLIGHT,
    AdmissionController,
    AdmissionTicket,
)
from .breaker import DEFAULT_COOLDOWN, DEFAULT_THRESHOLD, CircuitBreaker
from .housekeeping import DEFAULT_MAX_INTERN_TERMS, CacheGovernor
from .protocol import ProtocolError, recv_message, send_message
from .residue import degraded_residue, residue_for
from .session import Session, SessionRegistry
from .slo import HealthPolicy, compute_health

#: Protocol/revision tag answered in ``hello`` frames.
PROTOCOL_VERSION = 3

#: Schema tag stamped on ``stats``/``metrics``/``health`` frames and the
#: ``--stats-out`` payload; bumped whenever their shape changes so a
#: scraper can refuse payloads it does not understand (2: the payload no
#: longer embeds the flight recorder's events).
STATS_SCHEMA_VERSION = 2

#: Verdicts cached for degraded (breaker-open) serving, keyed by source.
_VERDICT_CACHE_CAP = 128

#: Per-submission latency breakdowns retained for the stats payload
#: (``repro report`` renders them as the "recent submissions" table).
_RECENT_SUBMISSIONS = 32

#: The interpreter switch interval the daemon runs with, in seconds: how
#: long a connection thread with a verdict to send may wait for the GIL
#: while the prover thread works (see "Concurrency model" above).
_SWITCH_INTERVAL_S = 0.0005


def _env_float(name: str) -> Optional[float]:
    """An optional positive float from the environment."""
    raw = os.environ.get(name)
    if not raw:
        return None
    try:
        value = float(raw)
    except ValueError:
        return None
    return value if value > 0 else None


@dataclass
class ServeOptions:
    """Daemon configuration (the CLI's ``repro serve`` flags)."""

    #: TCP bind host; ignored when ``socket_path`` is set
    host: str = "127.0.0.1"
    #: TCP bind port (0 = ephemeral; read the bound port off ``address``)
    port: int = 0
    #: UNIX-socket path (overrides host/port when set)
    socket_path: Optional[str] = None
    #: shared proof-store directory (``None`` disables persistence —
    #: every submission is then searched afresh)
    store: Optional[str] = None
    #: intern-table budget for the cache governor
    max_intern_terms: int = DEFAULT_MAX_INTERN_TERMS
    #: write an aggregated run payload (for ``repro report``) here,
    #: atomically after every batch
    stats_out: Optional[str] = None
    #: bind the daemon's flight recorder to this JSONL path
    events_out: Optional[str] = None
    #: daemon-wide cap on admitted, unanswered submissions
    #: (``REPRO_SERVE_MAX_QUEUED``); past it submits are shed
    max_queued: int = DEFAULT_MAX_QUEUED
    #: per-session in-flight submission cap (``REPRO_SERVE_MAX_PER_SESSION``)
    session_inflight: int = DEFAULT_SESSION_INFLIGHT
    #: consecutive backend failures before the circuit breaker opens
    breaker_threshold: int = DEFAULT_THRESHOLD
    #: seconds an open breaker waits before its half-open trial
    breaker_cooldown: float = DEFAULT_COOLDOWN
    #: rolling time-series sampling interval, seconds
    #: (``REPRO_SERVE_SAMPLE_INTERVAL``)
    sample_interval: float = field(
        default_factory=lambda: (
            _env_float("REPRO_SERVE_SAMPLE_INTERVAL") or 1.0
        )
    )
    #: p99 latency objective for ``serve.verify.seconds``, milliseconds
    #: (``REPRO_SERVE_SLO_P99_MS``; ``None`` disables the SLO health
    #: check — see :mod:`repro.serve.slo`)
    slo_p99_ms: Optional[float] = field(
        default_factory=lambda: _env_float("REPRO_SERVE_SLO_P99_MS")
    )


@dataclass
class _Submission:
    """One queued verification request and where its answers go."""

    session: Session
    source: str
    replies: "queue.Queue[dict]"
    stream: bool = True
    #: the client's requested budget (echoed in the verdict), and its
    #: absolute ``time.monotonic()`` form fixed at admission time
    deadline_ms: Optional[int] = None
    deadline: Optional[float] = None
    #: admission capacity held until the terminal frame is delivered
    ticket: Optional[AdmissionTicket] = None
    #: request id assigned at admission, echoed on every frame this
    #: submission produces (and tagged onto spans/events it causes)
    submit_id: str = ""
    #: ``time.monotonic()`` trace stamps: frame received, admission
    #: granted, batch dequeued by the prover thread
    received_at: float = 0.0
    admitted_at: float = 0.0
    dequeued_at: Optional[float] = None

    def breakdown(self, group_start: Optional[float] = None,
                  fanout_start: Optional[float] = None) -> dict:
        """The per-phase latency split for this submission, in ms:
        admission wait → queue wait → verify → fan-out, plus the
        end-to-end total.

        The phases are *contiguous* stamps (queue wait ends where the
        group's prover work starts, which for a coalesced batch includes
        waiting behind earlier groups), so their sum tracks the client's
        observed wall time instead of undercounting parse/digest work.
        Robust to missing stamps — a submission built without them
        reports zeros for the untracked phases."""
        now = time.monotonic()
        received = self.received_at or now
        admitted = self.admitted_at or received
        queue_end = (group_start if group_start is not None
                     else (self.dequeued_at if self.dequeued_at
                           is not None else admitted))
        verify_end = (fanout_start if fanout_start is not None
                      else queue_end)
        phases = {
            "admission_ms": max(0.0, admitted - received) * 1000.0,
            "queue_ms": max(0.0, queue_end - admitted) * 1000.0,
            "verify_ms": (max(0.0, verify_end - group_start) * 1000.0
                          if group_start is not None else 0.0),
            "fanout_ms": (max(0.0, now - fanout_start) * 1000.0
                          if fanout_start is not None else 0.0),
        }
        total = (max(0.0, now - received) * 1000.0 if self.received_at
                 else sum(phases.values()))
        phases["total_ms"] = max(total, sum(phases.values()))
        return {name: round(ms, 3) for name, ms in phases.items()}

    def answer(self, frame: dict) -> None:
        """Deliver one frame; a *terminal* frame releases admission
        capacity (idempotently — terminal frames can race between the
        prover fan-out and the shutdown drain)."""
        self.replies.put(frame)
        if (frame.get("type") in ("verdict", "error")
                and self.ticket is not None):
            self.ticket.release()


class _DaemonEventLog(EventLog):
    """The daemon's event log, which the prover thread and the
    connection threads share.

    Appends must not interleave (``seq`` is the append position), so
    each one holds the daemon's telemetry lock — for one event, never
    for a verification.  While a verify group runs, ``streams`` holds
    the reply queues of its streaming waiters, and every event the
    prover emits through :func:`repro.obs.event` also goes to them as
    an ``event`` frame.  The daemon's own events (:meth:`note`) never
    stream.  Without ``--events-out`` the log keeps nothing: its
    events only stream.
    """

    def __init__(self, lock: threading.Lock, retain: bool) -> None:
        super().__init__(worker="serve")
        self._lock = lock
        self._retain = retain
        self.streams: List["queue.Queue[dict]"] = []

    def note(self, kind: str, /, **fields: object) -> Event:
        """Append one event; the caller holds the telemetry lock."""
        event = super().emit(kind, **fields)
        if not self._retain:
            self.events.clear()
        return event

    def emit(self, kind: str, /, **fields: object) -> Event:
        """Append a prover event and stream it to the running group's
        waiters."""
        with self._lock:
            event = self.note(kind, **fields)
        if self.streams:
            frame = {"type": "event", "event": event.to_dict()}
            for stream in self.streams:
                stream.put(frame)
        return event


def _group_counters(before: Dict[str, int],
                    after: Dict[str, int]) -> Dict[str, int]:
    """What one verify group added to the daemon's counters.

    ``serve.*`` is the daemon's own namespace, which connection threads
    bump while a group runs, so it is left out; the prover counts under
    its layers' names.  A counter the group bumped by zero does not
    show."""
    return {name: amount - before.get(name, 0)
            for name, amount in after.items()
            if amount != before.get(name, 0)
            and not name.startswith("serve.")}


def _error_frame(code: str, message: str) -> dict:
    """A terminal ``error`` frame."""
    return {"type": "error", "code": code, "error": message}


def _jsonable_part(part: Part) -> Optional[List[str]]:
    """A fragment slice id as JSON: ``None`` for the base slice, a
    two-element list for an exchange."""
    return None if part is None else [part[0], part[1]]


class _ClientGone(OSError):
    """The peer vanished while we were sending (already counted)."""


class VerificationServer:
    """The ``repro serve`` daemon (see the module docstring)."""

    def __init__(self, options: Optional[ServeOptions] = None,
                 prover_options: Optional[ProverOptions] = None) -> None:
        self.options = options or ServeOptions()
        base = prover_options or ProverOptions()
        if self.options.store is not None:
            base.proof_store = self.options.store
        self.prover_options = base
        self.sessions = SessionRegistry()
        self.invalidation = InvalidationMap()
        self.governor = CacheGovernor(self.options.max_intern_terms)
        self.admission = AdmissionController(
            max_queued=self.options.max_queued,
            session_inflight=self.options.session_inflight,
        )
        self.breaker = CircuitBreaker(
            threshold=self.options.breaker_threshold,
            cooldown=self.options.breaker_cooldown,
        )
        #: every verify group records straight into this sink (see
        #: ``_verify_group_inner``); the lock serializes event appends
        #: and the connection threads' counters.  The daemon's event log
        #: replaces the sink's own; ``events`` still gives a daemon with
        #: a flight recorder its run id.
        self.telemetry = obs.Telemetry(
            metrics=True, events=bool(self.options.events_out),
        )
        self._telemetry_lock = threading.Lock()
        self.telemetry.events = _DaemonEventLog(
            self._telemetry_lock, retain=bool(self.options.events_out),
        )
        #: rolling time-series over the daemon's registry (counter
        #: rates, windowed histogram quantiles) fed by a background
        #: sampler; the health/SLO surface and ``metrics`` frames read it
        self.series = TimeSeries()
        self.sampler = Sampler(
            self._series_snapshot, series=self.series,
            interval=self.options.sample_interval,
        )
        self.health_policy = HealthPolicy(
            slo_p99_ms=self.options.slo_p99_ms,
        )
        self._started_mono = time.monotonic()
        #: monotonic sequence stamped on stats/metrics/health payloads
        #: so a scraper can detect stale or out-of-order reads
        self._stats_seq = itertools.count(1)
        self._submit_seq = itertools.count(1)
        self._recent: "deque[dict]" = deque(maxlen=_RECENT_SUBMISSIONS)
        self._submissions: "queue.Queue[Optional[_Submission]]" = \
            queue.Queue()
        self._listener: Optional[socket.socket] = None
        self._threads: List[threading.Thread] = []
        self._stopping = threading.Event()
        self._stopped = threading.Event()
        self._verdict_cache: "OrderedDict[str, dict]" = OrderedDict()
        #: chaos instrumentation: called with each batch before it is
        #: processed (see :mod:`repro.harness.chaos_serve`); failures
        #: are swallowed — the hook can observe, block or delay, never
        #: break the prover thread
        self.batch_hook: Optional[Callable[[List[_Submission]], None]] \
            = None
        self.address: Optional[Tuple[str, int]] = None

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Bind the socket and start the accept + prover threads.

        Raises :class:`OSError` when the address cannot be bound (the
        CLI maps that to its distinct bind-failure exit status).
        """
        if self.options.socket_path is not None:
            listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            listener.bind(self.options.socket_path)
        else:
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((self.options.host, self.options.port))
            self.address = listener.getsockname()[:2]
        listener.listen(128)
        self._listener = listener
        sys.setswitchinterval(min(sys.getswitchinterval(),
                                  _SWITCH_INTERVAL_S))
        if self.options.events_out:
            self.telemetry.events.bind(self.options.events_out)
        if self.options.store is not None:
            # Reclaim temp files a crashed earlier writer left behind.
            ProofStore(self.options.store).sweep_temps()
        for target, name in ((self._accept_loop, "serve-accept"),
                             (self._prover_loop, "serve-prover")):
            thread = threading.Thread(target=target, name=name,
                                      daemon=True)
            thread.start()
            self._threads.append(thread)
        self.sampler.start()

    @property
    def address_str(self) -> str:
        """The bound address in client-usable form."""
        if self.options.socket_path is not None:
            return self.options.socket_path
        if self.address is None:
            return "(not bound)"
        host, port = self.address
        return f"{host}:{port}"

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the daemon shuts down; returns whether it has."""
        return self._stopped.wait(timeout)

    def shutdown(self) -> None:
        """Begin an orderly shutdown (idempotent, thread-safe).

        Stops accepting new connections immediately; the prover thread
        finishes the batch in flight, sheds everything still queued with
        terminal ``shutting-down`` frames, and flushes the artifacts.
        """
        if self._stopping.is_set():
            return
        self._stopping.set()
        self._submissions.put(None)  # wake the prover thread
        listener = self._listener
        if listener is not None:
            # Closing alone does not wake a thread blocked in accept()
            # on Linux; shutting the socket down does (TCP and UNIX).
            with contextlib.suppress(OSError):
                listener.shutdown(socket.SHUT_RDWR)
            with contextlib.suppress(OSError):
                listener.close()

    def close(self) -> None:
        """Shut down, join the service threads, flush outputs."""
        self.shutdown()
        for thread in self._threads:
            thread.join(timeout=10)
        self.sampler.stop()  # final sample lands in the stats payload
        self._flush_outputs()
        if self.options.socket_path is not None:
            with contextlib.suppress(OSError):
                os.unlink(self.options.socket_path)
        self._stopped.set()

    def __enter__(self) -> "VerificationServer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- connection threads --------------------------------------------------

    def _accept_loop(self) -> None:
        """Accept clients until the listener is closed."""
        while not self._stopping.is_set():
            try:
                conn, _addr = self._listener.accept()
            except OSError:
                break
            thread = threading.Thread(
                target=self._handle_conn, args=(conn,),
                name="serve-conn", daemon=True,
            )
            thread.start()

    def _send(self, conn: socket.socket, frame: dict) -> None:
        """Send one frame; a vanished peer becomes :class:`_ClientGone`
        after the dropped frame is counted (``serve.client_drop``)."""
        try:
            send_message(conn, frame)
        except OSError as error:
            self._note_client_drop(frame.get("type"))
            raise _ClientGone(str(error)) from error

    def _note_client_drop(self, frame_kind: Optional[str]) -> None:
        """Account one client that vanished mid-conversation."""
        self._count("serve.client_drop", frame_kind=frame_kind or "(none)")

    def _count(self, name: str, amount: int = 1, /,
               **event: object) -> None:
        """Bump the daemon counter ``name`` and, given fields, record a
        ``name`` event, under the telemetry lock (from any thread)."""
        with self._telemetry_lock:
            self.telemetry.incr(name, amount)
            if event:
                self.telemetry.events.note(name, **event)

    def _handle_conn(self, conn: socket.socket) -> None:
        """One client's request loop: framing I/O only — all symbolic
        work happens on the prover thread.

        The session rides in a mutable holder rather than a local so a
        session created *inside* ``_dispatch`` (a submit with no hello)
        is still reaped when the send path raises mid-dispatch — the
        exception would otherwise outrun the assignment and leak it.
        """
        holder: Dict[str, Optional[Session]] = {"session": None}
        try:
            with contextlib.closing(conn):
                try:
                    while not self._stopping.is_set():
                        request = recv_message(conn)
                        if request is None:
                            break
                        if self._dispatch(conn, holder, request) is _CLOSE:
                            break
                except ProtocolError as error:
                    # A garbled or oversized frame: tell the client (it
                    # may still be reading) and hang up; the daemon is
                    # unharmed.  Handled while the socket is still open —
                    # outside ``closing`` the reply could never be sent.
                    self._count("serve.malformed_frame")
                    with contextlib.suppress(OSError):
                        send_message(conn,
                                     _error_frame("malformed", str(error)))
        except _ClientGone:
            pass  # counted at the send site, with the frame kind dropped
        except OSError:
            self._note_client_drop(None)  # vanished between frames
        finally:
            session = holder["session"]
            if session is not None:
                self.sessions.drop(session.sid)

    def _dispatch(self, conn: socket.socket,
                  holder: Dict[str, Optional[Session]],
                  request: dict):
        """Handle one request frame; returns the ``_CLOSE`` sentinel to
        end the connection.  Any session this dispatch attaches to is
        published in ``holder`` *before* the first reply frame is sent,
        so the caller can reap it on any exit path."""
        session = holder["session"]
        op = request.get("op")
        if op == "hello":
            if session is None:
                sid = request.get("session")
                if isinstance(sid, str):
                    # Resumption: re-attach to a live session (so a
                    # reconnecting client keeps its incremental history
                    # and its in-flight accounting identity).
                    session = self.sessions.get(sid)
            session = session or self.sessions.create()
            holder["session"] = session
            self._send(conn, {
                "type": "hello",
                "session": session.sid,
                "server": "repro-serve",
                "version": PROTOCOL_VERSION,
                "generation": self.governor.generation,
            })
            return None
        if op == "submit":
            received_at = time.monotonic()
            source = request.get("source")
            if not isinstance(source, str) or not source.strip():
                self._send(conn, _error_frame(
                    "bad-request", "submit requires a 'source' string"
                ))
                return None
            deadline_ms = request.get("deadline_ms")
            if deadline_ms is not None and (
                    isinstance(deadline_ms, bool)
                    or not isinstance(deadline_ms, int)
                    or deadline_ms <= 0):
                self._send(conn, _error_frame(
                    "bad-request",
                    "deadline_ms must be a positive integer",
                ))
                return None
            session = session or self.sessions.create()
            holder["session"] = session
            ticket, shed = self.admission.try_admit(session.sid)
            if ticket is None:
                self._count("serve.shed", session=session.sid,
                            reason=shed.get("reason"))
                self._send(conn, shed)
                return None
            replies: "queue.Queue[dict]" = queue.Queue()
            self._submissions.put(_Submission(
                session=session,
                source=source,
                replies=replies,
                stream=bool(request.get("stream", True)),
                deadline_ms=deadline_ms,
                deadline=(None if deadline_ms is None
                          else time.monotonic() + deadline_ms / 1000.0),
                ticket=ticket,
                submit_id=f"sub-{next(self._submit_seq)}",
                received_at=received_at,
                admitted_at=time.monotonic(),
            ))
            while True:
                try:
                    frame = replies.get(timeout=0.5)
                except queue.Empty:
                    if self._stopped.is_set():
                        # The prover thread is gone and will never
                        # answer: refuse locally rather than strand the
                        # client (the ticket died with the controller).
                        self._send(conn, _error_frame(
                            "shutting-down",
                            "the daemon is shutting down",
                        ))
                        return None
                    continue
                self._send(conn, frame)
                if frame.get("type") in ("verdict", "error"):
                    break
            return None
        if op == "ping":
            self._send(conn, {"type": "ok", "op": "ping"})
            return None
        if op == "stats":
            self._send(conn, self._stats_frame())
            return None
        if op == "metrics":
            self._send(conn, self._metrics_frame(request))
            return None
        if op == "health":
            self._send(conn, self._health_frame())
            return None
        if op == "bye":
            self._send(conn, {"type": "ok", "op": "bye"})
            return _CLOSE
        if op == "shutdown":
            self._send(conn, {"type": "ok", "op": "shutdown"})
            self.shutdown()
            return _CLOSE
        self._send(conn, _error_frame(
            "unknown-op", f"unknown op {op!r}"
        ))
        return None

    # -- the prover thread ---------------------------------------------------

    def _prover_loop(self) -> None:
        """Drain submissions in batches until shutdown, then fail any
        stragglers cleanly so no connection thread blocks forever."""
        while True:
            try:
                first = self._submissions.get(timeout=0.25)
            except queue.Empty:
                if self._stopping.is_set():
                    break
                continue
            if first is None:
                break
            batch = [first]
            while True:
                try:
                    item = self._submissions.get_nowait()
                except queue.Empty:
                    break
                if item is None:
                    self._stopping.set()
                    break
                batch.append(item)
            # One bad batch must not kill the prover thread: an escaped
            # exception would strand every waiter on replies.get() and
            # wedge the daemon.  _verify_group converts per-group
            # failures into error frames; this backstop covers the
            # housekeeping and bookkeeping around it.  (A second
            # terminal frame to an already-answered waiter is harmless —
            # its connection loop stopped reading.)
            try:
                self._process_batch(batch)
            except Exception as error:  # noqa: BLE001
                frame = _error_frame(
                    "internal-error",
                    f"{type(error).__name__}: {error}",
                )
                for item in batch:
                    item.answer(frame)
            if self._stopping.is_set():
                break
        # Orderly refusal for anything still queued.
        while True:
            try:
                item = self._submissions.get_nowait()
            except queue.Empty:
                break
            if item is not None:
                item.answer(_error_frame(
                    "shutting-down", "the daemon is shutting down"
                ))
        self._stopped.set()

    def _process_batch(self, batch: List[_Submission]) -> None:
        """One batch: group identical (source, deadline) pairs, verify
        each group once, fan verdicts out, then run housekeeping at the
        quiescent point."""
        hook = self.batch_hook
        if hook is not None:
            with contextlib.suppress(Exception):
                hook(batch)
        GroupKey = Tuple[str, Optional[float]]
        groups: Dict[GroupKey, List[_Submission]] = {}
        order: List[GroupKey] = []
        for submission in batch:
            key = (submission.source, submission.deadline)
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append(submission)
        dequeued_at = time.monotonic()
        for submission in batch:
            submission.dequeued_at = dequeued_at
        self._count("serve.batch", size=len(batch), groups=len(order))
        self._count("serve.submissions", len(batch))
        metrics = self.telemetry.metrics
        metrics.gauge("serve.queue.depth", float(self.admission.inflight))
        for submission in batch:
            if not submission.received_at:
                continue  # hand-built (tests): nothing to time
            admitted = submission.admitted_at or submission.received_at
            metrics.observe("serve.admission.seconds",
                            max(0.0, admitted - submission.received_at))
            metrics.observe("serve.queue.seconds",
                            max(0.0, dequeued_at - admitted))
        for key in order:
            source, deadline = key
            waiters = groups[key]
            if len(waiters) > 1:
                self._count("serve.batch.coalesced", len(waiters) - 1)
            self._verify_group(source, deadline, waiters)
        with obs.use(self.telemetry):
            self.governor.maybe_collect()
        self._flush_outputs()

    def _verify_group(self, source: str, deadline: Optional[float],
                      waiters: List[_Submission]) -> None:
        """Verify one distinct source once; stream events and fan the
        verdict out to every coalesced waiter.

        Never raises: a submission that blows up outside the expected
        parse-error path (``RecursionError`` on a pathological kernel,
        a crash inside ``verify_all``, ...) becomes a terminal
        ``error`` frame for every waiter still owed one, so a single bad
        request cannot strand clients or kill the prover thread.
        """
        answered: set = set()
        try:
            self._verify_group_inner(source, deadline, waiters, answered)
        except Exception as error:  # noqa: BLE001 — see docstring
            self._note_backend_failure("escaped exception")
            self._count("serve.internal_error", error=type(error).__name__)
            for waiter in waiters:
                if id(waiter) not in answered:
                    frame = _error_frame(
                        "internal-error",
                        f"{type(error).__name__}: {error}",
                    )
                    breakdown = waiter.breakdown()
                    if waiter.submit_id:
                        frame["submit_id"] = waiter.submit_id
                    frame["breakdown"] = breakdown
                    waiter.answer(frame)
                    self._note_recent(waiter, "internal-error", breakdown)

    def _verify_group_inner(self, source: str, deadline: Optional[float],
                            waiters: List[_Submission],
                            answered: set) -> None:
        """The fallible body of :meth:`_verify_group`; records each
        waiter that received its terminal frame in ``answered``."""
        group_start = time.monotonic()
        try:
            spec = parse_program(source)
        except ReflexError as error:
            self._count("serve.parse_error")
            for waiter in waiters:
                frame = _error_frame("parse-error", str(error))
                breakdown = waiter.breakdown(group_start=group_start)
                if waiter.submit_id:
                    frame["submit_id"] = waiter.submit_id
                frame["breakdown"] = breakdown
                waiter.answer(frame)
                self._note_recent(waiter, "parse-error", breakdown)
                answered.add(id(waiter))
            return
        if not self.breaker.allow():
            self._serve_degraded(spec, source, waiters, answered)
            return
        options = self.prover_options
        if deadline is not None:
            options = replace(options, deadline=deadline)
        # The group records straight into the daemon's sink.  Its spans
        # and events carry the waiting submit ids, so one submission's
        # work is traceable end to end even through coalescing, and its
        # events stream to the waiters that asked for them.  A group
        # that raises leaves its partial counts in the daemon's totals.
        telemetry = self.telemetry
        submit_ids = [w.submit_id for w in waiters if w.submit_id]
        if submit_ids:
            telemetry.tags = {"submit_id": ",".join(submit_ids[:8])}
        telemetry.events.streams = [w.replies for w in waiters if w.stream]
        before = dict(telemetry.counters)
        started = time.perf_counter()
        try:
            with obs.use(telemetry):
                verifier = Verifier(spec, options)
                report = verifier.verify_all()
                # One key table per submission: the slice digests and
                # keys the verification computed serve the session diff
                # and the invalidation index too, and the program digest
                # is built from the texts the table already rendered, so
                # filing renders nothing again, also for a group its
                # deadline cut short.
                program_digest = verifier.program_digest()
                digests = verifier.keys.slice_digests()
                self.invalidation.record_program(verifier)
        finally:
            telemetry.tags = {}
            telemetry.events.streams = []
        wall = time.perf_counter() - started
        counters = _group_counters(before, dict(telemetry.counters))
        deadline_expired = any(
            DEADLINE_MESSAGE in (result.error or "")
            for result in report.results
        )
        residue = residue_for(report)
        # Serialized once: every verdict frame and the verdict cache
        # share it, and nothing mutates it.
        report_dict = report.to_dict()
        self.breaker.record_success()
        if deadline_expired:
            self._count("serve.deadline.expired")
        else:
            self._cache_verdict(source, spec, report_dict, residue,
                                program_digest)
        fanout_start = time.monotonic()
        for waiter in waiters:
            waiter.answer(self._verdict_frame(
                waiter, spec, report_dict, residue, digests,
                program_digest, counters, wall, len(waiters),
                deadline_expired=deadline_expired,
                group_start=group_start,
                fanout_start=fanout_start,
            ))
            answered.add(id(waiter))
        telemetry.metrics.observe("serve.verify.seconds", wall)

    def _note_recent(self, waiter: _Submission, outcome: str,
                     breakdown: dict) -> None:
        """Remember one finished submission's latency breakdown (the
        ``recent_submissions`` ring in the stats payload) and feed the
        end-to-end histogram."""
        self._recent.append({
            "submit_id": waiter.submit_id or "(untracked)",
            "session": waiter.session.sid,
            "outcome": outcome,
            "breakdown": breakdown,
        })
        self.telemetry.metrics.observe(
            "serve.e2e.seconds", breakdown.get("total_ms", 0.0) / 1000.0,
        )

    def _verdict_frame(self, waiter: _Submission, spec,
                       report_dict: dict,
                       residue: List[dict], digests: Dict[Part, str],
                       program_digest: str, counters: Dict[str, int],
                       wall: float, coalesced: int,
                       deadline_expired: bool = False,
                       group_start: Optional[float] = None,
                       fanout_start: Optional[float] = None) -> dict:
        """The terminal verdict for one submission, with its
        session-scoped incremental diff (which slices changed, what got
        superseded) and its per-phase latency breakdown.
        ``report_dict`` is the report's ``to_dict()``, shared by the
        group."""
        session = waiter.session
        breakdown = waiter.breakdown(group_start=group_start,
                                     fanout_start=fanout_start)
        all_proved = report_dict["all_proved"]
        outcome = "proved" if all_proved else "unproved"
        if deadline_expired:
            outcome = "deadline"
        self._note_recent(waiter, outcome, breakdown)
        if session.rounds:
            changed = changed_parts(session.digests, digests)
            invalidated = len(self.invalidation.invalidated_keys(
                session.digests, digests
            ))
            changed_json = [_jsonable_part(part) for part in changed]
        else:
            changed, invalidated, changed_json = None, 0, None
        session.note_round(digests, program_digest, spec.name, all_proved)
        return {
            "type": "verdict",
            "session": session.sid,
            "submit_id": waiter.submit_id or None,
            "round": session.rounds,
            "program": spec.name,
            "program_digest": program_digest,
            "all_proved": all_proved,
            "report": report_dict,
            "residue": residue,
            "changed_parts": changed_json,
            "fragments": {
                "total": len(digests),
                "changed": (len(changed) if changed is not None
                            else len(digests)),
            },
            "invalidated_keys": invalidated,
            "counters": counters,
            "seconds": round(wall, 6),
            "breakdown": breakdown,
            "coalesced": coalesced,
            "generation": self.governor.generation,
            "batch": self.telemetry.counters.get("serve.batch", 0),
            "deadline_ms": waiter.deadline_ms,
            "deadline_expired": deadline_expired,
        }

    # -- circuit breaking and degraded serving -------------------------------

    def _note_backend_failure(self, reason: str) -> None:
        """Feed one backend failure to the breaker (which opens after
        ``breaker_threshold`` in a row; only a successful half-open
        trial closes it again)."""
        self.breaker.record_failure()
        self._count("serve.breaker.failure", reason=reason,
                    state=self.breaker.state)

    def _cache_verdict(self, source: str, spec, report_dict: dict,
                       residue: List[dict],
                       program_digest: str) -> None:
        """Remember a full verdict for degraded (breaker-open) serving."""
        self._verdict_cache[source] = {
            "program": spec.name,
            "program_digest": program_digest,
            "all_proved": report_dict["all_proved"],
            "report": report_dict,
            "residue": residue,
        }
        self._verdict_cache.move_to_end(source)
        while len(self._verdict_cache) > _VERDICT_CACHE_CAP:
            self._verdict_cache.popitem(last=False)

    def _serve_degraded(self, spec, source: str,
                        waiters: List[_Submission],
                        answered: set) -> None:
        """Answer a group without running the prover (breaker open):
        a cached verdict for a source this daemon has fully verified
        before, a residue-only answer otherwise.  Degraded answers never
        advance session history — nothing was verified."""
        cached = self._verdict_cache.get(source)
        if cached is not None:
            self._verdict_cache.move_to_end(source)
        with self._telemetry_lock:
            self.telemetry.incr("serve.breaker.shed", len(waiters))
            if cached is not None:
                self.telemetry.incr("serve.breaker.cache_hit",
                                    len(waiters))
            self.telemetry.events.note(
                "serve.degraded", program=spec.name,
                cached=cached is not None, waiters=len(waiters),
            )
        reason = ("the prover backend is unavailable (circuit breaker "
                  "open); answering degraded while it heals")
        answer = cached if cached is not None else {
            "program": spec.name,
            "program_digest": None,
            "all_proved": False,
            "report": {"program": spec.name, "results": []},
            "residue": degraded_residue(spec, reason),
        }
        for waiter in waiters:
            breakdown = waiter.breakdown()
            frame = {
                "type": "verdict",
                "session": waiter.session.sid,
                "submit_id": waiter.submit_id or None,
                "round": waiter.session.rounds,
                **answer,
                "changed_parts": None,
                "fragments": {"total": 0, "changed": 0},
                "invalidated_keys": 0,
                "counters": {},
                "seconds": 0.0,
                "breakdown": breakdown,
                "coalesced": len(waiters),
                "generation": self.governor.generation,
                "batch": self.telemetry.counters.get("serve.batch", 0),
                "deadline_ms": waiter.deadline_ms,
                "deadline_expired": False,
                "degraded": True,
                "degraded_reason": reason,
            }
            waiter.answer(frame)
            self._note_recent(waiter, "degraded", breakdown)
            answered.add(id(waiter))

    # -- stats and artifacts -------------------------------------------------

    def _series_snapshot(self) -> dict:
        """The sampler's callback: one registry snapshot, with
        daemon-level gauges injected so their last-values ride the same
        windows as the counters they explain.  The prover thread keeps
        recording meanwhile; the snapshot copies each dict in one step
        (see :mod:`repro.obs.metrics`)."""
        snapshot = registry_snapshot(self.telemetry.counters,
                                     self.telemetry.metrics.export())
        snapshot["gauges"]["serve.admission.inflight"] = float(
            self.admission.inflight
        )
        snapshot["gauges"]["serve.sessions.active"] = float(
            len(self.sessions)
        )
        snapshot["gauges"]["serve.breaker.open"] = (
            0.0 if self.breaker.state == "closed" else 1.0
        )
        return snapshot

    def _stamps(self) -> dict:
        """The hygiene stamps every observability payload carries: the
        schema tag, a sequence number shared by every frame kind (so a
        scraper can detect stale or out-of-order reads) and uptime."""
        return {
            "schema_version": STATS_SCHEMA_VERSION,
            "generated_at": next(self._stats_seq),
            "uptime_s": round(time.monotonic() - self._started_mono, 3),
        }

    def _snapshot(self) -> Tuple[dict, Dict[str, int]]:
        """The stamps and the daemon's state as the ``stats`` frame and
        the ``--stats-out`` payload report them, and the counters (one
        copy) they were read from."""
        counters = dict(self.telemetry.counters)
        return {
            **self._stamps(),
            "batches": counters.get("serve.batch", 0),
            "submissions": counters.get("serve.submissions", 0),
            "coalesced": counters.get("serve.batch.coalesced", 0),
            "flush_errors": counters.get("serve.flush_error", 0),
            "client_drops": counters.get("serve.client_drop", 0),
            "sessions": self.sessions.stats(),
            "governor": self.governor.to_dict(),
            "invalidation": self.invalidation.stats(),
            "admission": self.admission.stats(),
            "breaker": self.breaker.to_dict(),
        }, counters

    def _metrics_frame(self, request: dict) -> dict:
        """A ``metrics`` response: rolling-window rates and quantiles,
        lifetime totals, and the Prometheus text exposition of the
        totals (so one frame feeds both ``repro top`` and a scraper)."""
        over = request.get("over")
        if (isinstance(over, bool) or not isinstance(over, (int, float))
                or over <= 0):
            over = None
        snapshot = self._series_snapshot()
        return {
            "type": "metrics",
            **self._stamps(),
            "address": self.address_str,
            "window": self.series.to_dict(over=over),
            "totals": snapshot,
            "exposition": prometheus_exposition(snapshot),
        }

    def _health_frame(self) -> dict:
        """A ``health`` response: the SLO-aware verdict plus the same
        hygiene stamps the other observability frames carry."""
        frame = compute_health(
            self.health_policy,
            breaker=self.breaker.to_dict(),
            admission=self.admission.stats(),
            series=self.series,
        )
        frame.update({
            "type": "health",
            **self._stamps(),
            "address": self.address_str,
            "sampler": {"errors": self.sampler.errors,
                        **self.series.stats()},
        })
        return frame

    def _stats_frame(self) -> dict:
        """A point-in-time ``stats`` response."""
        serve, counters = self._snapshot()
        return {
            "type": "stats",
            **serve,
            "address": self.address_str,
            "verdict_cache": len(self._verdict_cache),
            "counters": counters,
        }

    def _flush_outputs(self) -> None:
        """Flush the flight recorder, dropping what it wrote from
        memory, and rewrite the stats payload (both crash-safe: bound
        events append, the stats file replaces atomically) so a killed
        daemon still leaves artifacts.

        I/O failures (full disk, vanished directory) are counted, never
        raised: flushing artifacts must not take the prover thread —
        or ``close()`` — down with it; events a failed flush did not
        write stay in memory for the next one.  The stats file is
        written outside the telemetry lock, so a shed never waits for
        it; its temp file is uniquely named so concurrent flushers (the
        prover thread racing ``close()`` after a join timeout) never
        write through the same path.
        """
        try:
            with self._telemetry_lock:
                self.telemetry.events.flush()
                self.telemetry.events.compact()
            if self.options.stats_out:
                self._write_stats(self.options.stats_out)
        except OSError:
            self._count("serve.flush_error")

    def _write_stats(self, out: str) -> None:
        """Atomically replace ``out`` with the current stats payload.

        The flight recorder's events are not embedded: the
        ``--events-out`` file holds them."""
        serve, _ = self._snapshot()
        serve["recent_submissions"] = list(self._recent)
        telemetry = self.telemetry.to_dict()
        del telemetry["events"]
        payload = {
            "serve": serve,
            "timeseries": self.series.to_dict(),
            "telemetry": telemetry,
        }
        fd, tmp = tempfile.mkstemp(
            dir=os.path.dirname(os.path.abspath(out)) or None,
            prefix=os.path.basename(out) + ".", suffix=".tmp",
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, indent=2, sort_keys=True)
                handle.write("\n")
            os.replace(tmp, out)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise


#: Sentinel returned by ``_dispatch`` to end a connection loop.
_CLOSE = object()
