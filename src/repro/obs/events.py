"""The flight recorder: an append-only log of structured events.

Traces and metrics say how long things took; the event log says *what
happened, in order* — which is the question a chaos-harness violation or
a flaky run actually poses.  Events are small frozen records
(a sequence number, a wall-clock offset, a kind, sorted key/value
fields) appended in causal order: an injected fault is logged before the
supervisor action it provokes, which is logged before any monitor
violation it causes, because each is emitted at the moment it happens.

The log serializes to JSON Lines — one event per line — so a failing
chaos seed leaves a post-mortem-debuggable artifact even if the process
dies mid-run: :meth:`EventLog.bind` attaches a file and
:meth:`EventLog.flush` appends everything not yet written (the chaos
harness flushes once per episode).

A week-long daemon run cannot grow one JSONL file without bound, so the
file backing rotates: past ``max_bytes`` (flag on :meth:`bind`, default
from ``REPRO_EVENTS_MAX_BYTES``; 0 disables) the live file is renamed to
``<path>.1`` — shifting ``.1`` to ``.2`` and so on, keeping the newest
``keep`` rotated files (``REPRO_EVENTS_KEEP``, default 3) — and a fresh
live file is started.  Sequence numbers are issued by the log, not the
file, so ``seq`` stays globally unique and monotonic across rotations;
concatenating the rotated files oldest-first replays the run in order.

Emission goes through :func:`repro.obs.event`, which is a module-global
read plus a ``None`` check when no event-enabled sink is installed.

A log has no lock: ``seq`` is the position of an append, so appends
must not interleave.  One thread emits into a ``repro verify`` run's
log; the serve daemon, whose prover and connection threads share one
log, takes its telemetry lock for each append and for each
flush-and-compact (see ``docs/serve.md``).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

#: Rotation defaults, overridable per :meth:`EventLog.bind` call.
DEFAULT_MAX_BYTES_ENV = "REPRO_EVENTS_MAX_BYTES"
DEFAULT_KEEP_ENV = "REPRO_EVENTS_KEEP"
DEFAULT_KEEP = 3


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        return default


def _jsonable(value: object) -> object:
    """Coerce a field value to something ``json.dumps`` accepts."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return str(value)


@dataclass(frozen=True)
class Event:
    """One structured event: identity, time offset, kind, fields."""

    seq: int
    t: float  # seconds since the owning log's epoch
    kind: str
    worker: str
    fields: Tuple[Tuple[str, object], ...] = ()

    def to_dict(self) -> dict:
        """JSON-ready form (field keys flattened into the record; the
        envelope keys ``seq``/``t``/``kind``/``worker`` always win, so a
        field cannot clobber the event's identity)."""
        out = {
            "seq": self.seq,
            "t": round(self.t, 6),
            "kind": self.kind,
            "worker": self.worker,
        }
        for key, value in self.fields:
            out.setdefault(key, value)
        return out


class EventLog:
    """An append-only, optionally file-backed event log for one run."""

    def __init__(self, run_id: Optional[str] = None,
                 worker: str = "main") -> None:
        self.run_id = run_id
        self.worker = worker
        self.epoch_wall = time.time()
        self._epoch_perf = time.perf_counter()
        self.events: List[Event] = []
        self._path: Optional[str] = None
        self._flushed = 0
        #: next sequence number — independent of ``len(events)`` so
        #: :meth:`compact` cannot re-issue a sequence number
        self._seq = 0
        self._dropped = 0
        self._max_bytes = 0
        self._keep = DEFAULT_KEEP
        self._rotations = 0
        self._bytes_written = 0

    @property
    def dropped(self) -> int:
        """Events compacted out of memory (they remain on disk)."""
        return self._dropped

    @property
    def rotations(self) -> int:
        """How many times the bound file has been rotated."""
        return self._rotations

    def emit(self, kind: str, /, **fields: object) -> Event:
        """Append one event, stamped with the current time offset.

        ``kind`` is positional-only so a field may also be named
        ``kind`` (obligation events use it for the obligation kind).
        """
        event = Event(
            seq=self._seq,
            t=time.perf_counter() - self._epoch_perf,
            kind=kind,
            worker=self.worker,
            fields=tuple(sorted(
                (key, _jsonable(value)) for key, value in fields.items()
            )),
        )
        self._seq += 1
        self.events.append(event)
        return event

    # -- file backing --------------------------------------------------------

    def bind(self, path: str, max_bytes: Optional[int] = None,
             keep: Optional[int] = None) -> None:
        """Attach a JSONL file; the file is truncated, and subsequent
        :meth:`flush` calls append events not yet written.

        ``max_bytes`` (default ``REPRO_EVENTS_MAX_BYTES``, 0 = never)
        caps the live file: a flush that would grow it past the cap
        rotates first.  ``keep`` (default ``REPRO_EVENTS_KEEP``, 3)
        bounds how many rotated files survive."""
        self._path = path
        self._flushed = 0
        self._bytes_written = 0
        self._max_bytes = (max_bytes if max_bytes is not None
                           else _env_int(DEFAULT_MAX_BYTES_ENV, 0))
        self._keep = max(1, keep if keep is not None
                         else _env_int(DEFAULT_KEEP_ENV, DEFAULT_KEEP))
        with open(path, "w", encoding="utf-8"):
            pass

    def _rotate(self) -> None:
        """Shift ``path.N`` → ``path.N+1`` (newest-first, dropping
        anything past ``keep``), move the live file to ``path.1`` and
        start a fresh live file."""
        assert self._path is not None
        for n in range(self._keep - 1, 0, -1):
            src = f"{self._path}.{n}"
            if os.path.exists(src):
                os.replace(src, f"{self._path}.{n + 1}")
        os.replace(self._path, f"{self._path}.1")
        with open(self._path, "w", encoding="utf-8"):
            pass
        self._bytes_written = 0
        self._rotations += 1

    def flush(self) -> int:
        """Append every unwritten event to the bound file; returns how
        many were written (0 when unbound or up to date).  Rotates the
        file first when the pending write would cross ``max_bytes``
        (sequence numbers are the log's, so they stay globally unique
        and monotonic across rotations)."""
        if self._path is None or self._flushed >= len(self.events):
            return 0
        pending = self.events[self._flushed:]
        payload = "".join(
            json.dumps(event.to_dict(), sort_keys=True) + "\n"
            for event in pending
        )
        if (self._max_bytes > 0 and self._bytes_written > 0
                and self._bytes_written + len(payload) > self._max_bytes):
            self._rotate()
        with open(self._path, "a", encoding="utf-8") as handle:
            handle.write(payload)
        self._bytes_written += len(payload)
        self._flushed = len(self.events)
        return len(pending)

    def compact(self) -> int:
        """Drop already-flushed events from memory; returns how many.

        A soak emitting millions of events cannot hold them all: after
        each :meth:`flush` the written prefix is safe on disk, so
        compaction frees it while :attr:`dropped` keeps the accounting
        exact.  Unflushed (or unbound) events are never dropped."""
        if self._flushed == 0:
            return 0
        dropped = self._flushed
        del self.events[:dropped]
        self._dropped += dropped
        self._flushed = 0
        return dropped

    def write_jsonl(self, path: str) -> None:
        """Write the whole log to ``path`` as JSON Lines."""
        with open(path, "w", encoding="utf-8") as handle:
            for event in self.events:
                handle.write(json.dumps(event.to_dict(),
                                        sort_keys=True) + "\n")

    # -- output --------------------------------------------------------------

    def to_dicts(self) -> List[dict]:
        """Every event in JSON-ready form, in append (causal) order."""
        return [event.to_dict() for event in self.events]


def read_jsonl(path: str) -> List[dict]:
    """Load a JSONL flight-recorder file back into event dicts."""
    out: List[dict] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                out.append(json.loads(line))
    return out
