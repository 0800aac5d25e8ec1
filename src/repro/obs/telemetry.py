"""The telemetry sink: the compatibility facade over the obs subsystem.

Historically this module *was* the whole observability layer — named
counters plus a flat list of timed spans.  It is now the front door to
the real subsystem (:mod:`repro.obs.trace`, :mod:`repro.obs.metrics`,
:mod:`repro.obs.events`): a :class:`Telemetry` still exposes
``counters``/``spans``/``incr``/``record``/``merge``/``to_dict``/
``render`` exactly as before, and optionally hosts a hierarchical
:class:`~repro.obs.trace.Tracer`, a
:class:`~repro.obs.metrics.MetricsRegistry` and an
:class:`~repro.obs.events.EventLog` that the same instrumented call
sites feed when enabled.

Design constraints, in order:

* **cheap when off** — the hot call sites (``Facts.implies`` runs tens of
  thousands of times per benchmark) go through :func:`incr`, which is a
  single module-global read and a ``None`` check when no sink is
  installed; :func:`observe`, :func:`gauge` and :func:`event` follow the
  same fast path and additionally no-op when their component is off;
* **bounded** — the raw span list is capped: per-name totals stay exact
  (maintained incrementally), but only the ``max_spans`` slowest raw
  spans are retained, so large runs cannot grow the sink without
  bound.  They sit in a min-heap keyed by (seconds, arrival), so
  recording or merging a span costs O(log ``max_spans``) — the serve
  daemon merges about a hundred spans per verify group;
* **portable** — :meth:`Telemetry.export` is a pickle-friendly
  snapshot that another sink folds in with
  :meth:`Telemetry.merge_export`, normalizing clock offsets (the serve
  daemon folds each submission's sink into its own).  The legacy
  ``merge(counters, spans)`` form still works;
* **structured output** — :meth:`Telemetry.to_dict` is what
  ``python -m repro verify --profile --json`` embeds (now with optional
  ``trace``/``metrics``/``events`` sections), and
  :meth:`Telemetry.render` is the human-readable block, largest
  contributors first.
"""

from __future__ import annotations

import heapq
import itertools
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from .events import EventLog
from .metrics import MetricsRegistry
from .trace import Tracer, new_run_id


def _default_max_spans() -> int:
    """The raw-span retention cap (``REPRO_PROFILE_MAX_SPANS``)."""
    try:
        return max(1, int(os.environ.get("REPRO_PROFILE_MAX_SPANS", 256)))
    except ValueError:
        return 256


@dataclass(frozen=True)
class Span:
    """One timed region: a name, elapsed seconds, sorted attributes."""

    name: str
    seconds: float
    attrs: Tuple[Tuple[str, str], ...] = ()

    def to_dict(self) -> dict:
        """JSON-ready form of the span."""
        return {
            "name": self.name,
            "seconds": round(self.seconds, 6),
            "attrs": dict(self.attrs),
        }


class Telemetry:
    """A sink accumulating counters and spans for one run.

    With ``trace``/``metrics``/``events`` enabled the sink additionally
    hosts the corresponding subsystem component; all three default off,
    so a plain ``Telemetry()`` behaves exactly as it always has.
    """

    def __init__(self, *, trace: bool = False, metrics: bool = False,
                 events: bool = False, run_id: Optional[str] = None,
                 worker: str = "main",
                 max_spans: Optional[int] = None,
                 tags: Optional[Dict[str, object]] = None) -> None:
        if run_id is None and (trace or events):
            run_id = new_run_id()
        self.run_id = run_id
        self.worker = worker
        #: Request-context tags (e.g. the serve daemon's ``submit_id``)
        #: merged into every span's attrs and every event's fields, so
        #: one submission's work is traceable end to end, through
        #: coalesced verify groups.
        #: Explicit attrs/fields win on key collision.  Empty by
        #: default, so the hot path pays only a falsy check.
        self.tags: Dict[str, object] = dict(tags) if tags else {}
        self.metrics: Optional[MetricsRegistry] = \
            MetricsRegistry() if metrics else None
        # Alias the registry's counters so ``incr`` feeds both at once.
        self.counters: Dict[str, int] = (
            self.metrics.counters if self.metrics is not None else {}
        )
        self.tracer: Optional[Tracer] = (
            Tracer(run_id=run_id, worker=worker) if trace else None
        )
        self.events: Optional[EventLog] = (
            EventLog(run_id=run_id, worker=worker) if events else None
        )
        #: the retained raw spans as a min-heap of (seconds, arrival,
        #: span): the root is the next to evict, the oldest on a tie
        self._retained: List[Tuple[float, int, Span]] = []
        self._arrivals = itertools.count()
        self.max_spans = (max_spans if max_spans is not None
                          else _default_max_spans())
        self._span_totals: Dict[str, List[float]] = {}  # name → [n, secs]
        self._spans_dropped = 0

    def incr(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to the counter ``name``."""
        self.counters[name] = self.counters.get(name, 0) + amount

    @property
    def spans(self) -> List[Span]:
        """The retained raw spans (the ``max_spans`` slowest), in the
        order they arrived."""
        return [entry[2] for entry in sorted(self._retained,
                                             key=itemgetter(1))]

    def _retain(self, span_: Span) -> None:
        """Keep ``span_`` among the retained raw spans, evicting the
        cheapest one (the oldest on a tie) once the cap is exceeded."""
        entry = (span_.seconds, next(self._arrivals), span_)
        if len(self._retained) < self.max_spans:
            heapq.heappush(self._retained, entry)
        else:
            heapq.heappushpop(self._retained, entry)
            self._spans_dropped += 1

    def record(self, span_: Span) -> None:
        """Append one finished span (exact totals, capped raw list)."""
        total = self._span_totals.get(span_.name)
        if total is None:
            self._span_totals[span_.name] = [1, span_.seconds]
        else:
            total[0] += 1
            total[1] += span_.seconds
        self._retain(span_)

    def merge(self, counters: Dict[str, int],
              spans: Iterable[Span]) -> None:
        """Fold a worker's counters and spans into this sink."""
        for name, amount in counters.items():
            self.incr(name, amount)
        for span_ in spans:
            self.record(span_)

    # -- process portability -------------------------------------------------

    def export(self) -> dict:
        """Pickle-friendly snapshot of everything a worker collected."""
        out = {
            "counters": dict(self.counters),
            "spans": self.spans,
            "span_totals": {name: tuple(total) for name, total
                            in self._span_totals.items()},
            "spans_dropped": self._spans_dropped,
            "worker": self.worker,
        }
        if self.tracer is not None:
            out["trace"] = self.tracer.export()
        if self.metrics is not None:
            out["metrics"] = self.metrics.export()
        if self.events is not None:
            out["events"] = self.events.export()
        return out

    def merge_export(self, data: dict) -> None:
        """Fold a worker's :meth:`export` snapshot into this sink, with
        clock-offset normalization for trace spans and events."""
        for name, amount in data.get("counters", {}).items():
            self.incr(name, amount)
        for name, (count, seconds) in data.get("span_totals",
                                               {}).items():
            total = self._span_totals.get(name)
            if total is None:
                self._span_totals[name] = [count, seconds]
            else:
                total[0] += count
                total[1] += seconds
        for span_ in data.get("spans", ()):
            self._retain(span_)
        self._spans_dropped += data.get("spans_dropped", 0)
        trace = data.get("trace")
        if trace is not None and self.tracer is not None:
            self.tracer.merge(trace["worker"], trace["epoch_wall"],
                              trace["spans"])
        metrics = data.get("metrics")
        if metrics is not None and self.metrics is not None:
            self.metrics.merge(metrics)
        events = data.get("events")
        if events is not None and self.events is not None:
            self.events.merge(events["epoch_wall"], events["events"])

    # -- output --------------------------------------------------------------

    def stage_seconds(self) -> Dict[str, float]:
        """Total seconds per span name (e.g. plan / search / check).

        Exact even after raw-span eviction: totals are maintained
        incrementally as spans are recorded."""
        return {name: total[1]
                for name, total in self._span_totals.items()}

    def span_counts(self) -> Dict[str, int]:
        """Recorded span count per name (exact, like the totals)."""
        return {name: int(total[0])
                for name, total in self._span_totals.items()}

    def to_dict(self) -> dict:
        """JSON-ready form: counters, per-stage totals, and the retained
        (top-``max_spans`` slowest) raw spans, slowest first."""
        retained = sorted(self.spans, key=lambda s: -s.seconds)
        out = {
            "counters": dict(sorted(self.counters.items())),
            "stage_seconds": {
                name: round(seconds, 6)
                for name, seconds in sorted(self.stage_seconds().items())
            },
            "spans": [span_.to_dict() for span_ in retained],
            "spans_total": len(retained) + self._spans_dropped,
            "spans_dropped": self._spans_dropped,
        }
        if self.run_id is not None:
            out["run_id"] = self.run_id
        if self.tracer is not None:
            out["trace"] = self.tracer.to_dict()
        if self.metrics is not None:
            out["metrics"] = self.metrics.to_dict()
        if self.events is not None:
            out["events"] = self.events.to_dicts()
        return out

    def render(self) -> str:
        """Human-readable profile block (counters + stage totals),
        largest contributors first."""
        lines = ["profile:"]
        stages = self.stage_seconds()
        if stages:
            lines.append("  stage seconds:")
            for name, seconds in sorted(stages.items(),
                                        key=lambda kv: (-kv[1], kv[0])):
                lines.append(f"    {name:24s} {seconds:10.4f}")
        if self.counters:
            lines.append("  counters:")
            for name, amount in sorted(self.counters.items(),
                                       key=lambda kv: (-kv[1], kv[0])):
                lines.append(f"    {name:32s} {amount:10d}")
        if len(lines) == 1:
            lines.append("  (no events recorded)")
        return "\n".join(lines)


#: The installed sink (one per process; workers install their own).
_ACTIVE: Optional[Telemetry] = None


def active() -> Optional[Telemetry]:
    """The currently installed sink, or ``None``."""
    return _ACTIVE


def metrics_active() -> Optional[MetricsRegistry]:
    """The active sink's metrics registry, or ``None`` — the fast path
    hot call sites check before paying for a clock read."""
    sink = _ACTIVE
    return None if sink is None else sink.metrics


def incr(name: str, amount: int = 1) -> None:
    """Count an event on the active sink; no-op when none is installed."""
    sink = _ACTIVE
    if sink is not None:
        sink.counters[name] = sink.counters.get(name, 0) + amount


def observe(name: str, value: float) -> None:
    """Record a histogram observation; no-op unless the active sink has
    metrics enabled."""
    sink = _ACTIVE
    if sink is not None and sink.metrics is not None:
        sink.metrics.observe(name, value)


def gauge(name: str, value: float) -> None:
    """Set a gauge; no-op unless the active sink has metrics enabled."""
    sink = _ACTIVE
    if sink is not None and sink.metrics is not None:
        sink.metrics.gauge(name, value)


def event(kind: str, /, **fields: object) -> None:
    """Append a flight-recorder event; no-op unless the active sink has
    an event log (``kind`` is positional-only, so events may carry a
    ``kind`` field of their own)."""
    sink = _ACTIVE
    if sink is not None and sink.events is not None:
        if sink.tags:
            fields = {**sink.tags, **fields}
        sink.events.emit(kind, **fields)


def flush_events() -> int:
    """Flush the active sink's event log to its bound JSONL file, if
    any; returns how many events were written."""
    sink = _ACTIVE
    if sink is not None and sink.events is not None:
        return sink.events.flush()
    return 0


@contextmanager
def span(name: str, **attrs: object) -> Iterator[None]:
    """Time the enclosed block as a span on the active sink.

    When no sink is installed the block runs untimed at no cost.  The
    sink is captured at entry, so a mid-block sink swap (a nested
    :func:`use`) cannot split or lose the span; with tracing enabled the
    span also lands in the hierarchical trace, parented on the context's
    current span.
    """
    sink = _ACTIVE
    if sink is None:
        yield
        return
    if sink.tags:
        attrs = {**sink.tags, **attrs}
    frozen = tuple(sorted(
        (key, str(value)) for key, value in attrs.items()
    ))
    tracer = sink.tracer
    open_span = tracer.push(name, frozen) if tracer is not None else None
    start = time.perf_counter()
    try:
        yield
    finally:
        sink.record(Span(name, time.perf_counter() - start, frozen))
        if tracer is not None:
            tracer.pop(open_span)


@contextmanager
def use(sink: Telemetry) -> Iterator[Telemetry]:
    """Install ``sink`` for the duration of the block (re-entrant)."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = sink
    try:
        yield sink
    finally:
        _ACTIVE = previous
