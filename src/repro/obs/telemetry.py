"""The telemetry sink: one run's counters, spans and optional subsystems.

A :class:`Telemetry` accumulates named counters and timed spans, and
optionally hosts a hierarchical :class:`~repro.obs.trace.Tracer`, a
:class:`~repro.obs.metrics.MetricsRegistry` and an
:class:`~repro.obs.events.EventLog`.  Instrumented code reports
through :mod:`repro.obs.core`, which feeds the sink
:func:`repro.obs.core.use` installed; only the code that owns a sink
(the CLI, the serve daemon) calls its methods directly.

Design constraints, in order:

* **bounded** — the raw span list is capped: per-name totals stay exact
  (maintained incrementally), but only the ``max_spans`` slowest raw
  spans are retained, so large runs cannot grow the sink without
  bound.  They sit in a min-heap keyed by (seconds, arrival), so
  recording a span costs O(log ``max_spans``);
* **one sink per run** — nothing is exported or merged: the serve
  daemon records every verify group straight into its own sink, with
  the group's submit ids as :attr:`Telemetry.tags`;
* **structured output** — :meth:`Telemetry.to_dict` is what
  ``python -m repro verify --profile --json`` embeds (with optional
  ``trace``/``metrics``/``events`` sections), and
  :meth:`Telemetry.render` is the human-readable block, largest
  contributors first.

Threading: a sink has no lock.  Whatever a thread writes — a counter
name, a span, a histogram — has one writing thread at a time (threads
that count the same names share a lock of their own, as the serve
daemon's connection threads do), and a reader on another thread copies
each dict or list in one step before iterating it, as :meth:`to_dict`
does.  See :mod:`repro.obs.metrics` for the full contract.
"""

from __future__ import annotations

import heapq
import itertools
from operator import itemgetter
from typing import Dict, List, Optional, Tuple

from .core import Span
from .events import EventLog
from .metrics import MetricsRegistry
from .trace import Tracer, new_run_id


#: How many of the slowest raw spans a sink retains by default.
MAX_SPANS = 256


class Telemetry:
    """A sink accumulating counters and spans for one run.

    With ``trace``/``metrics``/``events`` enabled the sink additionally
    hosts the corresponding subsystem component; all three default off,
    so a plain ``Telemetry()`` keeps counters and spans only.
    """

    def __init__(self, *, trace: bool = False, metrics: bool = False,
                 events: bool = False, max_spans: int = MAX_SPANS) -> None:
        self.run_id = new_run_id() if trace or events else None
        #: Request-context tags merged into every span's attrs and every
        #: event's fields: the serve daemon sets its verify group's
        #: ``submit_id`` here while the group runs, so one submission's
        #: work is traceable end to end, through coalesced groups.
        #: Explicit attrs/fields win on key collision.  Empty by
        #: default, so the hot path pays only a falsy check.
        self.tags: Dict[str, object] = {}
        self.metrics: Optional[MetricsRegistry] = \
            MetricsRegistry() if metrics else None
        # Alias the registry's counters so ``incr`` feeds both at once.
        self.counters: Dict[str, int] = (
            self.metrics.counters if self.metrics is not None else {}
        )
        self.tracer: Optional[Tracer] = (
            Tracer(run_id=self.run_id) if trace else None
        )
        self.events: Optional[EventLog] = (
            EventLog(run_id=self.run_id) if events else None
        )
        #: the retained raw spans as a min-heap of (seconds, arrival,
        #: span): the root is the next to evict, the oldest on a tie
        self._retained: List[Tuple[float, int, Span]] = []
        self._arrivals = itertools.count()
        self.max_spans = max_spans
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

    def record(self, span_: Span) -> None:
        """Append one finished span: exact per-name totals, and the
        span kept among the ``max_spans`` slowest (the cheapest retained
        one, the oldest on a tie, is evicted once the cap is hit)."""
        total = self._span_totals.get(span_.name)
        if total is None:
            self._span_totals[span_.name] = [1, span_.seconds]
        else:
            total[0] += 1
            total[1] += span_.seconds
        entry = (span_.seconds, next(self._arrivals), span_)
        if len(self._retained) < self.max_spans:
            heapq.heappush(self._retained, entry)
        else:
            heapq.heappushpop(self._retained, entry)
            self._spans_dropped += 1

    # -- output --------------------------------------------------------------

    def stage_seconds(self) -> Dict[str, float]:
        """Total seconds per span name (e.g. plan / search / check).

        Exact even after raw-span eviction: totals are maintained
        incrementally as spans are recorded."""
        return {name: total[1]
                for name, total in list(self._span_totals.items())}

    def span_counts(self) -> Dict[str, int]:
        """Recorded span count per name (exact, like the totals)."""
        return {name: int(total[0])
                for name, total in list(self._span_totals.items())}

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
