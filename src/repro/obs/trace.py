"""Hierarchical tracing: spans with identity, ancestry and a timeline.

The flat :class:`~repro.obs.core.Span` answers "how much time went
into stage X overall"; this module answers the questions a slow or flaky
run actually raises — *which* obligation was slowest, what was running
*when*, and how the stages nest inside one another:

* every :class:`TraceSpan` carries a stable ``span_id`` and the
  ``parent_id`` of the span it ran inside, so exports can rebuild the
  tree;
* spans record a wall-clock **start offset** from the run epoch (not
  just a duration), so a timeline view shows what ran when;
* the *current* span is tracked in a :mod:`contextvars` variable — the
  ``engine`` → ``pipeline`` → ``tactics`` → ``solver`` call chain nests
  correctly without threading a span argument through every layer.

A trace has one track: every span of a run is recorded by the one
tracer of its sink, and span ids count up from 1 within that tracer.
"""

from __future__ import annotations

import itertools
import os
import time
from contextvars import ContextVar
from dataclasses import dataclass
from typing import List, Optional, Tuple

#: The span currently open in this task context, as ``(tracer, span_id)``.
#: Tagging with the tracer keeps nesting honest across mid-run sink
#: swaps: a span opened under a different tracer is never adopted as a
#: parent.
_CURRENT: ContextVar[Optional[Tuple["Tracer", str]]] = ContextVar(
    "repro_obs_current_span", default=None
)

def new_run_id() -> str:
    """A fresh random run identifier (hex, collision-proof in practice)."""
    return os.urandom(8).hex()


@dataclass(frozen=True)
class TraceSpan:
    """One finished span in the hierarchical trace.

    ``start`` is seconds since the owning run's epoch.
    """

    name: str
    span_id: str
    parent_id: Optional[str]
    start: float
    seconds: float
    attrs: Tuple[Tuple[str, str], ...] = ()

    @property
    def end(self) -> float:
        """Offset of the span's end from the run epoch."""
        return self.start + self.seconds

    def to_dict(self) -> dict:
        """JSON-ready form of the span."""
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": round(self.start, 6),
            "seconds": round(self.seconds, 6),
            "attrs": dict(self.attrs),
        }


class _OpenSpan:
    """Bookkeeping for a span that has started but not finished."""

    __slots__ = ("name", "span_id", "parent_id", "start", "attrs", "token")

    def __init__(self, name, span_id, parent_id, start, attrs, token):
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = start
        self.attrs = attrs
        self.token = token


class Tracer:
    """Collects one run's span tree; span starts are offsets from the
    tracer's epoch."""

    def __init__(self, run_id: Optional[str] = None) -> None:
        self.run_id = run_id or new_run_id()
        self.epoch_wall = time.time()
        self._epoch_perf = time.perf_counter()
        self._ids = itertools.count(1)
        self.spans: List[TraceSpan] = []

    # -- recording -----------------------------------------------------------

    def push(self, name: str,
             attrs: Tuple[Tuple[str, str], ...] = ()) -> _OpenSpan:
        """Open a span: assign its id, adopt the context's current span
        (of *this* tracer) as parent, and become current."""
        current = _CURRENT.get()
        parent_id = current[1] if current is not None \
            and current[0] is self else None
        span_id = str(next(self._ids))
        open_span = _OpenSpan(
            name, span_id, parent_id,
            time.perf_counter() - self._epoch_perf,
            attrs, None,
        )
        open_span.token = _CURRENT.set((self, span_id))
        return open_span

    def pop(self, open_span: _OpenSpan,
            seconds: Optional[float] = None) -> TraceSpan:
        """Close a span, restore the previous current span, and record
        the finished :class:`TraceSpan`."""
        _CURRENT.reset(open_span.token)
        if seconds is None:
            seconds = (time.perf_counter() - self._epoch_perf
                       - open_span.start)
        finished = TraceSpan(
            name=open_span.name,
            span_id=open_span.span_id,
            parent_id=open_span.parent_id,
            start=open_span.start,
            seconds=max(0.0, seconds),
            attrs=open_span.attrs,
        )
        self.spans.append(finished)
        return finished

    # -- output --------------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-ready form: run identity, epoch, and every span."""
        return {
            "run_id": self.run_id,
            "epoch_wall": round(self.epoch_wall, 6),
            "spans": [span_.to_dict() for span_ in self.spans],
        }
