"""The obs core: the installed sink and the calls instrumented code makes.

Instrumented code — the symbolic layer, the prover, the runtime, the
serve daemon — reports through the functions here: :func:`incr`,
:func:`observe`, :func:`gauge`, :func:`event` and :func:`span`.  Each
goes to the sink :func:`use` installed, a
:class:`~repro.obs.telemetry.Telemetry`, and does nothing when none is.

The module imports nothing from :mod:`repro.obs`, so code that only
reports (the symbolic layer inside the checker's trusted base) depends
on this module alone.  A sink is therefore typed ``Any`` here; the
functions use only the attributes a ``Telemetry`` has.

**Cheap when off.**  The hot call sites (``Facts.implies`` runs tens of
thousands of times per benchmark) go through :func:`incr`, which is a
single module-global read and a ``None`` check when no sink is
installed; :func:`observe`, :func:`gauge` and :func:`event` follow the
same fast path and additionally no-op when their component is off.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator, Optional, Tuple


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


#: The installed sink (one per process).
_ACTIVE: Optional[Any] = None


def active() -> Optional[Any]:
    """The currently installed sink, or ``None``."""
    return _ACTIVE


def metrics_active() -> Optional[Any]:
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
def use(sink: Any) -> Iterator[Any]:
    """Install ``sink`` for the duration of the block (re-entrant)."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = sink
    try:
        yield sink
    finally:
        _ACTIVE = previous
