"""Observability for the prover stack and runtime: counters, spans,
hierarchical traces, metrics, and a flight-recorder event log.

The prover, tactics, solver and symbolic evaluator report events here —
solver entailment calls, enumerated symbolic paths, proof-store hits and
misses, syntactic-skip rates — the engine wraps each pipeline stage
(plan / search / check) in a timed span, and the runtime's supervisor,
monitor and fault injector append structured events.  Everything is a
no-op unless a :class:`Telemetry` sink is installed with :func:`use`, so
the default verification path pays only a module-global ``None`` check
per event; tracing, metrics and the event log are additionally off
unless the sink enables them.

Typical use::

    from repro import obs

    with obs.use(obs.Telemetry()) as telemetry:
        verifier.verify_all()
    print(telemetry.render())

A fully instrumented run enables the subsystems explicitly::

    from repro.obs import export

    sink = obs.Telemetry(trace=True, metrics=True, events=True)
    with obs.use(sink):
        verifier.verify_all()
    export.write_chrome_trace("t.json", sink.to_dict())

The calls instrumented code makes, and the installed sink they feed, live
in :mod:`repro.obs.core`, which imports nothing else from the package;
code that only reports (the symbolic layer) imports the core alone.  The
package does not load the exporters (:mod:`repro.obs.export`) or the
time-series sampler (:mod:`repro.obs.timeseries`); import them directly.

A run has one sink; nothing is exported or merged between sinks.  The
serve daemon, too, records every verify group straight into its own
sink, with the group's submit ids as :attr:`Telemetry.tags`.  See
``docs/observability.md`` for the architecture, the threading
contract, the event schema, and the ``repro report`` walkthrough.
"""

from .core import (
    Span,
    active,
    event,
    flush_events,
    gauge,
    incr,
    metrics_active,
    observe,
    span,
    use,
)
from .events import Event, EventLog, read_jsonl
from .metrics import Histogram, MetricsRegistry
from .telemetry import Telemetry
from .trace import Tracer, TraceSpan, new_run_id

__all__ = [
    "Event",
    "EventLog",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "Telemetry",
    "TraceSpan",
    "Tracer",
    "active",
    "event",
    "flush_events",
    "gauge",
    "incr",
    "metrics_active",
    "new_run_id",
    "observe",
    "read_jsonl",
    "span",
    "use",
]
