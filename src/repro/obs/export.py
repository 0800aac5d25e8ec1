"""Exporters: Chrome traces, the text report, Prometheus exposition.

Three consumers, three formats:

* :func:`chrome_trace` turns a hierarchical trace (the
  ``telemetry["trace"]`` section of a ``repro verify --json`` payload)
  into the Chrome trace-event format — load the file at
  ``ui.perfetto.dev`` (or ``chrome://tracing``) and the run appears as
  one track, spans nested as they ran;
* :func:`render_report` turns a whole run payload into the text report
  behind ``repro report <run.json>``: slowest obligations, per-stage
  seconds, histogram summaries, and cache statistics —
  plus, for a serve daemon's stats payload, the live-operations view
  (recent per-submission latency breakdowns and windowed rates);
* :func:`prometheus_exposition` renders a metrics snapshot (counters,
  gauges, log-bucketed histograms) in the Prometheus text exposition
  format, which is what the serve daemon's ``metrics`` frame carries so
  any scraper — or ``curl`` piped through the client — can ingest it.
  :func:`validate_exposition` is the structural lint the CI smoke job
  and the tests run over generated output.

All of them operate on plain JSON dicts (not live objects), so they
work equally on an in-process :meth:`Telemetry.to_dict` and on a
``run.json`` loaded back from disk.
"""

from __future__ import annotations

import json
import re
from typing import Dict, List, Optional, Sequence

#: How many slowest obligations the text report lists.
REPORT_TOP_OBLIGATIONS = 10


def _telemetry_of(payload: dict) -> dict:
    """The telemetry section of a run payload (or the payload itself,
    when handed a bare telemetry dict)."""
    if "telemetry" in payload:
        return payload["telemetry"]
    return payload


def chrome_trace(trace: dict) -> dict:
    """Chrome trace-event JSON for one hierarchical trace dict.

    One process with one thread ("track"), named ``main``; every span
    becomes a complete ("X") event with microsecond timestamps, its
    identity and ancestry preserved in ``args``.
    """
    events: List[dict] = [{
        "ph": "M", "pid": 0, "tid": 0, "name": "process_name",
        "args": {"name": f"repro run {trace.get('run_id', '?')}"},
    }, {
        "ph": "M", "pid": 0, "tid": 0, "name": "thread_name",
        "args": {"name": "main"},
    }]
    for span in trace.get("spans", []):
        args = dict(span.get("attrs", {}))
        args["span_id"] = span["span_id"]
        if span.get("parent_id"):
            args["parent_id"] = span["parent_id"]
        events.append({
            "ph": "X",
            "pid": 0,
            "tid": 0,
            "name": span["name"],
            "cat": "repro",
            "ts": round(span["start"] * 1e6, 3),
            "dur": round(span["seconds"] * 1e6, 3),
            "args": args,
        })
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"run_id": trace.get("run_id")},
    }


def write_chrome_trace(path: str, payload: dict) -> None:
    """Write the Chrome trace for a run payload (or telemetry dict, or
    bare trace dict) to ``path``."""
    telemetry = _telemetry_of(payload)
    trace = telemetry.get("trace", telemetry)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(chrome_trace(trace), handle, indent=1)
        handle.write("\n")


# ---------------------------------------------------------------------------
# Prometheus text exposition
# ---------------------------------------------------------------------------

#: Metric names must match this after sanitation (colons are legal in
#: the format but reserved for recording rules, so we never emit them).
_PROM_NAME = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: One sample line: name, optional {labels}, a number (incl. +Inf/NaN).
_PROM_SAMPLE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"
    r"(\{[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\""
    r"(,[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\")*\})? "
    r"([-+]?[0-9]*\.?[0-9]+([eE][-+]?[0-9]+)?|[-+]?Inf|NaN)$"
)


def _prom_name(name: str, prefix: str = "repro") -> str:
    """A dotted metric name in Prometheus form: prefixed, with every
    run of non-alphanumeric characters collapsed to one underscore."""
    sanitized = re.sub(r"[^a-zA-Z0-9]+", "_", name).strip("_")
    out = f"{prefix}_{sanitized}" if prefix else sanitized
    if not _PROM_NAME.match(out):
        out = f"{prefix}_invalid_metric" if prefix else "invalid_metric"
    return out


def _prom_number(value: float) -> str:
    """A sample value in exposition form (integers stay integral)."""
    if isinstance(value, bool):  # pragma: no cover - defensive
        return "1" if value else "0"
    if isinstance(value, int) or float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def prometheus_exposition(snapshot: dict, prefix: str = "repro") -> str:
    """Render a metrics snapshot in the Prometheus text format.

    ``snapshot`` is the :func:`repro.obs.timeseries.registry_snapshot`
    shape — ``counters`` (monotonic totals, exposed with the conventional
    ``_total`` suffix), ``gauges``, and ``histograms`` (the
    :meth:`~repro.obs.metrics.Histogram.export` shape, whose sparse
    log-spaced buckets become the cumulative ``le`` series Prometheus
    expects, closed by the mandatory ``+Inf`` bucket).

    The output is deterministic (names sorted) and ends with a newline,
    per the format spec.
    """
    lines: List[str] = []

    def emit(name: str, kind: str, source: str,
             samples: List[str]) -> None:
        lines.append(f"# HELP {name} repro metric {source}")
        lines.append(f"# TYPE {name} {kind}")
        lines.extend(samples)

    for source in sorted(snapshot.get("counters", {})):
        value = snapshot["counters"][source]
        name = _prom_name(f"{source}_total", prefix)
        emit(name, "counter", source, [f"{name} {_prom_number(value)}"])
    for source in sorted(snapshot.get("gauges", {})):
        value = snapshot["gauges"][source]
        name = _prom_name(source, prefix)
        emit(name, "gauge", source, [f"{name} {_prom_number(value)}"])
    for source in sorted(snapshot.get("histograms", {})):
        hist = snapshot["histograms"][source]
        name = _prom_name(source, prefix)
        base = hist.get("base", 1e-6)
        count = hist.get("count", 0)
        total = hist.get("total", 0.0)
        cumulative = 0
        samples: List[str] = []
        buckets = {int(k): v for k, v in hist.get("buckets", {}).items()}
        for index in sorted(buckets):
            cumulative += buckets[index]
            bound = base * (2.0 ** index)
            samples.append(
                f'{name}_bucket{{le="{bound:.9g}"}} {cumulative}'
            )
        samples.append(f'{name}_bucket{{le="+Inf"}} {count}')
        samples.append(f"{name}_sum {_prom_number(round(total, 9))}")
        samples.append(f"{name}_count {count}")
        emit(name, "histogram", source, samples)
    return "\n".join(lines) + "\n" if lines else "\n"


def validate_exposition(text: str) -> List[str]:
    """Structural complaints about a Prometheus text exposition.

    Checks the invariants a scraper relies on: every sample line parses,
    every sample is preceded by a ``# TYPE`` for its metric family,
    histogram ``_bucket`` series are cumulative (non-decreasing in
    ``le`` order) and closed by ``+Inf``, and the payload ends with a
    newline.  Empty means valid (the CI smoke job asserts exactly that).
    """
    complaints: List[str] = []
    if not text.endswith("\n"):
        complaints.append("exposition does not end with a newline")
    typed: Dict[str, str] = {}
    bucket_last: Dict[str, int] = {}
    bucket_closed: Dict[str, bool] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 3 and parts[1] in ("HELP", "TYPE"):
                if parts[1] == "TYPE":
                    typed[parts[2]] = parts[3] if len(parts) > 3 else ""
                continue
            complaints.append(f"line {lineno}: malformed comment {line!r}")
            continue
        if not _PROM_SAMPLE.match(line):
            complaints.append(f"line {lineno}: unparsable sample {line!r}")
            continue
        name = re.split(r"[{ ]", line, maxsplit=1)[0]
        family = re.sub(r"_(total|bucket|sum|count)$", "", name)
        if name not in typed and family not in typed:
            complaints.append(
                f"line {lineno}: sample {name} has no preceding # TYPE"
            )
        if name.endswith("_bucket"):
            le = re.search(r'le="([^"]+)"', line)
            value = int(float(line.rsplit(" ", 1)[1]))
            if le is None:
                complaints.append(
                    f"line {lineno}: histogram bucket without le label"
                )
                continue
            previous = bucket_last.get(name)
            if previous is not None and value < previous:
                complaints.append(
                    f"line {lineno}: {name} buckets not cumulative "
                    f"({value} < {previous})"
                )
            bucket_last[name] = value
            if le.group(1) == "+Inf":
                bucket_closed[name] = True
            elif name not in bucket_closed:
                bucket_closed[name] = False
    for name, closed in sorted(bucket_closed.items()):
        if not closed:
            complaints.append(f"{name} has no +Inf bucket")
    return complaints


# ---------------------------------------------------------------------------
# The text report
# ---------------------------------------------------------------------------


def _obligation_rows(telemetry: dict) -> List[dict]:
    """Slowest-obligation rows: hierarchical spans preferred, flat spans
    as the fallback, slowest first."""
    trace = telemetry.get("trace")
    spans: Sequence[dict]
    if trace is not None:
        spans = [s for s in trace.get("spans", [])
                 if s["name"] == "obligation"]
    else:
        spans = [s for s in telemetry.get("spans", [])
                 if s["name"] == "obligation"]
    rows = []
    for span in spans:
        attrs = span.get("attrs", {})
        where = attrs.get("part", "")
        rows.append({
            "property": attrs.get("property", "?"),
            "kind": attrs.get("kind", "?"),
            "part": where,
            "seconds": span["seconds"],
        })
    rows.sort(key=lambda r: -r["seconds"])
    return rows


def _cache_rows(counters: Dict[str, int]) -> List[dict]:
    """Hit/miss/ratio rows for every ``<name>.hit``/``<name>.miss``
    counter pair, plus standalone ``*.size`` gauges-as-counters."""
    prefixes = sorted({
        name[:-len(".hit")] for name in counters if name.endswith(".hit")
    } | {
        name[:-len(".miss")] for name in counters
        if name.endswith(".miss")
    })
    rows = []
    for prefix in prefixes:
        hits = counters.get(f"{prefix}.hit", 0)
        misses = counters.get(f"{prefix}.miss", 0)
        total = hits + misses
        rows.append({
            "cache": prefix,
            "hits": hits,
            "misses": misses,
            "ratio": hits / total if total else 0.0,
            "size": counters.get(f"{prefix}.size"),
        })
    return rows


def _serve_lines(payload: dict, serve: dict) -> List[str]:
    """The live-operations section of a serve daemon's stats payload:
    daemon vitals, recent per-submission latency breakdowns, and the
    rolling time-series rates the daemon's sampler retained."""
    lines: List[str] = []
    vitals = [f"batches {serve.get('batches', 0)}",
              f"submissions {serve.get('submissions', 0)}"]
    if "uptime_s" in payload:
        vitals.insert(0, f"up {payload['uptime_s']:.0f}s")
    if "schema_version" in payload:
        vitals.append(f"stats schema v{payload['schema_version']}")
    if "generated_at" in payload:
        vitals.append(f"generation #{payload['generated_at']}")
    lines.append("")
    lines.append("serve daemon: " + ", ".join(vitals))

    recent = serve.get("recent_submissions") or []
    if recent:
        lines.append("")
        lines.append(f"recent submissions (latest "
                     f"{len(recent)}; milliseconds):")
        lines.append(f"  {'submit':<10} {'admit':>7} {'queue':>7} "
                     f"{'verify':>8} {'fanout':>7} {'total':>8}  outcome")
        for row in recent:
            breakdown = row.get("breakdown", {})
            lines.append(
                f"  {row.get('submit_id', '?'):<10} "
                f"{breakdown.get('admission_ms', 0):>7.1f} "
                f"{breakdown.get('queue_ms', 0):>7.1f} "
                f"{breakdown.get('verify_ms', 0):>8.1f} "
                f"{breakdown.get('fanout_ms', 0):>7.1f} "
                f"{breakdown.get('total_ms', 0):>8.1f}  "
                f"{row.get('outcome', '?')}"
            )

    series = payload.get("timeseries")
    if isinstance(series, dict) and series.get("rates"):
        lines.append("")
        span = series.get("span_seconds", 0.0)
        lines.append(f"rolling window ({span:.0f}s retained):")
        for name, rate in sorted(series["rates"].items(),
                                 key=lambda kv: (-kv[1], kv[0]))[:12]:
            lines.append(f"  {name:<36} {rate:>10.3f}/s")
        for name, summary in sorted(
                (series.get("histograms") or {}).items()):
            lines.append(
                f"  {name:<36} p50 {summary.get('p50', 0):.4f}s  "
                f"p99 {summary.get('p99', 0):.4f}s  "
                f"n={summary.get('count', 0)}"
            )
    return lines


def render_report(payload: dict) -> str:
    """The self-contained text report for one run payload."""
    telemetry = _telemetry_of(payload)
    lines: List[str] = []
    program = payload.get("program")
    title = "run report"
    if program:
        title += f" — {program}"
    if telemetry.get("run_id"):
        title += f" (run {telemetry['run_id']})"
    lines.append(title)
    if "wall_seconds" in payload:
        lines.append(
            f"wall {payload['wall_seconds']:.3f}s, cpu-side total "
            f"{payload.get('total_seconds', 0.0):.3f}s, "
            f"all_proved={payload.get('all_proved')}"
        )

    serve = payload.get("serve")
    if isinstance(serve, dict):
        lines.extend(_serve_lines(payload, serve))

    obligations = _obligation_rows(telemetry)
    lines.append("")
    lines.append(f"slowest obligations (top {REPORT_TOP_OBLIGATIONS} of "
                 f"{len(obligations)}):")
    if obligations:
        for row in obligations[:REPORT_TOP_OBLIGATIONS]:
            where = f" {row['part']}" if row["part"] else ""
            lines.append(
                f"  {row['seconds']:9.4f}s  {row['property']}"
                f"{where}  [{row['kind']}]"
            )
    else:
        lines.append("  (no obligation spans recorded)")

    stages = telemetry.get("stage_seconds", {})
    if stages:
        lines.append("")
        lines.append("stage seconds:")
        for name, seconds in sorted(stages.items(),
                                    key=lambda kv: (-kv[1], kv[0])):
            lines.append(f"  {name:24s} {seconds:10.4f}")

    metrics = telemetry.get("metrics")
    if metrics and metrics.get("histograms"):
        lines.append("")
        lines.append("histograms:")
        lines.append(
            f"  {'metric':<28} {'count':>7} {'mean':>10} {'p50':>10} "
            f"{'p90':>10} {'p99':>10} {'max':>10}"
        )
        ordered = sorted(metrics["histograms"].items(),
                         key=lambda kv: -kv[1].get("total", 0.0))
        for name, summary in ordered:
            lines.append(
                f"  {name:<28} {summary['count']:>7} "
                f"{summary['mean']:>10.6f} {summary['p50']:>10.6f} "
                f"{summary['p90']:>10.6f} {summary['p99']:>10.6f} "
                f"{summary['max'] or 0.0:>10.6f}"
            )
    if metrics and metrics.get("gauges"):
        lines.append("")
        lines.append("gauges:")
        for name, value in sorted(metrics["gauges"].items()):
            lines.append(f"  {name:<36} {value:>12.4f}")

    cache_rows = _cache_rows(telemetry.get("counters", {}))
    if cache_rows:
        lines.append("")
        lines.append("cache statistics:")
        lines.append(f"  {'cache':<24} {'hits':>9} {'misses':>9} "
                     f"{'hit%':>6}")
        for row in cache_rows:
            lines.append(
                f"  {row['cache']:<24} {row['hits']:>9} "
                f"{row['misses']:>9} {row['ratio'] * 100:>5.1f}%"
            )

    events = telemetry.get("events")
    if events:
        by_kind: Dict[str, int] = {}
        for event in events:
            by_kind[event["kind"]] = by_kind.get(event["kind"], 0) + 1
        lines.append("")
        lines.append(f"events ({len(events)} total):")
        for kind, count in sorted(by_kind.items(),
                                  key=lambda kv: (-kv[1], kv[0])):
            lines.append(f"  {kind:<32} {count:>7}")
    return "\n".join(lines)


def load_run(path: str) -> dict:
    """Load a ``repro verify --json`` payload (or bare telemetry dict)
    from disk."""
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def validate_trace_tree(trace: dict) -> List[str]:
    """Structural complaints about a trace dict: orphaned parents and
    children sticking out of their parent's interval.  Empty means the
    tree is well-formed (used by tests and ``repro report``)."""
    complaints: List[str] = []
    spans = trace.get("spans", [])
    index = {span["span_id"]: span for span in spans}
    slack = 1e-4  # rounding slack: offsets are serialized at 1µs grain
    for span in spans:
        parent_id: Optional[str] = span.get("parent_id")
        if parent_id is None:
            continue
        parent = index.get(parent_id)
        if parent is None:
            complaints.append(
                f"span {span['span_id']} has unknown parent {parent_id}"
            )
            continue
        if span["start"] < parent["start"] - slack or (
                span["start"] + span["seconds"]
                > parent["start"] + parent["seconds"] + slack):
            complaints.append(
                f"span {span['span_id']} [{span['start']:.6f}, "
                f"{span['start'] + span['seconds']:.6f}] outside parent "
                f"{parent_id} [{parent['start']:.6f}, "
                f"{parent['start'] + parent['seconds']:.6f}]"
            )
    return complaints
