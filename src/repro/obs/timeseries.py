"""Rolling time-series over a metrics registry: live signals, fixed memory.

The :class:`~repro.obs.metrics.MetricsRegistry` accumulates *totals* for
one run — the right shape for a post-mortem report, the wrong shape for
an operator watching a live daemon, who asks *windowed* questions:
what's the submission rate right now?  what was the p99 verify latency
over the last 60 seconds?  is the shed rate climbing?

This module answers them with fixed memory.  A :class:`TimeSeries`
holds a bounded ring of :class:`Window` records; each window stores the
*deltas* between two registry snapshots — counter increments, histogram
bucket increments — plus gauge last-values.  Because the underlying
histograms are log-bucketed with a fixed base, window deltas merge by
bucket-wise addition, so "p99 over the last N windows" is an exact
re-aggregation of the retained deltas, never an approximation on top of
an approximation.

The :class:`Sampler` is the background thread that feeds a series from
a live registry on a fixed interval; its snapshot function and clock
are injectable, so the serve daemon hands it a snapshot copied in one
step from its live telemetry sink, tests drive it with a fake clock,
and the soak harness samples deterministically with round numbers as
the time axis (no wall clock ⇒ bit-for-bit reproducible reports).

Everything here works on plain exported dicts (the
:meth:`MetricsRegistry.export` shape plus a ``counters`` map), so a
series can be rebuilt from shipped snapshots as easily as from a live
registry.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Optional, Tuple

from .metrics import BASE, QUANTILES, Histogram

#: Default ring capacity: at the default 1 s interval, two minutes of
#: history — enough for a 60 s SLO window with slack.
DEFAULT_CAPACITY = 120

#: Default sampling interval (seconds).
DEFAULT_INTERVAL = 1.0


def registry_snapshot(counters: Dict[str, int],
                      exported_metrics: dict) -> dict:
    """Normalize a (counters, :meth:`MetricsRegistry.export`) pair into
    the snapshot shape :meth:`TimeSeries.record` consumes."""
    return {
        "counters": dict(counters),
        "gauges": dict(exported_metrics.get("gauges", {})),
        "histograms": {
            name: {
                "base": hist.get("base", BASE),
                "count": hist.get("count", 0),
                "total": hist.get("total", 0.0),
                "buckets": dict(hist.get("buckets", {})),
            }
            for name, hist in exported_metrics.get("histograms",
                                                   {}).items()
        },
    }


class Window:
    """One sampling window: deltas between two snapshots.

    ``t0``/``t1`` are the window's bounds on whatever clock the caller
    samples with (wall seconds for a daemon, round numbers for the soak
    harness).  Counter and histogram deltas are clamped at zero — a
    registry swapped mid-flight (a new cache generation) must read as a
    quiet window, never as a negative rate.
    """

    __slots__ = ("t0", "t1", "counters", "gauges", "histograms")

    def __init__(self, t0: float, t1: float,
                 counters: Dict[str, int],
                 gauges: Dict[str, float],
                 histograms: Dict[str, dict]) -> None:
        self.t0 = t0
        self.t1 = t1
        self.counters = counters
        self.gauges = gauges
        self.histograms = histograms

    @property
    def seconds(self) -> float:
        """The window's span (floored at a microsecond so rates from a
        degenerate window cannot divide by zero)."""
        return max(self.t1 - self.t0, 1e-6)

    def to_dict(self) -> dict:
        """JSON-ready form (bucket keys stringified by json anyway)."""
        return {
            "t0": self.t0,
            "t1": self.t1,
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {
                name: {
                    "base": hist["base"],
                    "count": hist["count"],
                    "total": hist["total"],
                    "buckets": dict(hist["buckets"]),
                }
                for name, hist in self.histograms.items()
            },
        }


def _histogram_delta(current: dict, previous: Optional[dict]) -> dict:
    """Bucket-wise delta of two exported histograms (clamped at 0).

    A ``previous`` with a different base is treated as absent: the
    registry was rebuilt with a different resolution, so the only safe
    reading is "this window starts fresh"."""
    if previous is not None and previous.get("base") != current.get(
            "base"):
        previous = None
    if previous is None:
        previous = {"count": 0, "total": 0.0, "buckets": {}}
    prev_buckets = previous.get("buckets", {})
    buckets = {}
    for index, amount in current.get("buckets", {}).items():
        index = int(index)
        delta = amount - prev_buckets.get(index,
                                          prev_buckets.get(str(index), 0))
        if delta > 0:
            buckets[index] = delta
    return {
        "base": current.get("base", BASE),
        "count": max(0, current.get("count", 0)
                     - previous.get("count", 0)),
        "total": max(0.0, current.get("total", 0.0)
                     - previous.get("total", 0.0)),
        "buckets": buckets,
    }


class TimeSeries:
    """A bounded ring of sampling windows with windowed queries.

    Thread-safe: the sampler thread records while protocol threads
    query.  Memory is fixed: at most ``capacity`` windows, each holding
    only the names that actually moved during the window.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        self.capacity = max(2, int(capacity))
        self._lock = threading.Lock()
        self._windows: List[Window] = []
        self._previous: Optional[dict] = None
        self._previous_t: Optional[float] = None
        self._samples = 0
        self._dropped = 0

    # -- recording -----------------------------------------------------------

    def record(self, t: float, snapshot: dict) -> Optional[Window]:
        """Fold one registry snapshot in; returns the completed window
        (``None`` for the very first sample, which only anchors the
        series).  ``snapshot`` is the :func:`registry_snapshot` shape.

        A ``t`` at or before the previous sample's time re-anchors the
        series instead of producing a zero- or negative-span window
        (the soak harness samples on round numbers, which a restarted
        phase could replay)."""
        with self._lock:
            self._samples += 1
            previous, previous_t = self._previous, self._previous_t
            self._previous, self._previous_t = snapshot, t
            if previous is None or previous_t is None \
                    or t <= previous_t:
                return None
            prev_counters = previous.get("counters", {})
            counters = {}
            for name, value in snapshot.get("counters", {}).items():
                delta = value - prev_counters.get(name, 0)
                if delta > 0:
                    counters[name] = delta
            prev_hists = previous.get("histograms", {})
            histograms = {}
            for name, hist in snapshot.get("histograms", {}).items():
                delta = _histogram_delta(hist, prev_hists.get(name))
                if delta["count"] > 0 or delta["buckets"]:
                    histograms[name] = delta
            window = Window(
                t0=previous_t, t1=t,
                counters=counters,
                gauges=dict(snapshot.get("gauges", {})),
                histograms=histograms,
            )
            self._windows.append(window)
            if len(self._windows) > self.capacity:
                del self._windows[:len(self._windows) - self.capacity]
                self._dropped += 1
            return window

    # -- queries -------------------------------------------------------------

    def _select(self, over: Optional[float]) -> List[Window]:
        """The retained windows whose *end* falls within ``over`` units
        of the newest sample (all of them when ``over`` is ``None``)."""
        if not self._windows:
            return []
        if over is None:
            return list(self._windows)
        horizon = self._windows[-1].t1 - over
        return [w for w in self._windows if w.t1 > horizon]

    def span(self, over: Optional[float] = None) -> float:
        """The selected windows' total span (0.0 when empty)."""
        with self._lock:
            selected = self._select(over)
        return sum(w.seconds for w in selected)

    def rate(self, counter: str, over: Optional[float] = None) -> float:
        """The counter's average per-unit-time rate over the selected
        windows (0.0 when the series is empty)."""
        with self._lock:
            selected = self._select(over)
        span = sum(w.seconds for w in selected)
        if span <= 0:
            return 0.0
        total = sum(w.counters.get(counter, 0) for w in selected)
        return total / span

    def total(self, counter: str, over: Optional[float] = None) -> int:
        """The counter's total increments over the selected windows."""
        with self._lock:
            selected = self._select(over)
        return sum(w.counters.get(counter, 0) for w in selected)

    def gauge_last(self, name: str) -> Optional[float]:
        """The most recent window's value for a gauge (or ``None``)."""
        with self._lock:
            for window in reversed(self._windows):
                if name in window.gauges:
                    return window.gauges[name]
        return None

    def _merged_histogram(self, name: str,
                          over: Optional[float]) -> Optional[Histogram]:
        selected = self._select(over)
        merged: Optional[Histogram] = None
        for window in selected:
            delta = window.histograms.get(name)
            if delta is None:
                continue
            if merged is None:
                merged = Histogram(delta.get("base", BASE))
            merged.merge({
                "count": delta["count"],
                "total": delta["total"],
                "min": None,
                "max": None,
                "base": delta.get("base", BASE),
                "buckets": delta["buckets"],
            })
        return merged

    def quantile(self, histogram: str, q: float,
                 over: Optional[float] = None) -> Optional[float]:
        """Upper-bound ``q``-quantile of a histogram over the selected
        windows (``None`` when nothing was observed in them)."""
        with self._lock:
            merged = self._merged_histogram(histogram, over)
        if merged is None or merged.count == 0:
            return None
        return merged.quantile(q)

    def count_over(self, histogram: str, threshold: float,
                   over: Optional[float] = None) -> Tuple[int, int]:
        """``(violations, total)``: how many observations in the
        selected windows *may* exceed ``threshold``, and how many there
        were at all.  A bucket whose upper bound exceeds the threshold
        counts as violating wholesale — the same upper-bound bias the
        quantiles carry, which is the right side to err on for SLO
        burn accounting."""
        with self._lock:
            merged = self._merged_histogram(histogram, over)
        if merged is None or merged.count == 0:
            return 0, 0
        violations = sum(
            amount for index, amount in merged.buckets.items()
            if merged.bucket_bound(index) > threshold
        )
        return violations, merged.count

    def histogram_summary(self, histogram: str,
                          over: Optional[float] = None
                          ) -> Optional[dict]:
        """count / mean / quantiles of a histogram over the selected
        windows (``None`` when nothing was observed in them)."""
        with self._lock:
            merged = self._merged_histogram(histogram, over)
        if merged is None or merged.count == 0:
            return None
        out = {
            "count": merged.count,
            "total": round(merged.total, 6),
            "mean": round(merged.total / merged.count, 9),
        }
        for q in QUANTILES:
            out[f"p{int(q * 100)}"] = round(merged.quantile(q), 9)
        return out

    # -- export --------------------------------------------------------------

    def stats(self) -> dict:
        """Bookkeeping: samples taken, windows retained/evicted."""
        with self._lock:
            return {
                "capacity": self.capacity,
                "samples": self._samples,
                "windows": len(self._windows),
                "evicted": self._dropped,
            }

    def counter_names(self) -> List[str]:
        """Every counter that moved in any retained window, sorted."""
        with self._lock:
            names = set()
            for window in self._windows:
                names.update(window.counters)
        return sorted(names)

    def histogram_names(self) -> List[str]:
        """Every histogram that moved in any retained window, sorted."""
        with self._lock:
            names = set()
            for window in self._windows:
                names.update(window.histograms)
        return sorted(names)

    def to_dict(self, over: Optional[float] = None,
                windows: bool = False) -> dict:
        """JSON-ready snapshot: bookkeeping, per-counter rates, gauge
        last-values and histogram summaries over the selected windows;
        ``windows=True`` additionally includes the raw window ring (the
        CI artifact / forensic form)."""
        out = {
            "stats": self.stats(),
            "span_seconds": round(self.span(over), 6),
            "rates": {
                name: round(self.rate(name, over), 6)
                for name in self.counter_names()
            },
            "gauges": {},
            "histograms": {},
        }
        with self._lock:
            gauge_names = set()
            for window in self._windows:
                gauge_names.update(window.gauges)
        for name in sorted(gauge_names):
            value = self.gauge_last(name)
            if value is not None:
                out["gauges"][name] = round(value, 9)
        for name in self.histogram_names():
            summary = self.histogram_summary(name, over)
            if summary is not None:
                out["histograms"][name] = summary
        if windows:
            with self._lock:
                out["windows"] = [w.to_dict() for w in self._windows]
        return out


class Sampler:
    """A background thread feeding a :class:`TimeSeries` on an interval.

    ``snapshot`` returns the :func:`registry_snapshot` shape — the
    caller owns whatever the underlying registry needs to be read safely
    (the serve daemon copies each dict in one step, see
    :mod:`repro.obs.metrics`).  Snapshot failures
    are counted and swallowed: a sampling hiccup must never take the
    host process down.  ``clock`` is injectable for tests.
    """

    def __init__(self, snapshot: Callable[[], dict],
                 series: Optional[TimeSeries] = None,
                 interval: float = DEFAULT_INTERVAL,
                 clock: Callable[[], float] = None) -> None:
        import time

        self.snapshot = snapshot
        self.series = series if series is not None else TimeSeries()
        self.interval = max(0.01, float(interval))
        self.clock = clock if clock is not None else time.monotonic
        self.errors = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def sample_once(self) -> Optional[Window]:
        """Take one sample now (also what the thread loop calls)."""
        try:
            snapshot = self.snapshot()
        except Exception:  # noqa: BLE001 - sampling must never raise
            self.errors += 1
            return None
        return self.series.record(self.clock(), snapshot)

    def start(self) -> None:
        """Start the daemon sampling thread (idempotent); anchors the
        series with an immediate first sample so the first interval
        already yields a window."""
        if self._thread is not None and self._thread.is_alive():
            return
        self._stop.clear()
        self.sample_once()
        self._thread = threading.Thread(target=self._loop,
                                        name="obs-sampler", daemon=True)
        self._thread.start()

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self.sample_once()

    def stop(self, final_sample: bool = True) -> None:
        """Stop the thread (idempotent); by default takes one final
        sample so the tail of the run is not lost."""
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=5)
            self._thread = None
        if final_sample:
            self.sample_once()


#: Convenient pair type for callers that build both at once.
SamplerPair = Tuple[Sampler, TimeSeries]
