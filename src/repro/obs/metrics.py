"""A metrics registry: counters, gauges, and log-bucketed histograms.

Counters answer "how many", gauges answer "how much right now", and the
histograms answer the distribution questions flat counters cannot —
solver-query latency, obligation wall time, worker queue wait.  The
registry is deliberately tiny:

* **cheap when off** — hot call sites go through the module-level
  :func:`observe`/:func:`gauge` helpers, which are a single module-global
  read plus a ``None`` check when no metrics-enabled sink is installed
  (the same fast path as ``obs.incr``);
* **plain snapshots** — :meth:`MetricsRegistry.export` is a dict of
  plain values, which the rolling time series
  (:mod:`repro.obs.timeseries`) differences into windows and folds
  back together with :meth:`Histogram.merge`;
* **bounded** — a histogram is a fixed family of power-of-two buckets
  over a base resolution, so a million observations cost the same memory
  as ten.

Histogram semantics: bucket ``i`` holds values in
``(BASE * 2**(i-1), BASE * 2**i]`` (bucket 0 holds everything at or
below ``BASE``); quantiles are upper-bound estimates read off the bucket
boundaries, which is the right bias for latency alerting.

Threading contract.  A histogram serializes its own mutations and
snapshots with a per-instance lock, and the registry serializes
histogram *creation*, so threads may observe into one histogram
concurrently.  Counters and gauges are plain dicts written without a
lock: each name has one writing thread at a time — threads that bump
the same name share a lock of their own, as the serve daemon's
connection threads do for their ``serve.*`` counters — and a single
dict store is atomic under the GIL.  A reader on another thread (the
daemon's sampler, its ``stats``/``metrics``/``health`` frames) copies
a dict in one step (``dict(d)``, ``list(d.items())``: no Python code
runs, so the GIL is not released) before iterating it, so a name
another thread adds meanwhile cannot break the loop;
:meth:`MetricsRegistry.export` and :meth:`MetricsRegistry.to_dict` do
so for the histogram map.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Tuple

#: Histogram base resolution in native units (seconds for latencies):
#: one microsecond.  Everything at or below it lands in bucket 0.
BASE = 1e-6

#: Quantiles reported by summaries and ``to_dict``.
QUANTILES = (0.5, 0.9, 0.99)


def bucket_index(value: float, base: float = BASE) -> int:
    """The log-bucket index of ``value``: 0 for ``value <= base``, else
    the smallest ``i`` with ``value <= base * 2**i``."""
    if value <= base:
        return 0
    index = 0
    bound = base
    while bound < value:
        bound *= 2.0
        index += 1
    return index


class Histogram:
    """A log-bucketed histogram over a fixed base resolution."""

    __slots__ = ("base", "count", "total", "min", "max", "buckets",
                 "_lock")

    def __init__(self, base: float = BASE) -> None:
        self.base = base
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.buckets: Dict[int, int] = {}
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        with self._lock:
            self.count += 1
            self.total += value
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value
            index = bucket_index(value, self.base)
            self.buckets[index] = self.buckets.get(index, 0) + 1

    def bucket_bound(self, index: int) -> float:
        """Upper (inclusive) value bound of bucket ``index``."""
        return self.base * (2.0 ** index)

    def quantile(self, q: float) -> float:
        """Upper-bound estimate of the ``q``-quantile (0 when empty)."""
        with self._lock:
            count = self.count
            buckets = dict(self.buckets)
        if count == 0:
            return 0.0
        needed = max(1, int(q * count + 0.999999))
        seen = 0
        for index in sorted(buckets):
            seen += buckets[index]
            if seen >= needed:
                return self.bucket_bound(index)
        return self.bucket_bound(max(buckets))

    def merge(self, other: dict) -> None:
        """Fold an exported histogram dict into this one.

        A snapshot exported under a *different* base resolution is
        renormalized rather than folded blindly: each foreign bucket's
        count moves to the local bucket containing the foreign bucket's
        upper bound.  That preserves the histogram's one invariant —
        quantiles are upper-bound estimates — at the cost of some extra
        conservatism, instead of silently mis-bucketing the foreign
        data (a base-1e-6 bucket 3 is 8 µs; the same index under base
        1e-3 is 8 ms — three orders of magnitude of silent skew).
        """
        other_base = other.get("base", self.base)
        with self._lock:
            self.count += other["count"]
            self.total += other["total"]
            for extreme, pick in (("min", min), ("max", max)):
                value = other.get(extreme)
                if value is not None:
                    mine = getattr(self, extreme)
                    setattr(self, extreme,
                            value if mine is None else pick(mine, value))
            renormalize = other_base != self.base
            for index, amount in other["buckets"].items():
                index = int(index)
                if renormalize:
                    bound = other_base * (2.0 ** index)
                    index = bucket_index(bound, self.base)
                self.buckets[index] = self.buckets.get(index, 0) + amount

    def export(self) -> dict:
        """JSON-friendly snapshot (:meth:`merge` folds one in)."""
        with self._lock:
            return {
                "base": self.base,
                "count": self.count,
                "total": self.total,
                "min": self.min,
                "max": self.max,
                "buckets": dict(self.buckets),
            }

    def to_dict(self) -> dict:
        """JSON-ready summary: moments, quantile estimates, buckets."""
        snap = self.export()
        count, total = snap["count"], snap["total"]
        out = {
            "count": count,
            "total": round(total, 6),
            "mean": round(total / count, 9) if count else 0.0,
            "min": (round(snap["min"], 9)
                    if snap["min"] is not None else None),
            "max": (round(snap["max"], 9)
                    if snap["max"] is not None else None),
            "buckets": {
                f"le_{self.bucket_bound(i):.9g}": snap["buckets"][i]
                for i in sorted(snap["buckets"])
            },
        }
        for q in QUANTILES:
            out[f"p{int(q * 100)}"] = round(self.quantile(q), 9)
        return out


class MetricsRegistry:
    """Named counters, gauges, and histograms for one run.

    The owning :class:`~repro.obs.telemetry.Telemetry` facade aliases its
    flat ``counters`` dict to :attr:`counters`, so ``obs.incr`` feeds the
    registry at no extra cost.
    """

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}
        self.gauges: Dict[str, float] = {}
        self.histograms: Dict[str, Histogram] = {}
        self._create_lock = threading.Lock()

    def incr(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to the counter ``name``."""
        self.counters[name] = self.counters.get(name, 0) + amount

    def gauge(self, name: str, value: float) -> None:
        """Set the gauge ``name`` (last write wins)."""
        self.gauges[name] = float(value)

    def observe(self, name: str, value: float) -> None:
        """Record one observation into the histogram ``name``, created
        under the registry lock so two racing threads cannot each
        create one and lose the other's observations."""
        histogram = self.histograms.get(name)
        if histogram is None:
            with self._create_lock:
                histogram = self.histograms.get(name)
                if histogram is None:
                    histogram = self.histograms[name] = Histogram()
        histogram.observe(value)

    def export(self) -> dict:
        """Plain snapshot of the gauges and histograms (what
        :func:`~repro.obs.timeseries.registry_snapshot` reads), safe to
        take while other threads observe."""
        histograms = dict(self.histograms)
        return {
            "gauges": dict(self.gauges),
            "histograms": {
                name: h.export() for name, h in histograms.items()
            },
        }

    def to_dict(self) -> dict:
        """JSON-ready form: gauges and histogram summaries."""
        histograms = dict(self.histograms)
        return {
            "gauges": {
                name: round(value, 9)
                for name, value in sorted(dict(self.gauges).items())
            },
            "histograms": {
                name: histograms[name].to_dict()
                for name in sorted(histograms)
            },
        }

    def summaries(self) -> List[Tuple[str, dict]]:
        """Histogram summaries, sorted by total time descending."""
        return sorted(
            ((name, h.to_dict()) for name, h
             in dict(self.histograms).items()),
            key=lambda item: -item[1]["total"],
        )
