"""Unit tests for the rolling time series (`repro.obs.timeseries`).

Covers the delta/windowing semantics, the windowed queries the health
and SLO surfaces stand on, the sampler lifecycle, and — because the
serve daemon's sampler thread races the prover and framing threads — a
threaded stress test asserting interleaved ``observe``/``gauge``/
snapshot traffic never loses counts or produces negative rates.
"""

import threading

from repro.obs.metrics import MetricsRegistry
from repro.obs.timeseries import (
    Sampler,
    TimeSeries,
    registry_snapshot,
)


def snapshot(counters=None, gauges=None, histograms=None):
    """A hand-built snapshot in the `registry_snapshot` shape."""
    return {
        "counters": dict(counters or {}),
        "gauges": dict(gauges or {}),
        "histograms": dict(histograms or {}),
    }


def hist(base, count, total, buckets):
    return {"base": base, "count": count, "total": total,
            "buckets": dict(buckets)}


class TestRegistrySnapshot:
    def test_normalizes_a_live_registry_export(self):
        registry = MetricsRegistry()
        registry.incr("a", 3)
        registry.gauge("g", 2.5)
        registry.observe("h", 0.004)
        snap = registry_snapshot(dict(registry.counters),
                                 registry.export())
        assert snap["counters"] == {"a": 3}
        assert snap["gauges"] == {"g": 2.5}
        assert snap["histograms"]["h"]["count"] == 1

    def test_copies_rather_than_aliases(self):
        counters = {"a": 1}
        snap = registry_snapshot(counters, {"gauges": {}, "histograms": {}})
        counters["a"] = 99
        assert snap["counters"]["a"] == 1


class TestWindowing:
    def test_first_sample_only_anchors(self):
        series = TimeSeries()
        assert series.record(1.0, snapshot({"a": 5})) is None
        assert series.stats()["windows"] == 0

    def test_second_sample_yields_counter_deltas(self):
        series = TimeSeries()
        series.record(1.0, snapshot({"a": 5}))
        window = series.record(2.0, snapshot({"a": 8, "b": 1}))
        assert window.counters == {"a": 3, "b": 1}
        assert series.total("a") == 3
        assert series.rate("a") == 3.0  # 3 increments over 1 unit

    def test_counter_regression_reads_as_quiet_never_negative(self):
        """A registry swapped mid-flight (new generation) must not
        produce negative deltas or rates."""
        series = TimeSeries()
        series.record(1.0, snapshot({"a": 100}))
        window = series.record(2.0, snapshot({"a": 10}))
        assert window.counters == {}
        assert series.rate("a") == 0.0

    def test_non_monotonic_time_reanchors(self):
        series = TimeSeries()
        series.record(5.0, snapshot({"a": 1}))
        assert series.record(5.0, snapshot({"a": 2})) is None
        assert series.record(3.0, snapshot({"a": 3})) is None
        assert series.stats()["windows"] == 0

    def test_ring_is_bounded(self):
        series = TimeSeries(capacity=4)
        for t in range(10):
            series.record(float(t), snapshot({"a": t}))
        stats = series.stats()
        assert stats["windows"] == 4
        assert stats["evicted"] > 0
        assert stats["samples"] == 10

    def test_horizon_selects_by_window_end(self):
        series = TimeSeries()
        series.record(0.0, snapshot({"a": 0}))
        series.record(10.0, snapshot({"a": 10}))
        series.record(20.0, snapshot({"a": 30}))
        # over=10 keeps only the (10, 20] window: 20 increments / 10 s.
        assert series.total("a", over=10.0) == 20
        assert series.rate("a", over=10.0) == 2.0
        assert series.total("a") == 30

    def test_gauge_last_value_wins(self):
        series = TimeSeries()
        series.record(0.0, snapshot(gauges={"g": 1.0}))
        series.record(1.0, snapshot(gauges={"g": 7.0}))
        series.record(2.0, snapshot(gauges={}))
        assert series.gauge_last("g") == 7.0
        assert series.gauge_last("missing") is None


class TestHistogramWindows:
    def test_windowed_quantile_reaggregates_deltas_exactly(self):
        series = TimeSeries()
        series.record(0.0, snapshot())
        # Window 1: one slow observation (bucket upper bound 1.024e-3
        # for base 1e-6: index 10).
        series.record(1.0, snapshot(histograms={
            "lat": hist(1e-6, 1, 1e-3, {10: 1}),
        }))
        # Window 2: nine fast observations on top.
        series.record(2.0, snapshot(histograms={
            "lat": hist(1e-6, 10, 1e-3 + 9e-6, {0: 9, 10: 1}),
        }))
        summary = series.histogram_summary("lat")
        assert summary["count"] == 10
        assert summary["p99"] >= 1e-3
        # Only the last window: 9 fast ones, p99 stays at bucket 0.
        last = series.histogram_summary("lat", over=1.0)
        assert last["count"] == 9
        assert last["p99"] <= 1e-6

    def test_quantile_none_when_nothing_observed(self):
        series = TimeSeries()
        series.record(0.0, snapshot())
        series.record(1.0, snapshot())
        assert series.quantile("lat", 0.99) is None
        assert series.histogram_summary("lat") is None

    def test_base_change_starts_fresh_instead_of_misbucketing(self):
        series = TimeSeries()
        series.record(0.0, snapshot(histograms={
            "lat": hist(1e-6, 5, 5e-6, {0: 5}),
        }))
        window = series.record(1.0, snapshot(histograms={
            "lat": hist(1e-3, 2, 0.002, {0: 2}),
        }))
        # Previous snapshot had a different base: the new counts stand
        # alone rather than being subtracted across resolutions.
        assert window.histograms["lat"]["count"] == 2

    def test_count_over_uses_upper_bound_bias(self):
        series = TimeSeries()
        series.record(0.0, snapshot())
        series.record(1.0, snapshot(histograms={
            # bucket 10 (bound 1.024ms) + bucket 0 (bound 1µs)
            "lat": hist(1e-6, 4, 0.003, {0: 3, 10: 1}),
        }))
        violations, count = series.count_over("lat", 1e-4)
        assert (violations, count) == (1, 4)
        # Threshold below bucket 0's bound: everything may violate.
        violations, count = series.count_over("lat", 5e-7)
        assert (violations, count) == (4, 4)
        assert series.count_over("missing", 1.0) == (0, 0)

    def test_to_dict_is_json_ready(self):
        import json

        series = TimeSeries()
        series.record(0.0, snapshot({"a": 0}))
        series.record(1.0, snapshot({"a": 5}, gauges={"g": 1.0},
                                    histograms={
                                        "lat": hist(1e-6, 1, 1e-5, {4: 1}),
                                    }))
        payload = series.to_dict(windows=True)
        json.dumps(payload)
        assert payload["rates"]["a"] == 5.0
        assert payload["gauges"]["g"] == 1.0
        assert payload["histograms"]["lat"]["count"] == 1
        assert len(payload["windows"]) == 1


class TestSampler:
    def test_sample_once_with_injected_clock(self):
        registry = MetricsRegistry()
        clock = iter([1.0, 2.0, 3.0])
        sampler = Sampler(
            lambda: registry_snapshot(dict(registry.counters),
                                      registry.export()),
            clock=lambda: next(clock),
        )
        assert sampler.sample_once() is None  # anchor
        registry.incr("a", 4)
        window = sampler.sample_once()
        assert window.counters == {"a": 4}
        assert sampler.series.rate("a") == 4.0

    def test_snapshot_failures_are_counted_never_raised(self):
        def explode():
            raise RuntimeError("registry on fire")

        sampler = Sampler(explode, clock=lambda: 0.0)
        assert sampler.sample_once() is None
        assert sampler.errors == 1

    def test_start_stop_lifecycle(self):
        registry = MetricsRegistry()
        sampler = Sampler(
            lambda: registry_snapshot(dict(registry.counters),
                                      registry.export()),
            interval=0.01,
        )
        sampler.start()
        sampler.start()  # idempotent
        registry.incr("ticks")
        sampler.stop()
        sampler.stop()  # idempotent
        # start() anchored and stop() took a final sample: the counter
        # increment is visible in some window.
        assert sampler.series.total("ticks") == 1


class TestThreadedStress:
    """The daemon's races: sampler vs observing threads.

    Writers hammer one registry with observe/gauge/incr while a sampler
    thread snapshots it concurrently; afterwards every count must be
    conserved and no window may carry a negative rate.  The writers
    observe into one histogram concurrently (it locks itself) and share
    a lock for their shared counter and gauge, as the registry's
    threading contract asks of threads that write one name.
    """

    WRITERS = 4
    OBSERVATIONS = 2_000

    def test_interleavings_lose_nothing_and_rates_stay_nonnegative(self):
        registry = MetricsRegistry()
        series = TimeSeries(capacity=10_000)
        ticks = [0.0]

        def snap():
            return registry_snapshot(dict(registry.counters),
                                     registry.export())

        def clock():
            ticks[0] += 1.0
            return ticks[0]

        sampler = Sampler(snap, series=series, clock=clock)
        stop = threading.Event()
        names_lock = threading.Lock()

        def keep_sampling():
            # At most capacity - 1 samples here and one final sample
            # below: an evicted window would take its increments with
            # it, and writers slowed by other threads let this loop
            # sample past the ring.
            while not stop.is_set() and \
                    series.stats()["samples"] < series.capacity - 1:
                sampler.sample_once()

        def write(worker):
            for i in range(self.OBSERVATIONS):
                with names_lock:
                    registry.incr("stress.count")
                    registry.gauge("stress.gauge", float(worker))
                registry.observe("stress.seconds", (i % 10 + 1) * 1e-5)

        sampler_thread = threading.Thread(target=keep_sampling)
        writers = [threading.Thread(target=write, args=(w,))
                   for w in range(self.WRITERS)]
        sampler_thread.start()
        for thread in writers:
            thread.start()
        for thread in writers:
            thread.join()
        stop.set()
        sampler_thread.join()
        sampler.sample_once()  # final: capture the tail

        expected = self.WRITERS * self.OBSERVATIONS
        assert registry.counters["stress.count"] == expected
        live = registry.histograms["stress.seconds"].export()
        assert live["count"] == expected
        assert sum(live["buckets"].values()) == expected
        # The series saw every increment exactly once across windows.
        assert series.total("stress.count") == expected
        summary = series.histogram_summary("stress.seconds")
        assert summary["count"] == expected
        # No interleaving may manufacture a negative rate.
        for name in series.counter_names():
            assert series.rate(name) >= 0.0
        for window in series.to_dict(windows=True)["windows"]:
            for delta in window["counters"].values():
                assert delta > 0
            for h in window["histograms"].values():
                assert h["count"] >= 0
                assert all(v > 0 for v in h["buckets"].values())
