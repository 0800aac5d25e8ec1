"""Unit tests for the metrics registry (`repro.obs.metrics`)."""

import json
import queue

from repro import obs
from repro.obs.metrics import BASE, Histogram, MetricsRegistry, bucket_index
from repro.prover import Verifier
from repro.serve.server import ServeOptions, VerificationServer, _Submission
from repro.systems import car


class TestBucketIndex:
    """The log-bucket mapping."""

    def test_at_or_below_base_is_bucket_zero(self):
        assert bucket_index(0.0) == 0
        assert bucket_index(BASE) == 0
        assert bucket_index(BASE / 2) == 0

    def test_powers_of_two_land_on_their_boundary(self):
        assert bucket_index(BASE * 2) == 1
        assert bucket_index(BASE * 4) == 2
        assert bucket_index(BASE * 1024) == 10

    def test_values_between_boundaries_round_up(self):
        assert bucket_index(BASE * 3) == 2  # (2*BASE, 4*BASE]


class TestHistogram:
    """Observation, quantiles, merging, export."""

    def test_moments(self):
        h = Histogram()
        for value in (0.001, 0.002, 0.003):
            h.observe(value)
        assert h.count == 3
        assert abs(h.total - 0.006) < 1e-12
        assert h.min == 0.001
        assert h.max == 0.003

    def test_quantile_is_an_upper_bound(self):
        h = Histogram()
        values = [0.0001 * (i + 1) for i in range(100)]
        for value in values:
            h.observe(value)
        assert h.quantile(0.5) >= sorted(values)[49]
        assert h.quantile(0.99) >= sorted(values)[98]
        assert h.quantile(1.0) == h.bucket_bound(max(h.buckets))

    def test_quantile_of_empty_histogram_is_zero(self):
        assert Histogram().quantile(0.9) == 0.0

    def test_merge_folds_counts_and_extremes(self):
        a, b = Histogram(), Histogram()
        a.observe(0.001)
        b.observe(0.1)
        b.observe(0.00001)
        a.merge(b.export())
        assert a.count == 3
        assert a.min == 0.00001
        assert a.max == 0.1
        assert sum(a.buckets.values()) == 3

    def test_merge_accepts_stringified_bucket_keys(self):
        """Bucket keys may arrive as strings after a JSON round trip."""
        a = Histogram()
        exported = {"count": 1, "total": 0.004, "min": 0.004, "max": 0.004,
                    "buckets": {"12": 1}}
        a.merge(exported)
        assert a.buckets == {12: 1}

    def test_merge_renormalizes_a_mismatched_base(self):
        """Regression: a snapshot exported under a coarser base used to
        be folded in by raw bucket index, silently shrinking every
        foreign observation (base-1e-3 bucket 3 is 8 ms, but the same
        index read under base 1e-6 is 8 µs).  Merge must rebucket by
        value, not by index."""
        coarse = Histogram(base=1e-3)
        coarse.observe(0.008)  # 8 ms -> coarse bucket 3
        fine = Histogram(base=BASE)
        fine.merge(coarse.export())
        assert fine.count == 1
        # The merged observation still reads as ~8 ms, not ~8 µs.
        assert fine.quantile(1.0) >= 0.008
        assert fine.quantile(1.0) < 0.020
        assert 3 not in fine.buckets  # index 3 under BASE would be 8 µs

    def test_merge_same_base_is_index_preserving(self):
        a, b = Histogram(), Histogram()
        b.observe(0.008)
        a.merge(b.export())
        assert a.buckets == b.buckets

    def test_to_dict_is_json_ready_with_quantiles(self):
        h = Histogram()
        h.observe(0.01)
        payload = h.to_dict()
        json.dumps(payload)
        assert payload["count"] == 1
        for key in ("p50", "p90", "p99", "mean", "buckets"):
            assert key in payload


class TestRegistry:
    """Counters, gauges, histograms and their summaries."""

    def test_counters_gauges_histograms(self):
        registry = MetricsRegistry()
        registry.incr("solver.implies", 3)
        registry.gauge("cache.size", 17)
        registry.observe("solver.query.seconds", 0.002)
        assert registry.counters["solver.implies"] == 3
        assert registry.gauges["cache.size"] == 17.0
        assert registry.histograms["solver.query.seconds"].count == 1

    def test_summaries_sorted_by_total_descending(self):
        registry = MetricsRegistry()
        registry.observe("small", 0.001)
        registry.observe("large", 1.0)
        registry.observe("medium", 0.1)
        names = [name for name, _ in registry.summaries()]
        assert names == ["large", "medium", "small"]


class TestHistogramUnits:
    """Every histogram is a time: its buckets are microseconds, and
    ``repro report``, the ``metrics`` frame and the Prometheus
    exposition render it as seconds.  A count belongs in a counter."""

    @staticmethod
    def non_seconds(registry: MetricsRegistry) -> list:
        return sorted(name for name in registry.histograms
                      if not name.endswith(".seconds"))

    def test_a_fully_instrumented_verify_records_only_times(self):
        sink = obs.Telemetry(trace=True, metrics=True, events=True)
        with obs.use(sink):
            assert Verifier(car.load()).verify_all().all_proved
        assert sink.metrics.histograms
        assert self.non_seconds(sink.metrics) == []

    def test_a_daemon_verify_group_records_only_times(self, tmp_path):
        server = VerificationServer(ServeOptions(store=str(tmp_path)))
        sub = _Submission(session=server.sessions.create(),
                          source=car.SOURCE, replies=queue.Queue(),
                          stream=False)
        server._process_batch([sub])
        assert sub.replies.get_nowait()["all_proved"]
        assert self.non_seconds(server.telemetry.metrics) == []
