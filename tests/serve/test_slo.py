"""Unit tests for the health/SLO policy (`repro.serve.slo`).

`compute_health` is pure — plain dicts plus a TimeSeries in, a verdict
out — so every transition is driven with hand-built inputs here; the
end-to-end breaker-open transition over the wire lives in
tests/integration/test_serve.py.
"""

from repro.obs.timeseries import TimeSeries
from repro.serve.slo import HealthPolicy, compute_health


def series_with(counters=None, histograms=None, at=60.0):
    """A series holding one window ending at ``at`` with the given
    cumulative counters/histograms."""
    series = TimeSeries()
    empty = {"counters": {}, "gauges": {}, "histograms": {}}
    series.record(0.0, empty)
    series.record(at, {
        "counters": dict(counters or {}),
        "gauges": {},
        "histograms": dict(histograms or {}),
    })
    return series


def latency_hist(buckets, total=1.0):
    return {"base": 1e-6, "count": sum(buckets.values()),
            "total": total, "buckets": dict(buckets)}


def check(health, name):
    return next(c for c in health["checks"] if c["name"] == name)


BREAKER_CLOSED = {"state": "closed", "consecutive_failures": 0}
ADMISSION_QUIET = {"max_queued": 10, "inflight": 0}


class TestVerdicts:
    def test_quiet_daemon_is_ok(self):
        health = compute_health(
            HealthPolicy(slo_p99_ms=None),
            breaker=BREAKER_CLOSED,
            admission=ADMISSION_QUIET,
            series=series_with(),
        )
        assert health["status"] == "ok"
        assert {c["name"] for c in health["checks"]} \
            == {"breaker", "backlog", "flush", "slo"}
        assert all(c["status"] == "ok" for c in health["checks"])

    def test_verdict_is_the_worst_check(self):
        health = compute_health(
            HealthPolicy(slo_p99_ms=None),
            breaker={"state": "open", "consecutive_failures": 3},
            admission={"max_queued": 10, "inflight": 10},
            series=series_with(),
        )
        assert health["status"] == "unhealthy"  # backlog full wins


class TestBreakerCheck:
    def test_open_breaker_degrades(self):
        for state in ("open", "half-open"):
            health = compute_health(
                HealthPolicy(slo_p99_ms=None),
                breaker={"state": state, "consecutive_failures": 5},
                admission=ADMISSION_QUIET,
                series=series_with(),
            )
            assert health["status"] == "degraded"
            assert check(health, "breaker")["status"] == "degraded"

    def test_transition_back_to_ok_when_breaker_closes(self):
        """ok -> degraded on open, back to ok on close."""
        states = []
        for state in ("closed", "open", "closed"):
            states.append(compute_health(
                HealthPolicy(slo_p99_ms=None),
                breaker={"state": state, "consecutive_failures": 0},
                admission=ADMISSION_QUIET,
                series=series_with(),
            )["status"])
        assert states == ["ok", "degraded", "ok"]


class TestBacklogCheck:
    def test_thresholds(self):
        def status(inflight):
            health = compute_health(
                HealthPolicy(slo_p99_ms=None),
                breaker=BREAKER_CLOSED,
                admission={"max_queued": 10, "inflight": inflight},
                series=series_with(),
            )
            return check(health, "backlog")["status"]

        assert status(0) == "ok"
        assert status(7) == "ok"
        assert status(8) == "degraded"   # >= 80% of 10
        assert status(10) == "unhealthy"  # shedding


class TestFlushCheck:
    def test_flush_errors_in_window_degrade(self):
        health = compute_health(
            HealthPolicy(slo_p99_ms=None),
            breaker=BREAKER_CLOSED,
            admission=ADMISSION_QUIET,
            series=series_with({"serve.flush_error": 2}),
        )
        assert check(health, "flush")["status"] == "degraded"
        assert health["status"] == "degraded"


class TestSloCheck:
    def test_no_slo_configured_is_ok(self):
        health = compute_health(
            HealthPolicy(slo_p99_ms=None),
            breaker=BREAKER_CLOSED,
            admission=ADMISSION_QUIET,
            series=series_with(histograms={
                "serve.verify.seconds": latency_hist({20: 100}),
            }),
        )
        slo = check(health, "slo")
        assert slo["status"] == "ok"
        assert "no latency SLO" in slo["detail"]

    def test_no_observations_is_ok(self):
        health = compute_health(
            HealthPolicy(slo_p99_ms=100.0),
            breaker=BREAKER_CLOSED,
            admission=ADMISSION_QUIET,
            series=series_with(),
        )
        assert check(health, "slo")["status"] == "ok"

    def test_fast_traffic_meets_the_objective(self):
        # bucket 10 under base 1e-6 bounds at ~1.024 ms << 100 ms
        health = compute_health(
            HealthPolicy(slo_p99_ms=100.0),
            breaker=BREAKER_CLOSED,
            admission=ADMISSION_QUIET,
            series=series_with(histograms={
                "serve.verify.seconds": latency_hist({10: 100}),
            }),
        )
        slo = check(health, "slo")
        assert slo["status"] == "ok"
        assert slo["violations"] == 0

    def test_slow_p99_degrades(self):
        # 2 of 100 land in bucket 20 (~1.05 s) against a 100 ms
        # objective: p99 over objective, burn 2/1 = 2.0 -> but that is
        # already unhealthy territory; use a gentler mix for degraded.
        health = compute_health(
            HealthPolicy(slo_p99_ms=100.0, slo_target=0.95),
            breaker=BREAKER_CLOSED,
            admission=ADMISSION_QUIET,
            series=series_with(histograms={
                "serve.verify.seconds": latency_hist({10: 98, 20: 2}),
            }),
        )
        slo = check(health, "slo")
        # 2 violations / (0.05 * 100 = 5 allowed) = burn 0.4 < 2.0,
        # but p99 (~1.05 s) is over the objective -> degraded.
        assert slo["status"] == "degraded"
        assert slo["p99_s"] > slo["objective_s"]
        assert health["status"] == "degraded"

    def test_budget_burn_at_threshold_is_unhealthy(self):
        # 3 violations / (0.01 * 100 = 1 allowed) = burn 3.0 >= 2.0.
        health = compute_health(
            HealthPolicy(slo_p99_ms=100.0),
            breaker=BREAKER_CLOSED,
            admission=ADMISSION_QUIET,
            series=series_with(histograms={
                "serve.verify.seconds": latency_hist({10: 97, 20: 3}),
            }),
        )
        slo = check(health, "slo")
        assert slo["status"] == "unhealthy"
        assert slo["burn"] >= 2.0
        assert health["status"] == "unhealthy"

    def test_old_violations_age_out_of_the_window(self):
        """Slow traffic beyond the window no longer burns budget."""
        series = TimeSeries()
        empty = {"counters": {}, "gauges": {}, "histograms": {}}
        series.record(0.0, empty)
        # Minute 1: slow traffic.
        series.record(60.0, {
            "counters": {}, "gauges": {},
            "histograms": {"serve.verify.seconds":
                           latency_hist({20: 50})},
        })
        # Minute 2: fast traffic on top (cumulative snapshot).
        series.record(120.0, {
            "counters": {}, "gauges": {},
            "histograms": {"serve.verify.seconds":
                           latency_hist({10: 100, 20: 50})},
        })
        health = compute_health(
            HealthPolicy(slo_p99_ms=100.0),
            breaker=BREAKER_CLOSED,
            admission=ADMISSION_QUIET,
            series=series,
        )
        slo = check(health, "slo")
        assert slo["violations"] == 0
        assert slo["status"] == "ok"


class TestPolicyDefaults:
    def test_env_var_enables_the_slo(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_SLO_P99_MS", "250")
        assert HealthPolicy().slo_p99_ms == 250.0

    def test_bad_env_values_disable_the_slo(self, monkeypatch):
        for raw in ("", "nope", "-5", "0"):
            monkeypatch.setenv("REPRO_SERVE_SLO_P99_MS", raw)
            assert HealthPolicy().slo_p99_ms is None

    def test_unset_env_disables_the_slo(self, monkeypatch):
        monkeypatch.delenv("REPRO_SERVE_SLO_P99_MS", raising=False)
        assert HealthPolicy().slo_p99_ms is None
