"""Unit tests for the exporters (`repro.obs.export`)."""

import json

from repro.obs.export import (
    chrome_trace,
    prometheus_exposition,
    render_report,
    validate_exposition,
    validate_trace_tree,
    write_chrome_trace,
)


def _span(name, span_id, parent_id, start, seconds, attrs=None):
    return {
        "name": name, "span_id": span_id, "parent_id": parent_id,
        "start": start, "seconds": seconds, "attrs": attrs or {},
    }


def _sample_trace():
    """A one-track trace: a verify root, a property, an obligation."""
    return {
        "run_id": "cafe0123", "epoch_wall": 0.0,
        "spans": [
            _span("verify", "1", None, 0.0, 1.0),
            _span("property", "2", "1", 0.1, 0.6,
                  attrs={"property": "NoLock"}),
            _span("obligation", "3", "2", 0.2, 0.4,
                  attrs={"property": "NoLock", "kind": "ni_part"}),
        ],
    }


class TestChromeTrace:
    """The Perfetto-loadable trace-event form."""

    def test_structure_and_timestamps(self):
        payload = chrome_trace(_sample_trace())
        json.dumps(payload)
        events = payload["traceEvents"]
        metadata = [e for e in events if e["ph"] == "M"]
        spans = [e for e in events if e["ph"] == "X"]
        assert len(spans) == 3
        obligation = next(e for e in spans if e["name"] == "obligation")
        assert obligation["ts"] == 0.2 * 1e6
        assert obligation["dur"] == 0.4 * 1e6
        assert obligation["args"]["parent_id"] == "2"
        names = [e["args"]["name"] for e in metadata
                 if e["name"] == "thread_name"]
        assert names == ["main"]

    def test_main_worker_gets_tid_zero(self):
        """A trace has one track, ``main``: tid 0 holds every span."""
        payload = chrome_trace(_sample_trace())
        assert {e["tid"] for e in payload["traceEvents"]} == {0}

    def test_write_chrome_trace_accepts_a_run_payload(self, tmp_path):
        path = str(tmp_path / "trace.json")
        write_chrome_trace(path, {"telemetry": {"trace": _sample_trace()}})
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        assert payload["otherData"]["run_id"] == "cafe0123"


class TestValidateTraceTree:
    """The structural validator behind the acceptance test."""

    def test_well_formed_tree_has_no_complaints(self):
        assert validate_trace_tree(_sample_trace()) == []

    def test_unknown_parent_is_flagged(self):
        trace = _sample_trace()
        trace["spans"].append(
            _span("orphan", "9", "404", 0.3, 0.1))
        complaints = validate_trace_tree(trace)
        assert len(complaints) == 1
        assert "unknown parent" in complaints[0]

    def test_child_outside_parent_interval_is_flagged(self):
        trace = _sample_trace()
        trace["spans"].append(
            _span("late", "4", "2", 0.5, 0.9))
        complaints = validate_trace_tree(trace)
        assert len(complaints) == 1
        assert "outside parent" in complaints[0]


class TestRenderReport:
    """The text report."""

    def test_report_names_slowest_obligation(self):
        payload = {
            "program": "ssh2",
            "wall_seconds": 1.25,
            "all_proved": True,
            "telemetry": {
                "run_id": "cafe0123",
                "counters": {"proof.store.hit": 3, "proof.store.miss": 1},
                "stage_seconds": {"search": 0.9, "plan": 0.1},
                "trace": _sample_trace(),
                "metrics": {
                    "gauges": {"proof.store.hit_ratio": 0.75},
                    "histograms": {
                        "solver.query.seconds": {
                            "count": 10, "total": 0.5, "mean": 0.05,
                            "min": 0.01, "max": 0.09, "p50": 0.05,
                            "p90": 0.08, "p99": 0.09, "buckets": {},
                        },
                    },
                },
                "events": [
                    {"seq": 0, "t": 0.0, "kind": "obligation.start",
                     "worker": "main"},
                ],
            },
        }
        report = render_report(payload)
        assert "NoLock" in report
        assert "ni_part" in report
        assert "solver.query.seconds" in report
        assert "proof.store" in report
        assert "obligation.start" in report
        assert "run cafe0123" in report
        assert "ssh2" in report

    def test_report_survives_a_bare_counters_payload(self):
        report = render_report({"counters": {"solver.implies": 4}})
        assert "no obligation spans recorded" in report

    def test_stage_seconds_sorted_descending(self):
        report = render_report({
            "stage_seconds": {"plan": 0.1, "search": 0.9},
            "counters": {},
        })
        assert report.index("search") < report.index("plan")


class TestPrometheusExposition:
    """The text-format exporter and its structural validator."""

    @staticmethod
    def snapshot():
        return {
            "counters": {"serve.submissions": 42},
            "gauges": {"serve.queue.depth": 3.0},
            "histograms": {
                "serve.verify.seconds": {
                    "base": 1e-6, "count": 4, "total": 0.01,
                    "buckets": {0: 1, 10: 3},
                },
            },
        }

    def test_exposition_is_valid_by_its_own_validator(self):
        text = prometheus_exposition(self.snapshot())
        assert validate_exposition(text) == []

    def test_counter_gauge_histogram_conventions(self):
        text = prometheus_exposition(self.snapshot())
        assert "repro_serve_submissions_total 42" in text
        assert "repro_serve_queue_depth 3" in text
        assert "# TYPE repro_serve_verify_seconds histogram" in text
        assert 'repro_serve_verify_seconds_bucket{le="+Inf"} 4' in text
        assert "repro_serve_verify_seconds_count 4" in text
        assert text.endswith("\n")

    def test_buckets_are_cumulative_in_le_order(self):
        text = prometheus_exposition(self.snapshot())
        counts = [int(line.rsplit(" ", 1)[1])
                  for line in text.splitlines() if "_bucket{" in line]
        assert counts == sorted(counts)
        assert counts[-1] == 4

    def test_empty_snapshot_is_still_a_valid_payload(self):
        text = prometheus_exposition({})
        assert text == "\n"
        assert validate_exposition(text) == []

    def test_validator_flags_a_missing_type_comment(self):
        bad = "repro_orphan_total 1\n"
        assert any("no preceding # TYPE" in c
                   for c in validate_exposition(bad))

    def test_validator_flags_a_non_cumulative_bucket_series(self):
        bad = (
            "# HELP repro_h h\n"
            "# TYPE repro_h histogram\n"
            'repro_h_bucket{le="0.001"} 5\n'
            'repro_h_bucket{le="0.002"} 3\n'
            'repro_h_bucket{le="+Inf"} 5\n'
            "repro_h_sum 0.01\n"
            "repro_h_count 5\n"
        )
        assert any("cumulative" in c or "decreas" in c
                   for c in validate_exposition(bad))

    def test_validator_flags_an_unclosed_histogram(self):
        bad = (
            "# TYPE repro_h histogram\n"
            'repro_h_bucket{le="0.001"} 5\n'
            "repro_h_sum 0.01\n"
            "repro_h_count 5\n"
        )
        assert any("+Inf" in c for c in validate_exposition(bad))

    def test_validator_flags_missing_trailing_newline(self):
        assert any("newline" in c
                   for c in validate_exposition("# TYPE a counter"))

    def test_validator_flags_garbage_sample_lines(self):
        assert any("unparsable" in c
                   for c in validate_exposition("!!! not a sample\n"))

    def test_metric_names_are_sanitized(self):
        text = prometheus_exposition(
            {"counters": {"weird-name.with spaces": 1}})
        assert validate_exposition(text) == []
        assert "repro_weird_name_with_spaces_total 1" in text
