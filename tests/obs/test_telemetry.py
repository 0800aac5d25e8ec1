"""Tests for the telemetry sink: counters, spans, nesting, retention."""

import json
import random

import pytest

from repro import obs


class TestCounters:
    def test_incr_without_sink_is_a_noop(self):
        assert obs.active() is None
        obs.incr("anything")  # must not raise

    def test_incr_accumulates(self):
        with obs.use(obs.Telemetry()) as telemetry:
            obs.incr("hits")
            obs.incr("hits", 2)
        assert telemetry.counters == {"hits": 3}

    def test_use_restores_previous_sink(self):
        outer = obs.Telemetry()
        with obs.use(outer):
            with obs.use(obs.Telemetry()) as inner:
                obs.incr("inner.only")
            obs.incr("outer.only")
        assert obs.active() is None
        assert "inner.only" not in outer.counters
        assert inner.counters == {"inner.only": 1}
        assert outer.counters == {"outer.only": 1}


class TestSpans:
    def test_span_records_name_and_attrs(self):
        with obs.use(obs.Telemetry()) as telemetry:
            with obs.span("search", property="P", part="base"):
                pass
        (span,) = telemetry.spans
        assert span.name == "search"
        assert dict(span.attrs) == {"property": "P", "part": "base"}
        assert span.seconds >= 0.0

    def test_span_without_sink_is_a_noop(self):
        with obs.span("untracked"):
            pass

    def test_span_recorded_on_exception(self):
        with obs.use(obs.Telemetry()) as telemetry:
            try:
                with obs.span("failing"):
                    raise ValueError("boom")
            except ValueError:
                pass
        assert [s.name for s in telemetry.spans] == ["failing"]

    def test_stage_seconds_groups_by_name(self):
        telemetry = obs.Telemetry()
        telemetry.record(obs.Span("search", 1.0))
        telemetry.record(obs.Span("search", 0.5))
        telemetry.record(obs.Span("check", 0.25))
        assert telemetry.stage_seconds() == {"search": 1.5, "check": 0.25}


class TestMergeAndRender:
    def test_to_dict_is_json_ready(self):
        with obs.use(obs.Telemetry()) as telemetry:
            obs.incr("solver.implies")
            with obs.span("plan", property="P"):
                pass
        payload = json.loads(json.dumps(telemetry.to_dict()))
        assert payload["counters"] == {"solver.implies": 1}
        assert "plan" in payload["stage_seconds"]
        assert payload["spans"][0]["name"] == "plan"

    def test_render_mentions_counters_and_stages(self):
        telemetry = obs.Telemetry()
        telemetry.incr("store.hit", 4)
        telemetry.record(obs.Span("check", 0.5))
        rendered = telemetry.render()
        assert "store.hit" in rendered
        assert "check" in rendered

    def test_render_empty(self):
        assert "no events" in obs.Telemetry().render()

    def test_render_sorts_by_magnitude_descending(self):
        telemetry = obs.Telemetry()
        telemetry.incr("rare", 1)
        telemetry.incr("hot", 1000)
        telemetry.record(obs.Span("fast", 0.01))
        telemetry.record(obs.Span("slow", 2.0))
        rendered = telemetry.render()
        assert rendered.index("hot") < rendered.index("rare")
        assert rendered.index("slow") < rendered.index("fast")


class TestSpanCap:
    """The raw-span retention cap (exact totals, top-K slowest kept)."""

    def test_cap_keeps_the_slowest_and_counts_drops(self):
        telemetry = obs.Telemetry(max_spans=3)
        for i in range(6):
            telemetry.record(obs.Span("stage", 0.1 * (i + 1)))
        kept = sorted(s.seconds for s in telemetry.spans)
        assert [round(s, 6) for s in kept] == [0.4, 0.5, 0.6]
        payload = telemetry.to_dict()
        assert payload["spans_total"] == 6
        assert payload["spans_dropped"] == 3
        assert [s["seconds"] for s in payload["spans"]] == [0.6, 0.5, 0.4]

    def test_totals_stay_exact_after_eviction(self):
        telemetry = obs.Telemetry(max_spans=2)
        for seconds in (0.1, 0.2, 0.3, 0.4):
            telemetry.record(obs.Span("search", seconds))
        assert abs(telemetry.stage_seconds()["search"] - 1.0) < 1e-9
        assert telemetry.span_counts() == {"search": 4}

    @pytest.mark.parametrize("seed", range(20))
    def test_retention_matches_a_plain_reference(self, seed):
        """With repeated durations, the sink keeps the ``max_spans``
        largest spans by (seconds, arrival) — the oldest goes on a tie —
        and lists them in arrival order; ``to_dict`` lists them slowest
        first."""
        rng = random.Random(seed)
        cap = rng.randint(1, 6)
        sink = obs.Telemetry(max_spans=cap)
        arrived = []
        for step in range(rng.randint(0, 80)):
            span_ = obs.Span(f"r{step}", rng.choice((0.1, 0.2, 0.3)))
            sink.record(span_)
            arrived.append(span_)
        order = sorted(range(len(arrived)),
                       key=lambda i: (arrived[i].seconds, i))
        kept = sorted(order[max(0, len(arrived) - cap):])
        reference = [arrived[i] for i in kept]
        assert sink.spans == reference
        slowest_first = sorted(reference, key=lambda s: -s.seconds)
        payload = sink.to_dict()
        assert payload["spans"] == [s.to_dict() for s in slowest_first]
        assert payload["spans_total"] == len(arrived)
        assert payload["spans_dropped"] == len(arrived) - len(reference)


class TestSinkSwaps:
    """Re-entrant `use` and mid-run sink swaps around open spans."""

    def test_span_sticks_to_the_sink_captured_at_entry(self):
        outer, inner = obs.Telemetry(), obs.Telemetry()
        with obs.use(outer):
            with obs.span("outer-work"):
                with obs.use(inner):
                    with obs.span("inner-work"):
                        pass
        assert [s.name for s in outer.spans] == ["outer-work"]
        assert [s.name for s in inner.spans] == ["inner-work"]

    def test_swapped_sink_does_not_adopt_foreign_parents(self):
        """With tracing on, a span opened under sink B while sink A's
        span is still open must become a root of B's trace, not a child
        of A's span."""
        outer = obs.Telemetry(trace=True)
        inner = obs.Telemetry(trace=True)
        with obs.use(outer):
            with obs.span("outer-work"):
                with obs.use(inner):
                    with obs.span("inner-work"):
                        pass
        (inner_span,) = inner.tracer.spans
        assert inner_span.parent_id is None
        (outer_span,) = outer.tracer.spans
        assert outer_span.name == "outer-work"

    def test_nesting_resumes_after_a_swap(self):
        sink = obs.Telemetry(trace=True)
        with obs.use(sink):
            with obs.span("parent"):
                with obs.use(obs.Telemetry()):
                    pass  # a swapped-in-and-out plain sink
                with obs.span("child"):
                    pass
        by_name = {s.name: s for s in sink.tracer.spans}
        assert by_name["child"].parent_id == by_name["parent"].span_id
