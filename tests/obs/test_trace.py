"""Unit tests for the hierarchical tracer (`repro.obs.trace`)."""

from repro.obs.trace import Tracer, TraceSpan


class TestPushPop:
    """Span identity and parenting through push/pop."""

    def test_nested_spans_record_parent_ids(self):
        tracer = Tracer(worker="main")
        outer = tracer.push("outer")
        inner = tracer.push("inner")
        inner_span = tracer.pop(inner)
        outer_span = tracer.pop(outer)
        assert outer_span.parent_id is None
        assert inner_span.parent_id == outer_span.span_id

    def test_sibling_spans_share_a_parent(self):
        tracer = Tracer()
        outer = tracer.push("outer")
        first = tracer.pop(tracer.push("a"))
        second = tracer.pop(tracer.push("b"))
        outer_span = tracer.pop(outer)
        assert first.parent_id == outer_span.span_id
        assert second.parent_id == outer_span.span_id

    def test_span_ids_are_unique_and_prefixed_by_worker(self):
        tracer = Tracer(worker="w42")
        spans = [tracer.pop(tracer.push(f"s{i}")) for i in range(8)]
        ids = {span.span_id for span in spans}
        assert len(ids) == len(spans)
        assert all(span.span_id.startswith("w42.") for span in spans)

    def test_two_tracers_in_one_process_never_collide(self):
        a, b = Tracer(worker="main"), Tracer(worker="main")
        span_a = a.pop(a.push("x"))
        span_b = b.pop(b.push("x"))
        assert span_a.span_id != span_b.span_id

    def test_foreign_tracer_span_is_not_adopted_as_parent(self):
        """A span opened under a *different* tracer (mid-run sink swap)
        must not become the parent of this tracer's spans."""
        old, new = Tracer(), Tracer()
        old_open = old.push("old-outer")
        fresh = new.pop(new.push("fresh"))
        assert fresh.parent_id is None
        old.pop(old_open)

    def test_child_interval_nests_inside_parent(self):
        tracer = Tracer()
        outer = tracer.push("outer")
        inner_span = tracer.pop(tracer.push("inner"))
        outer_span = tracer.pop(outer)
        assert outer_span.start <= inner_span.start
        assert inner_span.end <= outer_span.end


class TestSerialization:
    """TraceSpan dict round-tripping."""

    def test_to_dict_from_dict_round_trip(self):
        span = TraceSpan(
            name="obligation", span_id="main.1.3", parent_id="main.1.1",
            start=0.25, seconds=0.5, worker="main",
            attrs=(("property", "NoReadAfterCrash"),),
        )
        rebuilt = TraceSpan.from_dict(span.to_dict())
        assert rebuilt == span

    def test_from_dict_defaults_optional_fields(self):
        rebuilt = TraceSpan.from_dict({
            "name": "x", "span_id": "a.1.1", "start": 0, "seconds": 1,
        })
        assert rebuilt.parent_id is None
        assert rebuilt.worker == "main"
        assert rebuilt.attrs == ()

    def test_tracer_to_dict_is_json_ready(self):
        import json

        tracer = Tracer(worker="main")
        tracer.pop(tracer.push("stage", (("n", "1"),)))
        payload = tracer.to_dict()
        json.dumps(payload)  # must not raise
        assert payload["worker"] == "main"
        assert payload["spans"][0]["name"] == "stage"
