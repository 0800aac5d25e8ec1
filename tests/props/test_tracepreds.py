"""Tests for the concrete-trace semantics of the five primitives.

The hypothesis suite cross-checks the chronological implementation against
the literal transliteration of the paper's newest-first Coq definitions on
random traces — the two must agree on every primitive, which pins down the
direction-of-time conventions (the subtlest part of section 4.1).
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.lang.values import ComponentInstance, vnum
from repro.props.patterns import (
    RecvPat, SendPat, comp_pat, msg_pat,
)
from repro.props.tracepreds import (
    NEWEST_FIRST_SEMANTICS, PRIMITIVES, check_wellformed, holds, violations,
)
from repro.runtime.actions import ARecv, ASend
from repro.runtime.trace import Trace

A = ComponentInstance(0, "A", (), 3)
B = ComponentInstance(1, "B", (), 4)

#: A small action alphabet: sends/recvs of two messages with 0/1 payloads
#: between two components.  Small on purpose: collisions make the
#: quantifier structure bite.
action_strategy = st.builds(
    lambda cls, comp, msg, payload: cls(comp, msg, (vnum(payload),)),
    st.sampled_from([ASend, ARecv]),
    st.sampled_from([A, B]),
    st.sampled_from(["M", "N"]),
    st.integers(min_value=0, max_value=1),
)

trace_strategy = st.lists(action_strategy, max_size=12).map(Trace)

PATTERN_PAIRS = [
    (SendPat(comp_pat("A"), msg_pat("M", "?x")),
     SendPat(comp_pat("B"), msg_pat("M", "?x"))),
    (RecvPat(comp_pat("A"), msg_pat("M", "_")),
     SendPat(comp_pat("A"), msg_pat("N", "_"))),
    (SendPat(comp_pat("A"), msg_pat("M", 1)),
     SendPat(comp_pat("A"), msg_pat("M", 1))),
    (RecvPat(comp_pat("B"), msg_pat("N", "?x")),
     RecvPat(comp_pat("B"), msg_pat("N", "?x"))),
]


class TestAgainstPaperDefinitions:
    @pytest.mark.parametrize("primitive", PRIMITIVES)
    @pytest.mark.parametrize("pair_index", range(len(PATTERN_PAIRS)))
    @given(trace=trace_strategy)
    def test_chronological_matches_newest_first(self, primitive,
                                                pair_index, trace):
        a, b = PATTERN_PAIRS[pair_index]
        ours = holds(primitive, a, b, trace)
        paper = NEWEST_FIRST_SEMANTICS[primitive](a, b,
                                                  trace.newest_first())
        assert ours == paper

    @given(trace=trace_strategy)
    def test_empty_patterns_vacuous_on_empty_trace(self, trace):
        a, b = PATTERN_PAIRS[0]
        if len(trace) == 0:
            for primitive in PRIMITIVES:
                assert holds(primitive, a, b, trace)


class TestPrimitiveSemantics:
    def send(self, comp, msg, n):
        return ASend(comp, msg, (vnum(n),))

    def recv(self, comp, msg, n):
        return ARecv(comp, msg, (vnum(n),))

    def test_enables_needs_strictly_earlier(self):
        a = RecvPat(comp_pat("A"), msg_pat("M", "?x"))
        b = SendPat(comp_pat("B"), msg_pat("M", "?x"))
        good = Trace([self.recv(A, "M", 1), self.send(B, "M", 1)])
        bad = Trace([self.send(B, "M", 1), self.recv(A, "M", 1)])
        assert holds("Enables", a, b, good)
        assert not holds("Enables", a, b, bad)

    def test_enables_respects_shared_variables(self):
        a = RecvPat(comp_pat("A"), msg_pat("M", "?x"))
        b = SendPat(comp_pat("B"), msg_pat("M", "?x"))
        mismatched = Trace([self.recv(A, "M", 0), self.send(B, "M", 1)])
        assert not holds("Enables", a, b, mismatched)

    def test_immbefore_requires_adjacency(self):
        a = RecvPat(comp_pat("A"), msg_pat("M", "_"))
        b = SendPat(comp_pat("B"), msg_pat("M", "_"))
        adjacent = Trace([self.recv(A, "M", 0), self.send(B, "M", 0)])
        gapped = Trace([
            self.recv(A, "M", 0), self.send(A, "N", 0), self.send(B, "M", 0),
        ])
        assert holds("ImmBefore", a, b, adjacent)
        assert not holds("ImmBefore", a, b, gapped)

    def test_immbefore_fails_at_trace_start(self):
        a = RecvPat(comp_pat("A"), msg_pat("M", "_"))
        b = SendPat(comp_pat("B"), msg_pat("M", "_"))
        assert not holds("ImmBefore", a, b, Trace([self.send(B, "M", 0)]))

    def test_immafter_mirror(self):
        a = RecvPat(comp_pat("A"), msg_pat("M", "_"))
        b = SendPat(comp_pat("B"), msg_pat("M", "_"))
        # ImmAfter A B: every A-match immediately followed by a B-match.
        ok = Trace([self.recv(A, "M", 0), self.send(B, "M", 0)])
        trailing = Trace([self.send(B, "M", 0), self.recv(A, "M", 0)])
        assert holds("ImmAfter", a, b, ok)
        assert not holds("ImmAfter", a, b, trailing)

    def test_ensures_needs_strictly_later(self):
        a = RecvPat(comp_pat("A"), msg_pat("M", "?x"))
        b = SendPat(comp_pat("B"), msg_pat("M", "?x"))
        ok = Trace([self.recv(A, "M", 1), self.send(A, "N", 0),
                    self.send(B, "M", 1)])
        pending = Trace([self.recv(A, "M", 1)])
        assert holds("Ensures", a, b, ok)
        assert not holds("Ensures", a, b, pending)

    def test_disables_forbids_any_earlier_match(self):
        a = self.crash_pat = RecvPat(comp_pat("A"), msg_pat("M", "_"))
        b = SendPat(comp_pat("B"), msg_pat("M", "_"))
        clean = Trace([self.send(B, "M", 0), self.recv(A, "M", 0)])
        dirty = Trace([self.recv(A, "M", 0), self.send(B, "M", 0)])
        assert holds("Disables", a, b, clean)
        assert not holds("Disables", a, b, dirty)

    def test_disables_self_means_at_most_once(self):
        a = b = SendPat(comp_pat("B"), msg_pat("M", "?x"))
        once = Trace([self.send(B, "M", 0)])
        twice = Trace([self.send(B, "M", 0), self.send(B, "M", 0)])
        different = Trace([self.send(B, "M", 0), self.send(B, "M", 1)])
        assert holds("Disables", a, b, once)
        assert not holds("Disables", a, b, twice)
        # at most once *per variable instantiation*:
        assert holds("Disables", a, b, different)

    def test_disables_extra_variables_act_as_wildcards(self):
        # A mentions a variable the trigger does not bind: under outermost
        # universal quantification any A-shaped action is forbidden.
        a = SendPat(comp_pat("A"), msg_pat("N", "?free"))
        b = SendPat(comp_pat("B"), msg_pat("M", "_"))
        dirty = Trace([self.send(A, "N", 1), self.send(B, "M", 0)])
        assert not holds("Disables", a, b, dirty)


class TestViolationsAndWellformedness:
    def test_violation_reports_position_and_binding(self):
        a = RecvPat(comp_pat("A"), msg_pat("M", "?x"))
        b = SendPat(comp_pat("B"), msg_pat("M", "?x"))
        trace = Trace([ASend(B, "M", (vnum(1),))])
        found = violations("Enables", a, b, trace)
        assert len(found) == 1
        assert found[0].position == 0
        assert dict(found[0].binding)["x"] == vnum(1)

    def test_wellformedness_rejects_unbindable_positive_requirements(self):
        import pytest as _pytest

        from repro.lang import ValidationError

        a = SendPat(comp_pat("A"), msg_pat("M", "?lonely"))
        b = SendPat(comp_pat("B"), msg_pat("M", "_"))
        with _pytest.raises(ValidationError, match="unsatisfiable"):
            check_wellformed("Enables", a, b)
        # ... but Disables tolerates them (they act as wildcards):
        check_wellformed("Disables", a, b)

    def test_unknown_primitive_rejected(self):
        import pytest as _pytest

        from repro.lang import ValidationError

        a = b = SendPat(comp_pat("A"), msg_pat("M", "_"))
        with _pytest.raises(ValidationError, match="unknown"):
            check_wellformed("Eventually", a, b)
