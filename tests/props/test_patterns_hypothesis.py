"""Property-based tests for the pattern-matching algebra."""

from hypothesis import given
from hypothesis import strategies as st

from repro.lang.values import ComponentInstance, vnum, vstr
from repro.props.patterns import (
    PLit, PVar, PWild, SendPat, comp_pat, msg_pat,
)
from repro.runtime.actions import ARecv, ASend

COMPS = [
    ComponentInstance(0, "A", (), 3),
    ComponentInstance(1, "B", (vstr("x"),), 4),
    ComponentInstance(2, "B", (vstr("y"),), 5),
]

actions = st.builds(
    lambda cls, comp, msg, n: cls(comp, msg, (vnum(n), vstr(str(n)))),
    st.sampled_from([ASend, ARecv]),
    st.sampled_from(COMPS),
    st.sampled_from(["M", "N"]),
    st.integers(0, 3),
)

field_patterns = st.one_of(
    st.just(PWild()),
    st.builds(PVar, st.sampled_from(["p", "q"])),
    st.builds(lambda n: PLit(vnum(n)), st.integers(0, 3)),
    st.builds(lambda s: PLit(vstr(s)), st.sampled_from(["0", "1", "z"])),
)

send_patterns = st.builds(
    lambda ctype, any_cfg, f1, f2, msg: SendPat(
        comp_pat(ctype, any_config=True) if any_cfg or ctype == "A"
        else comp_pat(ctype, "_"),
        msg_pat(msg, f1, f2),
    ),
    st.sampled_from(["A", "B"]),
    st.booleans(),
    field_patterns,
    field_patterns,
    st.sampled_from(["M", "N"]),
)


class TestMatchingLaws:
    @given(send_patterns, actions)
    def test_binding_covers_exactly_the_variables(self, pattern, action):
        binding = pattern.match(action, {})
        if binding is not None:
            assert set(binding) <= pattern.variables()
            # every *payload/config* variable that the pattern could bind
            # is bound when a match succeeds
            assert set(binding) == pattern.variables()

    @given(send_patterns, actions)
    def test_matching_is_deterministic(self, pattern, action):
        assert pattern.match(action, {}) == pattern.match(action, {})

    @given(send_patterns, actions)
    def test_prebinding_restricts(self, pattern, action):
        """Matching with a pre-binding succeeds iff the free match agrees
        with it."""
        free = pattern.match(action, {})
        pre = {"p": vnum(0)}
        bound = pattern.match(action, dict(pre))
        if bound is not None:
            assert bound["p"] == vnum(0)
            if "p" in pattern.variables():
                assert free is not None and free["p"] == vnum(0)
        elif free is not None and "p" in free:
            assert free["p"] != vnum(0)

    @given(send_patterns, actions)
    def test_match_never_mutates_input_binding(self, pattern, action):
        binding = {"p": vnum(0)}
        snapshot = dict(binding)
        pattern.match(action, binding)
        assert binding == snapshot

    @given(actions)
    def test_wildcard_everything_matches_same_kind(self, action):
        pattern = SendPat(
            comp_pat(action.comp.ctype, any_config=True),
            msg_pat(action.msg, "_", "_"),
        )
        expected = isinstance(action, ASend)
        assert (pattern.match(action, {}) is not None) == expected
