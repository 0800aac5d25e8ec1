"""Unit tests for action patterns and matching."""

from repro.lang.values import ComponentInstance, VFd, vnum, vstr
from repro.props.patterns import (
    CallPat,
    PLit,
    PVar,
    PWild,
    RecvPat,
    SelectPat,
    SendPat,
    SpawnPat,
    comp_pat,
    field_pattern,
    match_field,
    msg_pat,
)
from repro.runtime.actions import ACall, ARecv, ASelect, ASend, ASpawn

TAB = ComponentInstance(1, "Tab", (vstr("mail"), vnum(0)), 4)
UI = ComponentInstance(0, "UI", (), 3)


class TestFieldPatterns:
    def test_coercion(self):
        assert field_pattern("_") == PWild()
        assert field_pattern("?u") == PVar("u")
        assert field_pattern("literal") == PLit(vstr("literal"))
        assert field_pattern(3) == PLit(vnum(3))
        assert field_pattern(None) == PWild()

    def test_wildcard_matches_anything(self):
        assert match_field(PWild(), vstr("x"), {}) == {}

    def test_literal_matches_exact_value(self):
        assert match_field(PLit(vstr("x")), vstr("x"), {}) == {}
        assert match_field(PLit(vstr("x")), vstr("y"), {}) is None

    def test_variable_binds_and_stays_consistent(self):
        binding = match_field(PVar("u"), vstr("alice"), {})
        assert binding == {"u": vstr("alice")}
        assert match_field(PVar("u"), vstr("alice"), binding) == binding
        assert match_field(PVar("u"), vstr("bob"), binding) is None


class TestCompPatterns:
    def test_exact_empty_config(self):
        assert comp_pat("UI").match(UI, {}) == {}
        assert comp_pat("UI").match(TAB, {}) is None  # wrong type

    def test_any_config(self):
        pat = comp_pat("Tab", any_config=True)
        assert pat.match(TAB, {}) == {}

    def test_config_fields_match_positionally(self):
        pat = comp_pat("Tab", "mail", "?i")
        assert pat.match(TAB, {}) == {"i": vnum(0)}
        assert comp_pat("Tab", "shop", "_").match(TAB, {}) is None

    def test_arity_mismatch_fails(self):
        assert comp_pat("Tab", "mail").match(TAB, {}) is None

    def test_variables_reported(self):
        assert comp_pat("Tab", "?d", "_").variables() == {"d"}
        assert comp_pat("Tab", any_config=True).variables() == frozenset()


class TestActionPatterns:
    def test_send_matches_send_only(self):
        pat = SendPat(comp_pat("Tab", "?d", "_"), msg_pat("M", "?v"))
        action = ASend(TAB, "M", (vstr("x"),))
        assert pat.match(action, {}) == {"d": vstr("mail"), "v": vstr("x")}
        assert pat.match(ARecv(TAB, "M", (vstr("x"),)), {}) is None

    def test_recv_pattern(self):
        pat = RecvPat(comp_pat("UI"), msg_pat("Go"))
        assert pat.match(ARecv(UI, "Go", ()), {}) == {}

    def test_msg_name_and_arity_checked(self):
        pat = SendPat(comp_pat("Tab", any_config=True), msg_pat("M", "?v"))
        assert pat.match(ASend(TAB, "N", (vstr("x"),)), {}) is None
        assert pat.match(ASend(TAB, "M", ()), {}) is None

    def test_spawn_and_select(self):
        assert SpawnPat(comp_pat("Tab", "?d", "?i")).match(
            ASpawn(TAB), {}
        ) == {"d": vstr("mail"), "i": vnum(0)}
        assert SelectPat(comp_pat("Tab", any_config=True)).match(
            ASelect(TAB), {}
        ) == {}
        assert SpawnPat(comp_pat("Tab", any_config=True)).match(
            ASelect(TAB), {}
        ) is None

    def test_call_pattern(self):
        action = ACall("policy", (vstr("h"), vstr("d")), vstr("grant"))
        pat = CallPat("policy", (PVar("h"), PVar("d")), PLit(vstr("grant")))
        assert pat.match(action, {}) == {"h": vstr("h"), "d": vstr("d")}
        assert CallPat("other", (PWild(), PWild())).match(action, {}) is None
        denied = CallPat("policy", (PWild(), PWild()), PLit(vstr("deny")))
        assert denied.match(action, {}) is None

    def test_shared_variable_across_comp_and_msg(self):
        # Send(Tab(d, _), M(d)): the same value must appear in both places.
        pat = SendPat(comp_pat("Tab", "?d", "_"), msg_pat("M", "?d"))
        assert pat.match(ASend(TAB, "M", (vstr("mail"),)), {}) is not None
        assert pat.match(ASend(TAB, "M", (vstr("shop"),)), {}) is None

    def test_variables_union(self):
        pat = SendPat(comp_pat("Tab", "?d", "?i"), msg_pat("M", "?v"))
        assert pat.variables() == {"d", "i", "v"}

    def test_fd_payloads_match_by_value(self):
        pat = SendPat(comp_pat("Tab", any_config=True),
                      msg_pat("Chan", "?f"))
        action = ASend(TAB, "Chan", (VFd(9),))
        assert pat.match(action, {}) == {"f": VFd(9)}
