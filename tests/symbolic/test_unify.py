"""Tests for pattern/template unification."""

from repro.lang import types as ty
from repro.props.patterns import (
    CallPat, PLit, PVar, comp_pat, msg_pat, recv_pat, send_pat,
    spawn_pat,
)
from repro.symbolic.expr import (
    SComp, SVar, sstr,
)
from repro.symbolic.templates import (
    TCall, TRecv, TSelect, TSend, TSpawn, substitute_template,
    template_comp,
)
from repro.symbolic.unify import match_comp_term, match_template

DOMAIN = SVar("dom", ty.STR, "config")
IDNUM = SVar("idn", ty.NUM, "config")
PAYLOAD = SVar("pay", ty.STR, "payload")
TAB = SComp("tab", "Tab", (DOMAIN, IDNUM), "sender")
UI = SComp("ui", "UI", (), "init")


class TestStaticRefutation:
    def test_kind_mismatch(self):
        pat = send_pat(comp_pat("Tab", any_config=True), msg_pat("M", "_"))
        assert match_template(pat, TRecv(TAB, "M", (PAYLOAD,))) is None

    def test_ctype_mismatch(self):
        pat = send_pat(comp_pat("UI"), msg_pat("M", "_"))
        assert match_template(pat, TSend(TAB, "M", (PAYLOAD,))) is None

    def test_msg_name_mismatch(self):
        pat = send_pat(comp_pat("Tab", any_config=True), msg_pat("N", "_"))
        assert match_template(pat, TSend(TAB, "M", (PAYLOAD,))) is None

    def test_statically_false_field_refuted(self):
        # A literal field against a different constant term: never matches.
        pat = send_pat(comp_pat("Tab", any_config=True),
                       msg_pat("M", "lit"))
        template = TSend(TAB, "M", (sstr("other"),))
        assert match_template(pat, template) is None


class TestConditionalMatch:
    def test_unconditional_match(self):
        pat = recv_pat(comp_pat("Tab", any_config=True), msg_pat("M", "?v"))
        m = match_template(pat, TRecv(TAB, "M", (PAYLOAD,)))
        assert m is not None
        assert m.constraints == ()
        assert m.binding_dict() == {"v": PAYLOAD}

    def test_literal_field_yields_constraint(self):
        pat = send_pat(comp_pat("Tab", any_config=True),
                       msg_pat("M", "alice"))
        m = match_template(pat, TSend(TAB, "M", (PAYLOAD,)))
        assert m is not None
        assert len(m.constraints) == 1
        assert "alice" in str(m.constraints[0])

    def test_config_patterns_constrain_comp_term(self):
        pat = spawn_pat(comp_pat("Tab", "mail", "?i"))
        m = match_template(pat, TSpawn(TAB))
        assert m is not None
        assert m.binding_dict()["i"] == IDNUM
        assert any("mail" in str(c) for c in m.constraints)

    def test_prebound_variable_becomes_constraint(self):
        pat = send_pat(comp_pat("Tab", "?d", "_"), msg_pat("M", "?d"))
        m = match_template(pat, TSend(TAB, "M", (PAYLOAD,)))
        # d binds to the config term; its payload occurrence yields an
        # equality constraint between the two terms.
        assert m is not None
        assert m.binding_dict()["d"] == DOMAIN
        assert len(m.constraints) == 1

    def test_initial_binding_respected(self):
        pat = send_pat(comp_pat("Tab", any_config=True), msg_pat("M", "?v"))
        m = match_template(pat, TSend(TAB, "M", (PAYLOAD,)),
                           {"v": sstr("fixed")})
        assert m is not None
        assert m.binding_dict()["v"] == sstr("fixed")
        assert len(m.constraints) == 1  # payload must equal "fixed"

    def test_call_pattern_result_constraint(self):
        result = SVar("res", ty.STR, "call")
        pat = CallPat("policy", (PVar("h"),), PLit(sstr("grant").value))
        m = match_template(pat, TCall("policy", (PAYLOAD,), result))
        assert m is not None
        assert m.binding_dict()["h"] == PAYLOAD
        assert any("grant" in str(c) for c in m.constraints)

    def test_select_pattern(self):
        from repro.props.patterns import SelectPat

        pat = SelectPat(comp_pat("Tab", any_config=True))
        assert match_template(pat, TSelect(TAB)) is not None


class TestCompTermMatch:
    def test_match_comp_term(self):
        m = match_comp_term(comp_pat("Tab", "?d", "_"), TAB)
        assert m is not None
        assert m.binding_dict()["d"] == DOMAIN

    def test_type_mismatch_refuted(self):
        assert match_comp_term(comp_pat("UI"), TAB) is None


class TestTemplates:
    def test_template_comp(self):
        assert template_comp(TSpawn(TAB)) == TAB
        assert template_comp(TCall("f", (), SVar("r", ty.STR,
                                                 "call"))) is None

    def test_substitute_template(self):
        new = substitute_template(
            TSend(TAB, "M", (PAYLOAD,)), {PAYLOAD: sstr("fixed")}
        )
        assert new.payload == (sstr("fixed"),)

    def test_rendering(self):
        assert "Send" in str(TSend(TAB, "M", (PAYLOAD,)))
        assert "Spawn" in str(TSpawn(TAB))
