"""Tests for candidate-counterexample extraction on failed proofs."""

from repro.lang import types as ty
from repro.lang.values import VBool, VNum, VStr
from repro.props import (
    TraceProperty, comp_pat, msg_pat, recv_pat, send_pat, specify,
)
from repro.prover import Verifier
from repro.prover.counterexample import (
    CandidateCounterexample,
    find_model,
    render_template,
)
from repro.symbolic.expr import (
    SComp, SOp, SProj, SVar, sadd, seq_, snot, snum, sstr,
)
from repro.symbolic.templates import TRecv, TSend


class TestModelFinder:
    def test_simple_equalities(self):
        x = SVar("x", ty.STR, "payload")
        model = find_model([seq_(x, sstr("alice"))])
        assert model == {x: VStr("alice")}

    def test_unsat_cube_has_no_model(self):
        x = SVar("x", ty.STR, "payload")
        assert find_model([seq_(x, sstr("a")), seq_(x, sstr("b"))]) is None

    def test_disequalities_use_fresh_strings(self):
        x = SVar("x", ty.STR, "payload")
        model = find_model([snot(seq_(x, sstr("a")))])
        assert model is not None
        assert model[x] != VStr("a")

    def test_numeric_constraints(self):
        n = SVar("n", ty.NUM, "state")
        model = find_model([seq_(sadd(n, snum(1)), snum(3))])
        assert model == {n: VNum(2)}

    def test_tuple_valued_variables(self):
        pair = SVar("p", ty.tuple_of(ty.STR, ty.BOOL), "state")
        model = find_model([
            seq_(SProj(pair, 0), sstr("u")),
            SProj(pair, 1),
        ])
        assert model is not None
        assert model[pair].elems[0] == VStr("u")
        assert model[pair].elems[1] == VBool(True)

    def test_gives_up_on_component_identity(self):
        a = SComp("a", "T", (), "sender")
        b = SComp("b", "T", (), "init")
        assert find_model([seq_(a, b)]) is None

    def test_gives_up_on_too_many_variables(self):
        vs = [SVar(f"v{i}", ty.NUM, "payload") for i in range(12)]
        literals = [SOp("le", (v, snum(3))) for v in vs]
        assert find_model(literals) is None


class TestRendering:
    def test_concrete_payload(self):
        comp = SComp("c", "Tab", (sstr("mail"),), "sender")
        x = SVar("x", ty.STR, "payload")
        rendered = render_template(TSend(comp, "M", (x,)),
                                   {x: VStr("hi")})
        assert rendered == "Send(Tab('mail'), M('hi'))"

    def test_unresolved_slots_are_bracketed(self):
        comp = SComp("c", "Tab", (sstr("mail"),), "sender")
        x = SVar("x", ty.STR, "payload")
        rendered = render_template(TRecv(comp, "M", (x,)), {})
        assert "⟨" in rendered


class TestEndToEnd:
    def test_false_property_yields_counterexample(self, ssh_info):
        prop = TraceProperty(
            "TermWithoutAuth", "Enables",
            recv_pat(comp_pat("Password"), msg_pat("ReqAuth", "?u", "_")),
            send_pat(comp_pat("Terminal"), msg_pat("ReqTerm", "?u")),
        )
        result = Verifier(specify(ssh_info, prop)).prove_property(prop)
        assert not result.proved
        ce = result.counterexample
        assert isinstance(ce, CandidateCounterexample)
        assert ce.exchange == "Connection=>ReqTerm"
        assert any("<-- trigger" in a for a in ce.actions)
        assert "reachable" in ce.note  # honest about spuriousness

    def test_counterexample_model_satisfies_branch(self, ssh_info):
        prop = TraceProperty(
            "TermWithoutAuth", "Enables",
            recv_pat(comp_pat("Password"), msg_pat("ReqAuth", "?u", "_")),
            send_pat(comp_pat("Terminal"), msg_pat("ReqTerm", "?u")),
        )
        result = Verifier(specify(ssh_info, prop)).prove_property(prop)
        model = dict(result.counterexample.model)
        # The guard (user, true) == authorized must be honoured by the
        # instantiation: the authorized tuple's flag is true.
        auth = next(v for k, v in model.items() if "authorized" in k)
        assert "true" in auth

    def test_proved_property_has_no_counterexample(self, ssh_info):
        prop = TraceProperty(
            "AuthBeforeTerm", "Enables",
            recv_pat(comp_pat("Password"), msg_pat("Auth", "?u")),
            send_pat(comp_pat("Terminal"), msg_pat("ReqTerm", "?u")),
        )
        result = Verifier(specify(ssh_info, prop)).prove_property(prop)
        assert result.proved
        assert result.counterexample is None

    def test_rendering_is_printable(self, ssh_info):
        prop = TraceProperty(
            "TermWithoutAuth", "Enables",
            recv_pat(comp_pat("Password"), msg_pat("ReqAuth", "?u", "_")),
            send_pat(comp_pat("Terminal"), msg_pat("ReqTerm", "?u")),
        )
        result = Verifier(specify(ssh_info, prop)).prove_property(prop)
        text = str(result.counterexample)
        assert "candidate counterexample" in text
        assert "Connection=>ReqTerm" in text
