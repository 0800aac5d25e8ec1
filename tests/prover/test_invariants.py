"""Tests for invariant generalization and the secondary induction."""

import pytest

from repro.lang import NUM, STR
from repro.lang.builder import (
    ProgramBuilder, add, assign, eq, ite, le, lit, name, send, spawn, tup,
)
from repro.lang.errors import ProofSearchFailure
from repro.props import comp_pat, msg_pat, send_pat, recv_pat
from repro.prover.derivation import (
    BaseClean,
    BaseVacuous,
    BaseWitness,
    BoundedSpec,
    CaseEstablished,
    CaseInfeasible,
    CasePreserved,
    CaseSyntacticSkip,
    InvariantSpec,
)
from repro.prover.checker import validate_bounded, validate_invariant
from repro.prover.invariants import (
    generalize,
    prove_bounded,
    prove_invariant,
)
from repro.prover.obligations import InstPattern
from repro.symbolic.behabs import generic_step
from repro.symbolic.expr import SProj, SVar, seq_, sstr
from tests.conftest import build_ssh_program


def ssh_step():
    return generic_step(build_ssh_program().build_validated())


def auth_invariant_spec(step):
    """The SSH history invariant, built the way the tactic builds it."""
    from repro.prover.checker import OccurrenceContext
    from repro.prover.obligations import occurrences, scheme_of
    from repro.props import TraceProperty

    prop = TraceProperty(
        "AuthBeforeTerm", "Enables",
        recv_pat(comp_pat("Password"), msg_pat("Auth", "?u")),
        send_pat(comp_pat("Terminal"), msg_pat("ReqTerm", "?u")),
    )
    scheme = scheme_of(prop)
    ex = step.exchange("Connection", "ReqTerm")
    for path in ex.paths:
        occs = occurrences(scheme.trigger, path.actions)
        if occs:
            cube = tuple(path.cond) + occs[0].match.constraints
            return generalize(scheme.required,
                              occs[0].match.binding_dict(), cube, "history")
    raise AssertionError("no trigger occurrence found")


class TestGeneralize:
    def test_payload_vars_become_params(self):
        step = ssh_step()
        spec = auth_invariant_spec(step)
        assert spec is not None
        assert spec.kind == "history"
        assert len(spec.params) == 1
        param = spec.params[0]
        assert param.origin == "param"
        # The guard links the state variable to the parameter.
        assert any("authorized" in str(g) for g in spec.guard)
        assert any(str(param) in str(g) for g in spec.guard)

    def test_deterministic_param_names_enable_caching(self):
        step = ssh_step()
        assert auth_invariant_spec(step) == auth_invariant_spec(step)


class TestHistoryInduction:
    def test_ssh_invariant_proves(self):
        step = ssh_step()
        spec = auth_invariant_spec(step)
        proof = prove_invariant(step, spec)
        assert isinstance(proof.base, BaseVacuous)
        tags = {type(case).__name__ for _, _, case in proof.cases}
        # the Auth handler establishes; most handlers are skipped; the
        # guard-preserving cases show up for branches of other handlers
        assert "CaseEstablished" in tags
        assert "CaseSyntacticSkip" in tags
        assert validate_invariant(step, proof) == []

    def test_unprovable_invariant_raises(self):
        step = ssh_step()
        spec = auth_invariant_spec(step)
        # Demand history of a *send to the Connection* instead: the Auth
        # handler does not emit it, so the induction must fail.
        broken = InvariantSpec(
            kind=spec.kind,
            guard=spec.guard,
            inst=InstPattern(
                send_pat(comp_pat("Connection"),
                         msg_pat("Term", "?u", "_")),
                spec.inst.binding,
            ),
            params=spec.params,
        )
        with pytest.raises(ProofSearchFailure):
            prove_invariant(step, broken)


class TestValidation:
    def test_tampered_case_rejected(self):
        step = ssh_step()
        spec = auth_invariant_spec(step)
        proof = prove_invariant(step, spec)
        from dataclasses import replace

        # Claim an exchange was syntactically skipped that was not.
        established_key = next(
            key for key, idx, case in proof.cases
            if isinstance(case, CaseEstablished)
        )
        tampered_cases = tuple(
            (key, -1, CaseSyntacticSkip()) if key == established_key
            else (key, idx, case)
            for key, idx, case in proof.cases
        )
        tampered = replace(proof, cases=tampered_cases)
        assert validate_invariant(step, tampered)

    def test_missing_case_rejected(self):
        step = ssh_step()
        spec = auth_invariant_spec(step)
        proof = prove_invariant(step, spec)
        from dataclasses import replace

        tampered = replace(proof, cases=proof.cases[:-1])
        complaints = validate_invariant(step, tampered)
        # either the dropped case was required, or it was a skip whose
        # removal surfaces as missing inductive cases
        assert complaints

    def test_wrong_base_rejected(self):
        step = ssh_step()
        spec = auth_invariant_spec(step)
        proof = prove_invariant(step, spec)
        from dataclasses import replace

        tampered = replace(proof, base=BaseWitness(0))
        assert validate_invariant(step, tampered)


class TestBoundedInvariants:
    def counter_info(self):
        b = ProgramBuilder("ids")
        b.component("UI", "ui.py")
        b.component("Tab", "tab.py", ident=NUM)
        b.message("New")
        b.init(assign("nextid", lit(0)), spawn("u0", "UI"))
        b.handler("UI", "New", [],
                  spawn(None, "Tab", name("nextid")),
                  assign("nextid", add(name("nextid"), lit(1))))
        return b.build_validated()

    def spec_for(self, step):
        nextid = step.pre_env_dict()["nextid"]
        return BoundedSpec("Tab", 0, nextid)

    def test_bounded_proof(self):
        step = generic_step(self.counter_info())
        proof = prove_bounded(step, self.spec_for(step))
        assert validate_bounded(step, proof) == []
        tags = {tag for _, _, tag in proof.cases}
        assert tags == {"skip", "ok"}

    def test_bounded_rejects_init_spawn_at_bound(self):
        b = ProgramBuilder("ids2")
        b.component("UI", "ui.py")
        b.component("Tab", "tab.py", ident=NUM)
        b.message("New")
        # Init spawns a Tab with ident 0 while nextid starts at 0: the
        # base case of "all spawned idents < nextid" is false.
        b.init(assign("nextid", lit(0)), spawn("u0", "UI"),
               spawn("t0", "Tab", lit(0)))
        info = b.build_validated()
        step = generic_step(info)
        with pytest.raises(ProofSearchFailure, match="Init spawn"):
            prove_bounded(step, self.spec_for(step))

    def test_bounded_tamper_rejected(self):
        step = generic_step(self.counter_info())
        proof = prove_bounded(step, self.spec_for(step))
        from dataclasses import replace

        tampered = replace(proof, cases=tuple(
            (key, -1, "skip") for key, idx, tag in proof.cases
        ))
        assert validate_bounded(step, tampered)
