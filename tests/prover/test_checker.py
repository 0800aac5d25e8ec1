"""Tests for the independent proof checker: valid derivations pass,
tampered or incomplete ones are rejected.

This is the reproduction's analog of Coq's kernel rejecting terms from a
buggy tactic: the checker must not trust the search.
"""

from dataclasses import replace

import pytest

from repro.lang import NUM, STR, ProofCheckFailure, ast
from repro.lang.builder import (
    ProgramBuilder, add, assign, call, cfg, eq, ite, lit, lookup, name, send,
    spawn,
)
from repro.props import (
    TraceProperty, comp_pat, msg_pat, recv_pat, send_pat, specify,
)
from repro.props.patterns import CallPat, PWild, SpawnPat
from repro.prover import Verifier
from repro.prover.checker import (
    check_trace_proof,
    trace_exchange_complaints,
    trace_proof_complaints,
    trace_skip_complaints,
    validate_bounded,
    validate_invariant,
)
from repro.prover.derivation import (
    BaseClean,
    BoundedProof,
    BoundedSpec,
    CaseSyntacticSkip,
    EarlierWitness,
    HistoryInvariant,
    ImmWitness,
    InvariantProof,
    InvariantSpec,
    OccurrenceProof,
    PathProof,
    SkippedExchange,
    Vacuous,
)
from repro.prover.obligations import InstPattern, Scheme
from repro.symbolic.behabs import generic_step


def auth_prop():
    return TraceProperty(
        "AuthBeforeTerm", "Enables",
        recv_pat(comp_pat("Password"), msg_pat("Auth", "?u")),
        send_pat(comp_pat("Terminal"), msg_pat("ReqTerm", "?u")),
    )


@pytest.fixture
def proved(ssh_info):
    prop = auth_prop()
    verifier = Verifier(specify(ssh_info, prop))
    result = verifier.prove_property(prop)
    assert result.proved
    return verifier.generic_step(), result.proof


class TestAcceptance:
    def test_valid_proof_checks(self, proved):
        step, proof = proved
        check_trace_proof(step, proof)  # must not raise
        assert trace_proof_complaints(step, proof) == []


class TestTampering:
    def find_path_proof_with_occurrence(self, proof):
        for i, sp in enumerate(proof.steps):
            if isinstance(sp, PathProof) and sp.occurrence_proofs:
                return i, sp
        raise AssertionError("no occurrence-bearing path proof")

    def test_dropped_occurrence_rejected(self, proved):
        step, proof = proved
        i, path_proof = self.find_path_proof_with_occurrence(proof)
        gutted = replace(path_proof, occurrence_proofs=())
        tampered = replace(
            proof, steps=proof.steps[:i] + (gutted,) + proof.steps[i + 1:]
        )
        with pytest.raises(ProofCheckFailure, match="no justification"):
            check_trace_proof(step, tampered)

    def test_bogus_vacuous_claim_rejected(self, proved):
        step, proof = proved
        i, path_proof = self.find_path_proof_with_occurrence(proof)
        lied = replace(path_proof, occurrence_proofs=tuple(
            OccurrenceProof(op.occurrence, Vacuous("nothing to see"))
            for op in path_proof.occurrence_proofs
        ))
        tampered = replace(
            proof, steps=proof.steps[:i] + (lied,) + proof.steps[i + 1:]
        )
        with pytest.raises(ProofCheckFailure, match="vacuous"):
            check_trace_proof(step, tampered)

    def test_wrong_witness_index_rejected(self, proved):
        step, proof = proved
        i, path_proof = self.find_path_proof_with_occurrence(proof)
        lied = replace(path_proof, occurrence_proofs=tuple(
            OccurrenceProof(op.occurrence, EarlierWitness(0))
            for op in path_proof.occurrence_proofs
        ))
        tampered = replace(
            proof, steps=proof.steps[:i] + (lied,) + proof.steps[i + 1:]
        )
        with pytest.raises(ProofCheckFailure):
            check_trace_proof(step, tampered)

    def test_justification_for_absent_occurrence_rejected(self, proved):
        """A path proof may not justify an action the path does not
        have: a stale derivation whose path grew shorter must not
        revalidate (the store-order disagreement this guards against
        chained such a justification through a nested lemma)."""
        step, proof = proved
        i, path_proof = self.find_path_proof_with_occurrence(proof)
        extra = path_proof.occurrence_proofs[0]
        beyond = len(step.exchange(*path_proof.exchange_key)
                     .paths[path_proof.path_index].actions)
        padded = replace(path_proof, occurrence_proofs=(
            path_proof.occurrence_proofs
            + (replace(extra, occurrence=replace(extra.occurrence,
                                                 index=beyond)),)
        ))
        tampered = replace(
            proof, steps=proof.steps[:i] + (padded,) + proof.steps[i + 1:]
        )
        with pytest.raises(ProofCheckFailure,
                           match=f"action #{beyond}, which is not a "
                                 f"trigger occurrence"):
            check_trace_proof(step, tampered)

    def test_missing_path_case_rejected(self, proved):
        step, proof = proved
        i, _ = self.find_path_proof_with_occurrence(proof)
        tampered = replace(
            proof, steps=proof.steps[:i] + proof.steps[i + 1:]
        )
        with pytest.raises(ProofCheckFailure, match="missing case"):
            check_trace_proof(step, tampered)

    def test_illegitimate_skip_rejected(self, proved):
        step, proof = proved
        # Replace every detailed case of one exchange with a skip claim
        # for an exchange that is NOT statically silent.
        i, path_proof = self.find_path_proof_with_occurrence(proof)
        key = path_proof.exchange_key
        steps = tuple(
            s for s in proof.steps
            if not (isinstance(s, PathProof) and s.exchange_key == key)
        ) + (SkippedExchange(key, "trust me"),)
        tampered = replace(proof, steps=steps)
        with pytest.raises(ProofCheckFailure, match="skip"):
            check_trace_proof(step, tampered)

    def test_scheme_mismatch_rejected(self, proved):
        step, proof = proved
        from repro.prover.obligations import Scheme

        tampered = replace(
            proof,
            scheme=Scheme(proof.scheme.required, proof.scheme.trigger,
                          "after"),
        )
        with pytest.raises(ProofCheckFailure, match="scheme"):
            check_trace_proof(step, tampered)

    def test_invariant_instantiation_lie_rejected(self, proved):
        step, proof = proved
        i, path_proof = self.find_path_proof_with_occurrence(proof)
        new_ops = []
        lied = False
        for op in path_proof.occurrence_proofs:
            j = op.justification
            if isinstance(j, HistoryInvariant) and j.instantiation:
                from repro.symbolic.expr import sstr

                wrong = tuple(
                    (param, sstr("hijacked")) for param, _ in j.instantiation
                )
                new_ops.append(OccurrenceProof(
                    op.occurrence, replace(j, instantiation=wrong)
                ))
                lied = True
            else:
                new_ops.append(op)
        assert lied, "expected a HistoryInvariant justification to attack"
        tampered = replace(
            proof,
            steps=proof.steps[:i]
            + (replace(path_proof, occurrence_proofs=tuple(new_ops)),)
            + proof.steps[i + 1:],
        )
        with pytest.raises(ProofCheckFailure):
            check_trace_proof(step, tampered)


class TestEngineIntegration:
    def test_engine_checks_by_default(self, ssh_info):
        prop = auth_prop()
        result = Verifier(specify(ssh_info, prop)).prove_property(prop)
        assert result.checked

    def test_checking_can_be_disabled(self, ssh_info):
        from repro.prover import ProverOptions

        prop = auth_prop()
        result = Verifier(
            specify(ssh_info, prop), ProverOptions(check_proofs=False)
        ).prove_property(prop)
        assert result.proved and not result.checked


def nested_effect_step(effect, nest):
    """The symbolic step of a kernel whose one handler, ``Hub => Go``,
    has ``effect`` (a send, spawn, call, or assignments to ``flag`` and
    ``next``) nested under an ``if`` or a ``lookup`` branch, and nothing
    else."""
    cmd = {
        "send": send(name("H"), "Ping", lit("x")),
        "spawn": spawn("c", "Cell", name("next")),
        "call": call("r", "policy", name("x")),
        "assign": ast.seq(assign("flag", lit(True)),
                          assign("next", add(name("next"), lit(1)))),
    }[effect]
    pred = eq(cfg(name("k"), "key"), lit(0))
    body = {
        "if": ite(eq(name("x"), lit("a")), cmd),
        "lookup-found": lookup("k", "Cell", pred, cmd),
        "lookup-missing": lookup("k", "Cell", pred, ast.Nop(), cmd),
    }[nest]
    b = ProgramBuilder("nested")
    b.component("Hub", "hub.py")
    b.component("Cell", "cell.py", key=NUM)
    b.message("Go", STR)
    b.message("Ping", STR)
    b.init(assign("flag", lit(False)), assign("next", lit(0)),
           spawn("H", "Hub"))
    b.handler("Hub", "Go", ["x"], body)
    return generic_step(b.build_validated())


class TestForgedNestedSkips:
    """A skip is valid only if no path of the handler has the effect,
    however deep in a branch it sits: the checker rejects a forged
    trace skip (one exchange's check, and the store path's batched check
    of all of a property's skips), invariant skip and bounded skip of
    ``Hub => Go``, and accepts the same forgery for ``Cell => Go``,
    which has no handler."""

    PATTERNS = {
        "send": send_pat(comp_pat("Hub"), msg_pat("Ping", "_")),
        "spawn": SpawnPat(comp_pat("Cell", "_")),
        "call": CallPat("policy", (PWild(),)),
    }

    @pytest.mark.parametrize("nest", ["if", "lookup-found",
                                      "lookup-missing"])
    @pytest.mark.parametrize("effect", ["send", "spawn", "call", "assign"])
    def test_forged_skips_are_rejected(self, effect, nest):
        step = nested_effect_step(effect, nest)
        pre = step.pre_env_dict()
        forged = (step.exchange("Hub", "Go"), step.exchange("Cell", "Go"))
        rejected = []

        if effect in self.PATTERNS:
            pattern = self.PATTERNS[effect]
            scheme = Scheme(pattern, pattern, "before")
            for ex in forged:
                complaints = trace_exchange_complaints(
                    step, scheme, ex,
                    {(ex.key, None): SkippedExchange(ex.key, "forged")})
                if complaints:
                    rejected.append(("trace", ex.key))
            complaints = trace_skip_complaints(
                step, scheme, [ex.key for ex in forged])
            for ex in forged:
                if f"invalid syntactic skip of {ex.ctype}=>{ex.msg}" \
                        in complaints:
                    rejected.append(("batched", ex.key))
            invariant = InvariantSpec("absence", (),
                                      InstPattern(pattern, ()), ())
        else:
            invariant = InvariantSpec(
                "history", (pre["flag"],),
                InstPattern(self.PATTERNS["send"], ()), ())
        complaints = validate_invariant(step, InvariantProof(
            invariant, BaseClean(()),
            tuple((ex.key, -1, CaseSyntacticSkip()) for ex in forged)))
        for ex in forged:
            if f"invalid syntactic skip at {ex.ctype}=>{ex.msg}" \
                    in complaints:
                rejected.append(("invariant", ex.key))

        if effect in ("spawn", "assign"):
            complaints = validate_bounded(step, BoundedProof(
                BoundedSpec("Cell", 0, pre["next"]),
                tuple((ex.key, -1, "skip") for ex in forged)))
            for ex in forged:
                if f"invalid bounded skip at {ex.ctype}=>{ex.msg}" \
                        in complaints:
                    rejected.append(("bounded", ex.key))

        kinds = {"send": ["trace", "batched", "invariant"],
                 "spawn": ["trace", "batched", "invariant", "bounded"],
                 "call": ["trace", "batched", "invariant"],
                 "assign": ["invariant", "bounded"]}[effect]
        assert rejected == [(kind, ("Hub", "Go")) for kind in kinds]
