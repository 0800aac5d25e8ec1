"""Checker tamper tests for the bridge justifications (found/missing
lookup bridges, bounded counters, sender chains)."""

from dataclasses import replace

import pytest

from repro.lang import ProofCheckFailure
from repro.prover import Verifier
from repro.prover.checker import check_trace_proof
from repro.prover.derivation import (
    BoundedBridge,
    BoundedProof,
    FoundBridge,
    MissingBridge,
    NoPriorMatch,
    OccurrenceProof,
    PathProof,
    SenderChain,
)
from repro.systems import BENCHMARKS, webserver


def proof_of(benchmark, prop_name):
    spec = BENCHMARKS[benchmark].load()
    verifier = Verifier(spec)
    result = verifier.prove_property(spec.property_named(prop_name))
    assert result.proved
    return verifier.generic_step(), result.proof


def tamper_justifications(proof, mutate):
    """Apply ``mutate`` to every occurrence justification; returns the
    tampered proof and whether anything changed."""
    changed = False
    new_steps = []
    for sp in proof.steps:
        if not isinstance(sp, PathProof):
            new_steps.append(sp)
            continue
        new_ops = []
        for op in sp.occurrence_proofs:
            mutated = mutate(op.justification)
            if mutated is not None:
                new_ops.append(OccurrenceProof(op.occurrence, mutated))
                changed = True
            else:
                new_ops.append(op)
        new_steps.append(replace(sp, occurrence_proofs=tuple(new_ops)))
    return replace(proof, steps=tuple(new_steps)), changed


class TestFoundBridgeTamper:
    def test_wrong_fact_index_rejected(self):
        step, proof = proof_of("browser", "TabsConnectedToCookieProc")

        def mutate(justification):
            if isinstance(justification, FoundBridge):
                return FoundBridge(justification.fact_index + 7)
            return None

        tampered, changed = tamper_justifications(proof, mutate)
        assert changed
        with pytest.raises(ProofCheckFailure):
            check_trace_proof(step, tampered)


class TestMissingBridgeTamper:
    def test_missing_bridge_pointed_at_found_fact_rejected(self):
        step, proof = proof_of("browser", "UniqueCookieProcs")

        def mutate(justification):
            if isinstance(justification, NoPriorMatch) and isinstance(
                    justification.history, MissingBridge):
                # point at fact 0 of some *other* index, or out of range
                return replace(justification,
                               history=MissingBridge(99))
            return None

        tampered, changed = tamper_justifications(proof, mutate)
        assert changed
        with pytest.raises(ProofCheckFailure):
            check_trace_proof(step, tampered)


class TestBoundedBridgeTamper:
    def test_forged_bounded_cases_rejected(self):
        step, proof = proof_of("browser", "UniqueTabIds")

        def mutate(justification):
            if isinstance(justification, NoPriorMatch) and isinstance(
                    justification.history, BoundedBridge):
                bridge = justification.history
                forged = BoundedProof(
                    spec=bridge.proof.spec,
                    cases=tuple(
                        (key, -1, "skip") for key, _i, _t
                        in bridge.proof.cases
                    ),
                )
                return replace(justification,
                               history=replace(bridge, proof=forged))
            return None

        tampered, changed = tamper_justifications(proof, mutate)
        assert changed
        with pytest.raises(ProofCheckFailure):
            check_trace_proof(step, tampered)

    def test_wrong_counted_field_rejected(self):
        step, proof = proof_of("browser", "UniqueTabIds")

        def mutate(justification):
            if isinstance(justification, NoPriorMatch) and isinstance(
                    justification.history, BoundedBridge):
                bridge = justification.history
                wrong_spec = replace(bridge.proof.spec, config_index=0)
                return replace(
                    justification,
                    history=replace(
                        bridge,
                        proof=replace(bridge.proof, spec=wrong_spec),
                    ),
                )
            return None

        tampered, changed = tamper_justifications(proof, mutate)
        assert changed
        with pytest.raises(ProofCheckFailure):
            check_trace_proof(step, tampered)


class TestSenderChainTamper:
    def test_gutted_lemma_rejected(self):
        spec = webserver.load()
        verifier = Verifier(spec)
        result = verifier.prove_property(
            spec.property_named("FilesOnlyAfterLogin")
        )
        step = verifier.generic_step()
        proof = result.proof

        def mutate(justification):
            if isinstance(justification, SenderChain):
                lemma = justification.lemma
                gutted = replace(lemma, steps=())
                return replace(justification, lemma=gutted)
            return None

        tampered, changed = tamper_justifications(proof, mutate)
        assert changed
        with pytest.raises(ProofCheckFailure):
            check_trace_proof(step, tampered)

    def test_swapped_field_map_rejected(self):
        spec = webserver.load()
        verifier = Verifier(spec)
        result = verifier.prove_property(
            spec.property_named("FilesOnlyAfterLogin")
        )
        step = verifier.generic_step()

        def mutate(justification):
            if isinstance(justification, SenderChain):
                wrong = tuple(
                    (var, index + 1) for var, index
                    in justification.field_map
                )
                return replace(justification, field_map=wrong)
            return None

        tampered, changed = tamper_justifications(result.proof, mutate)
        assert changed
        with pytest.raises(ProofCheckFailure):
            check_trace_proof(step, tampered)
