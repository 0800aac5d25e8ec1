"""The per-verification key table against the reference key functions.

:class:`repro.prover.engine.KeyTable` renders each piece of a program
and each property once and builds every key from those texts.  Every
key it hands out must be byte-identical to the uncached reference
definitions in :mod:`repro.prover.proofstore`, or existing proof stores
would silently stop matching; and the per-fragment re-render it
replaced must not come back.
"""

from dataclasses import replace

import pytest

from repro.lang import ast
from repro.lang.validate import validate
from repro.lang.values import TRUE
from repro.prover import ProverOptions, Verifier, plan_property, proofstore
from repro.prover.incremental import InvalidationMap
from repro.prover.proofstore import (
    dependency_digest,
    derivation_key,
    digest,
    obligation_key,
)
from repro.props.spec import NonInterference, specify
from repro.systems import BENCHMARKS


def handler_edited(spec):
    """``spec`` with its first handler's body wrapped in ``if (true)``:
    a one-handler edit that keeps every property provable."""
    program = spec.program
    first, *rest = program.handlers
    edited = replace(first, body=ast.If(ast.Lit(TRUE), first.body))
    program = replace(program, handlers=(edited, *rest))
    return specify(validate(program), *spec.properties)


def kernels():
    for name in sorted(BENCHMARKS):
        spec = BENCHMARKS[name].load()
        yield pytest.param(spec, id=name)
        yield pytest.param(handler_edited(spec), id=f"{name}-edited")


@pytest.fixture(params=list(kernels()))
def spec(request):
    return request.param


class TestKeysMatchTheReference:
    def test_program_digest(self, spec):
        assert Verifier(spec).program_digest() == digest(spec.program)

    def test_slice_digests(self, spec):
        slices = Verifier(spec).keys.slice_digests()
        parts = [None, *spec.program.exchange_keys()]
        assert list(slices) == parts
        for part in parts:
            assert slices[part] == dependency_digest(spec.program, part)

    def test_fragment_keys(self, spec):
        options = ProverOptions()
        verifier = Verifier(spec, options)
        for prop in spec.trace_properties():
            for part in [None, *spec.program.exchange_keys()]:
                tag = ("trace-frag",) if part is None \
                    else ("trace-frag", *part)
                assert verifier.keys.fragment_key(prop, part) \
                    == obligation_key(
                        dependency_digest(spec.program, part), prop,
                        options, tag,
                    )

    def test_plan_keys(self, spec):
        """A trace obligation is keyed by the program digest; an NI
        obligation by its slice, with an ``ni`` tag.  The plan's
        fallback without the table gives the same keys."""
        options = ProverOptions(syntactic_skip=False)
        verifier = Verifier(spec, options)
        program_digest = digest(spec.program)
        for prop in spec.properties:
            planned = verifier.plan(prop)
            assert planned == plan_property(spec.program, prop, options)
            for ob in planned:
                if isinstance(prop, NonInterference):
                    tag = ("ni",) if ob.part is None \
                        else ("ni", *ob.part)
                    reference = obligation_key(
                        dependency_digest(spec.program, ob.part), prop,
                        options, tag,
                    )
                else:
                    reference = obligation_key(program_digest, prop,
                                               options, ob.part)
                assert ob.key == reference

    def test_derivation_keys(self, spec):
        for result in Verifier(spec).verify_all().results:
            assert result.proved
            assert result.derivation_key() == derivation_key(result.proof)


class TestDerivationKeyMemo:
    def test_follows_a_replaced_proof(self):
        spec = BENCHMARKS["car"].load()
        first, second = Verifier(spec).verify_all().results[1:3]
        key = first.derivation_key()
        assert first.derivation_key() is key  # rendered once
        first.proof = second.proof
        assert first.derivation_key() == second.derivation_key()
        first.proof = None
        assert first.derivation_key() is None


class TestRenderBudget:
    def test_store_backed_verification_renders_declarations_once(
            self, tmp_path, monkeypatch):
        """A store-backed ``verify_all`` plus ``record_program`` used to
        re-render car's declarations for every trace property × every
        fragment slice, twice; the key table renders them once."""
        spec = BENCHMARKS["car"].load()
        components = spec.program.components
        renders = []
        original = proofstore._render

        def counting(value, emit):
            if value is components:
                renders.append(value)
            original(value, emit)

        monkeypatch.setattr(proofstore, "_render", counting)
        verifier = Verifier(spec, ProverOptions(proof_store=str(tmp_path)))
        assert verifier.verify_all().all_proved
        InvalidationMap().record_program(verifier)
        assert len(renders) == 1
