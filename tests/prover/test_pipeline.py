"""Tests for the staged obligation pipeline: planning shapes, proof-store
reuse, and the NI check stage not re-running the search."""

import pytest

from repro import obs
from repro.lang.errors import ProofSearchFailure
from repro.props.spec import NonInterference, TraceProperty
from repro.prover import ProverOptions, Verifier, plan_property
from repro.prover.pipeline import NI_BASE, NI_EXCHANGE, TRACE
from repro.systems import BENCHMARKS


@pytest.fixture(scope="module")
def browser_spec():
    return BENCHMARKS["browser"].load()


class TestPlanning:
    def test_trace_property_is_one_obligation(self, browser_spec):
        verifier = Verifier(browser_spec)
        prop = browser_spec.property_named("UniqueTabIds")
        plan = verifier.plan(prop)
        assert len(plan) == 1
        assert plan[0].kind == TRACE
        assert plan[0].part is None
        assert plan[0].property_name == prop.name

    def test_ni_property_fans_out_per_exchange(self, browser_spec):
        verifier = Verifier(browser_spec)
        prop = browser_spec.property_named("DomainsNoInterfere")
        assert isinstance(prop, NonInterference)
        plan = verifier.plan(prop)
        exchange_keys = list(browser_spec.program.exchange_keys())
        assert [ob.kind for ob in plan] == \
            [NI_BASE] + [NI_EXCHANGE] * len(exchange_keys)
        assert [ob.part for ob in plan] == [None] + exchange_keys

    def test_obligation_keys_distinct(self, browser_spec):
        verifier = Verifier(browser_spec)
        keys = [
            ob.key
            for prop in browser_spec.properties
            for ob in verifier.plan(prop)
        ]
        assert len(keys) == len(set(keys))

    def test_plan_is_deterministic(self, browser_spec):
        a = Verifier(browser_spec)
        b = Verifier(browser_spec)
        for prop in browser_spec.properties:
            assert a.plan(prop) == b.plan(prop)

    def test_unknown_property_form_rejected(self, browser_spec):
        class Strange:
            name = "strange"

        with pytest.raises(ProofSearchFailure):
            plan_property(browser_spec.program, Strange(), ProverOptions())

    def test_obligation_renders_its_part(self, browser_spec):
        verifier = Verifier(browser_spec)
        prop = browser_spec.property_named("DomainsNoInterfere")
        rendered = [str(ob) for ob in verifier.plan(prop)]
        assert any("=>" in line for line in rendered)
        assert all("DomainsNoInterfere" in line for line in rendered)


class TestStoreReuse:
    def test_warm_run_serves_from_store(self, browser_spec, tmp_path):
        options = ProverOptions(proof_store=str(tmp_path))
        cold = Verifier(browser_spec, options).verify_all()
        assert cold.all_proved
        assert all(r.source == "searched" for r in cold.results)

        warm = Verifier(browser_spec, options).verify_all()
        assert warm.all_proved
        assert all(r.source == "store" for r in warm.results)
        assert [r.derivation_key() for r in warm.results] == \
            [r.derivation_key() for r in cold.results]
        # store-served trace derivations are still checker-approved
        assert all(r.checked for r in warm.results)

    def test_store_survives_check_disabled(self, browser_spec, tmp_path):
        options = ProverOptions(proof_store=str(tmp_path))
        Verifier(browser_spec, options).verify_all()
        unchecked = ProverOptions(proof_store=str(tmp_path),
                                  check_proofs=False)
        warm = Verifier(browser_spec, unchecked).verify_all()
        assert warm.all_proved
        assert all(r.source == "store" for r in warm.results)

    def test_check_disabled_revalidates_only_what_it_reuses(
            self, browser_spec, tmp_path, monkeypatch):
        """With ``check_proofs=False`` a stored fragment is still
        revalidated before reuse; nothing else is checked, and no result
        claims a check."""
        from repro.prover import engine

        calls = []
        for name in ("trace_base_complaints", "trace_exchange_complaints",
                     "check_trace_proof", "check_ni_proof"):
            def counting(*args, _real=getattr(engine, name), _name=name):
                calls.append(_name)
                return _real(*args)
            monkeypatch.setattr(engine, name, counting)
        options = ProverOptions(proof_store=str(tmp_path),
                                check_proofs=False)
        cold = Verifier(browser_spec, options).verify_all()
        assert cold.all_proved and calls == []
        with obs.use(obs.Telemetry()) as telemetry:
            warm = Verifier(browser_spec, options).verify_all()
        assert warm.all_proved
        assert len(calls) == telemetry.counters["trace.fragment.hit"] > 0
        assert not any(r.checked for r in cold.results + warm.results)


class TestFragmentChecks:
    """With a store, a trace derivation is the union of its fragments,
    and each fragment is checked once: as it is read or searched."""

    def test_a_rejected_searched_fragment_fails_and_is_not_filed(
            self, tmp_path, monkeypatch):
        from repro.prover import ProofStore, engine

        real = engine.prove_trace_exchange
        tampered = []

        def tampering(tc, prop, scheme, ex):
            part = real(tc, prop, scheme, ex)
            if part and not tampered:
                tampered.append((prop, ex.key))
                return part[:-1]  # drop the last path's case
            return part

        monkeypatch.setattr(engine, "prove_trace_exchange", tampering)
        spec = BENCHMARKS["car"].load()
        verifier = Verifier(spec, ProverOptions(proof_store=str(tmp_path)))
        report = verifier.verify_all()
        ((prop, part),) = tampered
        result = report.result_named(prop.name)
        assert not result.proved
        assert result.error.startswith(
            "proof checker rejected the derivation: "
            f"derivation for {prop.name} rejected: "
        )
        assert "missing case for" in result.error
        assert all(r.proved for r in report.results if r is not result)
        key = verifier.keys.fragment_key(prop, part)
        assert ProofStore(tmp_path).get(key) is None

    def test_a_stored_fragment_with_a_foreign_step_is_researched(
            self, tmp_path):
        from repro.prover import ProofStore, StoreEntry

        spec = BENCHMARKS["car"].load()
        options = ProverOptions(proof_store=str(tmp_path))
        verifier = Verifier(spec, options)
        assert verifier.verify_all().all_proved
        store = ProofStore(tmp_path)
        for prop in spec.trace_properties():
            stored = [store.get(verifier.keys.fragment_key(prop, part))
                      for part in spec.program.exchange_keys()]
            stored = [entry for entry in stored if entry is not None]
            if len(stored) >= 2:
                break
        entry, other = stored[:2]
        store.put(StoreEntry(entry.key, entry.kind,
                             entry.payload + other.payload[:1]))
        with obs.use(obs.Telemetry()) as telemetry:
            report = Verifier(spec, options).verify_all()
        assert telemetry.counters["trace.fragment.invalid"] == 1
        assert telemetry.counters["trace.fragment.searched"] == 1
        cold = Verifier(spec).verify_all()
        assert [(r.property.name, r.status, r.derivation_key())
                for r in report.results] == \
            [(r.property.name, r.status, r.derivation_key())
             for r in cold.results]


class TestNICheckStage:
    def test_check_does_not_rerun_the_search(self, browser_spec):
        """The satellite fix: the check pass used to re-run the entire NI
        search, doubling the cost of the slowest property class.  Now it
        validates the recorded conditions, so each feasible path case is
        symbolically examined exactly once."""
        prop = browser_spec.property_named("DomainsNoInterfere")
        with obs.use(obs.Telemetry()) as telemetry:
            result = Verifier(browser_spec).prove_property(prop)
        assert result.proved and result.checked
        assert telemetry.counters["ni.path_case"] == len(
            result.proof.verdicts
        )

    def test_check_rejects_tampered_record(self, browser_spec):
        from repro.prover import ni_proof_complaints

        prop = browser_spec.property_named("DomainsNoInterfere")
        verifier = Verifier(browser_spec)
        result = verifier.prove_property(prop)
        proof = result.proof
        tampered = type(proof)(
            proof.prop, proof.base_notes, proof.verdicts[:-1]
        )
        complaints = ni_proof_complaints(verifier.generic_step(), tampered)
        assert complaints

    def test_trace_and_ni_sources_reported(self, browser_spec):
        report = Verifier(browser_spec).verify_all()
        assert report.all_proved
        for result in report.results:
            assert result.source == "searched"
            payload = result.to_dict()
            assert payload["source"] == "searched"
            assert payload["derivation_key"]

    def test_result_named_raises_with_available(self, browser_spec):
        report = Verifier(browser_spec).verify_all()
        with pytest.raises(KeyError, match="available"):
            report.result_named("NoSuchProperty")


def test_trace_properties_unaffected_by_ni_plan(browser_spec):
    """Planning an NI property must not disturb trace verification."""
    verifier = Verifier(browser_spec)
    ni = browser_spec.property_named("DomainsNoInterfere")
    verifier.plan(ni)
    trace = browser_spec.property_named("UniqueTabIds")
    assert isinstance(trace, TraceProperty)
    assert verifier.prove_property(trace).proved
