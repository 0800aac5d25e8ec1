"""``ProverOptions.deadline``: a cooperative budget checked between
obligations.

The engine checks the deadline before each property, before each NI
obligation, and — with a proof store — before the base fragment and
each exchange fragment of a trace search.  A property the deadline
catches fails with :data:`DEADLINE_MESSAGE`; everything proved before it
stays proved, and fragments searched before it stay in the store for
the next run.  The clock is moved by moving ``options.deadline`` as soon
as a chosen search call returns, never by sleeping.
"""

import time

from repro import obs
from repro.props.spec import NonInterference
from repro.prover import DEADLINE_MESSAGE, ProverOptions, Verifier, engine
from repro.prover.proofstore import ProofStore
from repro.systems import BENCHMARKS


def expire_after(monkeypatch, verifier, name, prop_name, prop_of):
    """Make the deadline pass as soon as the engine's ``name`` search
    call returns for the property ``prop_name`` (``prop_of`` picks the
    property out of the call's arguments)."""
    real = getattr(engine, name)

    def wrapper(*args):
        result = real(*args)
        if prop_of(*args).name == prop_name:
            verifier.options.deadline = time.monotonic() - 1.0
        return result

    monkeypatch.setattr(engine, name, wrapper)


def base_case_property(tc, prop, scheme):
    """The property argument of ``prove_trace_base``."""
    return prop


def signature(report):
    return [(r.property.name, r.status, r.derivation_key())
            for r in report.results]


class TestBetweenProperties:
    def test_serial_deadline_skips_remaining_properties(self):
        spec = BENCHMARKS["car"].load()
        report = Verifier(
            spec, ProverOptions(deadline=time.monotonic() - 1.0),
        ).verify_all()
        assert all(not result.proved for result in report.results)
        assert all(DEADLINE_MESSAGE in result.error
                   for result in report.results)

    def test_generous_deadline_changes_nothing(self):
        spec = BENCHMARKS["car"].load()
        report = Verifier(
            spec, ProverOptions(deadline=time.monotonic() + 600.0),
        ).verify_all()
        assert all(result.proved for result in report.results)
        assert signature(report) \
            == signature(Verifier(spec).verify_all())


class TestBetweenObligations:
    def test_deadline_after_first_ni_obligation_fails_that_property(
            self, monkeypatch):
        spec = BENCHMARKS["browser"].load()
        index = next(i for i, prop in enumerate(spec.properties)
                     if isinstance(prop, NonInterference))
        assert index > 0, "needs properties before the NI property"
        ni_name = spec.properties[index].name
        verifier = Verifier(
            spec, ProverOptions(deadline=time.monotonic() + 600.0),
        )
        # The base condition is the NI property's first obligation.
        expire_after(monkeypatch, verifier, "check_ni_base", ni_name,
                     lambda step, labeling: labeling.prop)
        report = verifier.verify_all()
        results = report.results
        assert all(result.proved for result in results[:index])
        assert not results[index].proved
        assert results[index].error == DEADLINE_MESSAGE
        assert all(result.error == DEADLINE_MESSAGE
                   for result in results[index + 1:])

    def test_deadline_after_base_fragment_keeps_searched_fragments(
            self, monkeypatch, tmp_path):
        spec = BENCHMARKS["ssh2"].load()
        _, second = spec.properties
        store = str(tmp_path / "store")
        verifier = Verifier(spec, ProverOptions(
            proof_store=store, deadline=time.monotonic() + 600.0,
        ))
        expire_after(monkeypatch, verifier, "prove_trace_base",
                     second.name, base_case_property)
        report = verifier.verify_all()
        assert report.results[0].proved
        assert not report.results[1].proved
        assert report.results[1].error == DEADLINE_MESSAGE

        # The base fragment searched before the deadline is filed; no
        # exchange fragment of that property was searched.
        entries = ProofStore(store)
        base = entries.get(verifier.keys.fragment_key(second, None))
        assert base is not None and base.kind == "trace-base"
        exchanges = [part for part in verifier.keys.slice_digests()
                     if part is not None]
        assert exchanges
        assert all(entries.get(verifier.keys.fragment_key(second, part))
                   is None for part in exchanges)

        # A run without a deadline reuses it and proves everything,
        # with the same derivations as a run without a store.
        monkeypatch.undo()
        with obs.use(obs.Telemetry()) as telemetry:
            rerun = Verifier(spec, ProverOptions(proof_store=store)) \
                .verify_all()
        assert rerun.all_proved
        assert telemetry.counters.get("trace.fragment.hit", 0) >= 1
        assert signature(rerun) == signature(Verifier(spec).verify_all())

    def test_interrupted_and_skipped_properties_are_counted_apart(
            self, monkeypatch, tmp_path):
        spec = BENCHMARKS["ssh2"].load()
        first = spec.properties[0]
        verifier = Verifier(spec, ProverOptions(
            proof_store=str(tmp_path / "store"),
            deadline=time.monotonic() + 600.0,
        ))
        expire_after(monkeypatch, verifier, "prove_trace_base",
                     first.name, base_case_property)
        with obs.use(obs.Telemetry()) as telemetry:
            report = verifier.verify_all()
        assert [result.error for result in report.results] \
            == [DEADLINE_MESSAGE, DEADLINE_MESSAGE]
        assert telemetry.counters["prover.deadline_interrupted"] == 1
        assert telemetry.counters["prover.deadline_skipped"] == 1
