"""Tests for incremental re-verification (§6.4 future work, implemented
through the proof store).

Re-verifying an edited kernel runs through a proof store that holds the
previous version's entries, as ``repro verify --store`` and
``repro serve --store`` do.  Soundness requirement: reuse must never
launder a stale proof — a reused fragment has been re-validated by the
trusted checker against the *new* program's abstraction.
"""

import hashlib

from repro import obs
from repro.frontend import parse_program
from repro.harness.utility import buggy_car_source
from repro.prover import ProverOptions, Verifier
from repro.systems import car, ssh2


def edited_car():
    """The car kernel with the ``Engine => Accelerating`` handler's
    volume string changed: a benign one-handler edit."""
    source = car.SOURCE.replace('"crank it up"', '"a bit louder"')
    assert source != car.SOURCE
    return parse_program(source)


def keys_of(report):
    return {r.property.name: r.derivation_key() for r in report.results}


class TestCaching:
    def test_first_round_searches_everything(self, tmp_path):
        opts = ProverOptions(proof_store=str(tmp_path))
        report = Verifier(car.load(), opts).verify_all()
        assert report.all_proved
        assert [r.source for r in report.results] == ["searched"] * 8

    def test_identical_round_fully_cached(self, tmp_path):
        opts = ProverOptions(proof_store=str(tmp_path))
        first = Verifier(car.load(), opts).verify_all()
        with obs.use(obs.Telemetry()) as telemetry:
            report = Verifier(car.load(), opts).verify_all()
        assert report.all_proved
        assert [r.source for r in report.results] == ["store"] * 8
        assert keys_of(report) == keys_of(first)
        # Every fragment syntax does not settle is a revalidated hit;
        # nothing is searched, rejected or written.
        spec = car.load()
        fragments = (1 + len(list(spec.program.exchange_keys()))) \
            * len(spec.trace_properties())
        counters = telemetry.counters
        assert counters["trace.fragment.hit"] \
            + counters["tactic.exchange.skipped"] == fragments
        for name in ("trace.fragment.searched", "trace.fragment.invalid",
                     "store.put"):
            assert name not in counters


class TestBenignEdit:
    def verify_edit(self, tmp_path):
        opts = ProverOptions(proof_store=str(tmp_path))
        assert Verifier(car.load(), opts).verify_all().all_proved
        return Verifier(edited_car(), opts).verify_all()

    def test_untouched_proofs_revalidate_without_search(self, tmp_path):
        report = self.verify_edit(tmp_path)
        assert report.all_proved
        cold = Verifier(edited_car()).verify_all()
        assert keys_of(report) == keys_of(cold)
        by_name = {r.property.name: r.source for r in report.results}
        # The edit touches only the Engine=>Accelerating handler, where
        # syntax settles every trace property's fragment: each trace
        # derivation is assembled from stored fragments and skips.
        assert by_name.pop("NoInterfereEngine") == "searched"
        assert set(by_name.values()) == {"store"}

    def test_revalidated_results_are_checked(self, tmp_path):
        report = self.verify_edit(tmp_path)
        assert all(r.checked for r in report.results)


class TestBreakingEdit:
    def test_broken_property_fails_after_edit(self, tmp_path):
        opts = ProverOptions(proof_store=str(tmp_path))
        assert Verifier(car.load(), opts).verify_all().all_proved
        source, expected_failures = buggy_car_source()
        report = Verifier(parse_program(source), opts).verify_all()
        assert not report.all_proved
        failed = {r.property.name for r in report.results if not r.proved}
        assert failed == set(expected_failures)

    def test_fix_after_break_recovers(self, tmp_path):
        opts = ProverOptions(proof_store=str(tmp_path))
        first = Verifier(car.load(), opts).verify_all()
        Verifier(parse_program(buggy_car_source()[0]), opts).verify_all()
        report = Verifier(car.load(), opts).verify_all()  # the fix
        assert report.all_proved
        assert keys_of(report) == keys_of(first)

    def test_property_statement_change_triggers_search(self, tmp_path):
        """A changed property statement under an unchanged program is
        searched (and here fails), never answered from the fragments the
        store holds for the old statement."""
        from repro.props.spec import specify

        opts = ProverOptions(proof_store=str(tmp_path))
        spec = car.load()
        assert Verifier(spec, opts).verify_all().all_proved
        flipped = [
            p if p.name != "NoLockAfterCrash" else
            type(p)(p.name, p.primitive, p.b, p.a)  # flipped: false!
            for p in spec.properties
        ]
        with obs.use(obs.Telemetry()) as telemetry:
            report = Verifier(specify(spec.info, *flipped),
                              opts).verify_all()
        by_name = {r.property.name: r for r in report.results}
        assert not by_name["NoLockAfterCrash"].proved
        assert telemetry.counters["trace.fragment.searched"] >= 1
        assert all(r.proved and r.source == "store"
                   for name, r in by_name.items()
                   if name != "NoLockAfterCrash")


class TestFragmentInvalidation:
    """Dependency-tracked invalidation: editing one handler re-proves only
    the fragments whose dependency-scoped keys changed; every other
    fragment is served from the proof store (after checker revalidation)
    or settled by the syntactic skip before the store is consulted.
    """

    EDIT = 'send(CT, CountReq(user, pass));'
    EDITED = 'send(CT, CountReq(user, pass ++ ""));'
    #: The Counter=>CountOk handler emits the trigger of
    #: AttemptsApprovedByCounter (and nothing AuthBeforeTerm's can match).
    TRIGGER_EDIT = 'send(P, CheckAuth(user, pass));'
    TRIGGER_EDITED = 'send(P, CheckAuth(user, pass ++ ""));'

    def edited_ssh2(self, old=EDIT, new=EDITED):
        source = ssh2.SOURCE.replace(old, new)
        assert source != ssh2.SOURCE
        return parse_program(source)

    def verify_edit(self, tmp_path, edited):
        """Fill a store with ssh2, verify ``edited`` through it, and
        return the second run's report, its telemetry and its fragment
        count."""
        opts = ProverOptions(proof_store=str(tmp_path))
        assert Verifier(ssh2.load(), opts).verify_all().all_proved

        with obs.use(obs.Telemetry(events=True)) as telemetry:
            report = Verifier(edited, opts).verify_all()
        assert report.all_proved
        fragments = (1 + len(list(edited.program.exchange_keys()))) \
            * len(edited.trace_properties())
        return report, telemetry, fragments

    def test_handler_edit_reproves_only_dependent_fragments(self, tmp_path):
        _, telemetry, fragments = self.verify_edit(
            tmp_path, self.edited_ssh2())
        counters = telemetry.counters
        # The edited Connection=>ReqAuth handler emits nothing either
        # property's trigger can match, so syntax settles both of its
        # fragments; every other fragment keeps its dependency key and is
        # answered by the store or by syntax.  Nothing is searched.
        assert "trace.fragment.searched" not in counters
        assert "trace.fragment.invalid" not in counters
        assert counters["trace.fragment.hit"] \
            + counters["tactic.exchange.skipped"] == fragments

    def test_trigger_matching_edit_researches_exactly_its_fragments(
            self, tmp_path):
        _, telemetry, fragments = self.verify_edit(
            tmp_path,
            self.edited_ssh2(self.TRIGGER_EDIT, self.TRIGGER_EDITED))
        counters = telemetry.counters
        # One fragment covers the edited handler and is not a syntactic
        # skip: AttemptsApprovedByCounter's Counter=>CountOk case.
        assert counters.get("trace.fragment.searched") == 1
        assert "trace.fragment.invalid" not in counters
        assert counters["trace.fragment.hit"] \
            + counters["tactic.exchange.skipped"] == fragments - 1

    def test_assembled_results_say_where_they_came_from(self, tmp_path):
        """A derivation assembled from stored fragments and syntactic
        skips reports ``store`` — in its result and in its
        ``obligation.finish`` event — and one with a searched fragment
        reports ``searched``."""
        cases = (
            (self.edited_ssh2(),
             {"AuthBeforeTerm": "store",
              "AttemptsApprovedByCounter": "store"}),
            (self.edited_ssh2(self.TRIGGER_EDIT, self.TRIGGER_EDITED),
             {"AuthBeforeTerm": "store",
              "AttemptsApprovedByCounter": "searched"}),
        )
        for n, (edited, expected) in enumerate(cases):
            report, telemetry, _ = self.verify_edit(tmp_path / str(n),
                                                    edited)
            assert {r.property.name: r.source
                    for r in report.results} == expected
            finishes = [e.to_dict() for e in telemetry.events.events
                        if e.kind == "obligation.finish"]
            assert {f["property"]: f["store_hit"] for f in finishes} == {
                name: source == "store" for name, source in expected.items()
            }

    def test_unedited_program_serves_whole_proofs_from_store(self, tmp_path):
        opts = ProverOptions(proof_store=str(tmp_path))
        Verifier(ssh2.load(), opts).verify_all()
        again = Verifier(ssh2.load(), opts).verify_all()
        assert all(r.source == "store" for r in again.results)


class TestNIObligationInvalidation:
    """NI obligations are keyed by their slice: a handler edit re-searches
    that handler's NI exchange obligation only, and an Init edit — part
    of every slice — re-searches all of them."""

    def searched_ni_parts(self, monkeypatch, spec, opts):
        """The NI obligations a store-backed verify of ``spec`` searched:
        ``None`` for the base condition, else the exchange key."""
        from repro.prover import engine

        searched = []
        base, exchange = engine.check_ni_base, engine.check_ni_exchange

        def counting_base(step, labeling):
            searched.append(None)
            return base(step, labeling)

        def counting_exchange(step, labeling, ex):
            searched.append(ex.key)
            return exchange(step, labeling, ex)

        with monkeypatch.context() as patched:
            patched.setattr(engine, "check_ni_base", counting_base)
            patched.setattr(engine, "check_ni_exchange", counting_exchange)
            assert engine.Verifier(spec, opts).verify_all().all_proved
        return searched

    def test_handler_edit_researches_one_ni_exchange(self, tmp_path,
                                                     monkeypatch):
        opts = ProverOptions(proof_store=str(tmp_path))
        exchanges = list(car.load().program.exchange_keys())
        assert self.searched_ni_parts(monkeypatch, car.load(), opts) \
            == [None] + exchanges
        assert self.searched_ni_parts(monkeypatch, edited_car(), opts) \
            == [("Engine", "Accelerating")]

    def test_init_edit_researches_every_ni_obligation(self, tmp_path,
                                                      monkeypatch):
        opts = ProverOptions(proof_store=str(tmp_path))
        self.searched_ni_parts(monkeypatch, car.load(), opts)
        source = car.SOURCE.replace("crashed = false;",
                                    "crashed = false;\n    spare = 0;")
        assert source != car.SOURCE
        edited = parse_program(source)
        assert self.searched_ni_parts(monkeypatch, edited, opts) \
            == [None] + list(edited.program.exchange_keys())


def _key(name):
    """A stand-in obligation key: SHA-256 hex, like every real one."""
    return hashlib.sha256(name.encode()).hexdigest()


class TestInvalidationMapBound:
    """The shared invalidation index must not grow without bound in a
    long-lived daemon: least-recently-recorded digests evict past the
    cap, and a re-recorded (live) digest survives churn."""

    def test_lru_eviction_caps_the_index(self):
        from repro.prover.incremental import InvalidationMap

        imap = InvalidationMap(max_digests=8)
        for n in range(100):
            imap.record(f"digest-{n}", _key(f"key-{n}"))
        stats = imap.stats()
        assert stats["digests"] == 8
        assert stats["keys"] == 8
        assert stats["evicted"] == 92
        # The survivors are the youngest; evicted digests answer empty.
        assert imap.keys_for("digest-99") == {_key("key-99")}
        assert imap.keys_for("digest-0") == frozenset()

    def test_rerecording_refreshes_eviction_age(self):
        from repro.prover.incremental import InvalidationMap

        imap = InvalidationMap(max_digests=4)
        imap.record("live", _key("key-live"))
        for n in range(10):
            imap.record(f"churn-{n}", _key(f"key-{n}"))
            imap.record("live", _key("key-live"))  # a kernel still in use
        assert imap.keys_for("live") == {_key("key-live")}

    def test_a_key_filed_twice_is_kept_once(self):
        from repro.prover.incremental import InvalidationMap

        imap = InvalidationMap()
        imap.record("old", _key("key-a"))
        imap.record("old", _key("key-b"))
        imap.record("old", _key("key-a"))  # filed once
        assert len(imap) == 2
        assert imap.keys_for("old") == {_key("key-a"), _key("key-b")}
