"""Tests for incremental re-verification (§6.4 future work, implemented).

Soundness requirement: reuse must never launder a stale proof — a reused
derivation has been re-validated by the trusted checker against the *new*
program's abstraction.
"""

import hashlib

from repro.frontend import parse_program
from repro.prover import ProverOptions
from repro.prover.incremental import IncrementalVerifier
from repro.systems import car, ssh2


class TestCaching:
    def test_first_round_searches_everything(self):
        iv = IncrementalVerifier()
        report = iv.verify(car.load())
        assert report.all_proved
        assert report.counts() == {"cached": 0, "revalidated": 0,
                                   "searched": 8}

    def test_identical_round_fully_cached(self):
        iv = IncrementalVerifier()
        iv.verify(car.load())
        report = iv.verify(car.load())
        assert report.all_proved
        assert report.counts()["cached"] == 8
        assert report.counts()["searched"] == 0


class TestBenignEdit:
    def edited_car(self):
        source = car.SOURCE.replace('"crank it up"', '"a bit louder"')
        assert source != car.SOURCE
        return parse_program(source)

    def test_untouched_proofs_revalidate_without_search(self):
        iv = IncrementalVerifier()
        iv.verify(car.load())
        report = iv.verify(self.edited_car())
        assert report.all_proved
        counts = report.counts()
        # The edit touches only the Engine=>Accelerating handler; most
        # derivations never looked at it.
        assert counts["revalidated"] >= 5
        assert counts["cached"] == 0
        by_name = {e.result.property.name: e.how for e in report.entries}
        assert by_name["NoLockAfterCrash"] == "revalidated"
        # NI is re-checked, never revalidated-from-cache on edits:
        assert by_name["NoInterfereEngine"] == "searched"

    def test_revalidated_results_are_checked(self):
        iv = IncrementalVerifier()
        iv.verify(car.load())
        report = iv.verify(self.edited_car())
        for entry in report.entries:
            if entry.how == "revalidated":
                assert entry.result.checked


class TestBreakingEdit:
    def test_broken_property_fails_after_edit(self):
        from repro.harness.utility import buggy_car_source

        iv = IncrementalVerifier()
        first = iv.verify(car.load())
        assert first.all_proved
        source, expected_failures = buggy_car_source()
        report = iv.verify(parse_program(source))
        assert not report.all_proved
        by_name = {e.result.property.name: e for e in report.entries}
        for name in expected_failures:
            assert not by_name[name].proved
            assert by_name[name].how == "searched"

    def test_fix_after_break_recovers(self):
        from repro.harness.utility import buggy_car_source

        iv = IncrementalVerifier()
        iv.verify(car.load())
        iv.verify(parse_program(buggy_car_source()[0]))
        report = iv.verify(car.load())  # the fix restores the original
        assert report.all_proved

    def test_property_statement_change_triggers_search(self):
        from repro.props.spec import specify

        iv = IncrementalVerifier()
        spec = car.load()
        iv.verify(spec)
        # same program, one property renamed: that one is fresh work
        renamed = [
            p if p.name != "NoLockAfterCrash" else
            type(p)(p.name, p.primitive, p.b, p.a)  # also flipped: false!
            for p in spec.properties
        ]
        report = iv.verify(specify(spec.info, *renamed))
        by_name = {e.result.property.name: e for e in report.entries}
        assert by_name["NoLockAfterCrash"].how == "searched"
        assert not by_name["NoLockAfterCrash"].proved


class TestFragmentInvalidation:
    """Dependency-tracked invalidation: editing one handler re-proves only
    the fragments whose dependency-scoped keys changed; every other
    fragment is served from the proof store (after checker revalidation).
    """

    EDIT = 'send(CT, CountReq(user, pass));'
    EDITED = 'send(CT, CountReq(user, pass ++ ""));'

    def edited_ssh2(self):
        source = ssh2.SOURCE.replace(self.EDIT, self.EDITED)
        assert source != ssh2.SOURCE
        return parse_program(source)

    def test_handler_edit_reproves_only_dependent_fragments(self, tmp_path):
        from repro import obs
        from repro.prover.engine import Verifier

        opts = ProverOptions(proof_store=str(tmp_path))
        assert Verifier(ssh2.load(), opts).verify_all().all_proved

        telemetry = obs.Telemetry()
        with obs.use(telemetry):
            report = Verifier(self.edited_ssh2(), opts).verify_all()
        assert report.all_proved
        counters = telemetry.counters
        # One fragment per property covers the edited Connection=>ReqAuth
        # handler; only those two are re-searched.  Every other fragment
        # keeps its dependency key and revalidates from the store.
        assert counters.get("trace.fragment.searched") == 2
        assert counters.get("trace.fragment.hit", 0) >= 70
        assert "trace.fragment.invalid" not in counters

    def test_unedited_program_serves_whole_proofs_from_store(self, tmp_path):
        from repro.prover.engine import Verifier

        opts = ProverOptions(proof_store=str(tmp_path))
        Verifier(ssh2.load(), opts).verify_all()
        again = Verifier(ssh2.load(), opts).verify_all()
        assert all(r.source == "store" for r in again.results)

    def test_revalidation_adopts_proofs_into_store(self, tmp_path):
        """A revalidated derivation is re-filed under the *new* program's
        keys, so a later cold run never repeats the replay."""
        from repro.prover.engine import Verifier

        opts = ProverOptions(proof_store=str(tmp_path))
        iv = IncrementalVerifier(opts)
        iv.verify(ssh2.load())
        report = iv.verify(self.edited_ssh2())
        assert report.counts()["revalidated"] == 2

        cold = Verifier(self.edited_ssh2(), opts).verify_all()
        assert all(r.source == "store" for r in cold.results)


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

    def test_discard_drops_a_superseded_digest(self):
        from repro.prover.incremental import InvalidationMap

        imap = InvalidationMap()
        imap.record("old", _key("key-a"))
        imap.record("old", _key("key-b"))
        imap.record("old", _key("key-a"))  # filed once
        assert len(imap) == 2
        assert imap.keys_for("old") == {_key("key-a"), _key("key-b")}
        imap.discard("old")
        assert imap.keys_for("old") == frozenset()
        assert len(imap) == 0


class TestRendering:
    def test_report_str(self):
        iv = IncrementalVerifier(ProverOptions())
        report = iv.verify(car.load())
        text = str(report)
        assert "searched" in text and "round 1" in text
