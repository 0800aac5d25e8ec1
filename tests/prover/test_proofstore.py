"""Tests for the persistent proof store: canonical fingerprints,
obligation-key stability (across processes and hash seeds), and
corruption tolerance."""

import os
import pickle
import subprocess
import sys

from repro.frontend import parse_program
from repro.prover import (
    ProofStore,
    ProverOptions,
    StoreEntry,
    Verifier,
    fingerprint,
    fragment_digests,
    obligation_key,
)
from repro.prover.proofstore import dependency_digest, digest
from repro.systems import BENCHMARKS


class TestFingerprint:
    def test_dict_order_insensitive(self):
        assert fingerprint({"a": 1, "b": 2}) == fingerprint({"b": 2, "a": 1})

    def test_set_order_insensitive(self):
        assert fingerprint(frozenset({"x", "y", "z"})) == \
            fingerprint(frozenset({"z", "y", "x"}))

    def test_distinguishes_values(self):
        assert fingerprint({"a": 1}) != fingerprint({"a": 2})
        assert fingerprint((1, 2)) != fingerprint([1, 2])

    def test_programs_fingerprint_distinctly(self):
        spec = BENCHMARKS["ssh"].load()
        other = BENCHMARKS["car"].load()
        assert fingerprint(spec.program) == fingerprint(spec.program)
        assert fingerprint(spec.program) != fingerprint(other.program)


#: Run in a subprocess: print every obligation key of the browser
#: benchmark (whose NI property carries frozensets — the PYTHONHASHSEED
#: hazard) in plan order.
_KEY_SCRIPT = """
from repro.prover import ProverOptions, Verifier
from repro.systems import BENCHMARKS

spec = BENCHMARKS["browser"].load()
verifier = Verifier(spec, ProverOptions())
for prop in spec.properties:
    for ob in verifier.plan(prop):
        print(ob.key)
"""


def _keys_under_seed(seed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=seed)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (env.get("PYTHONPATH"), "src") if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", _KEY_SCRIPT],
        capture_output=True, text=True, env=env, check=True,
        cwd=os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__)))),
    )
    return proc.stdout


class TestKeyStability:
    def test_keys_stable_across_hash_seeds(self):
        assert _keys_under_seed("0") == _keys_under_seed("1")

    def test_key_changes_with_program(self):
        ssh = BENCHMARKS["ssh"].load()
        car = BENCHMARKS["car"].load()
        prop = ssh.properties[0]
        options = ProverOptions()
        assert obligation_key(digest(ssh.program), prop, options) != \
            obligation_key(digest(car.program), prop, options)

    def test_key_changes_with_property(self):
        spec = BENCHMARKS["ssh"].load()
        options = ProverOptions()
        pd = digest(spec.program)
        keys = {obligation_key(pd, p, options) for p in spec.properties}
        assert len(keys) == len(spec.properties)

    def test_key_changes_with_relevant_options(self):
        spec = BENCHMARKS["ssh"].load()
        pd = digest(spec.program)
        prop = spec.properties[0]
        with_skip = obligation_key(pd, prop, ProverOptions())
        without = obligation_key(
            pd, prop, ProverOptions(syntactic_skip=False)
        )
        assert with_skip != without
        # check_proofs does not shape the derivation: same key
        assert with_skip == obligation_key(
            pd, prop, ProverOptions(check_proofs=False)
        )

    def test_derivation_key_stable_across_runs(self):
        spec = BENCHMARKS["ssh"].load()
        first = Verifier(spec).verify_all()
        second = Verifier(spec).verify_all()
        assert [r.derivation_key() for r in first.results] == \
            [r.derivation_key() for r in second.results]


#: A small kernel kept inline, so editing a builtin kernel cannot move
#: the golden keys below.
_PIN_SOURCE = """
program pins {
  components {
    Sensor "sensor.c" {}
    Alarm "alarm.c" {}
  }
  messages {
    Trip();
    Ring(string);
  }
  init {
    tripped = false;
    S <- spawn Sensor();
    A <- spawn Alarm();
  }
  handlers {
    Sensor => Trip() {
      send(A, Ring("loud"));
      tripped = true;
    }
  }
  properties {
    SensorQuiet:
      NoInterference high [Sensor()] highvars [tripped];
    RingOnTrip:
      [Recv(Sensor(), Trip())] Ensures [Send(Alarm(), Ring("loud"))];
  }
}
"""


class TestGoldenKeys:
    """Every key of the scheme, pinned as a literal.

    A store written by one version must stay readable by the next, so
    any drift in the key scheme (the renderer, the slice shapes, the
    key material) must fail here rather than silently orphan every
    existing proof store.  Changing one of these values on purpose
    means bumping ``FORMAT_VERSION``.
    """

    PROGRAM = "aaeaf3b0b9d3e718513c28509fe9a0f4f3cca56a491ceb31ccb8a9c05774ef45"
    BASE_SLICE = "b5592466f636906cc7a18e2ffa9fdd8e12c38a285071672f337920f0caaf7a92"
    TRIP_SLICE = "d362b42723f5f0cffa40a82315652f0dc60e2cdc7a8873c89ac0c1417f11f383"
    TRIP_FRAGMENT = "b6a5cca86e480f0608617fa16652718bc456c815b5e4d96d92c9316aa5bed191"
    NI_TRIP = "8fd5af894801077f8a7a8d21e738f227130b64c1fd10782e58895c253a1c3f6a"
    RING_ON_TRIP_DERIVATION = (
        "7d4790defad79faec1a5985601778d8e400e349eac68426d5cc993ba9067a7f6"
    )

    @staticmethod
    def _spec():
        return parse_program(_PIN_SOURCE)

    def test_program_digest(self):
        spec = self._spec()
        assert digest(spec.program) == self.PROGRAM
        assert Verifier(spec).program_digest() == self.PROGRAM

    def test_slice_digests(self):
        spec = self._spec()
        trip = ("Sensor", "Trip")
        assert dependency_digest(spec.program, None) == self.BASE_SLICE
        assert dependency_digest(spec.program, trip) == self.TRIP_SLICE
        digests = fragment_digests(spec.program)
        assert digests[None] == self.BASE_SLICE
        assert digests[trip] == self.TRIP_SLICE

    def test_trace_fragment_key(self):
        spec = self._spec()
        keys = Verifier(spec).keys
        assert keys.fragment_key(spec.property_named("RingOnTrip"),
                                 ("Sensor", "Trip")) == self.TRIP_FRAGMENT

    def test_ni_exchange_obligation_key(self):
        spec = self._spec()
        prop = spec.property_named("SensorQuiet")
        keys = {ob.part: ob.key for ob in Verifier(spec).plan(prop)}
        assert keys[("Sensor", "Trip")] == self.NI_TRIP
        assert obligation_key(self.TRIP_SLICE, prop, ProverOptions(),
                              ("ni", "Sensor", "Trip")) == self.NI_TRIP

    def test_derivation_key(self, tmp_path):
        spec = self._spec()
        prop = spec.property_named("RingOnTrip")
        cold = Verifier(spec).prove_property(prop)
        options = ProverOptions(proof_store=str(tmp_path))
        stored = Verifier(spec, options).prove_property(prop)
        warm = Verifier(spec, options).prove_property(prop)
        assert warm.source == "store"
        for result in (cold, stored, warm):
            assert result.derivation_key() == self.RING_ON_TRIP_DERIVATION


class TestStore:
    def test_round_trip(self, tmp_path):
        store = ProofStore(tmp_path)
        entry = StoreEntry("k1", "trace", ("payload",), True)
        store.put(entry)
        assert store.get("k1") == entry
        assert len(store) == 1
        store.clear()
        assert store.get("k1") is None
        assert len(store) == 0

    def test_miss(self, tmp_path):
        assert ProofStore(tmp_path).get("absent") is None

    def test_truncated_entry_is_a_miss(self, tmp_path):
        store = ProofStore(tmp_path)
        store.put(StoreEntry("k1", "trace", ("payload",), True))
        path = store.path_for("k1")
        path.write_bytes(path.read_bytes()[:5])
        assert store.get("k1") is None
        assert not path.exists()  # corrupt entries are unlinked

    def test_garbage_entry_is_a_miss(self, tmp_path):
        store = ProofStore(tmp_path)
        store.path_for("k1").write_bytes(b"not a pickle at all")
        assert store.get("k1") is None

    def test_key_mismatch_is_a_miss(self, tmp_path):
        store = ProofStore(tmp_path)
        wrong = StoreEntry("other-key", "trace", ("payload",), True)
        store.path_for("k1").write_bytes(pickle.dumps(wrong))
        assert store.get("k1") is None

    def test_failed_replace_is_logged_and_survived(self, tmp_path,
                                                   monkeypatch):
        """A filesystem error while publishing the entry (full disk,
        revoked permissions) is counted through ``obs`` and otherwise
        absorbed — and leaves no temp droppings behind."""
        from repro import obs
        from repro.prover import proofstore as proofstore_mod

        store = ProofStore(tmp_path)

        def failing_replace(src, dst):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(proofstore_mod.os, "replace", failing_replace)
        with obs.use(obs.Telemetry()) as telemetry:
            store.put(StoreEntry("k1", "trace", ("payload",), True))
        assert telemetry.counters.get("store.write_error") == 1
        assert telemetry.counters.get("store.put") is None
        assert store.get("k1") is None
        assert list(tmp_path.glob("*.tmp")) == []

    def test_failed_mkstemp_is_logged_and_survived(self, tmp_path,
                                                   monkeypatch):
        from repro import obs
        from repro.prover import proofstore as proofstore_mod

        store = ProofStore(tmp_path)

        def failing_mkstemp(*args, **kwargs):
            raise OSError(13, "Permission denied")

        monkeypatch.setattr(proofstore_mod.tempfile, "mkstemp",
                            failing_mkstemp)
        with obs.use(obs.Telemetry()) as telemetry:
            store.put(StoreEntry("k1", "trace", ("payload",), True))
        assert telemetry.counters.get("store.write_error") == 1
        assert store.get("k1") is None

    def test_unwritable_store_still_verifies(self, tmp_path, monkeypatch):
        """End to end: every store write failing does not fail the run."""
        from repro.prover import proofstore as proofstore_mod

        def failing_replace(src, dst):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(proofstore_mod.os, "replace", failing_replace)
        spec = BENCHMARKS["car"].load()
        options = ProverOptions(proof_store=str(tmp_path))
        report = Verifier(spec, options).verify_all()
        assert report.all_proved
        assert len(ProofStore(tmp_path)) == 0

    def test_corrupt_store_reproved_not_crashed(self, tmp_path):
        """A verifier pointed at a corrupted store re-proves and heals."""
        spec = BENCHMARKS["ssh"].load()
        options = ProverOptions(proof_store=str(tmp_path))
        baseline = Verifier(spec, options).verify_all()
        assert baseline.all_proved
        store = ProofStore(tmp_path)
        assert len(store) > 0
        for path in sorted(tmp_path.glob("*.proof")):
            path.write_bytes(b"\x80garbage")
        report = Verifier(spec, options).verify_all()
        assert report.all_proved
        assert [r.source for r in report.results] == \
            ["searched"] * len(report.results)
        assert [r.derivation_key() for r in report.results] == \
            [r.derivation_key() for r in baseline.results]


class TestStoreFaults:
    """Fault-injected writes: every failure path must reclaim the temp
    file and its descriptor, count ``store.write_error``, and return."""

    def test_unpicklable_entry_is_logged_and_survived(self, tmp_path):
        """A pickling error is not an OSError; it used to propagate out
        of ``put`` and leak the already-created temp file."""
        from repro import obs

        store = ProofStore(tmp_path)
        poisoned = StoreEntry("k1", "trace", (lambda: None,), True)
        with obs.use(obs.Telemetry()) as telemetry:
            store.put(poisoned)  # must absorb, not raise
        assert telemetry.counters.get("store.write_error") == 1
        assert telemetry.counters.get("store.put") is None
        assert store.get("k1") is None
        assert list(tmp_path.glob("*.tmp")) == []

    def test_read_only_store_dir_is_logged_and_survived(self, tmp_path):
        """With the store directory read-only, ``mkstemp`` itself fails;
        the write is counted and absorbed with nothing left behind."""
        import stat

        import pytest

        from repro import obs

        if os.geteuid() == 0:
            pytest.skip("root ignores directory write permissions")
        store = ProofStore(tmp_path)
        os.chmod(tmp_path, stat.S_IRUSR | stat.S_IXUSR)
        try:
            with obs.use(obs.Telemetry()) as telemetry:
                store.put(StoreEntry("k1", "trace", ("payload",), True))
        finally:
            os.chmod(tmp_path, stat.S_IRWXU)
        assert telemetry.counters.get("store.write_error") == 1
        assert store.get("k1") is None
        assert list(tmp_path.iterdir()) == []

    def test_fdopen_failure_closes_descriptor(self, tmp_path, monkeypatch):
        """If wrapping the raw descriptor fails, the descriptor is closed
        and the temp file removed (it used to leak both)."""
        from repro import obs
        from repro.prover import proofstore as proofstore_mod

        store = ProofStore(tmp_path)
        closed = []
        real_close = os.close

        def failing_fdopen(fd, *args, **kwargs):
            raise MemoryError("cannot allocate stream buffer")

        def spying_close(fd):
            closed.append(fd)
            real_close(fd)

        monkeypatch.setattr(proofstore_mod.os, "fdopen", failing_fdopen)
        monkeypatch.setattr(proofstore_mod.os, "close", spying_close)
        with obs.use(obs.Telemetry()) as telemetry:
            store.put(StoreEntry("k1", "trace", ("payload",), True))
        assert telemetry.counters.get("store.write_error") == 1
        assert len(closed) == 1
        assert list(tmp_path.glob("*.tmp")) == []


class TestMultiWriterSafety:
    """Concurrency fixes: inode-guarded corrupt-entry unlink, idempotent
    puts, and orphaned-temp sweeping.

    The regression the inode guard pins down: ``get()`` used to unlink a
    corrupt entry *blindly* — if a concurrent writer atomically replaced
    the file with a fresh good entry between the read and the unlink,
    the unlink destroyed that writer's work and every later reader
    re-proved an obligation the store already held.
    """

    def test_unlink_spares_a_concurrently_replaced_entry(self, tmp_path):
        store = ProofStore(tmp_path)
        path = store.path_for("k1")
        path.write_bytes(b"garbage from a dying writer")
        stale_stat = os.stat(path)
        # The race interleaving: a writer replaces the corrupt file with
        # a good entry before the reader gets to its unlink.
        good = StoreEntry("k1", "trace", ("payload",), True)
        ProofStore(tmp_path).put(good)
        ProofStore._unlink_if_same(path, stale_stat)
        assert path.exists(), "the fresh entry was destroyed"
        assert store.get("k1") == good

    def test_corrupt_entry_still_unlinked_when_unreplaced(self, tmp_path):
        store = ProofStore(tmp_path)
        path = store.path_for("k1")
        path.write_bytes(b"garbage, and nobody replaced it")
        assert store.get("k1") is None
        assert not path.exists()

    def test_repeat_checked_put_is_skipped(self, tmp_path):
        store = ProofStore(tmp_path)
        entry = StoreEntry("k1", "trace", ("payload",), True)
        from repro import obs

        with obs.use(obs.Telemetry()) as telemetry:
            store.put(entry)
            store.put(entry)
        assert telemetry.counters.get("store.put") == 1
        assert telemetry.counters.get("store.put_skipped") == 1
        assert store.get("k1") == entry

    def test_unchecked_put_never_downgrades_an_existing_entry(
            self, tmp_path):
        ProofStore(tmp_path).put(
            StoreEntry("k1", "trace", ("payload",), True)
        )
        # A different process (fresh instance, empty _seen) tries to
        # write an unchecked entry onto the same key.
        other = ProofStore(tmp_path)
        from repro import obs

        with obs.use(obs.Telemetry()) as telemetry:
            other.put(StoreEntry("k1", "trace", ("payload",), False))
        assert telemetry.counters.get("store.put_skipped") == 1
        assert ProofStore(tmp_path).get("k1").checked is True

    def test_sweep_temps_reclaims_orphans(self, tmp_path):
        store = ProofStore(tmp_path)
        (tmp_path / "dead-writer-1.tmp").write_bytes(b"partial")
        (tmp_path / "dead-writer-2.tmp").write_bytes(b"partial")
        store.put(StoreEntry("k1", "trace", ("payload",), True))
        assert store.sweep_temps() == 2
        assert list(tmp_path.glob("*.tmp")) == []
        assert store.get("k1") is not None

    def test_clear_removes_temps_too(self, tmp_path):
        store = ProofStore(tmp_path)
        (tmp_path / "orphan.tmp").write_bytes(b"partial")
        store.put(StoreEntry("k1", "trace", ("payload",), True))
        store.clear()
        assert list(tmp_path.glob("*")) == []

    def test_concurrent_writers_and_readers_stress(self, tmp_path):
        """Many threads hammering overlapping keys: every read must
        yield either a miss or a *valid* entry for the requested key —
        never an exception, never a foreign payload."""
        import threading

        keys = [f"key{i}" for i in range(8)]
        errors = []

        def writer(worker: int) -> None:
            store = ProofStore(tmp_path)  # own instance, like a process
            try:
                for round_ in range(25):
                    for key in keys:
                        store.put(StoreEntry(
                            key, "trace", (key, worker, round_), True
                        ))
            except Exception as error:  # noqa: BLE001
                errors.append(error)

        def reader() -> None:
            store = ProofStore(tmp_path)
            try:
                for _ in range(100):
                    for key in keys:
                        entry = store.get(key)
                        if entry is not None:
                            assert entry.key == key
                            assert entry.payload[0] == key
            except Exception as error:  # noqa: BLE001
                errors.append(error)

        threads = [threading.Thread(target=writer, args=(w,))
                   for w in range(4)]
        threads += [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert errors == []
        for key in keys:
            final = ProofStore(tmp_path).get(key)
            assert final is not None and final.key == key
