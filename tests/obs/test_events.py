"""Unit tests for the flight recorder (`repro.obs.events`)."""

import json
import os

from repro.obs.events import Event, EventLog, read_jsonl


class TestEmit:
    """Ordering, stamping, and the envelope/field contract."""

    def test_events_are_sequenced_in_emission_order(self):
        log = EventLog()
        for i in range(5):
            log.emit("tick", n=i)
        assert [event.seq for event in log.events] == list(range(5))
        assert [dict(event.fields)["n"] for event in log.events] \
            == list(range(5))

    def test_times_are_monotone_offsets(self):
        log = EventLog()
        first = log.emit("a")
        second = log.emit("b")
        assert 0.0 <= first.t <= second.t

    def test_envelope_keys_win_over_fields(self):
        """A field named like an envelope key (``kind``, ``seq``…) must
        not clobber the event's identity in the JSON form."""
        log = EventLog(worker="main")
        log.emit("obligation.start", kind="shadowed", seq=999, t=-1.0)
        record = log.events[0].to_dict()
        assert record["kind"] == "obligation.start"
        assert record["seq"] == 0
        assert record["t"] >= 0.0
        assert record["worker"] == "main"

    def test_non_json_fields_are_stringified(self):
        log = EventLog()
        log.emit("x", comp=object())
        json.dumps(log.events[0].to_dict())  # must not raise


class TestFileBacking:
    """bind/flush incremental writes and whole-log round trips."""

    def test_flush_appends_only_unwritten_events(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        log = EventLog()
        log.bind(path)
        log.emit("one")
        assert log.flush() == 1
        log.emit("two")
        log.emit("three")
        assert log.flush() == 2
        assert log.flush() == 0
        kinds = [record["kind"] for record in read_jsonl(path)]
        assert kinds == ["one", "two", "three"]

    def test_bind_truncates_a_stale_file(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('{"stale": true}\n')
        log = EventLog()
        log.bind(str(path))
        log.emit("fresh")
        log.flush()
        records = read_jsonl(str(path))
        assert len(records) == 1
        assert records[0]["kind"] == "fresh"

    def test_write_jsonl_round_trips(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        log = EventLog()
        log.emit("fault.injected", fault="crash", step=2)
        log.emit("supervisor.crash", comp="SshdSlave#3")
        log.write_jsonl(path)
        records = read_jsonl(path)
        assert [r["kind"] for r in records] \
            == ["fault.injected", "supervisor.crash"]
        assert records[0]["fault"] == "crash"
        assert records[1]["comp"] == "SshdSlave#3"

    def test_flush_without_binding_is_a_noop(self):
        log = EventLog()
        log.emit("x")
        assert log.flush() == 0


class TestRotation:
    """Size-based rotation of the bound file."""

    @staticmethod
    def flush_rounds(log, rounds, per_round=4):
        for round_no in range(rounds):
            for i in range(per_round):
                log.emit("tick", round=round_no, i=i)
            log.flush()

    def test_live_file_stays_under_the_cap(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        log = EventLog()
        log.bind(path, max_bytes=512, keep=3)
        self.flush_rounds(log, rounds=12)
        assert log.rotations > 0
        assert os.path.getsize(path) <= 512 + 400  # one flush of slack

    def test_keep_bounds_the_rotated_set(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        log = EventLog()
        log.bind(path, max_bytes=256, keep=2)
        self.flush_rounds(log, rounds=20)
        assert log.rotations > 2
        assert os.path.exists(f"{path}.1")
        assert os.path.exists(f"{path}.2")
        assert not os.path.exists(f"{path}.3")

    def test_seq_is_globally_unique_across_rotated_files(self, tmp_path):
        """Concatenating rotated files oldest-first replays the run in
        order: no sequence number repeats, none goes backwards."""
        path = str(tmp_path / "events.jsonl")
        log = EventLog()
        log.bind(path, max_bytes=256, keep=4)
        self.flush_rounds(log, rounds=10)
        assert log.rotations >= 1
        seqs = []
        for name in (f"{path}.3", f"{path}.2", f"{path}.1", path):
            if os.path.exists(name):
                seqs.extend(record["seq"] for record in read_jsonl(name))
        assert seqs == sorted(seqs)
        assert len(seqs) == len(set(seqs))

    def test_zero_max_bytes_never_rotates(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        log = EventLog()
        log.bind(path, max_bytes=0)
        self.flush_rounds(log, rounds=50)
        assert log.rotations == 0
        assert len(read_jsonl(path)) == 200

    def test_env_defaults_apply(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_EVENTS_MAX_BYTES", "256")
        monkeypatch.setenv("REPRO_EVENTS_KEEP", "1")
        path = str(tmp_path / "events.jsonl")
        log = EventLog()
        log.bind(path)
        self.flush_rounds(log, rounds=20)
        assert log.rotations > 0
        assert os.path.exists(f"{path}.1")
        assert not os.path.exists(f"{path}.2")

    def test_rotation_composes_with_compaction(self, tmp_path):
        """The soak pattern: flush + compact every episode, with the
        file rotating underneath — nothing is lost or re-issued."""
        path = str(tmp_path / "events.jsonl")
        log = EventLog()
        log.bind(path, max_bytes=300, keep=8)
        total = 0
        for round_no in range(15):
            log.emit("tick", round=round_no)
            total += 1
            log.flush()
            log.compact()
        seqs = []
        for n in range(8, 0, -1):
            name = f"{path}.{n}"
            if os.path.exists(name):
                seqs.extend(r["seq"] for r in read_jsonl(name))
        seqs.extend(r["seq"] for r in read_jsonl(path))
        assert seqs == list(range(total))


class TestCompact:
    """In-memory residency: flushed events can be dropped from memory."""

    def test_compact_drops_only_flushed_events(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        log = EventLog()
        log.bind(path)
        log.emit("one")
        log.emit("two")
        log.flush()
        log.emit("three")  # not yet flushed: must survive compaction
        assert log.compact() == 2
        assert [event.kind for event in log.events] == ["three"]
        assert log.dropped == 2
        log.flush()
        kinds = [record["kind"] for record in read_jsonl(path)]
        assert kinds == ["one", "two", "three"]

    def test_compact_without_flush_is_a_noop(self):
        log = EventLog()
        log.emit("x")
        assert log.compact() == 0
        assert len(log.events) == 1

    def test_seq_survives_compaction(self, tmp_path):
        """Sequence numbers are globally unique across compactions —
        a post-mortem can still order the on-disk log."""
        path = str(tmp_path / "events.jsonl")
        log = EventLog()
        log.bind(path)
        for round_no in range(3):
            log.emit("tick", round=round_no)
            log.flush()
            log.compact()
        log.flush()
        seqs = [record["seq"] for record in read_jsonl(path)]
        assert seqs == [0, 1, 2]


class TestEventDataclass:
    """The frozen record itself."""

    def test_fields_are_sorted_in_to_dict_input(self):
        log = EventLog()
        log.emit("x", zebra=1, alpha=2)
        assert [key for key, _ in log.events[0].fields] \
            == ["alpha", "zebra"]

    def test_event_is_immutable(self):
        event = Event(seq=0, t=0.0, kind="x", worker="main")
        try:
            event.kind = "y"  # type: ignore[misc]
        except AttributeError:
            pass
        else:  # pragma: no cover
            raise AssertionError("Event should be frozen")
