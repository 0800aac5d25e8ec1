"""Daemon unit tests: batching, coalescing, residue, sessions, errors.

These drive :meth:`VerificationServer._process_batch` directly (no
sockets) so the prover-thread semantics — group-by-source coalescing,
per-session verdicts, parse-error fan-out, shutdown draining — are
testable without any socket nondeterminism.  End-to-end socket coverage
lives in ``tests/integration/test_serve.py``.
"""

import itertools
import json
import os
import queue
import socket
import struct
import sys
import threading
import time
from collections import Counter
from dataclasses import replace

import pytest

from repro import obs
from repro.frontend import parse_program
from repro.prover import Verifier
from repro.prover.proofstore import ProofStore
from repro.props.spec import NonInterference
from repro.serve.breaker import CircuitBreaker
from repro.serve.protocol import recv_message, send_message
from repro.serve.residue import residue_for
from repro.serve.server import (
    ServeOptions,
    VerificationServer,
    _ClientGone,
    _Submission,
)
from repro.serve.session import SessionRegistry
from repro.symbolic.expr import reset_interning
from repro.systems import BENCHMARKS, car


def submission(server, source, stream=False):
    """A queued submission with a fresh session, ready for the batch."""
    return _Submission(
        session=server.sessions.create(),
        source=source,
        replies=queue.Queue(),
        stream=stream,
    )


def drain(replies):
    """Every frame currently queued for one submission."""
    frames = []
    while True:
        try:
            frames.append(replies.get_nowait())
        except queue.Empty:
            return frames


@pytest.fixture
def server(tmp_path):
    return VerificationServer(ServeOptions(store=str(tmp_path / "ps")))


class TestBatching:
    def test_identical_sources_coalesce_into_one_verdict(self, server):
        subs = [submission(server, car.SOURCE) for _ in range(3)]
        server._process_batch(subs)
        verdicts = [drain(s.replies) for s in subs]
        for frames in verdicts:
            assert len(frames) == 1
            assert frames[0]["type"] == "verdict"
            assert frames[0]["all_proved"]
            assert frames[0]["coalesced"] == 3
        # One verification, three waiters: all share the batch stamp...
        assert len({f[0]["batch"] for f in verdicts}) == 1
        # ...but each verdict names its own session.
        assert len({f[0]["session"] for f in verdicts}) == 3
        assert server.telemetry.counters["serve.batch.coalesced"] == 2

    def test_a_group_serializes_its_report_once(self, server, monkeypatch):
        from repro.prover.engine import VerificationReport

        calls = []
        real = VerificationReport.to_dict

        def counting(report):
            calls.append(report)
            return real(report)

        monkeypatch.setattr(VerificationReport, "to_dict", counting)
        subs = [submission(server, car.SOURCE) for _ in range(2)]
        server._process_batch(subs)
        frames = [drain(s.replies)[0] for s in subs]
        assert [frame["coalesced"] for frame in frames] == [2, 2]
        assert len(calls) == 1
        cached = server._verdict_cache[car.SOURCE]["report"]
        assert frames[0]["report"] == frames[1]["report"] == cached

    def test_distinct_sources_verify_separately(self, server):
        edited = car.SOURCE.replace('"crank it up"', '"a bit louder"')
        a = submission(server, car.SOURCE)
        b = submission(server, edited)
        server._process_batch([a, b])
        va = drain(a.replies)[0]
        vb = drain(b.replies)[0]
        assert va["coalesced"] == 1 and vb["coalesced"] == 1
        assert va["program_digest"] != vb["program_digest"]
        assert "serve.batch.coalesced" not in server.telemetry.counters

    def test_parse_error_fans_out_to_every_waiter(self, server):
        subs = [submission(server, "kernel { nonsense")
                for _ in range(2)]
        server._process_batch(subs)
        for sub in subs:
            frames = drain(sub.replies)
            assert len(frames) == 1
            assert frames[0]["type"] == "error"
            assert frames[0]["code"] == "parse-error"
        assert server.telemetry.counters["serve.parse_error"] == 1

    def test_non_decimal_digits_are_parse_errors_not_failures(self,
                                                              server):
        """``'²'.isdigit()`` is true but ``int('²')`` fails; such a
        submit is a parse error and never trips the breaker."""
        source = ('program p { components { A "a" {} } messages { M(num); }'
                  ' init { x = ²; } }')
        for _ in range(3):
            sub = submission(server, source)
            server._process_batch([sub])
            (frame,) = drain(sub.replies)
            assert frame["type"] == "error"
            assert frame["code"] == "parse-error"
        assert server.breaker.state == "closed"
        assert "serve.breaker.failure" not in server.telemetry.counters
        assert server.telemetry.counters["serve.parse_error"] == 3

    def test_streaming_waiter_gets_events_then_verdict(self, server):
        sub = submission(server, car.SOURCE, stream=True)
        server._process_batch([sub])
        frames = drain(sub.replies)
        kinds = [frame["type"] for frame in frames]
        assert kinds[-1] == "verdict"
        events = [f["event"] for f in frames if f["type"] == "event"]
        assert events, "streaming submission saw no progress events"
        # Flight-recorder envelope (PR 4 format): seq/t/kind/worker.
        for envelope in events:
            assert {"seq", "t", "kind", "worker"} <= set(envelope)

    def test_non_streaming_waiter_gets_only_the_verdict(self, server):
        sub = submission(server, car.SOURCE, stream=False)
        server._process_batch([sub])
        assert [f["type"] for f in drain(sub.replies)] == ["verdict"]


class TestSessionDiffs:
    def test_second_round_reports_changed_slices(self, server):
        sub = submission(server, car.SOURCE)
        server._process_batch([sub])
        first = drain(sub.replies)[0]
        assert first["round"] == 1
        assert first["changed_parts"] is None

        edited = car.SOURCE.replace('"crank it up"', '"a bit louder"')
        again = _Submission(session=sub.session, source=edited,
                            replies=queue.Queue(), stream=False)
        server._process_batch([again])
        second = drain(again.replies)[0]
        assert second["round"] == 2
        assert second["changed_parts"] == [["Engine", "Accelerating"]]
        assert second["fragments"]["changed"] == 1
        assert second["invalidated_keys"] > 0

    def test_invalidated_keys_are_the_stored_keys_of_the_old_slice(
            self, server):
        """The index holds, under a slice digest, the keys the store was
        asked for: the edited exchange's NI obligation, but not the
        fragment of a trace property that syntax settles there."""
        part = ("Engine", "Accelerating")
        sub = submission(server, car.SOURCE)
        server._process_batch([sub])
        drain(sub.replies)
        old_digests = dict(sub.session.digests)
        filed = server.invalidation.keys_for(old_digests[part])

        spec = car.load()
        keys = Verifier(spec, server.prover_options).keys
        ni_keys = {keys.obligation_key(prop, part)
                   for prop in spec.properties
                   if isinstance(prop, NonInterference)}
        store = ProofStore(server.options.store)
        fragments = {keys.fragment_key(prop, part)
                     for prop in spec.trace_properties()}
        skip_only = {key for key in fragments if store.get(key) is None}
        assert ni_keys and ni_keys <= filed
        assert skip_only and not skip_only & filed
        assert all(store.get(key) is not None for key in filed)

        edited = car.SOURCE.replace('"crank it up"', '"a bit louder"')
        again = _Submission(session=sub.session, source=edited,
                            replies=queue.Queue(), stream=False)
        server._process_batch([again])
        verdict = drain(again.replies)[0]
        assert server.invalidation.invalidated_keys(
            old_digests, sub.session.digests) == filed
        assert verdict["invalidated_keys"] == len(filed)

    def test_identical_resubmission_changes_nothing(self, server):
        sub = submission(server, car.SOURCE)
        server._process_batch([sub])
        drain(sub.replies)
        again = _Submission(session=sub.session, source=car.SOURCE,
                            replies=queue.Queue(), stream=False)
        server._process_batch([again])
        verdict = drain(again.replies)[0]
        assert verdict["changed_parts"] == []
        assert verdict["invalidated_keys"] == 0


class TestShutdownDrain:
    def test_queued_submissions_are_refused_not_stranded(self, server):
        sub = submission(server, car.SOURCE)
        server._submissions.put(None)  # shutdown sentinel first
        server._submissions.put(sub)
        server._prover_loop()
        frames = drain(sub.replies)
        assert len(frames) == 1
        assert frames[0]["type"] == "error"
        assert frames[0]["code"] == "shutting-down"


class TestResidue:
    def test_unproved_submission_carries_structured_residue(self, server):
        from repro.harness.utility import buggy_car_source

        source, expected_failures = buggy_car_source()
        sub = submission(server, source)
        server._process_batch([sub])
        verdict = drain(sub.replies)[0]
        assert verdict["type"] == "verdict"
        assert not verdict["all_proved"]
        names = {entry["property"] for entry in verdict["residue"]}
        assert set(expected_failures) <= names
        for entry in verdict["residue"]:
            assert entry["status"] == "unproved"
            assert entry["goal"]
            assert entry["explanation"]
            assert entry["seconds"] >= 0

    def test_residue_for_is_empty_on_success(self):
        from repro.prover import Verifier

        report = Verifier(car.load()).verify_all()
        assert residue_for(report) == []


class TestStats:
    def test_stats_frame_shape(self, server):
        sub = submission(server, car.SOURCE)
        server._process_batch([sub])
        frame = server._stats_frame()
        assert frame["type"] == "stats"
        assert frame["batches"] == 1
        assert frame["submissions"] == 1
        assert frame["sessions"]["sessions_opened"] == 1
        assert frame["governor"]["generation"] == 0
        assert frame["counters"]["serve.batch"] == 1

    def test_stats_out_is_reportable(self, tmp_path):
        import json

        stats_path = tmp_path / "stats.json"
        server = VerificationServer(ServeOptions(
            store=str(tmp_path / "ps"), stats_out=str(stats_path),
        ))
        sub = submission(server, car.SOURCE)
        server._process_batch([sub])
        payload = json.loads(stats_path.read_text())
        assert payload["serve"]["submissions"] == 1
        telemetry = payload["telemetry"]
        assert telemetry["counters"]["serve.batch"] == 1
        # The submission sink's prover counters merged into the server's.
        assert any(key.startswith("trace.") or key.startswith("plan.")
                   for key in telemetry["counters"])


class TestProverRobustness:
    """A single bad request must never wedge the daemon: every waiter
    gets a terminal frame and the prover thread survives."""

    def test_unexpected_exception_fans_error_frames(self, server,
                                                    monkeypatch):
        import repro.serve.server as server_mod

        def blow_up(source):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(server_mod, "parse_program", blow_up)
        subs = [submission(server, car.SOURCE) for _ in range(2)]
        server._process_batch(subs)  # must not raise
        for sub in subs:
            frames = drain(sub.replies)
            assert len(frames) == 1
            assert frames[0]["type"] == "error"
            assert frames[0]["code"] == "internal-error"
            assert "RecursionError" in frames[0]["error"]
        assert server.telemetry.counters["serve.internal_error"] == 1

        # The prover state is intact: the next batch verifies normally.
        monkeypatch.undo()
        good = submission(server, car.SOURCE)
        server._process_batch([good])
        assert drain(good.replies)[-1]["type"] == "verdict"

    def test_prover_loop_survives_a_batch_crash(self, server,
                                                monkeypatch):
        real = server._process_batch
        crashed = []

        def flaky(batch):
            if not crashed:
                crashed.append(True)
                raise OSError("no space left on device")
            real(batch)

        monkeypatch.setattr(server, "_process_batch", flaky)
        thread = threading.Thread(target=server._prover_loop,
                                  daemon=True)
        thread.start()
        try:
            bad = submission(server, car.SOURCE)
            server._submissions.put(bad)
            frame = bad.replies.get(timeout=30)
            assert frame["type"] == "error"
            assert frame["code"] == "internal-error"
            assert "OSError" in frame["error"]

            good = submission(server, car.SOURCE)
            server._submissions.put(good)
            assert good.replies.get(timeout=120)["type"] == "verdict"
        finally:
            server._submissions.put(None)
            thread.join(timeout=10)
        assert server._stopped.is_set()

    def test_stats_write_failure_is_counted_not_fatal(self, tmp_path):
        server = VerificationServer(ServeOptions(
            store=str(tmp_path / "ps"),
            stats_out=str(tmp_path / "no-such-dir" / "stats.json"),
        ))
        sub = submission(server, car.SOURCE)
        server._process_batch([sub])  # must not raise
        assert drain(sub.replies)[-1]["type"] == "verdict"
        assert server.telemetry.counters["serve.flush_error"] >= 1
        assert server._stats_frame()["flush_errors"] >= 1


class TestConnectionLifecycle:
    def test_bye_drops_the_session(self, server):
        ours, theirs = socket.socketpair()
        thread = threading.Thread(target=server._handle_conn,
                                  args=(theirs,), daemon=True)
        thread.start()
        try:
            send_message(ours, {"op": "hello"})
            assert recv_message(ours)["type"] == "hello"
            assert len(server.sessions) == 1
            send_message(ours, {"op": "bye"})
            assert recv_message(ours) == {"type": "ok", "op": "bye"}
            thread.join(timeout=10)
            assert not thread.is_alive()
            # A polite disconnect must not leak its registry entry.
            assert len(server.sessions) == 0
            assert server.sessions.stats()["live_sessions"] == 0
        finally:
            ours.close()


class TestClose:
    """``close()`` must not wait out the accept thread: closing a
    listening socket does not wake a thread blocked in ``accept()`` on
    Linux, so without an explicit wake-up every close took the full
    10 s join timeout."""

    @staticmethod
    def _visit_then_close(server, connect):
        server.start()
        with connect() as client:
            send_message(client, {"op": "ping"})
            assert recv_message(client) == {"type": "ok", "op": "ping"}
        started = time.monotonic()
        server.close()
        elapsed = time.monotonic() - started
        assert not any(thread.is_alive() for thread in server._threads)
        return elapsed

    def test_start_lowers_the_switch_interval(self, tmp_path):
        """A verdict the prover thread queued must not wait out the
        default 5 ms switch interval before its connection thread runs."""
        previous = sys.getswitchinterval()
        sys.setswitchinterval(0.005)
        server = VerificationServer(ServeOptions(store=str(tmp_path / "ps")))
        try:
            server.start()
            assert sys.getswitchinterval() <= 0.001
        finally:
            server.close()
            sys.setswitchinterval(previous)

    def test_tcp_close_is_prompt_after_a_client_left(self, tmp_path):
        server = VerificationServer(ServeOptions(store=str(tmp_path / "ps")))
        elapsed = self._visit_then_close(
            server, lambda: socket.create_connection(server.address),
        )
        assert elapsed < 2.0

    def test_unix_close_is_prompt_after_a_client_left(self, tmp_path):
        path = str(tmp_path / "serve.sock")
        server = VerificationServer(ServeOptions(socket_path=path))

        def connect():
            client = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            client.connect(path)
            return client

        assert self._visit_then_close(server, connect) < 2.0


class TestSessionRegistry:
    def test_ids_are_unique_and_dropped_sessions_vanish(self):
        registry = SessionRegistry()
        a, b = registry.create(), registry.create()
        assert a.sid != b.sid
        assert len(registry) == 2
        registry.drop(a.sid)
        assert registry.get(a.sid) is None
        assert registry.get(b.sid) is b
        assert registry.stats() == {"live_sessions": 1,
                                    "sessions_opened": 2}


class TestAdmissionShedding:
    def test_over_capacity_submit_is_shed_immediately(self, tmp_path):
        server = VerificationServer(ServeOptions(
            store=str(tmp_path / "ps"), max_queued=1,
        ))
        # Fill the only slot out-of-band; the wire submit must be shed
        # without ever reaching the (never-started) prover thread.
        held, _ = server.admission.try_admit("occupant")
        assert held is not None
        ours, theirs = socket.socketpair()
        thread = threading.Thread(target=server._handle_conn,
                                  args=(theirs,), daemon=True)
        thread.start()
        try:
            send_message(ours, {"op": "submit", "source": car.SOURCE,
                                "stream": False})
            frame = recv_message(ours)
            assert frame["type"] == "error"
            assert frame["code"] == "overloaded"
            assert frame["reason"] == "capacity"
            assert isinstance(frame["retry_after_ms"], int)
            assert frame["retry_after_ms"] > 0
            assert server.telemetry.counters["serve.shed"] == 1
            assert server._submissions.qsize() == 0
        finally:
            ours.close()
            thread.join(timeout=10)

    def test_terminal_frame_releases_the_ticket(self, server):
        sub = submission(server, car.SOURCE)
        sub.ticket, _ = server.admission.try_admit(sub.session.sid)
        assert server.admission.inflight == 1
        server._process_batch([sub])
        assert drain(sub.replies)[0]["type"] == "verdict"
        assert server.admission.inflight == 0

    def test_bad_deadline_ms_is_rejected_before_admission(self, server):
        ours, theirs = socket.socketpair()
        thread = threading.Thread(target=server._handle_conn,
                                  args=(theirs,), daemon=True)
        thread.start()
        try:
            for bad in (0, -5, "soon", True, 1.5):
                send_message(ours, {"op": "submit", "source": car.SOURCE,
                                    "deadline_ms": bad})
                frame = recv_message(ours)
                assert frame["code"] == "bad-request", bad
            assert server.admission.inflight == 0
        finally:
            ours.close()
            thread.join(timeout=10)


class TestDeadlines:
    def expired(self, server, source, deadline_ms=1):
        sub = submission(server, source)
        sub.deadline_ms = deadline_ms
        sub.deadline = time.monotonic() - 0.001
        return sub

    def test_expired_deadline_yields_partial_verdict(self, server):
        sub = self.expired(server, car.SOURCE)
        server._process_batch([sub])
        verdict = drain(sub.replies)[0]
        assert verdict["type"] == "verdict"
        assert verdict["all_proved"] is False
        assert verdict["deadline_expired"] is True
        assert verdict["deadline_ms"] == 1
        assert verdict["residue"], "a partial verdict must carry residue"
        assert all(entry["status"] == "deadline"
                   for entry in verdict["residue"])
        assert server.telemetry.counters["serve.deadline.expired"] == 1

    def test_deadline_expiry_is_not_a_backend_failure(self, server):
        server._process_batch([self.expired(server, car.SOURCE)])
        assert server.breaker.state == "closed"
        assert "serve.breaker.failure" not in server.telemetry.counters

    def test_expired_verdicts_are_not_cached_for_degraded_serving(
            self, server):
        server._process_batch([self.expired(server, car.SOURCE)])
        assert car.SOURCE not in server._verdict_cache

    def test_expired_group_leaves_the_invalidation_index_untouched(
            self, server):
        server._process_batch([submission(server, car.SOURCE)])
        before = (server.invalidation.digests(), len(server.invalidation))
        assert before[1] > 0
        edited = car.SOURCE.replace('"crank it up"', '"a bit louder"')
        server._process_batch([self.expired(server, edited)])
        assert (server.invalidation.digests(),
                len(server.invalidation)) == before

    def test_distinct_deadlines_do_not_coalesce(self, server):
        plain = submission(server, car.SOURCE)
        rushed = self.expired(server, car.SOURCE)
        server._process_batch([plain, rushed])
        full = drain(plain.replies)[0]
        partial = drain(rushed.replies)[0]
        assert full["coalesced"] == 1 and partial["coalesced"] == 1
        assert full["all_proved"] is True
        assert full["deadline_expired"] is False
        assert partial["all_proved"] is False
        assert partial["deadline_expired"] is True


class TestBreakerDegradedServing:
    def trip(self, server):
        for _ in range(server.breaker.threshold):
            server.breaker.record_failure()
        assert server.breaker.state == "open"

    def test_uncached_source_gets_residue_only_answer(self, server):
        self.trip(server)
        sub = submission(server, car.SOURCE)
        server._process_batch([sub])
        verdict = drain(sub.replies)[0]
        assert verdict["type"] == "verdict"
        assert verdict["degraded"] is True
        assert verdict["all_proved"] is False
        assert verdict["residue"]
        assert all(entry["status"] == "degraded"
                   for entry in verdict["residue"])
        assert server.telemetry.counters["serve.breaker.shed"] == 1

    def test_cached_source_gets_the_cached_verdict(self, server):
        warm = submission(server, car.SOURCE)
        server._process_batch([warm])
        assert drain(warm.replies)[0]["all_proved"] is True
        self.trip(server)
        sub = submission(server, car.SOURCE)
        server._process_batch([sub])
        verdict = drain(sub.replies)[0]
        assert verdict["degraded"] is True
        assert verdict["all_proved"] is True
        assert verdict["residue"] == []
        assert server.telemetry.counters["serve.breaker.cache_hit"] == 1

    def test_degraded_answers_do_not_advance_session_history(
            self, server):
        self.trip(server)
        sub = submission(server, car.SOURCE)
        server._process_batch([sub])
        assert drain(sub.replies)[0]["degraded"] is True
        assert sub.session.rounds == 0

    def test_closed_breaker_serves_normally_again(self, server):
        self.trip(server)
        server.breaker.record_success()  # a half-open trial succeeded
        sub = submission(server, car.SOURCE)
        server._process_batch([sub])
        verdict = drain(sub.replies)[0]
        assert "degraded" not in verdict
        assert verdict["all_proved"] is True
        assert sub.session.rounds == 1


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestBreakerRecovery:
    """Only a half-open trial closes the breaker: while the prover keeps
    failing, it stays open for its whole cooldown."""

    def test_breaker_stays_open_until_a_trial_succeeds(
            self, tmp_path, monkeypatch):
        server = VerificationServer(ServeOptions(
            store=str(tmp_path / "ps"), breaker_threshold=1,
            breaker_cooldown=30.0,
        ))
        clock = FakeClock()
        server.breaker = CircuitBreaker(threshold=1, cooldown=30.0,
                                        clock=clock)

        def broken(self):
            raise RuntimeError("the prover is broken")

        monkeypatch.setattr(Verifier, "verify_all", broken)

        def submit():
            sub = submission(server, car.SOURCE)
            server._process_batch([sub])
            return drain(sub.replies)[-1]

        assert submit()["code"] == "internal-error"
        assert server.breaker.state == "open"
        # Watch for longer than spawning a process and running a trivial
        # task takes: nothing but a trial may close the breaker.
        watch_until = time.monotonic() + 4.0
        while time.monotonic() < watch_until:
            assert server.breaker.state == "open"
            time.sleep(0.05)
        assert submit()["degraded"] is True
        assert server.telemetry.counters["serve.internal_error"] == 1

        clock.advance(30.1)  # the cooldown is over: one trial runs
        assert submit()["code"] == "internal-error"
        assert server.breaker.state == "open"
        assert server.telemetry.counters["serve.internal_error"] == 2
        assert submit()["degraded"] is True

        clock.advance(30.1)
        monkeypatch.undo()  # the prover works again
        verdict = submit()
        assert verdict["type"] == "verdict"
        assert verdict["all_proved"] is True
        assert "degraded" not in verdict
        assert server.breaker.state == "closed"


class TestClientDrops:
    def test_failed_send_is_counted_and_raises_client_gone(self, server):
        ours, theirs = socket.socketpair()
        ours.close()  # the peer is already gone
        with pytest.raises(_ClientGone):
            server._send(theirs, {"type": "verdict"})
        theirs.close()
        assert server.telemetry.counters["serve.client_drop"] == 1
        assert server._stats_frame()["client_drops"] == 1

    def test_implicit_session_is_reaped_when_the_client_dies(
            self, server):
        # A submit with no hello creates its session inside _dispatch;
        # when the client dies before its verdict, the session must
        # still be dropped (the regression here was a permanent leak).
        ours, theirs = socket.socketpair()
        thread = threading.Thread(target=server._handle_conn,
                                  args=(theirs,), daemon=True)
        thread.start()
        send_message(ours, {"op": "submit", "source": car.SOURCE,
                            "stream": False})
        deadline = time.monotonic() + 10
        while not server._submissions.qsize():
            assert time.monotonic() < deadline
            time.sleep(0.01)
        assert len(server.sessions) == 1
        ours.close()
        sub = server._submissions.get_nowait()
        sub.answer({"type": "verdict"})  # the send to a dead peer fails
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert len(server.sessions) == 0
        assert server._stats_frame()["client_drops"] == 1


class TestMalformedFrames:
    def test_garbled_frame_draws_a_malformed_error_reply(self, server):
        ours, theirs = socket.socketpair()
        thread = threading.Thread(target=server._handle_conn,
                                  args=(theirs,), daemon=True)
        thread.start()
        try:
            ours.sendall(struct.pack(">I", 7) + b"\xffjunk!!")
            frame = recv_message(ours)
            assert frame["type"] == "error"
            assert frame["code"] == "malformed"
            assert recv_message(ours) is None  # then the daemon hangs up
            thread.join(timeout=10)
            assert not thread.is_alive()
            assert server.telemetry.counters["serve.malformed_frame"] == 1
        finally:
            ours.close()


class TestSessionResumption:
    def test_hello_with_live_sid_reattaches(self, server):
        pairs = [socket.socketpair() for _ in range(2)]
        threads = []
        try:
            for _, theirs in pairs:
                thread = threading.Thread(target=server._handle_conn,
                                          args=(theirs,), daemon=True)
                thread.start()
                threads.append(thread)
            first, second = pairs[0][0], pairs[1][0]
            send_message(first, {"op": "hello"})
            sid = recv_message(first)["session"]
            send_message(second, {"op": "hello", "session": sid})
            assert recv_message(second)["session"] == sid
            assert len(server.sessions) == 1
        finally:
            for ours, _ in pairs:
                ours.close()
            for thread in threads:
                thread.join(timeout=10)

    def test_hello_with_unknown_sid_opens_a_fresh_session(self, server):
        ours, theirs = socket.socketpair()
        thread = threading.Thread(target=server._handle_conn,
                                  args=(theirs,), daemon=True)
        thread.start()
        try:
            send_message(ours, {"op": "hello", "session": "no-such-sid"})
            frame = recv_message(ours)
            assert frame["type"] == "hello"
            assert frame["session"] != "no-such-sid"
        finally:
            ours.close()
            thread.join(timeout=10)


class TestRequestTracing:
    """submit_id propagation and the per-submission latency breakdown."""

    _submit_ids = itertools.count(1)

    @classmethod
    def admitted(cls, server, source, **kwargs):
        """A submission stamped the way ``_dispatch`` stamps it, with
        an id no other submission of the run shares."""
        sub = submission(server, source, **kwargs)
        sub.submit_id = f"sub-{next(cls._submit_ids)}"
        sub.received_at = time.monotonic() - 0.010
        sub.admitted_at = sub.received_at + 0.002
        return sub

    def test_verdict_carries_submit_id_and_breakdown(self, server):
        sub = self.admitted(server, car.SOURCE)
        server._process_batch([sub])
        verdict = drain(sub.replies)[0]
        assert verdict["submit_id"] == sub.submit_id
        breakdown = verdict["breakdown"]
        for key in ("admission_ms", "queue_ms", "verify_ms",
                    "fanout_ms", "total_ms"):
            assert key in breakdown
            assert breakdown[key] >= 0.0
        phase_sum = sum(v for k, v in breakdown.items()
                        if k != "total_ms")
        # Contiguous phases: they account for the whole end-to-end time.
        assert abs(phase_sum - breakdown["total_ms"]) \
            <= 0.1 * breakdown["total_ms"] + 0.001

    def test_coalesced_waiters_keep_their_own_submit_ids(self, server):
        subs = [self.admitted(server, car.SOURCE) for _ in range(3)]
        server._process_batch(subs)
        ids = {drain(s.replies)[0]["submit_id"] for s in subs}
        assert ids == {s.submit_id for s in subs}
        assert len(ids) == 3

    def test_untracked_submission_still_gets_a_breakdown(self, server):
        """Hand-built submissions (no admission stamps) must not crash
        the breakdown path."""
        sub = submission(server, car.SOURCE)
        server._process_batch([sub])
        verdict = drain(sub.replies)[0]
        assert verdict["submit_id"] is None
        assert verdict["breakdown"]["total_ms"] >= 0.0

    def test_parse_error_frames_carry_tracing_too(self, server):
        sub = self.admitted(server, "program broken {")
        server._process_batch([sub])
        frame = drain(sub.replies)[0]
        assert frame["type"] == "error"
        assert frame["submit_id"] == sub.submit_id
        assert frame["breakdown"]["total_ms"] >= 0.0

    def test_recent_ring_records_outcomes(self, server):
        proved = self.admitted(server, car.SOURCE)
        broken = self.admitted(server, "program broken {")
        server._process_batch([proved])
        server._process_batch([broken])
        outcomes = {row["submit_id"]: row["outcome"]
                    for row in server._recent}
        assert outcomes[proved.submit_id] == "proved"
        assert outcomes[broken.submit_id] == "parse-error"
        for row in server._recent:
            assert row["breakdown"]["total_ms"] >= 0.0

    def test_latency_phases_are_observed_as_histograms(self, server):
        sub = self.admitted(server, car.SOURCE)
        server._process_batch([sub])
        histograms = server.telemetry.metrics.histograms
        for name in ("serve.admission.seconds", "serve.queue.seconds",
                     "serve.verify.seconds", "serve.e2e.seconds"):
            assert histograms[name].count >= 1, name


class TestMetricsFrame:
    def test_shape_and_exposition_are_valid(self, server):
        from repro.obs.export import validate_exposition

        frame = server._metrics_frame({})
        assert frame["type"] == "metrics"
        assert frame["schema_version"] == 2
        assert frame["uptime_s"] >= 0.0
        assert set(frame["window"]) \
            >= {"stats", "span_seconds", "rates", "gauges", "histograms"}
        assert "counters" in frame["totals"]
        assert validate_exposition(frame["exposition"]) == []

    def test_totals_include_serve_gauges(self, server):
        gauges = server._metrics_frame({})["totals"]["gauges"]
        for name in ("serve.admission.inflight", "serve.sessions.active",
                     "serve.breaker.open"):
            assert name in gauges

    def test_bad_over_values_fall_back_to_full_horizon(self, server):
        for over in (True, "60", -1, 0, None, [60]):
            frame = server._metrics_frame({"over": over})
            assert frame["type"] == "metrics"

    def test_windowed_p99_after_traffic(self, server):
        """The acceptance check: submit through the daemon, sample, and
        the 60s-window p99 for serve.verify.seconds is present."""
        server.sampler.sample_once()  # anchor before the traffic
        sub = submission(server, car.SOURCE)
        server._process_batch([sub])
        server.sampler.sample_once()
        frame = server._metrics_frame({"over": 60})
        summary = frame["window"]["histograms"].get("serve.verify.seconds")
        assert summary is not None
        assert summary["count"] >= 1
        assert summary["p99"] > 0.0


class TestHealthFrame:
    def test_idle_daemon_is_ok(self, server):
        frame = server._health_frame()
        assert frame["type"] == "health"
        assert frame["status"] == "ok"
        assert {c["name"] for c in frame["checks"]} \
            == {"breaker", "backlog", "flush", "slo"}
        assert frame["sampler"]["errors"] == 0

    def test_open_breaker_degrades_then_recovers(self, server):
        for _ in range(server.breaker.threshold):
            server.breaker.record_failure()
        assert server._health_frame()["status"] == "degraded"
        server.breaker.record_success()
        assert server._health_frame()["status"] == "ok"


class TestStatsHygiene:
    def test_stats_frames_are_stamped_and_monotonic(self, server):
        first = server._stats_frame()
        second = server._stats_frame()
        for frame in (first, second):
            assert frame["schema_version"] == 2
            assert frame["uptime_s"] >= 0.0
        assert second["generated_at"] > first["generated_at"]

    def test_stamps_are_shared_across_frame_kinds(self, server):
        stamps = [server._stats_frame()["generated_at"],
                  server._metrics_frame({})["generated_at"],
                  server._health_frame()["generated_at"]]
        assert stamps == sorted(stamps)
        assert len(set(stamps)) == 3

    def test_stats_out_payload_carries_the_new_sections(self, tmp_path):
        import json as json_mod

        out = str(tmp_path / "stats.json")
        options = ServeOptions(store=str(tmp_path / "ps"), stats_out=out)
        server = VerificationServer(options)
        sub = submission(server, car.SOURCE)
        sub.submit_id = "sub-1"
        sub.received_at = sub.admitted_at = time.monotonic()
        server._process_batch([sub])
        server.sampler.sample_once()
        server.sampler.sample_once()
        server._flush_outputs()
        with open(out, "r", encoding="utf-8") as handle:
            payload = json_mod.load(handle)
        serve = payload["serve"]
        assert serve["schema_version"] == 2
        assert serve["uptime_s"] >= 0.0
        assert serve["generated_at"] >= 1
        rows = serve["recent_submissions"]
        assert rows and rows[0]["submit_id"] == "sub-1"
        assert "timeseries" in payload
        assert payload["timeseries"]["stats"]["samples"] >= 2


def car_edit(i):
    """The car kernel with one handler's string literal edited."""
    return car.SOURCE.replace('"crank it up"', f'"crank it up {i}"')


class TestGroupTelemetry:
    """Each verify group records straight into the daemon's sink."""

    def test_verdict_counters_match_a_fresh_sink(self, tmp_path):
        """Cold and warm, a verdict's counters are what a fresh sink
        records for the same verification from the same cache and
        store state."""
        server = VerificationServer(ServeOptions(
            store=str(tmp_path / "daemon")))
        reference_options = replace(server.prover_options,
                                    proof_store=str(tmp_path / "ref"))
        for state in ("cold", "warm"):
            reset_interning()
            sub = submission(server, car.SOURCE)
            server._process_batch([sub])
            verdict = drain(sub.replies)[-1]
            reset_interning()
            with obs.use(obs.Telemetry()) as reference:
                Verifier(parse_program(car.SOURCE),
                         reference_options).verify_all()
            assert verdict["counters"], state
            assert verdict["counters"] == reference.counters, state

    def test_daemon_counters_are_its_verdicts_plus_its_own(self, server):
        """After coalesced, parse-error, deadline and degraded groups,
        the prover counters in the daemon's sink are the sum of the
        groups' verdict counters; the rest are ``serve.*``."""
        groups = []
        coalesced = [submission(server, car.SOURCE) for _ in range(3)]
        server._process_batch(coalesced)
        frames = [drain(sub.replies)[-1] for sub in coalesced]
        assert len({json.dumps(f["counters"], sort_keys=True)
                    for f in frames}) == 1
        groups.append(frames[0])

        broken = submission(server, "program broken {")
        server._process_batch([broken])
        assert drain(broken.replies)[-1]["code"] == "parse-error"

        rushed = submission(server, car_edit(1))
        rushed.deadline_ms = 1
        rushed.deadline = time.monotonic() - 0.001
        server._process_batch([rushed])
        groups.append(drain(rushed.replies)[-1])
        assert groups[-1]["deadline_expired"] is True

        for _ in range(server.breaker.threshold):
            server.breaker.record_failure()
        degraded = submission(server, car_edit(2))
        server._process_batch([degraded])
        groups.append(drain(degraded.replies)[-1])
        assert groups[-1]["degraded"] is True

        expected = Counter()
        for verdict in groups:
            expected.update(verdict["counters"])
        counters = dict(server.telemetry.counters)
        own = {name: amount for name, amount in counters.items()
               if name.startswith("serve.")}
        assert {"serve.batch", "serve.parse_error",
                "serve.deadline.expired", "serve.breaker.shed"} <= set(own)
        assert counters == {**expected, **own}

    def test_readers_on_other_threads_race_the_prover(self, tmp_path):
        """The sampler and the observability frames read the live sink
        while twenty groups record into it, without a lock."""
        server = VerificationServer(ServeOptions(
            store=str(tmp_path / "ps"), sample_interval=0.01))
        failures = []
        stop = threading.Event()

        def read():
            while not stop.is_set():
                try:
                    server._series_snapshot()
                    server._stats_frame()
                    server._metrics_frame({})
                except Exception as error:  # noqa: BLE001
                    failures.append(repr(error))
                time.sleep(0.001)  # let the prover thread run too

        reader = threading.Thread(target=read, daemon=True)
        server.sampler.start()
        reader.start()
        try:
            sources = [module.SOURCE for module in BENCHMARKS.values()]
            sources += [car_edit(i) for i in range(20 - len(sources))]
            for source in sources:
                sub = submission(server, source)
                server._process_batch([sub])
                assert drain(sub.replies)[-1]["type"] == "verdict"
        finally:
            stop.set()
            reader.join(timeout=30)
            server.sampler.stop()
        assert not reader.is_alive()
        assert failures == []
        assert server.sampler.errors == 0

    def test_connection_threads_count_while_groups_verify(self,
                                                          tmp_path):
        """Connection threads count drops into the sink the prover
        thread is recording into: no count or event is lost, ``seq``
        follows file order, and no verdict picks up a ``serve.*``
        counter."""
        events_out = str(tmp_path / "events.jsonl")
        server = VerificationServer(ServeOptions(
            store=str(tmp_path / "ps"), events_out=events_out))
        server.telemetry.events.bind(events_out)
        done = threading.Event()
        dropped = []

        def drop_clients():
            count = 0
            while not done.wait(0.002):  # bursts of drops
                for _ in range(20):
                    server._note_client_drop("verdict")
                count += 20
            dropped.append(count)

        droppers = [threading.Thread(target=drop_clients, daemon=True)
                    for _ in range(4)]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for dropper in droppers:
                dropper.start()
            verdicts = []
            for i in range(5):
                sub = TestRequestTracing.admitted(server, car_edit(i))
                server._process_batch([sub])
                verdicts.append(drain(sub.replies)[-1])
        finally:
            done.set()
            for dropper in droppers:
                dropper.join(timeout=60)
            sys.setswitchinterval(previous)
        assert not any(dropper.is_alive() for dropper in droppers)
        server._flush_outputs()

        total = sum(dropped)
        assert server.telemetry.counters["serve.client_drop"] == total
        records = obs.read_jsonl(events_out)
        seqs = [record["seq"] for record in records]
        assert seqs == sorted(set(seqs))
        assert sum(r["kind"] == "serve.client_drop"
                   for r in records) == total
        for verdict in verdicts:
            assert verdict["type"] == "verdict"
            assert verdict["counters"]
            assert not any(name.startswith("serve.")
                           for name in verdict["counters"])

    def test_group_work_carries_its_submit_ids(self, tmp_path,
                                               monkeypatch):
        """Obligation spans and events carry their group's submit ids,
        a streaming waiter gets only its own group's events, and the
        daemon's own events (a drop while a group runs, the governor's
        collection) carry no submit id and are never streamed."""
        events_out = str(tmp_path / "events.jsonl")
        server = VerificationServer(ServeOptions(
            store=str(tmp_path / "ps"), events_out=events_out))
        server.telemetry.events.bind(events_out)
        server.governor.max_intern_terms = 1  # collect after the batch
        server.telemetry.max_spans = 10_000  # retain every span
        real_verify_all = Verifier.verify_all

        def verify_all_while_a_client_drops(verifier):
            drop = threading.Thread(target=server._note_client_drop,
                                    args=("verdict",))
            drop.start()
            drop.join(timeout=30)
            assert not drop.is_alive()
            return real_verify_all(verifier)

        monkeypatch.setattr(Verifier, "verify_all",
                            verify_all_while_a_client_drops)
        a = TestRequestTracing.admitted(server, car.SOURCE, stream=True)
        b = TestRequestTracing.admitted(server, car_edit(3), stream=True)
        server._process_batch([a, b])

        obligations = [span for span in server.telemetry.spans
                       if span.name == "obligation"]
        assert len(obligations) \
            == server.telemetry.span_counts()["obligation"]
        assert {dict(span.attrs)["submit_id"] for span in obligations} \
            == {a.submit_id, b.submit_id}
        for sub in (a, b):
            frames = drain(sub.replies)
            assert frames[-1]["type"] == "verdict"
            streamed = [f["event"] for f in frames if f["type"] == "event"]
            assert streamed
            assert {event["submit_id"] for event in streamed} \
                == {sub.submit_id}
            assert {"seq", "t", "kind", "worker"} <= set(streamed[0])

        records = obs.read_jsonl(events_out)
        lifecycle = [r for r in records
                     if r["kind"].startswith("obligation.")]
        assert {r["submit_id"] for r in lifecycle} \
            == {a.submit_id, b.submit_id}
        daemon_own = [r for r in records
                      if r["kind"] in ("serve.collection",
                                       "serve.client_drop")]
        assert {r["kind"] for r in daemon_own} \
            == {"serve.collection", "serve.client_drop"}
        assert not any("submit_id" in r for r in daemon_own)


class TestFlightRecorder:
    def test_events_out_stays_flat_and_records_every_group(self,
                                                           tmp_path):
        """With ``--events-out`` and ``--stats-out``, neither the events
        held in memory nor the stats file grow with the batches, and
        the file holds every group's events, tagged, in ``seq`` order."""
        events_out = str(tmp_path / "events.jsonl")
        stats_out = str(tmp_path / "stats.json")
        server = VerificationServer(ServeOptions(
            store=str(tmp_path / "ps"), events_out=events_out,
            stats_out=stats_out, sample_interval=3600))
        server.telemetry.events.bind(events_out)
        held, sizes, ids = [], [], []
        for i in range(20):
            sub = TestRequestTracing.admitted(server, car_edit(i))
            server._process_batch([sub])
            assert drain(sub.replies)[-1]["type"] == "verdict"
            ids.append(sub.submit_id)
            held.append(len(server.telemetry.events.events))
            sizes.append(os.path.getsize(stats_out))

        records = obs.read_jsonl(events_out)
        seqs = [record["seq"] for record in records]
        assert all(a < b for a, b in zip(seqs, seqs[1:]))
        lifecycle = [r for r in records
                     if r["kind"].startswith("obligation.")]
        assert {r["submit_id"] for r in lifecycle} == set(ids)
        assert held == [held[0]] * 20
        # Ten more batches grow the stats file by less than one group's
        # events would take (the recent-submissions ring still fills).
        one_group = sum(len(json.dumps(r)) for r in records
                        if r.get("submit_id") == ids[-1])
        assert sizes[-1] - sizes[9] < one_group
        with open(stats_out, encoding="utf-8") as handle:
            assert "events" not in json.load(handle)["telemetry"]
