"""End-to-end daemon tests: real sockets, real sessions, real reuse.

The acceptance story of the serve tentpole, driven over the wire:

* a warm session resubmitting a one-handler ssh2 edit searches no
  proof fragment — syntax settles the edited handler's, the store
  answers the rest (measured via the obs counters the verdict carries)
  — and beats a cold one-shot ``repro verify`` by >= 5x;
* a failing submission answers with structured unproved residue;
* two concurrent sessions get isolated verdicts;
* the CLI reserves exit 3 for bind failures, distinct from
  verification failures (1).
"""

import json
import os
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.frontend import parse_program
from repro.prover import fragment_digests
from repro.serve import (
    ServeClient,
    ServeError,
    ServeOptions,
    VerificationServer,
)
from repro.systems import car, ssh2

EDIT = 'send(CT, CountReq(user, pass));'
EDITED = 'send(CT, CountReq(user, pass ++ ""));'
EDITED_SSH2 = ssh2.SOURCE.replace(EDIT, EDITED)
assert EDITED_SSH2 != ssh2.SOURCE

REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src")
    return env


@pytest.fixture
def server(tmp_path):
    with VerificationServer(ServeOptions(
            store=str(tmp_path / "store"))) as daemon:
        yield daemon


class TestWarmIncrementalReuse:
    def test_one_handler_edit_reproves_only_its_fragments(self, server):
        with ServeClient(server.address, timeout=300) as client:
            client.hello()
            cold = client.submit(ssh2.SOURCE)
            assert cold["all_proved"]
            assert cold["changed_parts"] is None

            warm = client.submit(EDITED_SSH2)
        assert warm["all_proved"]
        assert warm["residue"] == []
        # The edit touched exactly the Connection=>ReqAuth handler...
        assert warm["changed_parts"] == [["Connection", "ReqAuth"]]
        # ...which emits nothing either trace property's trigger can
        # match, so syntax settles its fragments and no store entry
        # was ever filed under its slice (ssh2 has no NI property): the
        # edit supersedes no stored key.  Every other fragment keeps its
        # dependency key and is answered by the warm store or by syntax.
        # No fragment re-enters proof search.
        assert warm["invalidated_keys"] == 0
        spec = parse_program(EDITED_SSH2)
        fragments = len(fragment_digests(spec.program)) \
            * len(spec.trace_properties())
        counters = warm["counters"]
        assert "trace.fragment.searched" not in counters
        assert "trace.fragment.invalid" not in counters
        assert counters["trace.fragment.hit"] \
            + counters["tactic.exchange.skipped"] == fragments

    def test_warm_round_beats_cold_oneshot_by_5x(self, server, tmp_path):
        """The headline number: a warm re-verify of a one-handler edit
        vs a cold one-shot ``repro verify`` of the same edited kernel
        (fresh process: interpreter boot, parse, full pipeline)."""
        with ServeClient(server.address, timeout=300) as client:
            client.hello()
            client.submit(ssh2.SOURCE)
            warm = client.submit(EDITED_SSH2)
        assert warm["all_proved"]

        kernel = tmp_path / "edited_ssh2.rfx"
        kernel.write_text(EDITED_SSH2)
        started = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "verify", str(kernel)],
            env=cli_env(), capture_output=True, text=True, timeout=600,
        )
        cold_seconds = time.perf_counter() - started
        assert proc.returncode == 0, proc.stderr
        assert cold_seconds >= 5 * warm["seconds"], (
            f"warm {warm['seconds']:.3f}s vs cold {cold_seconds:.3f}s"
        )


class TestResidueOverTheWire:
    def test_failing_submission_returns_structured_residue(self, server):
        from repro.harness.utility import buggy_car_source

        source, expected_failures = buggy_car_source()
        with ServeClient(server.address, timeout=300) as client:
            client.hello()
            verdict = client.submit(source)
        assert not verdict["all_proved"]
        by_name = {entry["property"]: entry
                   for entry in verdict["residue"]}
        assert set(expected_failures) <= set(by_name)
        for entry in by_name.values():
            assert entry["status"] == "unproved"
            assert entry["kind"] == "trace"
            assert entry["goal"]
            assert entry["explanation"]

    def test_parse_error_is_a_serve_error(self, server):
        with ServeClient(server.address, timeout=60) as client:
            client.hello()
            with pytest.raises(ServeError) as excinfo:
                client.submit("kernel { definitely not reflex")
            assert excinfo.value.code == "parse-error"

    def test_events_stream_before_the_verdict(self, server):
        events = []
        with ServeClient(server.address, timeout=300) as client:
            client.hello()
            verdict = client.submit(car.SOURCE, on_event=events.append)
        assert verdict["all_proved"]
        assert events, "no obligation-progress events streamed"
        kinds = {event["kind"] for event in events}
        assert any(kind.startswith("obligation") for kind in kinds), kinds


class TestConcurrentSessions:
    def test_two_sessions_get_isolated_verdicts(self, server):
        """Session A edits a handler; session B resubmits unchanged.
        Each verdict diffs against *its own* history."""
        results = {}

        def drive(name, first, second):
            with ServeClient(server.address, timeout=300) as client:
                client.hello()
                results[name] = (client.submit(first),
                                 client.submit(second))

        a = threading.Thread(
            target=drive, args=("edits", ssh2.SOURCE, EDITED_SSH2))
        b = threading.Thread(
            target=drive, args=("steady", ssh2.SOURCE, ssh2.SOURCE))
        a.start()
        b.start()
        a.join(timeout=600)
        b.join(timeout=600)
        assert set(results) == {"edits", "steady"}
        edits_first, edits_second = results["edits"]
        steady_first, steady_second = results["steady"]
        assert edits_first["session"] != steady_first["session"]
        for verdict in (edits_first, edits_second,
                        steady_first, steady_second):
            assert verdict["all_proved"]
        assert edits_second["changed_parts"] == [["Connection",
                                                  "ReqAuth"]]
        assert steady_second["changed_parts"] == []
        assert steady_second["invalidated_keys"] == 0

    def test_simultaneous_identical_submissions_coalesce(self, server):
        verdicts = []
        barrier = threading.Barrier(3)

        def drive():
            with ServeClient(server.address, timeout=300) as client:
                client.hello()
                barrier.wait(timeout=60)
                verdicts.append(client.submit(car.SOURCE))

        threads = [threading.Thread(target=drive) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=600)
        assert len(verdicts) == 3
        assert all(v["all_proved"] for v in verdicts)
        assert len({v["session"] for v in verdicts}) == 3
        # At least some of the racing submissions landed in one batch
        # (all three when the barrier wins the race, which it nearly
        # always does; >1 coalesced is the load-bearing claim).
        assert max(v["coalesced"] for v in verdicts) >= 1


class TestServeCli:
    def test_bind_failure_exits_3(self, tmp_path):
        squatter = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        squatter.bind(("127.0.0.1", 0))
        squatter.listen(1)
        port = squatter.getsockname()[1]
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "repro", "serve",
                 "--port", str(port)],
                env=cli_env(), capture_output=True, text=True,
                timeout=120,
            )
        finally:
            squatter.close()
        assert proc.returncode == 3
        assert "cannot bind" in proc.stderr

    def test_daemon_cli_round_trip(self, tmp_path):
        """Boot ``repro serve`` as a real subprocess, drive it with the
        client module's CLI, and shut it down — the smoke job's exact
        choreography."""
        port_file = tmp_path / "addr"
        stats_out = tmp_path / "stats.json"
        daemon = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--port-file", str(port_file),
             "--store", str(tmp_path / "store"),
             "--stats-out", str(stats_out)],
            env=cli_env(), stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True,
        )
        try:
            deadline = time.time() + 60
            while not port_file.exists() and time.time() < deadline:
                time.sleep(0.1)
            address = port_file.read_text().strip()

            kernel = tmp_path / "car.rfx"
            kernel.write_text(car.SOURCE)
            submit = subprocess.run(
                [sys.executable, "-m", "repro.serve.client",
                 "--connect", address, "--submit", str(kernel)],
                env=cli_env(), capture_output=True, text=True,
                timeout=300,
            )
            assert submit.returncode == 0, submit.stderr
            verdict = json.loads(submit.stdout)
            assert verdict["all_proved"]

            stop = subprocess.run(
                [sys.executable, "-m", "repro.serve.client",
                 "--connect", address, "--shutdown"],
                env=cli_env(), capture_output=True, text=True,
                timeout=60,
            )
            assert stop.returncode == 0, stop.stderr
            assert daemon.wait(timeout=60) == 0
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait(timeout=30)
        payload = json.loads(stats_out.read_text())
        assert payload["serve"]["submissions"] == 1


class TestDeadlinesOverTheWire:
    def test_expired_deadline_returns_partial_verdict(self, server):
        with ServeClient(server.address, timeout=300) as client:
            client.hello()
            verdict = client.submit(car.SOURCE, deadline_ms=1)
        assert verdict["type"] == "verdict"
        assert verdict["deadline_expired"] is True
        assert verdict["deadline_ms"] == 1
        assert verdict["all_proved"] is False
        assert verdict["residue"]
        assert all(entry["status"] == "deadline"
                   for entry in verdict["residue"])

    def test_generous_deadline_proves_normally(self, server):
        with ServeClient(server.address, timeout=300) as client:
            client.hello()
            verdict = client.submit(car.SOURCE, deadline_ms=600_000)
        assert verdict["all_proved"] is True
        assert verdict["deadline_expired"] is False
        assert verdict["deadline_ms"] == 600_000


class TestClientTimeout:
    def test_unresponsive_daemon_raises_timeout_serve_error(self):
        mute = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        mute.bind(("127.0.0.1", 0))
        mute.listen(1)
        try:
            client = ServeClient(mute.getsockname()[:2], timeout=0.5)
            with pytest.raises(ServeError) as caught:
                client.ping()
            assert caught.value.code == "timeout"
            client.close()
        finally:
            mute.close()

    def test_default_timeout_is_off(self, server):
        client = ServeClient(server.address)
        assert client.timeout is None
        assert client.ping()
        client.bye()


class TestOverloadBackpressure:
    def test_shed_submit_backs_off_and_retries_to_success(self, server):
        # Occupy the whole backlog out-of-band, then watch the client
        # back off on the shed frame and succeed once capacity frees.
        server.admission.max_queued = 1
        held, _ = server.admission.try_admit("occupant")
        assert held is not None
        sleeps = []
        with ServeClient(server.address, timeout=300,
                         overload_retries=3) as client:
            client.hello()

            def sleep_then_free(seconds):
                sleeps.append(seconds)
                held.release()  # capacity frees while the client waits

            client._sleep = sleep_then_free
            verdict = client.submit(car.SOURCE)
        assert verdict["all_proved"] is True
        assert len(sleeps) == 1
        # The delay honors the daemon hint with [0.5, 1.5) jitter.
        assert 0.5 * 0.2 <= sleeps[0]

    def test_retries_exhausted_surfaces_overloaded_error(self, server):
        server.admission.max_queued = 1
        held, _ = server.admission.try_admit("occupant")
        assert held is not None
        sleeps = []
        try:
            with ServeClient(server.address, timeout=300,
                             overload_retries=2) as client:
                client.hello()
                client._sleep = sleeps.append
                with pytest.raises(ServeError) as caught:
                    client.submit(car.SOURCE)
            assert caught.value.code == "overloaded"
            assert caught.value.retry_after_ms >= 1
            assert len(sleeps) == 2
            # Exponential: the second wait is drawn from a doubled base.
            assert sleeps[1] > sleeps[0] * 0.5
        finally:
            held.release()


class TestSigtermDrain:
    def test_sigterm_mid_batch_drains_and_exits_zero(self, tmp_path):
        """SIGTERM a live daemon while a submission is in flight: the
        client still gets a terminal frame, the daemon flushes its
        artifacts and exits 0 (satellite: graceful drain)."""
        import signal as signal_mod

        port_file = tmp_path / "addr"
        stats_out = tmp_path / "stats.json"
        daemon = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--port-file", str(port_file),
             "--store", str(tmp_path / "store"),
             "--stats-out", str(stats_out)],
            env=cli_env(), stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True,
        )
        try:
            deadline = time.time() + 60
            while not port_file.exists() and time.time() < deadline:
                time.sleep(0.1)
            host, port = port_file.read_text().strip().rsplit(":", 1)
            sock = socket.create_connection((host, int(port)),
                                            timeout=300)
            from repro.serve.protocol import recv_message, send_message
            send_message(sock, {"op": "submit", "source": car.SOURCE,
                                "stream": False})
            time.sleep(0.3)  # let the batch reach the prover thread
            daemon.send_signal(signal_mod.SIGTERM)
            frame = recv_message(sock)
            # Either the batch finished (verdict) or the drain shed it
            # (shutting-down) — never a hang, never a bare close.
            assert frame is not None
            assert frame["type"] in ("verdict", "error")
            if frame["type"] == "error":
                assert frame["code"] == "shutting-down"
            sock.close()
            out, _err = daemon.communicate(timeout=120)
            assert daemon.returncode == 0
            assert "daemon stopped" in out
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait(timeout=30)
        # The drain flushed artifacts on the way out.
        assert stats_out.exists()

    def test_sigterm_after_a_client_left_exits_promptly(self, tmp_path):
        """The accept thread must wake on shutdown: the daemon used to
        sit out a 10 s join on it before exiting."""
        import signal as signal_mod

        port_file = tmp_path / "addr"
        daemon = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--port-file", str(port_file),
             "--store", str(tmp_path / "store")],
            env=cli_env(), stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True,
        )
        try:
            deadline = time.time() + 60
            while not port_file.exists() and time.time() < deadline:
                time.sleep(0.1)
            host, port = port_file.read_text().strip().rsplit(":", 1)
            with ServeClient((host, int(port)), timeout=60) as client:
                assert client.ping()
            started = time.monotonic()
            daemon.send_signal(signal_mod.SIGTERM)
            daemon.communicate(timeout=30)
            assert time.monotonic() - started < 2.0
            assert daemon.returncode == 0
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait(timeout=30)


class TestObservabilityOverTheWire:
    """metrics/health frames and end-to-end tracing, over real sockets."""

    def test_metrics_frame_has_windowed_p99_and_valid_exposition(
            self, server):
        from repro.obs.export import validate_exposition

        with ServeClient(server.address, timeout=300) as client:
            client.hello()
            client.submit(car.SOURCE)
            server.sampler.sample_once()  # don't wait for the interval
            frame = client.metrics(over=60)
        assert frame["schema_version"] == 2
        assert validate_exposition(frame["exposition"]) == []
        summary = frame["window"]["histograms"]["serve.verify.seconds"]
        assert summary["count"] >= 1
        assert summary["p99"] > 0.0
        totals = frame["totals"]
        assert totals["counters"]["serve.submissions"] >= 1
        assert "repro_serve_submissions_total" in frame["exposition"]

    def test_breakdown_sums_to_the_observed_client_wall_time(
            self, server):
        with ServeClient(server.address, timeout=300) as client:
            client.hello()
            begin = time.monotonic()
            verdict = client.submit(car.SOURCE)
            wall_ms = (time.monotonic() - begin) * 1000.0
        assert verdict["submit_id"].startswith("sub-")
        breakdown = verdict["breakdown"]
        phase_sum = sum(v for k, v in breakdown.items()
                        if k != "total_ms")
        # The daemon-side phases are contiguous from admission to
        # fan-out, so they account for the client's observed wall time
        # up to socket/serialization overhead.
        assert phase_sum <= wall_ms + 1.0
        assert phase_sum >= wall_ms * 0.9 - 5.0

    def test_submit_ids_are_unique_across_a_session(self, server):
        with ServeClient(server.address, timeout=300) as client:
            client.hello()
            first = client.submit(car.SOURCE)
            second = client.submit(car.SOURCE)
        assert first["submit_id"] != second["submit_id"]

    def test_health_transitions_with_the_breaker(self, server):
        with ServeClient(server.address, timeout=300) as client:
            client.hello()
            assert client.health()["status"] == "ok"
            for _ in range(server.breaker.threshold):
                server.breaker.record_failure()
            degraded = client.health()
            assert degraded["status"] == "degraded"
            breaker = next(c for c in degraded["checks"]
                           if c["name"] == "breaker")
            assert breaker["status"] == "degraded"
            server.breaker.record_success()
            assert client.health()["status"] == "ok"

    def test_metrics_and_health_work_without_hello(self, server):
        """Observability ops are session-free: a probe should not have
        to open a verification session first."""
        with ServeClient(server.address, timeout=60) as client:
            assert client.metrics()["type"] == "metrics"
            assert client.health()["type"] == "health"

    def test_cli_metrics_and_health_flags(self, tmp_path):
        sock = str(tmp_path / "d.sock")
        daemon = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--socket", sock,
             "--store", str(tmp_path / "store")],
            env=cli_env(), stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True,
        )
        try:
            deadline = time.monotonic() + 60
            while not os.path.exists(sock):
                assert time.monotonic() < deadline, "daemon never bound"
                time.sleep(0.05)
            metrics = subprocess.run(
                [sys.executable, "-m", "repro.serve.client",
                 "--connect", sock, "--metrics"],
                env=cli_env(), capture_output=True, text=True,
                timeout=60,
            )
            assert metrics.returncode == 0, metrics.stderr
            payload = json.loads(metrics.stdout)
            assert payload["type"] == "metrics"
            health = subprocess.run(
                [sys.executable, "-m", "repro.serve.client",
                 "--connect", sock, "--health"],
                env=cli_env(), capture_output=True, text=True,
                timeout=60,
            )
            assert health.returncode == 0, health.stderr
            assert json.loads(health.stdout)["status"] == "ok"
        finally:
            daemon.terminate()
            daemon.wait(timeout=30)

    def test_cli_top_renders_one_frame_against_a_live_daemon(
            self, tmp_path):
        sock = str(tmp_path / "d.sock")
        daemon = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--socket", sock,
             "--store", str(tmp_path / "store")],
            env=cli_env(), stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True,
        )
        try:
            deadline = time.monotonic() + 60
            while not os.path.exists(sock):
                assert time.monotonic() < deadline, "daemon never bound"
                time.sleep(0.05)
            top = subprocess.run(
                [sys.executable, "-m", "repro", "top", sock,
                 "--iterations", "1", "--interval", "0.2"],
                env=cli_env(), capture_output=True, text=True,
                timeout=60,
            )
            assert top.returncode == 0, top.stderr
            assert "repro top - " in top.stdout
            assert "health: OK" in top.stdout
        finally:
            daemon.terminate()
            daemon.wait(timeout=30)
