"""Service-level fault injection: chaos testing the serve daemon.

The kernel-level chaos harness (:mod:`repro.harness.chaos`) attacks the
*runtime* — crash/drop/dup faults against a supervised interpreter.
This module attacks the *service*: each scenario boots a real
:class:`~repro.serve.server.VerificationServer` on an ephemeral TCP
port, injects one class of operational fault, and asserts the PR 9
resilience invariants the hard way:

* the daemon never wedges — it still answers ``ping`` after the fault;
* every live client gets a terminal frame (verdict or error), never a
  silent hang;
* no sessions leak — ``live_sessions`` drains back to zero;
* admission capacity is released — ``inflight`` drains back to zero.

Five scenarios, selectable by name:

``deadline``
    a submission far larger than its budget — the 128-group synthetic
    kernel (:mod:`repro.systems.synthetic`) with ``deadline_ms=250``,
    where a full verification takes seconds; the engine's deadline
    checks between obligations must answer a partial verdict, every
    residue entry marked ``deadline``, within the budget plus one
    second.
``disk-full-store``
    every proof-store write raises ``ENOSPC``
    (``REPRO_CHAOS_STORE_FULL``); verification must succeed anyway,
    with the failures counted, not raised.
``client-disconnect``
    a client submits and then vanishes (RST) before its verdict is
    sent; the drop must be counted (``serve.client_drop``) and the
    session reaped.
``malformed-frame``
    oversized length announcements, undecodable bodies, non-object
    JSON, unknown ops and source-less submits; each draws a typed
    error, none harms the daemon.
``connection-flood``
    more concurrent submissions than the admission controller allows,
    plus connections that vanish without sending; excess submits are
    shed with ``overloaded``/``retry_after_ms``, the backlog stays
    bounded, and every admitted client is eventually answered.

Determinism: scenarios record *facts that are stable under scheduling*
— booleans, and counts only where the harness forces them to be exact
(the server's ``batch_hook`` gate holds the prover so flood arithmetic
is sequential).  No wall times appear in reports — the ``deadline``
scenario records only whether its verdict arrived in time — so a fixed
``--seed`` reproduces the report bit for bit.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import socket
import struct
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence

from .. import obs
from ..frontend import pretty
from ..seeds import derive_rng, derive_seed
from ..serve.client import ServeClient, ServeError
from ..serve.protocol import MAX_FRAME_BYTES, recv_message, send_message
from ..serve.server import ServeOptions, VerificationServer
from ..systems import car
from ..systems.synthetic import synthetic_kernel

#: Scenario registry order = execution and report order.
SCENARIO_NAMES = (
    "deadline",
    "disk-full-store",
    "client-disconnect",
    "malformed-frame",
    "connection-flood",
)

#: The ``deadline`` scenario: handler groups of the submitted synthetic
#: kernel, its budget, and how long past the budget the verdict may
#: take (parse and the symbolic step build run before the first check).
DEADLINE_GROUPS = 128
DEADLINE_MS = 250
DEADLINE_SLACK_S = 1.0


@dataclass
class ScenarioReport:
    """One scenario's deterministic facts and verdict."""

    name: str
    seed: int
    #: named facts (bools, and counts the harness forces to be exact)
    checks: Dict[str, object] = field(default_factory=dict)
    #: human-readable failed expectations; empty means the scenario held
    failures: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def expect(self, name: str, ok: bool, detail: str = "") -> None:
        """Record one named invariant; a falsy ``ok`` fails the scenario."""
        self.checks[name] = bool(ok)
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)

    def record(self, name: str, value: object) -> None:
        """Record one named fact without judging it."""
        self.checks[name] = value

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "seed": self.seed,
            "ok": self.ok,
            "checks": dict(self.checks),
            "failures": list(self.failures),
        }


@dataclass
class ChaosServeReport:
    """The full sweep: one :class:`ScenarioReport` per scenario run."""

    seed: int
    scenarios: List[ScenarioReport] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(scenario.ok for scenario in self.scenarios)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "ok": self.ok,
            "scenarios": [scenario.to_dict()
                          for scenario in self.scenarios],
        }


# -- plumbing ----------------------------------------------------------------


@contextlib.contextmanager
def _chaos_env(**pairs: object) -> Iterator[None]:
    """Set chaos environment hooks for the scope, restoring exactly."""
    saved = {name: os.environ.get(name) for name in pairs}
    try:
        for name, value in pairs.items():
            os.environ[name] = str(value)
        yield
    finally:
        for name, old in saved.items():
            if old is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = old


@contextlib.contextmanager
def _daemon(tmp: str, **overrides: object) -> Iterator[VerificationServer]:
    """A real daemon on an ephemeral TCP port, torn down afterwards."""
    options = ServeOptions(host="127.0.0.1", port=0,
                           store=os.path.join(tmp, "store"), **overrides)
    server = VerificationServer(options)
    server.start()
    try:
        yield server
    finally:
        server.close()


def _wait_until(predicate: Callable[[], bool],
                timeout: float = 30.0) -> bool:
    """Poll ``predicate`` until true or ``timeout`` elapses."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return predicate()


def _raw_client(server: VerificationServer) -> socket.socket:
    """A bare socket to the daemon for malformed/disconnect scenarios."""
    sock = socket.create_connection(server.address, timeout=30)
    return sock


def _abort_connection(sock: socket.socket) -> None:
    """Close with RST (SO_LINGER 0) — the peer vanishes, not says bye."""
    with contextlib.suppress(OSError):
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                        struct.pack("ii", 1, 0))
    sock.close()


def _daemon_healthy(report: ScenarioReport,
                    server: VerificationServer) -> None:
    """The common post-fault invariants: daemon answers, nothing leaks."""
    try:
        with ServeClient(server.address, timeout=30) as probe:
            report.expect("daemon_answers_ping", probe.ping(),
                          "no ok frame for ping after the fault")
    except (ServeError, OSError) as error:
        report.expect("daemon_answers_ping", False, str(error))
    report.expect(
        "sessions_drained",
        _wait_until(lambda: server.sessions.stats()["live_sessions"] == 0),
        f"live_sessions={server.sessions.stats()['live_sessions']}",
    )
    report.expect(
        "admission_drained",
        _wait_until(lambda: server.admission.inflight == 0),
        f"inflight={server.admission.inflight}",
    )


# -- scenarios ---------------------------------------------------------------


def _scenario_deadline(report: ScenarioReport, tmp: str) -> None:
    """A submission far larger than its budget answers on time, with
    a partial verdict."""
    source = pretty(synthetic_kernel(DEADLINE_GROUPS))
    with _daemon(tmp) as server:
        with ServeClient(server.address, timeout=600) as client:
            started = time.monotonic()
            verdict = client.submit(source, stream=False,
                                    deadline_ms=DEADLINE_MS)
            elapsed = time.monotonic() - started
        residue = verdict.get("residue", [])
        report.expect("verdict_terminal",
                      verdict.get("type") == "verdict",
                      f"type={verdict.get('type')}")
        report.expect("deadline_expired",
                      verdict.get("deadline_expired") is True,
                      f"deadline_expired={verdict.get('deadline_expired')}")
        report.expect(
            "residue_all_deadline",
            bool(residue) and all(entry.get("status") == "deadline"
                                  for entry in residue),
            f"statuses={sorted({e.get('status') for e in residue})}",
        )
        report.expect(
            "answered_within_budget",
            elapsed <= DEADLINE_MS / 1000.0 + DEADLINE_SLACK_S,
            f"verdict after {elapsed:.2f}s for a {DEADLINE_MS} ms budget",
        )
        _daemon_healthy(report, server)


def _scenario_disk_full_store(report: ScenarioReport, tmp: str) -> None:
    """Every proof-store write fails ENOSPC; verification shrugs."""
    with _chaos_env(REPRO_CHAOS_STORE_FULL="1"):
        with _daemon(tmp) as server:
            with ServeClient(server.address, timeout=600) as client:
                verdict = client.submit(car.SOURCE, stream=False)
            counters = verdict.get("counters", {})
            report.expect("verdict_all_proved",
                          verdict.get("all_proved") is True,
                          f"all_proved={verdict.get('all_proved')}")
            report.expect(
                "write_failures_counted",
                counters.get("store.write_error", 0) >= 1,
                f"store.write_error={counters.get('store.write_error', 0)}",
            )
            _daemon_healthy(report, server)


def _scenario_client_disconnect(report: ScenarioReport, tmp: str) -> None:
    """A client vanishes (RST) after submitting, before its verdict."""
    entered = threading.Event()
    gate = threading.Event()

    def hold(batch: List[object]) -> None:
        entered.set()
        gate.wait(timeout=60)

    with _daemon(tmp) as server:
        server.batch_hook = hold
        sock = _raw_client(server)
        send_message(sock, {"op": "submit", "source": car.SOURCE,
                            "stream": False})
        report.expect("prover_reached", entered.wait(timeout=30),
                      "the submission never reached the prover")
        # The prover is now blocked holding this client's batch; the
        # client dies so the eventual verdict send must fail.
        _abort_connection(sock)
        gate.set()
        server.batch_hook = None
        report.expect(
            "drop_counted",
            _wait_until(lambda: server._stats_frame()["client_drops"] >= 1),
            f"client_drops={server._stats_frame()['client_drops']}",
        )
        report.record("client_drops_exactly_one",
                      server._stats_frame()["client_drops"] == 1)
        _daemon_healthy(report, server)


def _scenario_malformed_frame(report: ScenarioReport, tmp: str,
                              seed: int) -> None:
    """Garbled wire input of every flavor draws typed errors, no harm."""
    rng = derive_rng(seed, "malformed", "bodies")
    with _daemon(tmp) as server:
        def expect_error(payload_bytes: bytes, check: str,
                         code: str) -> None:
            sock = _raw_client(server)
            try:
                sock.sendall(payload_bytes)
                frame = recv_message(sock)
                report.expect(
                    check,
                    bool(frame) and frame.get("type") == "error"
                    and frame.get("code") == code,
                    f"reply={frame}",
                )
            except Exception as error:  # noqa: BLE001
                report.expect(check, False, repr(error))
            finally:
                sock.close()

        # 1. An announced length over the frame ceiling, no body.
        expect_error(struct.pack(">I", MAX_FRAME_BYTES + 1),
                     "oversized_announcement_rejected", "malformed")
        # 2. A correctly-framed body that is not UTF-8/JSON (the leading
        #    0xFF byte guarantees undecodability whatever the rng draws).
        garbage = b"\xff" + bytes(rng.randrange(256) for _ in range(32))
        expect_error(struct.pack(">I", len(garbage)) + garbage,
                     "garbage_body_rejected", "malformed")
        # 3. Valid JSON that is not an object.
        array = b"[1,2,3]"
        expect_error(struct.pack(">I", len(array)) + array,
                     "non_object_rejected", "malformed")

        # 4. Unknown op — a typed error and the connection stays usable.
        sock = _raw_client(server)
        try:
            send_message(sock, {"op": "frobnicate"})
            frame = recv_message(sock)
            report.expect(
                "unknown_op_rejected",
                bool(frame) and frame.get("code") == "unknown-op",
                f"reply={frame}",
            )
            send_message(sock, {"op": "ping"})
            frame = recv_message(sock)
            report.expect(
                "connection_survives_unknown_op",
                bool(frame) and frame.get("type") == "ok",
                f"reply={frame}",
            )
        finally:
            sock.close()

        # 5. A submit with no source.
        sock = _raw_client(server)
        try:
            send_message(sock, {"op": "submit"})
            frame = recv_message(sock)
            report.expect(
                "sourceless_submit_rejected",
                bool(frame) and frame.get("code") == "bad-request",
                f"reply={frame}",
            )
        finally:
            sock.close()

        counters = dict(server.telemetry.counters)
        report.expect(
            "malformed_counted_exactly",
            counters.get("serve.malformed_frame", 0) == 3,
            f"serve.malformed_frame={counters.get('serve.malformed_frame', 0)}",
        )
        _daemon_healthy(report, server)


def _scenario_connection_flood(report: ScenarioReport, tmp: str) -> None:
    """More submits than capacity: excess shed, backlog bounded, every
    admitted client answered once the prover catches up."""
    entered = threading.Event()
    gate = threading.Event()
    max_queued = 4

    def hold(batch: List[object]) -> None:
        entered.set()
        gate.wait(timeout=60)

    def accounted() -> int:
        stats = server.admission.stats()
        return (server.admission.inflight
                + stats["shed_capacity"] + stats["shed_session"])

    with _daemon(tmp, max_queued=max_queued,
                 session_inflight=2) as server:
        server.batch_hook = hold
        # The first client's batch reaches the prover and is held there;
        # its admission ticket stays taken for the whole flood.
        first = _raw_client(server)
        send_message(first, {"op": "submit", "source": car.SOURCE,
                             "stream": False})
        report.expect("prover_reached", entered.wait(timeout=30),
                      "the first submission never reached the prover")

        # Flood sequentially — each submit is admitted or shed before
        # the next is sent, so the arithmetic is exact: with the first
        # client holding one of ``max_queued`` slots, floods 1–3 are
        # admitted and floods 4–8 are shed.
        flood = [_raw_client(server) for _ in range(8)]
        try:
            sequenced = True
            for index, sock in enumerate(flood):
                send_message(sock, {"op": "submit", "source": car.SOURCE,
                                    "stream": False})
                expected = index + 2  # first client + floods 0..index
                sequenced &= _wait_until(
                    lambda: accounted() >= expected, timeout=10,
                )
            report.expect("flood_sequenced", sequenced,
                          "a flood submit was never accounted for")
            admitted_socks = flood[:max_queued - 1]
            shed_socks = flood[max_queued - 1:]
            admission = server.admission.stats()
            report.expect(
                "admitted_exactly_capacity",
                server.admission.inflight == max_queued,
                f"inflight={server.admission.inflight}",
            )
            report.expect(
                "shed_exactly_overflow",
                admission["shed_capacity"] + admission["shed_session"]
                == len(shed_socks),
                f"shed={admission}",
            )
            report.expect(
                "backlog_bounded",
                server._submissions.qsize() <= max_queued,
                f"qsize={server._submissions.qsize()}",
            )

            # Shed sockets already hold their terminal overloaded frame
            # (delivered while the prover was still blocked — sheds are
            # immediate, not queued behind the backlog).
            shed_frames = 0
            hinted = 0
            for sock in shed_socks:
                sock.settimeout(30)
                frame = recv_message(sock)
                if frame and frame.get("code") == "overloaded":
                    shed_frames += 1
                    hint = frame.get("retry_after_ms")
                    if isinstance(hint, int) and hint > 0:
                        hinted += 1
                else:
                    report.expect("unexpected_flood_frame", False,
                                  f"frame={frame}")
                sock.close()
            report.expect("shed_clients_got_overloaded_frame",
                          shed_frames == len(shed_socks),
                          f"got {shed_frames}")
            report.expect("shed_frames_carry_retry_hint",
                          hinted == shed_frames,
                          f"{hinted}/{shed_frames} carried hints")

            # Connections that vanish without ever sending a frame.
            for _ in range(3):
                _abort_connection(_raw_client(server))

            # Release the prover; every admitted client must now get a
            # terminal verdict.
            gate.set()
            server.batch_hook = None
            verdicts = 0
            for sock in [first] + admitted_socks:
                sock.settimeout(600)
                frame = recv_message(sock)
                if frame and frame.get("type") == "verdict":
                    verdicts += 1
                else:
                    report.expect("admitted_client_answered", False,
                                  f"frame={frame}")
                sock.close()
            report.expect("admitted_all_answered",
                          verdicts == 1 + len(admitted_socks),
                          f"{verdicts} verdicts for "
                          f"{1 + len(admitted_socks)} admitted clients")
        finally:
            gate.set()
            for sock in [first] + flood:
                with contextlib.suppress(OSError):
                    sock.close()
        _daemon_healthy(report, server)


# -- the sweep ---------------------------------------------------------------


def run_chaos_serve(scenarios: Optional[Sequence[str]] = None,
                    seed: int = 0) -> ChaosServeReport:
    """Run the selected scenarios (all five by default), each against a
    freshly booted daemon, and return the sweep report."""
    names = list(scenarios) if scenarios else list(SCENARIO_NAMES)
    unknown = [name for name in names if name not in SCENARIO_NAMES]
    if unknown:
        raise ValueError(
            f"unknown scenario(s) {unknown}; "
            f"choose from {', '.join(SCENARIO_NAMES)}"
        )
    report = ChaosServeReport(seed=seed)
    for name in names:
        scenario_seed = derive_seed(seed, "chaos-serve", name)
        scenario = ScenarioReport(name=name, seed=scenario_seed)
        tmp = tempfile.mkdtemp(prefix=f"chaos-serve-{name}-")
        try:
            if name == "deadline":
                _scenario_deadline(scenario, tmp)
            elif name == "disk-full-store":
                _scenario_disk_full_store(scenario, tmp)
            elif name == "client-disconnect":
                _scenario_client_disconnect(scenario, tmp)
            elif name == "malformed-frame":
                _scenario_malformed_frame(scenario, tmp, scenario_seed)
            elif name == "connection-flood":
                _scenario_connection_flood(scenario, tmp)
        except Exception as error:  # noqa: BLE001 — a crash is a failure
            scenario.expect("scenario_completed", False,
                            f"{type(error).__name__}: {error}")
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        obs.incr(f"chaos_serve.{'ok' if scenario.ok else 'failed'}")
        obs.event("chaos_serve.scenario", name=name, ok=scenario.ok)
        report.scenarios.append(scenario)
    return report


def render_chaos_serve(report: ChaosServeReport) -> str:
    """The sweep as a fixed-width text table (deterministic)."""
    lines = [
        f"chaos-serve sweep  seed={report.seed}  "
        f"scenarios={len(report.scenarios)}",
        f"{'scenario':<20} {'checks':>6} {'failed':>6}  verdict",
        "-" * 56,
    ]
    for scenario in report.scenarios:
        verdict = "ok" if scenario.ok else "FAILED"
        lines.append(
            f"{scenario.name:<20} {len(scenario.checks):>6} "
            f"{len(scenario.failures):>6}  {verdict}"
        )
        for failure in scenario.failures:
            lines.append(f"    ! {failure}")
    lines.append("-" * 56)
    lines.append("sweep: " + ("all scenarios held"
                              if report.ok else "FAILURES"))
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:  # pragma: no cover
    """Standalone entry (also reachable as ``repro chaos-serve``)."""
    import argparse
    import sys

    parser = argparse.ArgumentParser(
        prog="repro-chaos-serve",
        description="fault-inject a live serve daemon",
    )
    parser.add_argument("--scenarios", default="all",
                        help="comma-separated scenario names (or 'all')")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--report-out", metavar="FILE", default=None)
    parser.add_argument("--json", action="store_true")
    args = parser.parse_args(argv)
    names = (None if args.scenarios == "all"
             else [n.strip() for n in args.scenarios.split(",")
                   if n.strip()])
    try:
        report = run_chaos_serve(names, seed=args.seed)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    payload = report.to_dict()
    if args.report_out:
        with open(args.report_out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(render_chaos_serve(report))
    return 0 if report.ok else 1


if __name__ == "__main__":  # pragma: no cover
    import sys

    sys.exit(main())
