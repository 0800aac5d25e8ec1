"""The ``serve-edit`` workload: the edit-verify loop through the daemon.

A ``repro serve --store`` daemon runs in its own process, started by the
benchmark's launcher (``perfbench/daemon.py``).  This process drives it
through two connections, one session each, as a closed loop with zero
think time: a session sends its next submit as soon as its previous
verdict arrives.  Two is the core count of the machine the benchmark
was written on.  The sessions submit the seeded edit streams of
:mod:`perfbench.edits`, in rounds of one submit per kernel each; they
meet between rounds, while the load generator takes a host probe.  An
operation is one submit.
"""

from __future__ import annotations

import contextlib
import json
import os
import socket
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.serve.client import ServeClient, ServeError

from . import edits, host, kernels, layers
from .common import (
    ColdReference, Outcome, disagreement, median, p90, peak_rss_mb,
)

ROOT = Path(__file__).resolve().parent.parent
#: Set-ups per run; ``setup_s`` reports their median.
SETUP_REPS = 5
#: Socket timeout of every client call; a slower submit fails.
CLIENT_TIMEOUT_S = 120.0
#: How long a daemon may take to answer ``ping`` after it starts.
BOOT_TIMEOUT_S = 60.0
#: The phases of a verdict's latency breakdown; they sum to total_ms.
PHASES = ("admission_ms", "queue_ms", "verify_ms", "fanout_ms")
#: Submits a run needs for ten of them to lie beyond the p90.
MIN_SUBMITS = 100

class Daemon:
    """One ``repro serve --store`` process, started by the launcher; its
    store is ``store``, else one of its own."""

    def __init__(self, directory: Path, traced: bool,
                 store: Optional[Path] = None) -> None:
        directory.mkdir(parents=True)
        self.store = store or directory / "store"
        self.trace_out = directory / "spans.json" if traced else None
        self.address: Optional[Tuple[str, int]] = None
        address_file = directory / "address"
        command = [sys.executable, str(ROOT / "perfbench" / "daemon.py"),
                   "--store", str(self.store),
                   "--port-file", str(address_file)]
        if self.trace_out is not None:
            command += ["--trace-out", str(self.trace_out)]
        # The daemon runs with its defaults, whatever REPRO_* settings
        # the caller's environment holds, and keeps its files here.
        env = {key: value for key, value in os.environ.items()
               if not key.startswith("REPRO_")}
        env["TMPDIR"] = str(directory)
        self._log = open(directory / "daemon.log", "wb")
        self.process = subprocess.Popen(
            command, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
            stdout=self._log, stderr=subprocess.STDOUT,
        )
        try:
            self.address = self._boot(address_file)
        except BaseException:
            self.stop()
            raise

    def _boot(self, address_file: Path) -> Tuple[str, int]:
        """Wait for the daemon's address, then for its ``ping``."""
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"the daemon exited with status "
                    f"{self.process.returncode} while booting")
            if address_file.exists():
                host, _, port = address_file.read_text(
                    encoding="utf-8").strip().rpartition(":")
                address = (host, int(port))
                with ServeClient(address, timeout=BOOT_TIMEOUT_S) as client:
                    if client.ping():
                        return address
            time.sleep(0.002)
        raise RuntimeError(
            f"the daemon did not answer ping within {BOOT_TIMEOUT_S:g}s")

    def client(self) -> ServeClient:
        """A new connection, hence a new session; a shed submit fails
        instead of being retried."""
        return ServeClient(self.address, timeout=CLIENT_TIMEOUT_S,
                           overload_retries=0)

    def stats(self) -> dict:
        """The daemon's ``stats`` frame."""
        with self.client() as client:
            return client.stats()

    def stop(self) -> None:
        """Shut the daemon down and wait for it to end; kill it if it
        hangs."""
        if self.process.poll() is None:
            try:
                if self.address is None:
                    self.process.terminate()
                else:
                    with ServeClient(self.address, timeout=10) as client:
                        client.shutdown()
            except (OSError, ServeError):
                self.process.terminate()
            # Closing its listener does not wake the daemon's thread
            # blocked in accept(), so the daemon would wait out a 10 s
            # join before it exits; a connection made once it is
            # stopping wakes it.
            deadline = time.monotonic() + 30
            while (self.process.poll() is None
                   and time.monotonic() < deadline):
                if self.address is not None:
                    with contextlib.suppress(OSError):
                        socket.create_connection(self.address, 1).close()
                with contextlib.suppress(subprocess.TimeoutExpired):
                    self.process.wait(timeout=0.1)
            if self.process.poll() is None:
                self.process.kill()
                self.process.wait()
        self._log.close()


@dataclass
class Sample:
    """One submit as its session saw it."""

    session: int
    submission: edits.Submission
    sent: float
    done: float
    #: the verdict fields the checks read; ``None`` when it failed
    verdict: Optional[dict]
    error: Optional[str] = None

    @property
    def latency_ms(self) -> float:
        return 1000.0 * (self.done - self.sent)


def _trim(frame: dict) -> dict:
    """The fields of a verdict frame that the checks and metrics read."""
    return {
        "submit_id": frame.get("submit_id"),
        "results": {r["property"]: (r["status"], r["derivation_key"])
                    for r in frame["report"]["results"]},
        "breakdown": frame["breakdown"],
        "coalesced": frame.get("coalesced", 1),
        "degraded": bool(frame.get("degraded")),
    }


Base = Tuple[str, Optional[dict], Optional[str]]


def _submit_bases(daemon: Daemon, sources: Dict[str, str]) -> List[Base]:
    """One submit of each base kernel, in one session."""
    out: List[Base] = []
    with daemon.client() as client:
        client.hello()
        for kernel in kernels.PAPER_KERNELS:
            try:
                out.append((kernel, _trim(client.submit(sources[kernel])),
                            None))
            except ServeError as failure:
                out.append((kernel, None, f"{failure.code}: {failure}"))
    return out


class _Rounds:
    """Where the sessions meet before the first round and after each.

    The last session to arrive takes a host probe while the daemon
    idles (a probe while it verifies would share the cores with it and
    measure how busy it keeps them), and ends the loop once its time is
    up.  So ``yardstick.probes[r]`` is taken just before round ``r`` and
    ``yardstick.probes[r + 1]`` just after it."""

    def __init__(self, seconds: float) -> None:
        self.yardstick = host.Yardstick()
        self._seconds = seconds
        self._started: Optional[float] = None
        self._stop = False
        self._barrier = threading.Barrier(edits.SESSIONS,
                                          action=self._between)

    def _between(self) -> None:
        self.yardstick.mark()
        now = time.perf_counter()
        if self._started is None:
            self._started = now
        elif now - self._started >= self._seconds:
            self._stop = True

    def wait(self) -> bool:
        """Meet the other sessions; whether to go on with a round."""
        try:
            self._barrier.wait(timeout=BOOT_TIMEOUT_S + CLIENT_TIMEOUT_S)
        except threading.BrokenBarrierError:
            return False
        return not self._stop

    def abort(self) -> None:
        """Release the other sessions: this one stops."""
        self._barrier.abort()


def _session(index: int, daemon: Daemon, stream, rounds: _Rounds,
             samples: List[Sample], errors: List[str]) -> None:
    """One session of the closed loop: submit, wait for the verdict,
    repeat, meeting the other session after each round, until the run's
    time is up."""
    width = len(kernels.PAPER_KERNELS)
    try:
        with daemon.client() as client:
            client.hello()
            if not rounds.wait():
                return
            for submission in stream:
                sent = time.perf_counter()
                verdict = error = code = None
                try:
                    verdict = _trim(client.submit(submission.source))
                except ServeError as failure:
                    error, code = f"{failure.code}: {failure}", failure.code
                samples.append(Sample(index, submission, sent,
                                      time.perf_counter(), verdict, error))
                if code in ("timeout", "connection-closed"):
                    rounds.abort()
                    return  # the connection is no longer usable
                if (submission.position % width == width - 1
                        and not rounds.wait()):
                    return
    except Exception:  # noqa: BLE001 - reported as a failed operation
        rounds.abort()
        errors.append(f"session {index}: {traceback.format_exc(limit=4)}")


@dataclass
class Loop:
    """One closed loop: its samples in send order, the host probes
    around its rounds, and the failures outside a submit."""

    samples: List[Sample]
    yardstick: host.Yardstick
    errors: List[str]

    def scaled(self, sample: Sample, value: float) -> float:
        """``value``, measured in ``sample``'s round, scaled by the
        probes around the round."""
        index = sample.submission.position // len(kernels.PAPER_KERNELS)
        return self.yardstick.scale(value,
                                    self.yardstick.probes[index:index + 2])


def _closed_loop(daemon: Daemon, seed: int, sources: Dict[str, str],
                 seconds: float) -> Loop:
    """Both sessions, in rounds, until ``seconds`` have passed."""
    rounds = _Rounds(seconds)
    per_session: List[List[Sample]] = [[] for _ in range(edits.SESSIONS)]
    errors: List[str] = []
    threads = [
        threading.Thread(
            target=_session, name=f"perfbench-session-{index}",
            daemon=True,
            args=(index, daemon, edits.stream(seed, index, sources),
                  rounds, per_session[index], errors),
        )
        for index in range(edits.SESSIONS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(BOOT_TIMEOUT_S + seconds + 2 * CLIENT_TIMEOUT_S)
        if thread.is_alive():
            errors.append(f"{thread.name} did not finish")
    samples = sorted((s for mine in per_session for s in mine),
                     key=lambda s: s.sent)
    return Loop(samples, rounds.yardstick, errors)


def _problem(sample: Sample, reference: ColdReference) -> Optional[str]:
    """Why a submit fails the checks, or ``None``."""
    if sample.verdict is None:
        return sample.error
    verdict = sample.verdict
    if verdict["degraded"]:
        return "a degraded verdict: the circuit breaker was open"
    problem = disagreement(verdict["results"],
                           reference(sample.submission.source),
                           sample.submission.edit.breaks)
    if problem is not None:
        return problem
    breakdown = verdict["breakdown"]
    phases = sum(breakdown[phase] for phase in PHASES)
    if abs(phases - breakdown["total_ms"]) > 0.01:
        return (f"breakdown phases sum to {phases:.3f} ms, not to "
                f"total_ms {breakdown['total_ms']:.3f}")
    if sample.latency_ms + 0.01 < breakdown["total_ms"]:
        return (f"client latency {sample.latency_ms:.3f} ms is below "
                f"total_ms {breakdown['total_ms']:.3f}")
    return None


def _check(outcome: Outcome, reference: ColdReference,
           sources: Dict[str, str], bases: List[Base],
           samples: List[Sample], errors: List[str]) -> None:
    """The correctness gate over every base submit and timed submit."""
    for kernel, verdict, error in bases:
        problem = error if verdict is None else disagreement(
            verdict["results"], reference(sources[kernel]))
        outcome.check(problem, f"base submit of {kernel}")
    for sample in samples:
        edit = sample.submission.edit
        outcome.check(_problem(sample, reference),
                      f"submit {sample.submission.position} of session "
                      f"{sample.session} ({edit.kernel}/{edit.site})")
    for error in errors:
        outcome.check(error, "session")


def _answered(samples: List[Sample]) -> List[Sample]:
    answered = [s for s in samples if s.verdict is not None]
    if not answered:
        raise RuntimeError("no submit of the closed loop was answered")
    return answered


def _scaled_latencies(loop: Loop) -> List[float]:
    """Every answered submit's latency, in ms, scaled by its round's
    probes."""
    return [loop.scaled(s, s.latency_ms) for s in _answered(loop.samples)]


def _end_to_end(loop: Loop) -> Tuple[Dict[str, float], int]:
    """``verify_s`` and the submit metrics of one closed loop, scaled,
    and how many complete rounds it ran.  A round is both sessions'
    submits of the seven kernels, from the first send to the last
    verdict; ``verify_s`` is the mean round, because rounds differ in
    content (resubmits, breaking edits) and their median would pick
    content as much as speed."""
    answered = _answered(loop.samples)
    width = len(kernels.PAPER_KERNELS)
    rounds: Dict[int, List[Sample]] = {}
    for s in answered:
        rounds.setdefault(s.submission.position // width, []).append(s)
    round_s = [
        loop.scaled(r[0], max(s.done for s in r) - min(s.sent for s in r))
        for r in rounds.values() if len(r) == width * edits.SESSIONS
    ]
    if not round_s:
        raise RuntimeError("the closed loop completed no round")
    latencies = _scaled_latencies(loop)
    return {
        "verify_s": sum(round_s) / len(round_s),
        "submit_ms_p50": median(latencies),
        "submit_ms_p90": p90(latencies),
        "submits_per_s": width * edits.SESSIONS * len(round_s)
                         / sum(round_s),
    }, len(round_s)


def _details(samples: List[Sample], rounds: int) -> List[str]:
    answered = _answered(samples)
    lines = [
        f"{len(answered)} submits answered in {rounds} complete "
        f"rounds; {sum(s.submission.resubmit for s in samples)} "
        f"resubmits, "
        f"{sum(s.submission.edit.breaks is not None for s in samples)} "
        f"breaking edits, "
        f"{sum(s.verdict['coalesced'] > 1 for s in answered)} coalesced",
    ]
    if len(answered) < MIN_SUBMITS:
        lines.append(f"fewer than {MIN_SUBMITS} submits: fewer than ten "
                     f"lie beyond the p90")
    for kernel in kernels.PAPER_KERNELS:
        mine = [s.latency_ms for s in answered
                if s.submission.kernel == kernel]
        if mine:
            lines.append(f"kernel.{kernel}.submit_ms {median(mine):.3f}")
    return lines


def run(workload: str, seed: int, seconds: float, traced: bool,
        work: Path) -> Outcome:
    """One run of ``serve-edit``.

    A first daemon, untimed, fills the store with the base kernels'
    proofs, for the reason ``perfbench.verify`` gives for not timing a
    store fill.  Each set-up then boots a daemon on that store and
    submits every base kernel once, answered from the store; the last
    of them serves the loop.  Times are scaled by the host probes
    (:mod:`perfbench.host`) on either side of the set-up or round they
    fall in."""
    outcome = Outcome()
    sources = kernels.sources(kernels.PAPER_KERNELS)
    reference = ColdReference()
    yardstick = host.Yardstick()
    store = work / "store"
    daemons: List[Daemon] = []
    try:
        started = time.perf_counter()
        daemons.append(Daemon(work / "daemon-fill", traced=False,
                              store=store))
        bases = _submit_bases(daemons[-1], sources)
        fill_s = time.perf_counter() - started
        setups: List[float] = []
        raw_setups: List[float] = []
        for rep in range(SETUP_REPS):
            daemons[-1].stop()
            before = yardstick.mark()
            started = time.perf_counter()
            daemons.append(Daemon(work / f"daemon-{rep}", traced=False,
                                  store=store))
            bases.extend(_submit_bases(daemons[-1], sources))
            raw_setups.append(time.perf_counter() - started)
            setups.append(yardstick.scale(raw_setups[-1],
                                          (before, yardstick.mark())))
        loop = _closed_loop(daemons[-1], seed, sources, seconds)
        peak_rss = peak_rss_mb(daemons[-1].process.pid)
        daemons[-1].stop()
        _check(outcome, reference, sources, bases, loop.samples,
               loop.errors)
        metrics, rounds = _end_to_end(loop)
        outcome.metrics.update(metrics)
        outcome.metrics["setup_s"] = median(setups)
        outcome.metrics["peak_rss_mb"] = peak_rss
        latencies = [s.latency_ms for s in _answered(loop.samples)]
        outcome.details.append(
            f"as measured: submit p50 {median(latencies):.3f}ms, p90 "
            f"{p90(latencies):.3f}ms, set-ups "
            + ", ".join(f"{s:.3f}s" for s in raw_setups)
            + f", untimed store fill {fill_s:.3f}s")
        outcome.details.append("set-up " + yardstick.detail())
        outcome.details.append("loop " + loop.yardstick.detail())
        outcome.details.extend(_details(loop.samples, rounds))
        if traced:
            daemons.append(Daemon(work / "daemon-traced", traced=True))
            _traced(outcome, daemons[-1], seed, sources, seconds,
                    reference, metrics["submit_ms_p50"], work)
    finally:
        for daemon in daemons:
            daemon.stop()
    return outcome


def _traced(outcome: Outcome, daemon: Daemon, seed: int,
            sources: Dict[str, str], seconds: float,
            reference: ColdReference, untraced_p50: float,
            work: Path) -> None:
    """The same loop against a daemon with the layer wrappers
    installed, reported per submit.  Its median submit is scaled like
    ``untraced_p50``, so that the tracing overhead does not take in how
    the host drifted between the two loops."""
    bases = _submit_bases(daemon, sources)
    before = daemon.stats()
    loop = _closed_loop(daemon, seed, sources, seconds)
    after = daemon.stats()
    size = layers.store_bytes(daemon.store)
    daemon.stop()
    _check(outcome, reference, sources, bases, loop.samples, loop.errors)
    spans = work.parent / "spans-serve-edit.json"
    os.replace(daemon.trace_out, spans)
    rows = json.loads(spans.read_text(encoding="utf-8"))["rows"]
    answered = _answered(loop.samples)
    timed = {s.verdict["submit_id"] for s in answered}

    def keep(tag: Optional[str]) -> bool:
        return tag is not None and any(part in timed
                                       for part in tag.split(","))

    def phase_ms(name: str) -> float:
        return median([s.verdict["breakdown"][name] for s in answered])

    metrics, layered, rooted = layers.summarize(rows, len(answered), keep)
    submitted = after["submissions"] - before["submissions"]
    metrics.update({
        "symbolic.intern_terms": after["governor"]["intern_terms"],
        "store.bytes": size,
        "serve.admission_ms": phase_ms("admission_ms"),
        "serve.queue_ms": phase_ms("queue_ms"),
        "serve.verify_ms": phase_ms("verify_ms"),
        "serve.fanout_ms": phase_ms("fanout_ms"),
        "serve.wire_ms": median([
            s.latency_ms - s.verdict["breakdown"]["total_ms"]
            for s in answered
        ]),
        "serve.coalesced_share":
            (after["coalesced"] - before["coalesced"]) / submitted,
        "serve.submits_per_batch":
            submitted / (after["batches"] - before["batches"]),
        "serve.collections": after["governor"]["generation"],
    })
    metrics.update(layers.overhead_metrics(
        median(_scaled_latencies(loop)), untraced_p50))
    outcome.metrics.update(metrics)
    wall = max(s.done for s in answered) - min(s.sent for s in answered)
    outcome.problems.extend(layers.check_problems(
        "serve-edit", metrics, layered, rooted, wall))
    outcome.details.append(f"traced: {len(answered)} submits answered")
