"""Process-pool fan-out for ``Verifier.verify_all(jobs=N)``.

Task granularity follows the pipeline's obligations: each trace property
is one task; each NI property fans out into its base obligation plus one
task per exchange, assembled (in canonical exchange order) by the parent
and validated by a final coverage-check task.  Every worker hosts one
:class:`~repro.prover.engine.Verifier` built in the pool initializer, so
the symbolic :class:`~repro.symbolic.behabs.GenericStep` is computed
once per worker and shared by all tasks that land there; a configured
proof store is likewise shared (its writes are atomic).

Determinism: each task computes exactly what the serial engine computes
for the same obligation, and the parent reassembles NI verdicts in the
serial order, so verdicts, derivations and derivation keys are identical
to a serial run — asserted by the differential tests.

Each task runs under its own telemetry sink (enabling whatever trace /
metrics / event-log subsystems the parent's sink enables — see
:mod:`repro.obs`); its exported snapshot travels back with the task
result and is folded into the parent's active sink with
:meth:`~repro.obs.Telemetry.merge_export`, which normalizes worker clock
offsets — for the *winning* attempt only (an attempt killed by the
timeout watchdog never returns a sink).  The one-off symbolic step build
is kept out of task sinks entirely: each worker captures its build under
a private sink (:func:`_instrumented_step`), ships it alongside every
result, and the parent merges exactly one copy per run — so totals match
a serial run even when retry generations rebuild pools and workers.

Robustness: a hung obligation (``ProverOptions.task_timeout``) or a
worker killed mid-task can no longer wedge ``verify_all`` — the parent
abandons the poisoned pool, rebuilds it, and retries the unresolved
tasks up to ``ProverOptions.task_retries`` times; a task that keeps
failing becomes a *diagnostic failure verdict* on its property rather
than an exception or a hang.  ``ProverOptions.deadline`` bounds the
whole run: once the absolute deadline passes, every task still in
flight is condemned (no retries — the budget is gone) with
:data:`~repro.prover.engine.DEADLINE_MESSAGE` in its diagnostic, so
callers always get a *partial* report rather than a late one.

Hygiene for long-lived parents (the serve daemon): the pool is
*recycled* — drained gracefully and rebuilt fresh — after
``ProverOptions.pool_recycle_tasks`` completed tasks, or as soon as any
worker reports a peak RSS above ``ProverOptions.worker_rss_limit_mb``,
bounding per-worker memory growth across thousands of verifications.

Chaos instrumentation (inert unless the ``REPRO_CHAOS_TASK_*``
environment variables are set — see :mod:`repro.harness.chaos_serve`):
workers can be told to SIGKILL themselves or hang at the start of a
matching task, exactly once across the pool, to exercise these
robustness paths from the outside.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import pickle
import signal
import sys
import threading
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    ProcessPoolExecutor,
    wait,
)
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .. import obs
from ..lang.errors import ProofSearchFailure
from ..props.spec import NonInterference, SpecifiedProgram
from .ni import NIProof, PathVerdict

#: The worker-global verifier, built once per process by :func:`_init_worker`.
_WORKER = None

#: Exported sink of this worker's one-off symbolic step build, captured
#: outside any task sink; the parent merges exactly one worker's copy.
_STEP_TELEMETRY = None

#: Observability configuration inherited from the parent sink (which
#: subsystems its task sinks should enable, and the shared run id).
_OBS_CONFIG = None

#: The hot obligation results seeded from the parent's arena snapshot
#: (key → (kind, payload)); lets ``ni-part`` tasks ship a key reference
#: back instead of re-pickling the verdict payload.
_ARENA_RESULTS: Dict[str, tuple] = {}


def _init_worker(payload: bytes,
                 obs_config: Optional[dict] = None,
                 arena_ref: Optional[tuple] = None) -> None:
    """Pool initializer: build this worker's Verifier from the pickled
    ``(spec, options)`` pair, on a fresh intern table (terms unpickled
    from the payload re-intern into it) with the symbolic caches set per
    ``options.term_cache``; remember the parent's observability config
    for the per-task sinks.

    With ``arena_ref`` the worker attaches the parent's shared arena
    (see :mod:`repro.prover.shared`) and seeds its compiled plan from
    the snapshot — symbolic step and hot obligation results — instead
    of re-deriving them; any attach or decode failure silently degrades
    to the legacy rebuild."""
    global _WORKER, _STEP_TELEMETRY, _OBS_CONFIG, _ARENA_RESULTS
    from ..symbolic import cache as symcache
    from ..symbolic import solver as symsolver
    from ..symbolic.expr import reset_interning
    from .engine import Verifier

    reset_interning()
    symcache.clear_all()
    spec, options = pickle.loads(payload)
    symcache.set_enabled(getattr(options, "term_cache", True))
    symsolver.set_prefix_enabled(
        getattr(options, "compile_plans", True)
    )
    _WORKER = Verifier(spec, options)
    _STEP_TELEMETRY = None
    _OBS_CONFIG = obs_config
    _ARENA_RESULTS = {}
    if arena_ref is not None:
        _attach_arena(arena_ref)
    # Route the verifier's step accessor through the instrumented build so
    # its one-off cost lands in _STEP_TELEMETRY, not in some task's sink.
    _WORKER.generic_step = _instrumented_step


def _attach_arena(arena_ref: tuple) -> None:
    """Seed this worker from the parent's arena snapshot (best effort).

    Unpickling re-interns every term of the snapshot into this worker's
    fresh intern table; the digest guard makes a stale or foreign arena
    a no-op rather than a wrong answer."""
    global _ARENA_RESULTS
    from . import shared

    try:
        snapshot = pickle.loads(shared.load(arena_ref))
        digest = snapshot["digest"]
        step = snapshot["step"]
        results = dict(snapshot.get("results") or {})
    except Exception:  # noqa: BLE001 - arena is an optimization only
        return
    if digest != _WORKER.program_digest():
        return
    _WORKER._step_cache = step
    plan = _WORKER.compiled_plan()
    plan.seed_step(step)
    if results:
        plan.seed_results(results)
        _ARENA_RESULTS = results
        # Tasks run under per-task telemetry sinks, which would
        # normally suppress hot-result serving; the arena seed is
        # explicitly sanctioned by the parent.
        _WORKER._hot_results_override = True


def _task_sink() -> "obs.Telemetry":
    """A fresh sink for one task, enabling whatever subsystems the
    parent sink enabled and attributed to this worker process."""
    cfg = _OBS_CONFIG or {}
    return obs.Telemetry(
        trace=bool(cfg.get("trace")),
        metrics=bool(cfg.get("metrics")),
        events=bool(cfg.get("events")),
        run_id=cfg.get("run_id"),
        tags=cfg.get("tags"),
        worker=f"w{os.getpid()}",
    )


def _instrumented_step():
    """The worker's :meth:`Verifier.generic_step`, with the first (memoized)
    build captured under a private telemetry sink.

    Without this, the build lands inside whichever task happens to run
    first on each worker — and since every retry generation spawns fresh
    workers, the parent's merged counters would double-count it (once per
    worker per generation) relative to a serial run.
    """
    global _STEP_TELEMETRY
    from .engine import Verifier

    if _WORKER.options.memoize_step and _WORKER._step_cache is None:
        build_sink = _task_sink()
        with obs.use(build_sink):
            step = Verifier.generic_step(_WORKER)
        _STEP_TELEMETRY = build_sink.export()
        return step
    return Verifier.generic_step(_WORKER)


def _execute(task: tuple) -> tuple:
    """Run one task against the worker-global verifier."""
    kind = task[0]
    if kind == "prop":
        index = task[1]
        return ("result", _WORKER.prove_property(
            _WORKER.spec.properties[index]
        ))
    if kind == "ni-part":
        index, part = task[1], task[2]
        prop = _WORKER.spec.properties[index]
        start = time.perf_counter()
        try:
            payload, from_store = _WORKER.ni_part(prop, part)
        except ProofSearchFailure as failure:
            return ("fail", str(failure), time.perf_counter() - start)
        if _ARENA_RESULTS:
            # Ship a verdict summary instead of re-pickling the payload
            # when the parent's arena already holds the identical one.
            key = _WORKER.keys.obligation_key(prop, part)
            hit = _ARENA_RESULTS.get(key)
            if hit is not None and hit[1] == payload:
                return ("okref", key, from_store,
                        time.perf_counter() - start)
        return ("ok", payload, from_store, time.perf_counter() - start)
    if kind == "ni-check":
        index, proof = task[1], task[2]
        start = time.perf_counter()
        complaints = tuple(_WORKER.check_ni_derivation(proof))
        return ("checked", complaints, time.perf_counter() - start)
    raise ValueError(f"unknown task {task!r}")


def _maybe_inject_chaos(task: tuple) -> None:
    """Service-level fault injection (chaos harness only).

    ``REPRO_CHAOS_TASK_FAULT`` names the fault (``sigkill`` — the worker
    kills itself with SIGKILL, as an OOM killer would; ``hang`` — the
    task sleeps ``REPRO_CHAOS_TASK_SECONDS``, default effectively
    forever).  ``REPRO_CHAOS_TASK_MATCH`` restricts it to tasks whose
    label contains the substring; ``REPRO_CHAOS_TASK_LATCH`` names a
    file created with ``O_CREAT|O_EXCL`` so the fault fires exactly once
    across every process of the pool (and across retry generations).
    Without the environment variables this is a no-op.
    """
    fault = os.environ.get("REPRO_CHAOS_TASK_FAULT")
    if not fault:
        return
    match = os.environ.get("REPRO_CHAOS_TASK_MATCH")
    if match and (_WORKER is None
                  or match not in _task_label(_WORKER.spec, task)):
        return
    latch = os.environ.get("REPRO_CHAOS_TASK_LATCH")
    if latch:
        try:
            os.close(os.open(latch, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
        except OSError:
            return  # latch already taken (or unwritable): fault spent
    if fault == "sigkill":
        os.kill(os.getpid(), signal.SIGKILL)
    elif fault == "hang":
        time.sleep(float(os.environ.get("REPRO_CHAOS_TASK_SECONDS",
                                        "3600")))


def _worker_rss_mb() -> float:
    """This process's peak RSS in MiB (0.0 when unreadable).

    ``ru_maxrss`` is KiB on Linux, bytes on macOS."""
    try:
        import resource

        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    except Exception:  # noqa: BLE001 - telemetry only, never fatal
        return 0.0
    if sys.platform == "darwin":  # pragma: no cover - linux CI
        return peak / (1024.0 * 1024.0)
    return peak / 1024.0


def _run_task(task: tuple) -> tuple:
    """Task entry point: execute under a private telemetry sink and ship
    its :meth:`~repro.obs.Telemetry.export` snapshot back for the parent
    to merge, along with this worker's (separately captured) step-build
    telemetry, the wall-clock start (for the queue-wait metric), and the
    worker's peak RSS (for the parent's pool-recycling policy)."""
    _maybe_inject_chaos(task)
    telemetry = _task_sink()
    start_wall = time.time()
    with obs.use(telemetry):
        with obs.span("parallel.task", kind=task[0]):
            outcome = _execute(task)
    return (task, outcome, telemetry.export(), _STEP_TELEMETRY,
            start_wall, _worker_rss_mb())


def _forking_is_risky() -> bool:
    """Whether forking from this process can deadlock the children.

    ``fork`` snapshots every lock in whatever state some *other* thread
    holds it — a child forked from a multi-threaded parent (the serve
    daemon's prover thread, any embedding application) can inherit a
    locked allocator or logging lock with no thread left to release it,
    and leaks the parent's descriptors besides.  The tell is the caller:
    verification fanned out from anywhere but the main thread means the
    process is running a threaded event loop of some kind.  (A global
    ``active_count()`` probe is deliberately *not* used — the pool's own
    just-shut-down executor threads would flip retry generations to
    ``spawn`` and make the choice depend on scheduler timing.)
    """
    return threading.current_thread() is not threading.main_thread()


def _pool_context():
    """Pick the pool start method.

    ``fork`` is preferred for its cheap start-up (workers share the
    already-parsed modules) but only from a single-threaded parent; in a
    threaded or daemonized process (:func:`_forking_is_risky`) the pool
    falls back to ``spawn``, which is slower to boot but immune to
    inherited-lock deadlocks — every worker rebuilds from the pickled
    ``(spec, options)`` payload either way, so results are identical.
    ``REPRO_POOL_START_METHOD`` overrides the choice outright.
    """
    override = os.environ.get("REPRO_POOL_START_METHOD")
    if override:
        try:
            return multiprocessing.get_context(override)
        except ValueError:
            pass  # unknown method name: fall through to the heuristic
    method = "spawn" if _forking_is_risky() else "fork"
    try:
        return multiprocessing.get_context(method)
    except ValueError:
        return multiprocessing.get_context()


class _NIAssembly:
    """Parent-side state for one NI property's fanned-out obligations."""

    def __init__(self, index: int,
                 parts: Sequence[Optional[Tuple[str, str]]]) -> None:
        self.index = index
        self.parts = list(parts)
        self.payloads: Dict[Optional[Tuple[str, str]], tuple] = {}
        self.failures: Dict[Optional[Tuple[str, str]], str] = {}
        self.from_store = True
        self.seconds = 0.0

    def complete(self) -> bool:
        """Have all fanned-out obligations reported back?"""
        return (len(self.payloads) + len(self.failures)
                == len(self.parts))

    def first_error(self) -> Optional[str]:
        """The first failure in canonical part order (matches the error
        the serial engine would raise), or ``None``."""
        for part in self.parts:
            if part in self.failures:
                return self.failures[part]
        return None

    def assemble(self, prop: NonInterference) -> NIProof:
        """Rebuild the NI record in serial (canonical) order."""
        base_notes = tuple(self.payloads[None])
        verdicts: List[PathVerdict] = []
        for part in self.parts:
            if part is None:
                continue
            verdicts.extend(self.payloads[part])
        return NIProof(prop, base_notes, tuple(verdicts))


def _task_label(spec, task: tuple) -> str:
    """A human-readable identity for one task, for flight-recorder
    events (``prop:name``, ``ni-part:name:base``, ``ni-check:name``)."""
    kind = task[0]
    name = spec.properties[task[1]].name
    if kind == "ni-part":
        part = task[2]
        where = "base" if part is None else f"{part[0]}=>{part[1]}"
        return f"{kind}:{name}:{where}"
    return f"{kind}:{name}"


def _abandon_pool(pool: ProcessPoolExecutor) -> None:
    """Tear down a pool whose workers can no longer be trusted: kill the
    processes outright (a hung task never returns on its own) and discard
    the executor without waiting."""
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.terminate()
        except (OSError, ValueError):  # pragma: no cover - already dead
            pass
    pool.shutdown(wait=False, cancel_futures=True)


def verify_parallel(spec: SpecifiedProgram, options, jobs: int) -> List:
    """Verify every property of ``spec`` across a pool of ``jobs``
    workers; returns per-property results in specification order.

    Tasks that hang past ``options.task_timeout`` or whose worker dies
    are retried in a fresh pool up to ``options.task_retries`` times,
    then resolved as diagnostic failure verdicts — ``verify_all`` always
    returns one result per property.
    """
    from .engine import DEADLINE_MESSAGE, PropertyResult

    timeout = getattr(options, "task_timeout", None)
    retries = max(0, getattr(options, "task_retries", 1))
    deadline = getattr(options, "deadline", None)
    recycle_tasks = getattr(options, "pool_recycle_tasks", None)
    rss_limit = getattr(options, "worker_rss_limit_mb", None)

    def deadline_expired() -> bool:
        return deadline is not None and time.monotonic() >= deadline

    exchange_parts = list(spec.program.exchange_keys())
    ids = itertools.count()
    tasks: Dict[int, tuple] = {}
    assemblies: Dict[int, _NIAssembly] = {}
    for index, prop in enumerate(spec.properties):
        if isinstance(prop, NonInterference):
            parts: List[Optional[Tuple[str, str]]] = [None]
            parts.extend(exchange_parts)
            assemblies[index] = _NIAssembly(index, parts)
            for part in parts:
                tasks[next(ids)] = ("ni-part", index, part)
            # The parent enumerates NI obligations directly (the serial
            # engine counts them inside plan_property, which workers
            # never call for NI properties) — keep the counter exact.
            obs.incr("plan.obligations", len(parts))
        else:
            tasks[next(ids)] = ("prop", index)

    telemetry = obs.active()
    obs_config = None if telemetry is None else {
        "trace": telemetry.tracer is not None,
        "metrics": telemetry.metrics is not None,
        "events": telemetry.events is not None,
        "run_id": telemetry.run_id,
        # Request-context tags (the serve daemon's submit/group ids)
        # ride along so worker spans and events stay attributable to
        # the submission that caused them.
        "tags": dict(telemetry.tags) if telemetry.tags else None,
    }
    # The one-off symbolic step build happens once per run in a serial
    # prover; merge exactly one worker's copy, across ALL generations.
    step_merged = [False]
    results: Dict[int, PropertyResult] = {}
    attempts: Dict[int, int] = {tid: 0 for tid in tasks}
    unresolved: Set[int] = set(tasks)
    payload = pickle.dumps((spec, options))
    arena, arena_results = _build_arena(spec, options, telemetry)
    arena_ref = None if arena is None else arena.ref

    def settle_assembly(index: int) -> None:
        """An NI assembly with every obligation reported: produce the
        result, or enqueue its coverage-check task."""
        finished = _finish_ni(spec, options, assemblies[index])
        if finished[0] == "result":
            results[index] = finished[1]
        else:
            tid = next(ids)
            tasks[tid] = finished[1]
            attempts[tid] = 0
            unresolved.add(tid)

    def handle_outcome(tid: int, task: tuple, outcome: tuple) -> None:
        """Fold one completed task into the parent-side state."""
        unresolved.discard(tid)
        kind = task[0]
        if kind == "prop":
            results[task[1]] = outcome[1]
        elif kind == "ni-part":
            index, part = task[1], task[2]
            assembly = assemblies[index]
            if outcome[0] == "fail":
                assembly.failures[part] = outcome[1]
                assembly.seconds += outcome[2]
            else:
                if outcome[0] == "okref":
                    # Verdict summary: the worker confirmed its payload
                    # equals the arena entry, so rehydrate locally.
                    obs.incr("parallel.arena.okref")
                    assembly.payloads[part] = arena_results[outcome[1]][1]
                else:
                    assembly.payloads[part] = outcome[1]
                assembly.from_store = (
                    assembly.from_store and outcome[2]
                )
                assembly.seconds += outcome[3]
            if assembly.complete():
                settle_assembly(index)
        elif kind == "ni-check":
            index = task[1]
            results[index] = _finalize_checked_ni(
                spec, assemblies[index], task[2], outcome
            )

    def condemn(tid: int, reason: str) -> None:
        """Out of retries: resolve the task as a diagnostic failure."""
        unresolved.discard(tid)
        task = tasks[tid]
        message = (
            f"obligation abandoned after {attempts[tid]} attempt(s): "
            f"{reason}"
        )
        if reason == DEADLINE_MESSAGE:
            # The caller's budget ran out — the backend is fine.  Kept
            # distinct from task_abandoned so the serve layer's circuit
            # breaker never mistakes an impatient client for a sick pool.
            obs.incr("parallel.task_deadline")
        else:
            obs.incr("parallel.task_abandoned")
        obs.event("task.abandoned", task=_task_label(spec, task),
                  reason=reason, attempts=attempts[tid])
        kind = task[0]
        if kind == "prop":
            index = task[1]
            results[index] = PropertyResult(
                property=spec.properties[index],
                status="failed",
                seconds=0.0,
                error=message,
            )
        elif kind == "ni-part":
            index, part = task[1], task[2]
            assembly = assemblies[index]
            assembly.failures[part] = message
            if assembly.complete():
                settle_assembly(index)
        elif kind == "ni-check":
            index = task[1]
            results[index] = PropertyResult(
                property=spec.properties[index],
                status="failed",
                seconds=assemblies[index].seconds,
                error=message,
            )

    def run_generation() -> Dict[int, str]:
        """One pool lifetime: submit every unresolved task, fold in
        completions, and stop early on a hang, a worker death, or the
        run deadline.  Returns the tasks to penalize (id → reason);
        everything else still unresolved is retried free of charge in
        the next generation.  A *recycle* trigger (completed-task or
        worker-RSS budget) ends the generation gracefully — queued
        futures are cancelled and retried, penalty-free, in a fresh
        pool."""
        penalized: Dict[int, str] = {}
        pool = ProcessPoolExecutor(
            max_workers=jobs,
            mp_context=_pool_context(),
            initializer=_init_worker,
            initargs=(payload, obs_config, arena_ref),
        )
        pending: Dict[object, int] = {}
        scheduled: Set[int] = set()
        submitted: Dict[int, float] = {}
        for tid in sorted(unresolved):
            scheduled.add(tid)
            pending[pool.submit(_run_task, tasks[tid])] = tid
            submitted[tid] = time.time()
        running_since: Dict[object, float] = {}
        broken = False
        completed = 0
        peak_rss = 0.0
        recycle_reason: Optional[str] = None
        # Always bounded, even with no task timeout: the loop must get
        # regular turns to notice a broken pool whose cleanup thread
        # died before failing every future (see the _broken check).
        poll = 0.25 if timeout is None else min(timeout / 4.0, 0.1)
        try:
            while pending:
                wait_timeout = poll
                if deadline is not None:
                    remaining = max(0.0, deadline - time.monotonic())
                    wait_timeout = (remaining if wait_timeout is None
                                    else min(wait_timeout, remaining))
                done, _ = wait(set(pending), timeout=wait_timeout,
                               return_when=FIRST_COMPLETED)
                now = time.monotonic()
                for future in pending:
                    if (future not in done and future.running()
                            and future not in running_since):
                        running_since[future] = now
                for future in done:
                    tid = pending.pop(future)
                    running_since.pop(future, None)
                    try:
                        (task, outcome, exported, step_telemetry,
                         start_wall, rss_mb) = future.result()
                    except BrokenExecutor:
                        penalized[tid] = "its worker process died"
                        obs.incr("parallel.worker_died")
                        obs.event("task.worker_died",
                                  task=_task_label(spec, tasks[tid]))
                        broken = True
                        continue
                    except Exception as error:  # noqa: BLE001
                        penalized[tid] = f"it raised {error!r}"
                        obs.event("task.error",
                                  task=_task_label(spec, tasks[tid]),
                                  error=repr(error))
                        continue
                    completed += 1
                    peak_rss = max(peak_rss, rss_mb)
                    if telemetry is not None:
                        if step_telemetry is not None and not step_merged[0]:
                            step_merged[0] = True
                            telemetry.merge_export(step_telemetry)
                        telemetry.merge_export(exported)
                        queued = submitted.get(tid)
                        if (telemetry.metrics is not None
                                and queued is not None):
                            telemetry.metrics.observe(
                                "parallel.queue_wait.seconds",
                                max(0.0, start_wall - queued),
                            )
                    handle_outcome(tid, task, outcome)
                    # a settled NI assembly may have enqueued its check
                    if recycle_reason is None:
                        for new_tid in sorted(unresolved - scheduled):
                            try:
                                future = pool.submit(
                                    _run_task, tasks[new_tid]
                                )
                            except BrokenExecutor:
                                # pool died under us: the task stays
                                # unresolved and runs next generation
                                broken = True
                                break
                            scheduled.add(new_tid)
                            pending[future] = new_tid
                            submitted[new_tid] = time.time()
                if (not broken and pending
                        and getattr(pool, "_broken", False)):
                    # The pool broke, but its management thread can die
                    # mid-cleanup without failing every future (on
                    # CPython 3.11 a cancelled work item — recycling
                    # cancels queued futures — raises InvalidStateError
                    # inside terminate_broken).  Never wait on futures
                    # that can no longer complete.
                    for future in list(pending):
                        if future.done():
                            continue
                        tid = pending.pop(future)
                        penalized[tid] = "its worker process died"
                        obs.incr("parallel.worker_died")
                        obs.event("task.worker_died",
                                  task=_task_label(spec, tasks[tid]))
                    broken = True
                if broken:
                    return penalized  # survivors retried next generation
                if deadline is not None and now >= deadline and pending:
                    # The budget is gone: condemn everything still in
                    # flight (queued or running) and kill the workers.
                    for future in list(pending):
                        tid = pending.pop(future)
                        penalized[tid] = DEADLINE_MESSAGE
                        obs.event("task.deadline",
                                  task=_task_label(spec, tasks[tid]))
                    broken = True
                    return penalized
                if timeout is not None:
                    hung = [future for future, since
                            in running_since.items()
                            if now - since >= timeout]
                    if hung:
                        for future in hung:
                            tid = pending.pop(future)
                            penalized[tid] = (
                                f"it exceeded the {timeout:g}s "
                                f"task timeout"
                            )
                            obs.event("task.timeout",
                                      task=_task_label(spec, tasks[tid]),
                                      timeout=timeout)
                        broken = True
                        return penalized
                if recycle_reason is None and completed > 0:
                    if (recycle_tasks is not None
                            and completed >= recycle_tasks):
                        recycle_reason = (
                            f"{completed} tasks >= budget {recycle_tasks}"
                        )
                    elif (rss_limit is not None
                            and peak_rss > rss_limit):
                        recycle_reason = (
                            f"worker RSS {peak_rss:.0f} MiB > "
                            f"ceiling {rss_limit:g} MiB"
                        )
                    if recycle_reason is not None:
                        obs.incr("parallel.pool_recycled")
                        obs.event("pool.recycled",
                                  reason=recycle_reason,
                                  completed=completed,
                                  peak_rss_mb=round(peak_rss, 1))
                        # Cancelled (never-started) futures run in the
                        # next generation's fresh pool; running ones
                        # finish here first.
                        for future in list(pending):
                            if future.cancel():
                                pending.pop(future)
        finally:
            if broken:
                _abandon_pool(pool)
            else:
                pool.shutdown(wait=True)
        return penalized

    # Every generation either resolves a task or penalizes one, and each
    # task survives at most ``retries`` penalties — so this terminates;
    # the cap is a belt-and-braces backstop against scheduler bugs.
    generation_cap = len(tasks) * (retries + 2) + 2
    try:
        for _ in range(generation_cap):
            if not unresolved:
                break
            if deadline_expired():
                # The budget ran out between generations: whatever is
                # still unresolved becomes deadline diagnostics now —
                # retrying work with no time left only delays the
                # partial report the caller is owed.
                for tid in sorted(unresolved):
                    attempts[tid] += 1
                    condemn(tid, DEADLINE_MESSAGE)
                break
            for tid, reason in sorted(run_generation().items()):
                if tid not in unresolved:
                    continue
                attempts[tid] += 1
                if reason == DEADLINE_MESSAGE:
                    condemn(tid, reason)
                    continue
                obs.incr("parallel.task_retry")
                if attempts[tid] > retries:
                    condemn(tid, reason)
                else:
                    obs.event("task.retry",
                              task=_task_label(spec, tasks[tid]),
                              reason=reason, attempt=attempts[tid])
    finally:
        if arena is not None:
            arena.close()
    for tid in sorted(unresolved):  # pragma: no cover - backstop only
        condemn(tid, "the scheduler gave up")
    return [results[index] for index in range(len(spec.properties))]


def _build_arena(spec, options, telemetry):
    """Publish the parent's snapshot — compiled symbolic step plus hot
    obligation results — for workers to attach (see
    :mod:`repro.prover.shared`).  Returns ``(arena, results)``;
    ``(None, {})`` disables seeding (plans off, or arena creation
    failed).

    Hot results ride along only when the parent runs uninstrumented:
    under a telemetry sink, workers serving pre-cooked verdicts would
    skip their search stages and break the serial/parallel counter
    parity the telemetry differential tests pin down.  The step itself
    always ships — with a sink active the parent builds it under the
    same ``step.build`` span a serial run records (and seeded workers
    skip their own builds, so the build still lands exactly once).
    """
    if not (getattr(options, "compile_plans", False)
            and getattr(options, "memoize_step", True)):
        # The step ablation (memoize_step=False) measures per-use build
        # cost; seeding workers would defeat the measurement.
        return None, {}
    from ..symbolic import cache as symcache
    from ..symbolic import solver as symsolver
    from . import shared
    from .engine import Verifier

    parent = Verifier(spec, options)
    # The same cache scopes the serial engine applies around its step
    # build: without them the parent build emits cache counters a
    # serial run (term_cache=False) would not.
    with symcache.scope(getattr(options, "term_cache", True)), \
            symsolver.prefix_scope(
                getattr(options, "compile_plans", True)):
        step = parent.generic_step()
    results = {}
    if telemetry is None:
        results = parent.compiled_plan().exportable_results()
    blob = pickle.dumps({
        "digest": parent.program_digest(),
        "step": step,
        "results": results,
    })
    try:
        arena = shared.SharedArena.create(blob)
    except Exception:  # noqa: BLE001 - workers rebuild instead
        obs.incr("parallel.arena.error")
        return None, {}
    obs.incr("parallel.arena.build")
    obs.event("arena.built", bytes=len(blob),
              backing=arena.ref[0], results=len(results))
    return arena, results


def _finish_ni(spec, options, assembly: _NIAssembly):
    """All obligations of one NI property are in: either produce the
    failed result (``("result", r)``), finalize unchecked, or hand back
    the coverage-check task to schedule (``("task", t)``)."""
    from .engine import PropertyResult

    prop = spec.properties[assembly.index]
    error = assembly.first_error()
    if error is not None:
        return ("result", PropertyResult(
            property=prop,
            status="failed",
            seconds=assembly.seconds,
            error=error,
        ))
    proof = assembly.assemble(prop)
    if not options.check_proofs:
        return ("result", PropertyResult(
            property=prop,
            status="proved",
            seconds=assembly.seconds,
            proof=proof,
            checked=False,
            source="store" if assembly.from_store else "searched",
        ))
    return ("task", ("ni-check", assembly.index, proof))


def _finalize_checked_ni(spec, assembly: _NIAssembly, proof: NIProof,
                         outcome: tuple):
    """Turn the coverage-check outcome into the property's result."""
    from .engine import PropertyResult

    prop = spec.properties[assembly.index]
    complaints, seconds = outcome[1], outcome[2]
    total = assembly.seconds + seconds
    if complaints:
        return PropertyResult(
            property=prop,
            status="failed",
            seconds=total,
            error="proof checker rejected the derivation: "
                  + "; ".join(complaints),
        )
    return PropertyResult(
        property=prop,
        status="proved",
        seconds=total,
        proof=proof,
        checked=True,
        source="store" if assembly.from_store else "searched",
    )
