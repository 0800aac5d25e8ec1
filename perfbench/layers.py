"""Per-layer tracing of the program, from the benchmark's own files.

Each wrapper times the calls into one public function of a layer.  It
is patched under the name its caller uses — the engine imports the
search entry points into ``repro.prover.engine``, so patching
``repro.prover.engine.prove_trace_property`` times exactly the engine's
calls — and methods are patched on their class.  Uninstalled, the
program runs as it always does.

A span records its target, start, end, parent and the submit id it
serves: ``repro.obs.active().tags["submit_id"]`` while the daemon has
its per-group telemetry sink installed, else the parent span's.  Self
time is a span's duration minus the time its child spans cover.  It is
summed per (submit id, layer, target) as each span closes, so every
call counts, also after the span buffer is full.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from importlib import import_module
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro import obs

#: ``(module, attribute, layer)`` of every timed call.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.frontend", "parse_program", "frontend.parse"),
    ("repro.serve.server", "parse_program", "frontend.parse"),
    ("repro.symbolic.compile", "CompiledPlan.step_for", "symbolic.step"),
    ("repro.prover.engine", "generic_step", "symbolic.step"),
    ("repro.symbolic.solver", "Facts.implies", "symbolic.solver"),
    ("repro.symbolic.solver", "Facts.implies_all", "symbolic.solver"),
    ("repro.symbolic.solver", "Facts.inconsistent", "symbolic.solver"),
    ("repro.symbolic.solver", "Facts.equal", "symbolic.solver"),
    ("repro.prover.ni", "entail_batch", "symbolic.solver"),
    ("repro.prover.engine", "Verifier.plan", "prover.plan"),
    ("repro.prover.engine", "digest", "prover.keys"),
    ("repro.prover.engine", "obligation_key", "prover.keys"),
    ("repro.prover.engine", "dependency_digest", "prover.keys"),
    ("repro.prover.engine", "prove_trace_property", "prover.search"),
    ("repro.prover.engine", "prove_trace_base", "prover.search"),
    ("repro.prover.engine", "prove_trace_exchange", "prover.search"),
    ("repro.prover.engine", "check_ni_base", "prover.search"),
    ("repro.prover.engine", "check_ni_exchange", "prover.search"),
    ("repro.prover.engine", "check_trace_proof", "prover.check"),
    ("repro.prover.engine", "trace_proof_complaints", "prover.check"),
    ("repro.prover.engine", "trace_base_complaints", "prover.check"),
    ("repro.prover.engine", "trace_exchange_complaints", "prover.check"),
    ("repro.prover.engine", "check_ni_proof", "prover.check"),
    ("repro.prover.proofstore", "ProofStore.get", "store.get"),
    ("repro.prover.proofstore", "ProofStore.put", "store.put"),
    ("repro.serve.server", "fragment_digests", "incremental"),
    ("repro.serve.server", "changed_parts", "incremental"),
    ("repro.prover.incremental", "InvalidationMap.record_program",
     "incremental"),
    ("repro.prover.incremental", "InvalidationMap.invalidated_keys",
     "incremental"),
)

#: Layers reported as ``<layer>.calls`` and ``<layer>.self_ms``.
LAYERS = (
    "frontend.parse", "symbolic.step", "symbolic.solver", "prover.plan",
    "prover.keys", "prover.search", "prover.check", "store.get",
    "store.put", "incremental",
)

#: Root span of the verify workloads: one kernel, source to verdicts.
ROOT = "op"

#: Root span of the daemon: one verify group (identical queued submits
#: verified once), tagged with its waiters' submit ids the way the
#: daemon tags its telemetry sink.
GROUP = ("repro.serve.server", "VerificationServer._verify_group",
         "serve.group")

#: Per-layer metrics only the daemon has (0 on the verify workloads).
SERVE_METRICS = (
    "serve.admission_ms", "serve.queue_ms", "serve.verify_ms",
    "serve.fanout_ms", "serve.wire_ms", "serve.coalesced_share",
    "serve.submits_per_batch", "serve.collections",
)

#: The zeros (``False``) and floors (``True``: above zero) each
#: workload's traced run must show, so that a workload which silently
#: drifts onto another path fails.
BYPASS = {
    "verify-cold": (("store.get.calls", False),
                    ("incremental.calls", False)),
    "verify-warm": (("prover.search.calls", False),
                    ("incremental.calls", False)),
    "serve-edit": (("prover.search.calls", True),
                   ("store.put.calls", True)),
}

#: Outcomes counted per target: a store read that hit, a fragment
#: revalidation the checker accepted.
_OUTCOMES: Dict[str, Callable[[object], bool]] = {
    "ProofStore.get": lambda entry: entry is not None,
    "trace_base_complaints": lambda complaints: not complaints,
    "trace_exchange_complaints": lambda complaints: not complaints,
}

#: Spans kept for the written trace; later calls still count.
MAX_SPANS = 50_000


def _group_tag(args: tuple) -> Optional[str]:
    """The submit ids of ``_verify_group(self, source, deadline,
    waiters)``."""
    ids = [waiter.submit_id for waiter in args[3] if waiter.submit_id]
    return ",".join(ids[:8]) or None


class Tracer:
    """Installs the wrappers and keeps what they record."""

    def __init__(self) -> None:
        #: (span id, parent id, target, start, end, submit id)
        self.spans: List[tuple] = []
        self.dropped = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        #: one table per thread: (tag, layer, target) →
        #: [calls, self seconds, total seconds, counted outcomes]
        self._tables: List[Dict[tuple, list]] = []
        self._patches: List[Tuple[object, str, object]] = []

    def _state(self) -> Tuple[list, Dict[tuple, list]]:
        """This thread's span stack and table."""
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], {})
            with self._lock:
                self._tables.append(state[1])
        return state

    def wrap(self, layer: str, target: str, fn: Callable,
             tag_of: Optional[Callable[[tuple], Optional[str]]] = None,
             outcome: Optional[Callable[[object], bool]] = None
             ) -> Callable:
        """``fn``, recording one ``layer`` span per call."""
        tracer = self
        clock = time.perf_counter
        active = obs.active

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, table = tracer._state()
            parent = stack[-1] if stack else None
            if tag_of is not None:
                tag = tag_of(args)
            else:
                sink = active()
                tag = sink.tags.get("submit_id") if sink is not None \
                    else None
                if tag is None and parent is not None:
                    tag = parent[2]
            frame = [next(tracer._ids), 0.0, tag]  # id, child s, tag
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                seconds = end - start
                if parent is not None:
                    parent[1] += seconds
                row = table.get((tag, layer, target))
                if row is None:
                    row = table[(tag, layer, target)] = [0, 0.0, 0.0, 0]
                row[0] += 1
                row[1] += seconds - frame[1]
                row[2] += seconds
                if len(tracer.spans) < MAX_SPANS:
                    tracer.spans.append((
                        frame[0], parent[0] if parent else 0, target,
                        start, end, tag,
                    ))
                else:
                    tracer.dropped += 1
            if outcome is not None and outcome(result):
                row[3] += 1
            return result

        return traced

    def install(self) -> None:
        """Patch every target and the daemon's group root."""
        for module, attribute, layer in TARGETS + (GROUP,):
            owner = import_module(module)
            *path, name = attribute.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, name)
            tag_of = _group_tag if layer == GROUP[2] else None
            setattr(owner, name, self.wrap(
                layer, f"{module}:{attribute}", original, tag_of,
                _OUTCOMES.get(attribute),
            ))
            self._patches.append((owner, name, original))

    def uninstall(self) -> None:
        """Restore every patched name."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def rows(self) -> List[list]:
        """``[tag, layer, target, calls, self s, total s, outcomes]``
        rows, merged across threads."""
        with self._lock:
            tables = list(self._tables)
        merged: Dict[tuple, list] = {}
        for table in tables:
            for key, row in list(table.items()):
                total = merged.setdefault(key, [0, 0.0, 0.0, 0])
                for index, value in enumerate(row):
                    total[index] += value
        return [[*key, *row] for key, row in merged.items()]

    def write(self, path: Path) -> None:
        """Write the rows and the kept spans to ``path`` as JSON."""
        partial = path.with_name(path.name + ".tmp")
        with open(partial, "w", encoding="utf-8") as handle:
            json.dump({"rows": self.rows(), "spans": self.spans,
                       "dropped": self.dropped}, handle)
        os.replace(partial, path)


def summarize(rows: Iterable[list], ops: int,
              keep: Callable[[Optional[str]], bool] = lambda tag: True
              ) -> Tuple[Dict[str, float], float, float]:
    """Per-operation layer metrics over the rows whose submit id passes
    ``keep``, with the summed layer self time and root span time in
    seconds (the trace-consistency check compares the two)."""
    calls: Dict[str, float] = defaultdict(float)
    own: Dict[str, float] = defaultdict(float)
    total: Dict[str, float] = defaultdict(float)
    by_target: Dict[str, int] = defaultdict(int)
    counted: Dict[str, int] = defaultdict(int)
    for tag, layer, target, n, self_s, total_s, outcomes in rows:
        if not keep(tag):
            continue
        calls[layer] += n
        own[layer] += self_s
        total[layer] += total_s
        attribute = target.split(":", 1)[1]
        by_target[attribute] += n
        counted[attribute] += outcomes
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = calls[layer] / ops
        metrics[f"{layer}.self_ms"] = 1000.0 * own[layer] / ops
    checks = ("trace_base_complaints", "trace_exchange_complaints")
    revalidated = sum(by_target[name] for name in checks)
    accepted = sum(counted[name] for name in checks)
    searched = by_target["prove_trace_base"] \
        + by_target["prove_trace_exchange"]
    metrics["prover.fragments.reuse_ratio"] = (
        accepted / (revalidated + searched)
        if revalidated + searched else 0.0
    )
    gets = by_target["ProofStore.get"]
    metrics["store.get.hit_ratio"] = (
        counted["ProofStore.get"] / gets if gets else 0.0
    )
    layered = sum(own[layer] for layer in LAYERS)
    rooted = total[ROOT] + total[GROUP[2]]
    return metrics, layered, rooted


def overhead_metrics(traced_ms: float,
                     untraced_ms: float) -> Dict[str, float]:
    """The traced operation's time, and by how much it exceeds the
    untraced time, taken the same way in the same run: the tracing
    overhead."""
    return {
        "trace.op_ms": traced_ms,
        "trace.overhead_ms": traced_ms - untraced_ms,
        "trace.overhead_share": traced_ms / untraced_ms - 1.0,
    }


def check_problems(workload: str, metrics: Dict[str, float],
                   layered: float, rooted: float,
                   wall: float) -> List[str]:
    """The bypass and trace-consistency checks of a traced run."""
    problems = []
    for name, floor in BYPASS[workload]:
        value = metrics[name]
        if floor and not value > 0:
            problems.append(f"{name} is {value:g} on {workload}, "
                            f"expected more than 0")
        elif not floor and value != 0:
            problems.append(f"{name} is {value:g} on {workload}, "
                            f"expected 0")
    if not rooted > 0:
        problems.append("the traced run recorded no root span")
    if layered > rooted + 1e-6:
        problems.append(f"layer self times sum to {layered:.6f}s, more "
                        f"than the {rooted:.6f}s their root spans cover")
    if rooted > wall + 1e-3:
        problems.append(f"root spans cover {rooted:.6f}s, more than the "
                        f"traced run's {wall:.6f}s of wall time")
    return problems


def store_bytes(directory: Path) -> int:
    """The size of a proof store's entries."""
    return sum(path.stat().st_size for path in directory.glob("*.proof"))
