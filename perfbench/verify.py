"""The in-process workloads ``verify-cold`` and ``verify-warm``.

One thread and no ``obs`` sink: ``Verifier._hot_results`` and
``Verifier.generic_step`` branch on ``obs.active()``, so a sink would
send the traced run down another path than the timed one.  An operation
is one *pass*: every kernel of the set once, in an order drawn from the
seed.  Before each kernel the symbolic state is dropped
(``reset_interning``, which also drops compiled plans and memos); then
``Verifier(parse_program(src)).verify_all()`` runs.  That is what a
one-shot ``repro verify K`` does, minus interpreter start.

* ``verify-cold`` uses no proof store.  Kernel set: the seven paper
  kernels and the synthetic kernel.  Search, the solver and the step
  build do most of the work; the store and incremental layers none.
* ``verify-warm`` uses a proof store filled by one cold pass before
  set-up, so every property is answered from the store after checker
  revalidation and search makes no calls.  Kernel set: the seven paper
  kernels; filling the synthetic kernel's store takes 9-12 s and is
  unsteady, because its fragment count grows as properties x components
  x messages.

The fill is not timed.  It creates about 1 500 store files, and on a
root file system without a journal ext4 skips every inode deleted in
the last one to six minutes, one by one, when it allocates another in
the same block group: creating a file there took 23 us after a quiet
spell and 600 us after the previous runs' stores were removed.  So the
fill's time read the disk's recent history; over two sets of ten runs of
the same code the set-up medians differed by 34%.

A set-up is a fresh interpreter importing the modules a verify needs,
then, in this process, input generation and one priming pass.  The
import runs in a child process so that each set-up pays it again.

Every time is scaled by the host probes of :mod:`perfbench.host` taken
on either side of it, and ``verify_s`` is the median scaled pass.
"""

from __future__ import annotations

import functools
import random
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import frontend
from repro.prover import ProverOptions, Verifier
from repro.symbolic.expr import intern_table_size, reset_interning

from . import host, kernels, layers
from .common import (
    ColdReference, Outcome, Results, disagreement, median, p10, p90,
    peak_rss_mb, reset_peak_rss, results_of,
)

#: Set-ups per run; ``setup_s`` reports their median.
SETUP_REPS = 5
#: What a set-up's fresh interpreter runs: the imports of this module.
IMPORT = ("import sys; sys.path.insert(0, 'src'); "
          "import repro.frontend, repro.prover, repro.symbolic.expr")
ROOT = Path(__file__).resolve().parent.parent

Verify = Callable[[str, str, ProverOptions], object]
#: One pass in a given kernel order, appending each kernel's time.
Pass = Callable[[List[str], Dict[str, List[float]]],
                Tuple[float, Dict[str, Results], int]]


class Phase:
    """The passes of one timed phase: each pass's time as measured and
    scaled by the host probes around it, each kernel's scaled times, and
    the largest intern table a kernel left behind."""

    def __init__(self, names: Sequence[str]) -> None:
        self.passes: List[float] = []
        self.scaled: List[float] = []
        self.by_kernel: Dict[str, List[float]] = {k: [] for k in names}
        self.terms = 0

    def add(self, total: float, kernel_times: Dict[str, float], terms: int,
            scale: Callable[[float], float]) -> None:
        self.passes.append(total)
        self.scaled.append(scale(total))
        for kernel, elapsed in kernel_times.items():
            self.by_kernel[kernel].append(scale(elapsed))
        self.terms = max(self.terms, terms)


def _verify(kernel: str, source: str, options: ProverOptions):
    """From source text to all verdicts; ``kernel`` tags the traced
    span."""
    return Verifier(frontend.parse_program(source), options).verify_all()


def _pass(order: Sequence[str], sources: Dict[str, str],
          options: ProverOptions, verify: Verify,
          times: Dict[str, List[float]]
          ) -> Tuple[float, Dict[str, Results], int]:
    """One pass: its time (the sum of the kernels' source-to-verdict
    times, also appended per kernel to ``times``), every kernel's
    results, and the largest intern table a kernel left behind."""
    total = 0.0
    results: Dict[str, Results] = {}
    terms = 0
    for kernel in order:
        reset_interning()
        started = time.perf_counter()
        report = verify(kernel, sources[kernel], options)
        elapsed = time.perf_counter() - started
        terms = max(terms, intern_table_size())
        total += elapsed
        times[kernel].append(elapsed)
        results[kernel] = results_of(report)
    return total, results, terms


def _import_s() -> float:
    """The wall time of a fresh interpreter that imports the program,
    from its start to its exit."""
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", IMPORT], cwd=ROOT, check=True,
                   stdin=subprocess.DEVNULL)
    return time.perf_counter() - started


def _pass_problem(results: Dict[str, Results],
                  expected: Dict[str, Results]) -> Optional[str]:
    for kernel, got in results.items():
        problem = disagreement(got, expected[kernel])
        if problem is not None:
            return f"{kernel}: {problem}"
    return None


def run(workload: str, seed: int, seconds: float, traced: bool,
        work: Path) -> Outcome:
    """One run of ``verify-cold`` or ``verify-warm``."""
    warm = workload == "verify-warm"
    names = list(kernels.PAPER_KERNELS)
    if not warm:
        names.append(kernels.SYNTHETIC)
    outcome = Outcome()

    yardstick = host.Yardstick()
    store = work / "store"
    options = ProverOptions(proof_store=str(store) if warm else None)
    primed: List[Dict[str, Results]] = []
    fill_s = 0.0
    if warm:
        # The cold pass that fills the store, once and untimed (see the
        # module doc).
        fill_s, results, _ = _pass(names, kernels.sources(names), options,
                                   _verify, {kernel: [] for kernel in names})
        primed.append(results)

    # Set-up, several times over: a fresh interpreter's imports, input
    # generation and one priming pass (on verify-warm a warm one).
    setups: List[float] = []
    raw_setups: List[float] = []
    last = yardstick.mark()
    for _ in range(SETUP_REPS):
        imported = _import_s()
        started = time.perf_counter()
        sources = kernels.sources(names)
        primed_s, results, _ = _pass(names, sources, options, _verify,
                                     {kernel: [] for kernel in names})
        raw_setups.append(imported + time.perf_counter() - started)
        now = yardstick.mark()
        setups.append(yardstick.scale(raw_setups[-1], (last, now)))
        primed.append(results)
        last = now

    reference = ColdReference()
    expected = {kernel: reference(sources[kernel]) for kernel in names}
    problem = kernels.known_answer_problem(expected)
    if problem is not None:
        outcome.problems.append(problem)
    for results in primed:
        outcome.check(_pass_problem(results, expected), "set-up pass")

    def phase(one_pass: Pass) -> Phase:
        """Passes for ``seconds``, with a host probe after each."""
        rng = random.Random(f"{workload}:{seed}")
        timed = Phase(names)
        last = yardstick.mark()
        deadline = time.perf_counter() + seconds
        while not timed.passes or time.perf_counter() < deadline:
            times: Dict[str, List[float]] = {k: [] for k in names}
            total, results, peak = one_pass(rng.sample(names, len(names)),
                                            times)
            now = yardstick.mark()
            outcome.check(_pass_problem(results, expected),
                          f"pass {len(timed.passes) + 1}")
            timed.add(total, {k: t[0] for k, t in times.items()}, peak,
                      functools.partial(yardstick.scale, around=(last, now)))
            last = now
        return timed

    def plain_pass(order: List[str], times: Dict[str, List[float]]):
        return _pass(order, sources, options, _verify, times)

    if not traced:
        # The peak RSS covers the timed phase only, not the store fill,
        # the set-ups and the reference, which search where a warm pass
        # does not.
        if not reset_peak_rss():
            outcome.details.append("peak_rss_mb includes set-up: the "
                                   "kernel refused to reset the peak")
        timed = phase(plain_pass)
        per_kernel = {k: median(times)
                      for k, times in timed.by_kernel.items()}
        verify_s = median(timed.scaled)
        every = [t for times in timed.by_kernel.values() for t in times]
        outcome.metrics.update({
            "setup_s": median(setups),
            "verify_s": verify_s,
            "submit_ms_p50": 1000.0 * median(list(per_kernel.values())),
            "submit_ms_p90": 1000.0 * p90(every),
            "submits_per_s": len(names) / verify_s,
            "peak_rss_mb": peak_rss_mb(),
        })
        outcome.details.append(
            f"{len(timed.passes)} passes over {len(names)} kernels; scaled "
            f"pass p10 {p10(timed.scaled):.4f}s; as measured: median pass "
            f"{median(timed.passes):.4f}s, p10 {p10(timed.passes):.4f}s, "
            f"set-ups "
            + ", ".join(f"{s:.3f}s" for s in raw_setups)
            + (f", untimed store fill {fill_s:.3f}s" if warm else ""))
        outcome.details.append(yardstick.detail())
        outcome.details.extend(
            f"kernel.{kernel}.ms {1000.0 * per_kernel[kernel]:.3f}"
            for kernel in names)
    else:
        # The end-to-end metrics are not printed with tracing, so no
        # untraced phase runs; each traced pass has an untraced twin.
        tracer = layers.Tracer()
        root = tracer.wrap(layers.ROOT, "perfbench:kernel", _verify,
                           tag_of=lambda args: args[0])
        twins: List[float] = []

        def traced_pass(order: List[str], times: Dict[str, List[float]]):
            # An untraced twin in the same order runs just before, so
            # that host drift, larger than the tracing overhead over the
            # time between two phases, hits both alike.
            twin, results, _ = plain_pass(order, {k: [] for k in names})
            outcome.check(_pass_problem(results, expected),
                          "untraced twin pass")
            twins.append(twin)
            tracer.install()
            try:
                return _pass(order, sources, options, root, times)
            finally:
                tracer.uninstall()

        traced_phase = phase(traced_pass)
        traced_passes = traced_phase.passes
        metrics, layered, rooted = layers.summarize(tracer.rows(),
                                                    len(traced_passes))
        metrics.update(dict.fromkeys(layers.SERVE_METRICS, 0.0))
        metrics["symbolic.intern_terms"] = traced_phase.terms
        metrics["store.bytes"] = layers.store_bytes(store) if warm else 0
        metrics.update(layers.overhead_metrics(
            1000.0 * median(traced_passes), 1000.0 * median(twins)))
        outcome.metrics.update(metrics)
        outcome.problems.extend(layers.check_problems(
            workload, metrics, layered, rooted, sum(traced_passes)))
        tracer.write(work.parent / f"spans-{workload}.json")
        outcome.details.append(
            f"{len(traced_passes)} traced passes; {tracer.dropped} spans "
            f"beyond the {layers.MAX_SPANS} kept")
    return outcome
