"""CI smoke benchmark for compiled proof plans.

One kernel, two configurations: ``compile_plans=True`` versus the
``--no-compile`` interpreter path.  This is the differential the CI
bench-smoke job runs on every push:

* **semantics** — per-property statuses, checker approvals, derivation
  keys, and error text must be identical between the two paths (the
  compiled executor is a pure optimization);
* **regression guard** — best-of-rounds compiled time must not exceed
  the interpreted time by more than the noise allowance: a change that
  makes compilation a pessimization fails the job.

The measured timings land in ``benchmarks/results/compiled_plans.json``
(uploaded as a CI artifact) so regressions are diagnosable from the run
without reproducing locally.
"""

import json
import os
import time

from repro.prover import ProverOptions, Verifier
from repro.symbolic import cache as symcache
from repro.systems import BENCHMARKS

QUICK = os.environ.get("REPRO_BENCH_QUICK") == "1"
KERNEL = "ssh2"
ROUNDS = 3 if QUICK else 5
#: Shared CI runners are noisy; the guard only trips when the compiled
#: path is *meaningfully* slower than interpreting, which would mean the
#: compile stage stopped paying for itself.
NOISE_ALLOWANCE = 1.25


def _signature(report):
    return [
        (r.property.name, r.status, r.checked, r.derivation_key(), r.error)
        for r in report.results
    ]


def _series(spec, compile_plans: bool):
    """(seconds per round, signature) — cold caches at the start."""
    symcache.clear_all()
    times, signature = [], None
    for _ in range(ROUNDS):
        start = time.perf_counter()
        report = Verifier(
            spec, ProverOptions(compile_plans=compile_plans)
        ).verify_all()
        times.append(time.perf_counter() - start)
        assert report.all_proved
        signature = _signature(report)
    return times, signature


def test_compiled_plans_smoke(results_dir, record_table):
    spec = BENCHMARKS[KERNEL].load()
    interpreted, interpreted_sig = _series(spec, compile_plans=False)
    compiled, compiled_sig = _series(spec, compile_plans=True)

    payload = {
        "benchmark": "compiled_plans",
        "kernel": KERNEL,
        "quick": QUICK,
        "rounds": ROUNDS,
        "noise_allowance": NOISE_ALLOWANCE,
        "interpreted_seconds": interpreted,
        "compiled_seconds": compiled,
        "interpreted_best": min(interpreted),
        "compiled_best": min(compiled),
        "speedup": min(interpreted) / min(compiled),
        "verdicts_identical": compiled_sig == interpreted_sig,
    }
    (results_dir / "compiled_plans.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    record_table("compiled_plans", (
        f"compiled plans smoke ({KERNEL}, best of {ROUNDS} rounds)\n"
        f"interpreted {min(interpreted):.4f}s  "
        f"compiled {min(compiled):.4f}s  "
        f"speedup {payload['speedup']:.2f}x"
    ))

    assert compiled_sig == interpreted_sig, (
        "compiled and interpreted runs disagree on verdicts or keys "
        "(see compiled_plans.json)"
    )
    assert min(compiled) <= min(interpreted) * NOISE_ALLOWANCE, (
        f"compiled path {min(compiled):.4f}s is slower than interpreted "
        f"{min(interpreted):.4f}s beyond the {NOISE_ALLOWANCE}x noise "
        "allowance (see compiled_plans.json)"
    )
