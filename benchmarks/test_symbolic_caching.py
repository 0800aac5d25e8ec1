"""End-to-end benchmark of the symbolic caching layer.

Repeated ``verify_all`` runs (a fresh :class:`Verifier` per iteration,
mirroring incremental re-verification) on the two deepest kernels, in
two configurations that differ only in ``term_cache``.  Both build the
step with the interpreting executor (``compile_plans=False``), so the
ratio measures the caches, not the executor:

* **uncached** — term caches off: every round re-simplifies, re-queries
  the solver and folds every ``Facts`` state from scratch;
* **baseline** — term caches on: the simplify and DNF memos and the
  solver query and prefix caches, which warm rounds hit.

Full mode asserts the ≥1.5× cached-over-uncached speedup the caching
layer is sold on; quick mode (``REPRO_BENCH_QUICK=1``, the CI smoke job)
only asserts the layer does not make verification slower.  The
compiled executor is measured against the interpreter by
``benchmarks/test_compiled_plans.py``.  Timings and speedups land in
``benchmarks/results/symbolic_caching.json`` and a rendered table beside
it.
"""

import json
import os
import time

from repro.prover import ProverOptions, Verifier
from repro.symbolic import cache as symcache
from repro.systems import BENCHMARKS

QUICK = os.environ.get("REPRO_BENCH_QUICK") == "1"
KERNELS = ("ssh2", "browser3")
ROUNDS = 3 if QUICK else 7
#: Quick mode runs on noisy shared CI runners: only insist the layer
#: does not make verification slower.  Full mode holds the headline
#: claim.
REQUIRED_CACHE_SPEEDUP = 1.0 if QUICK else 1.5

CONFIGS = (
    ("uncached", dict(term_cache=False, compile_plans=False)),
    ("baseline", dict(term_cache=True, compile_plans=False)),
)


def _series(spec, **options) -> list:
    """Seconds per ``verify_all`` round, coldest caches first.

    The process-wide term/query memo tables are cleared up front, so
    each configuration pays its own cold start and earns its own warm
    rounds.
    """
    symcache.clear_all()
    times = []
    for _ in range(ROUNDS):
        start = time.perf_counter()
        report = Verifier(spec, ProverOptions(**options)).verify_all()
        times.append(time.perf_counter() - start)
        assert report.all_proved
    return times


def _render(rows) -> str:
    lines = [
        "symbolic caching: verify_all seconds "
        f"(best of {ROUNDS} rounds)",
        f"{'kernel':<10} {'uncached':>10} {'baseline':>10} {'cache':>8}",
    ]
    for row in rows:
        lines.append(
            f"{row['kernel']:<10} {row['uncached_best']:>10.4f} "
            f"{row['baseline_best']:>10.4f} "
            f"{row['cache_speedup']:>7.2f}x"
        )
    return "\n".join(lines)


def test_caching_speedup(results_dir, record_table):
    rows = []
    for name in KERNELS:
        spec = BENCHMARKS[name].load()
        row = {"kernel": name, "rounds": ROUNDS}
        for label, options in CONFIGS:
            series = _series(spec, **options)
            row[f"{label}_seconds"] = series
            row[f"{label}_best"] = min(series)
        row["cache_speedup"] = row["uncached_best"] / row["baseline_best"]
        rows.append(row)

    payload = {
        "benchmark": "symbolic_caching",
        "quick": QUICK,
        "required_cache_speedup": REQUIRED_CACHE_SPEEDUP,
        "kernels": rows,
    }
    (results_dir / "symbolic_caching.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    record_table("symbolic_caching", _render(rows))

    best_cache = max(row["cache_speedup"] for row in rows)
    assert best_cache >= REQUIRED_CACHE_SPEEDUP, (
        f"caching speedup {best_cache:.2f}x below the required "
        f"{REQUIRED_CACHE_SPEEDUP}x (see symbolic_caching.json)"
    )
