"""Section 6.4 regeneration: the effect of the prover optimizations.

The paper reports that domain-specific reduction strategies, syntactic
skip checks, and saving subproofs at cut points yielded an 80× average
speedup (over 1000× on some benchmarks) over the early implementation.
Our engine keeps each optimization behind a switch, so the ablation
measures the same levers:

* ``memoize_step`` — reuse the symbolic inductive step across properties
  (our analog of the domain-specific reduction strategies: the expensive
  normalization work happens once),
* ``syntactic_skip`` — discharge exchanges by the cheap syntactic check,
* ``cache_subproofs`` — reuse invariant subproofs across occurrences.

Numbers will not match the paper's (different machines, different proof
stacks); the reproduced *shape*: every optimization is a strict win and
the combined configuration is several-fold faster than the unoptimized
prover, with the spread widening on the benchmarks with the most
handlers (the browser variants), as in the paper.
"""

from __future__ import annotations

import shutil
import tempfile
import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..prover import ProverOptions, Verifier
from ..systems import BENCHMARKS

#: Ablation configurations, most-optimized first.  Proof checking is off
#: in all of them so the measurement isolates the *search* cost, matching
#: the paper's optimization story.
CONFIGURATIONS = {
    "full": ProverOptions(check_proofs=False),
    "no-skip": ProverOptions(syntactic_skip=False, check_proofs=False),
    "no-memo": ProverOptions(memoize_step=False, check_proofs=False),
    "no-subproof-cache": ProverOptions(cache_subproofs=False,
                                       check_proofs=False),
    "none": ProverOptions(syntactic_skip=False, memoize_step=False,
                          cache_subproofs=False, check_proofs=False),
}


@dataclass
class AblationRow:
    """Per-benchmark timings (and peak allocations) per configuration."""

    benchmark: str
    seconds: Dict[str, float]
    #: peak tracemalloc bytes per configuration (0 when not measured)
    peak_bytes: Dict[str, int] = field(default_factory=dict)

    def speedup(self) -> float:
        """How much faster the fully optimized prover is than none."""
        full = self.seconds["full"]
        return self.seconds["none"] / full if full > 0 else float("inf")

    def memory_ratio(self) -> float:
        """Peak-memory ratio of the unoptimized prover vs full."""
        full = self.peak_bytes.get("full", 0)
        none = self.peak_bytes.get("none", 0)
        return none / full if full else 0.0


def run_ablation(repeats: int = 1,
                 measure_memory: bool = True) -> List[AblationRow]:
    """Verify every benchmark under every configuration, measuring wall
    time and (optionally) peak allocation via :mod:`tracemalloc` — the
    paper reports both dimensions (80× time, 5× memory on average).

    Every run builds a fresh :class:`Verifier`, so each one searches:
    nothing an earlier run proved carries over."""
    rows: List[AblationRow] = []
    for name, module in BENCHMARKS.items():
        spec = module.load()
        seconds: Dict[str, float] = {}
        peaks: Dict[str, int] = {}
        for config_name, options in CONFIGURATIONS.items():
            best = float("inf")
            for _ in range(repeats):
                start = time.perf_counter()
                report = Verifier(spec, options).verify_all()
                elapsed = time.perf_counter() - start
                if not report.all_proved:
                    raise AssertionError(
                        f"ablation config {config_name} broke proofs on "
                        f"{name} — optimizations must never change verdicts"
                    )
                best = min(best, elapsed)
            seconds[config_name] = best
            if measure_memory:
                tracemalloc.start()
                Verifier(spec, options).verify_all()
                _, peak = tracemalloc.get_traced_memory()
                tracemalloc.stop()
                peaks[config_name] = peak
        rows.append(AblationRow(name, seconds, peaks))
    return rows


def render_ablation(rows: List[AblationRow]) -> str:
    """Render the ablation table with its shape verdict."""
    configs = list(CONFIGURATIONS)
    header = f"{'benchmark':10s} " + " ".join(
        f"{c:>18s}" for c in configs
    ) + f" {'speedup':>9s}"
    out = [
        "Section 6.4 — optimization ablation (seconds per benchmark, all "
        "properties)",
        header,
    ]
    for row in rows:
        cells = " ".join(
            f"{row.seconds[c]:18.4f}" for c in configs
        )
        out.append(f"{row.benchmark:10s} {cells} {row.speedup():8.1f}x")
    if all(r.peak_bytes for r in rows):
        out.append("peak allocation (MiB):")
        for row in rows:
            cells = " ".join(
                f"{row.peak_bytes[c] / (1 << 20):18.2f}" for c in configs
            )
            out.append(
                f"{row.benchmark:10s} {cells} "
                f"{row.memory_ratio():8.1f}x"
            )
    mean_speedup = sum(r.speedup() for r in rows) / len(rows)
    max_speedup = max(r.speedup() for r in rows)
    ok = all(r.speedup() > 1.0 for r in rows)
    out.append(
        f"[shape] combined optimizations beat the unoptimized prover on "
        f"every benchmark: {'PASS' if ok else 'FAIL'}; speedup mean "
        f"{mean_speedup:.1f}x, max {max_speedup:.1f}x "
        f"(paper: mean 80x, max >1000x on their Ltac stack)"
    )
    return "\n".join(out)


@dataclass
class RuntimeRow:
    """Pipeline-runtime measurements for one benchmark: a cold run and a
    warm run against the proof store it populated, plus whether both
    agreed bit-for-bit."""

    benchmark: str
    serial_cold: float
    warm_store: float
    #: True when statuses and checked derivation keys are identical
    #: across the cold and warm runs
    invariant: bool

    def warm_speedup(self) -> float:
        """How much faster the warm-store run is than the cold one."""
        return self.serial_cold / self.warm_store \
            if self.warm_store > 0 else float("inf")


def _report_signature(report) -> List:
    """The invariance signature of a report: per-property status,
    checked flag, and derivation key, in specification order."""
    return [(r.property.name, r.status, r.checked, r.derivation_key())
            for r in report.results]


def run_runtime_ablation(repeats: int = 2,
                         store_root: Optional[str] = None
                         ) -> List[RuntimeRow]:
    """Measure the proof store's runtime effect per benchmark: cold
    verification (into an empty store) and warm verification against
    the store the cold run populated, checking along the way that the
    verdicts and checked derivation keys never change."""
    root = store_root or tempfile.mkdtemp(prefix="repro-proofstore-")
    rows: List[RuntimeRow] = []
    try:
        for name, module in BENCHMARKS.items():
            spec = module.load()
            store_dir = f"{root}/{name}"
            shutil.rmtree(store_dir, ignore_errors=True)
            stored = ProverOptions(proof_store=store_dir)

            cold_report = Verifier(spec, stored).verify_all()
            cold = cold_report.wall_seconds
            signature = _report_signature(cold_report)

            warm = float("inf")
            invariant = True
            for _ in range(repeats):
                warm_report = Verifier(spec, stored).verify_all()
                warm = min(warm, warm_report.wall_seconds)
                invariant &= _report_signature(warm_report) == signature

            rows.append(RuntimeRow(
                benchmark=name,
                serial_cold=cold,
                warm_store=warm,
                invariant=invariant,
            ))
    finally:
        if store_root is None:
            shutil.rmtree(root, ignore_errors=True)
    return rows


def render_runtime_ablation(rows: List[RuntimeRow]) -> str:
    """Render the runtime table with its invariance verdict."""
    out = [
        "Pipeline runtime — cold run vs. warm proof store "
        "(seconds per benchmark, all properties)",
        f"{'benchmark':10s} {'cold':>10s} {'warm':>10s} "
        f"{'warm-speedup':>13s}",
    ]
    for row in rows:
        out.append(
            f"{row.benchmark:10s} {row.serial_cold:10.4f} "
            f"{row.warm_store:10.4f} {row.warm_speedup():12.1f}x"
        )
    total_cold = sum(r.serial_cold for r in rows)
    total_warm = sum(r.warm_store for r in rows)
    ok = all(r.invariant for r in rows)
    out.append(
        f"[shape] verdicts and derivation keys identical across cold "
        f"and warm runs: {'PASS' if ok else 'FAIL'}; "
        f"warm store {total_cold / total_warm:.1f}x faster overall"
        if total_warm > 0 else "[shape] no timings collected"
    )
    return "\n".join(out)


def main() -> None:  # pragma: no cover - CLI convenience
    print(render_ablation(run_ablation()))
    print(render_runtime_ablation(run_runtime_ablation()))


if __name__ == "__main__":  # pragma: no cover
    main()
