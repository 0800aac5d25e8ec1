"""What the workloads share: the outcome they report, the statistics
they report it with, and the cold reference every path is checked
against."""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.frontend import parse_program
from repro.prover import Verifier
from repro.symbolic.expr import reset_interning

#: property name → (status, derivation key); the key is ``None`` for a
#: property that failed
Results = Dict[str, Tuple[str, Optional[str]]]


def median(values: Sequence[float]) -> float:
    """The median of ``values``."""
    return statistics.median(values)


def p10(values: Sequence[float]) -> float:
    """The 10th percentile of ``values``, as ``statistics.quantiles``
    cuts it."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10)[0]


def p90(values: Sequence[float]) -> float:
    """The 90th percentile of ``values``, as ``statistics.quantiles``
    cuts it."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10)[-1]


def peak_rss_mb(pid: object = "self") -> float:
    """A process's peak resident set size (``VmHWM``), in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"/proc/{pid}/status has no VmHWM line")


def reset_peak_rss() -> bool:
    """Lower this process's ``VmHWM`` to its current resident set size,
    so that a later peak covers only what runs after; whether the
    kernel allowed it."""
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
            handle.write("5")
    except OSError:
        return False
    return True


def results_of(report) -> Results:
    """The verdict and derivation key of every property of a report."""
    return {r.property.name: (r.status, r.derivation_key())
            for r in report.results}


class ColdReference:
    """Verdicts and derivation keys of a plain cold verify: no proof
    store, no telemetry sink, and fresh symbolic state, so no compiled
    plan or hot result of an earlier verify can answer.  Every other
    path must agree with it."""

    def __init__(self) -> None:
        self._results: Dict[str, Results] = {}

    def __call__(self, source: str) -> Results:
        results = self._results.get(source)
        if results is None:
            reset_interning()
            report = Verifier(parse_program(source)).verify_all()
            results = self._results[source] = results_of(report)
        return results


def disagreement(results: Results, reference: Results,
                 breaks: Optional[str] = None) -> Optional[str]:
    """Why ``results`` is wrong, or ``None``: every property must be
    proved except ``breaks``, which must fail, and every derivation key
    must equal the cold reference's."""
    if set(results) != set(reference):
        return "the property set differs from a cold verify"
    for prop, (status, key) in sorted(results.items()):
        expected = "failed" if prop == breaks else "proved"
        if status != expected:
            return f"{prop} {status}, expected {expected}"
        if key != reference[prop][1]:
            return f"{prop}: derivation key differs from a cold verify"
    return None


@dataclass
class Outcome:
    """One run's result: operations attempted and failed, metric values
    by name, failed checks, and lines of supporting detail."""

    attempted: int = 0
    failed: int = 0
    metrics: Dict[str, float] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)
    details: List[str] = field(default_factory=list)

    def check(self, problem: Optional[str], what: str) -> None:
        """Count one operation; it failed when ``problem`` is set."""
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            self.problems.append(f"{what}: {problem}")

    @property
    def correct(self) -> bool:
        return not self.problems
