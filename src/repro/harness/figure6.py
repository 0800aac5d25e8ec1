"""Figure 6 regeneration: the 41 benchmark properties and their fully
automatic verification times.

The harness runs the prover on every property of every benchmark and
prints the same rows as the paper's Figure 6, with the paper's wall-clock
seconds (3.4 GHz Core i7, Coq proof search + proof-term checking) next to
ours (CPython, symbolic search + derivation checking).  Absolute numbers
are not comparable across such different proof stacks; the reproduction
targets are the *shape* claims of section 6.2/6.4:

* all 41 properties verify fully automatically,
* non-interference properties are the slowest rows of their benchmark,
* the overwhelming majority of properties verify quickly (paper: >80%
  under two minutes; here the same fraction sits under the analogous
  per-benchmark threshold).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .. import obs
from ..props.spec import NonInterference
from ..prover import ProverOptions, Verifier
from ..systems import BENCHMARKS

#: The paper's Figure 6, transcribed: (benchmark, our property name,
#: paper's policy description, paper's verification seconds).
PAPER_FIGURE6 = (
    ("car", "NoInterfereEngine",
     "Components do not interfere with the engine", 13),
    ("car", "AirbagsDeployOnCrash",
     "Airbags do deploy when there has been a crash", 6),
    ("car", "AirbagsImmediatelyAfterCrash",
     "Airbags are deployed immediately after crash", 4),
    ("car", "CruiseOffImmediatelyAfterBrake",
     "Cruise control turns off immediately after braking", 5),
    ("car", "DoorsUnlockOnCrash",
     "Doors unlock when there is a crash", 6),
    ("car", "DoorsUnlockAfterAirbags",
     "Doors unlock immediately after airbags deployed", 6),
    ("car", "NoLockAfterCrash",
     "Doors can not lock after a crash", 21),
    ("car", "AirbagsOnlyOnCrash",
     "Airbags only deploy if there has been a crash", 6),
    ("browser", "UniqueTabIds",
     "Tab processes have unique IDs", 70),
    ("browser", "UniqueCookieProcs",
     "Cookie processes are unique per domain", 75),
    ("browser", "CookiesStayInDomain",
     "Cookies stay in their domain (tab, cookie process)", 37),
    ("browser", "TabsConnectedToCookieProc",
     "Tabs are correctly connected to their cookie process", 38),
    ("browser", "DomainsNoInterfere",
     "Different domains do not interfere", 229),
    ("browser", "SocketPolicy",
     "Tabs can only open sockets to allowed domains", 94),
    ("browser2", "UniqueTabIds",
     "Tab processes have unique IDs", 80),
    ("browser2", "UniqueCookieProcs",
     "Cookie processes are unique per domain", 130),
    ("browser2", "CookiesStayInDomainTab",
     "Cookies stay in their domain (tab)", 64),
    ("browser2", "CookiesStayInDomainProc",
     "Cookies stay in their domain (cookie process)", 70),
    ("browser2", "TabsConnectedToCookieProc",
     "Tabs are correctly connected to their cookie process", 88),
    ("browser2", "DomainsNoInterfere",
     "Different domains do not interfere", 338),
    ("browser2", "SocketPolicy",
     "Tabs can only open sockets to allowed domains", 106),
    ("browser3", "UniqueTabIds",
     "Tab processes have unique IDs", 295),
    ("browser3", "UniqueCookieProcs",
     "Cookie processes are unique per domain", 193),
    ("browser3", "CookiesStayInDomainTab",
     "Cookies stay in their domain (tab)", 83),
    ("browser3", "CookiesStayInDomainProc",
     "Cookies stay in their domain (cookie process)", 91),
    ("browser3", "TabsRegisteredWithCookieProc",
     "Tabs are correctly connected to their cookie process", 151),
    ("browser3", "DomainsNoInterfere",
     "Different domains do not interfere", 532),
    ("browser3", "SocketPolicy",
     "Tabs can only open sockets to allowed domains", 78),
    ("ssh", "AttemptEnablesNext",
     "Each login attempt enables the next one", 54),
    ("ssh", "FirstAttemptOnce",
     "The first attempt to login disables itself", 58),
    ("ssh", "SecondAttemptOnce",
     "The second attempt to login disables itself", 297),
    ("ssh", "ThirdAttemptFinal",
     "The third attempt to login disables all attempts", 53),
    ("ssh", "AuthBeforeTerm",
     "Succesful login enables pseudo-terminal creation", 55),
    ("ssh2", "AuthBeforeTerm",
     "Succesful login enables pseudo-terminal creation", 113),
    ("ssh2", "AttemptsApprovedByCounter",
     "Login attempts approved by counter component", 37),
    ("webserver", "ClientOnlyAfterLogin",
     "A client is only spawned on successful login", 26),
    ("webserver", "ClientsNeverDuplicated",
     "Clients are never duplicated", 70),
    ("webserver", "FilesOnlyAfterLogin",
     "Files can only be requested after login", 87),
    ("webserver", "FilesOnlyAfterAuthorization",
     "Files are only requested after authorization", 23),
    ("webserver", "FileOnlyWhereDiskIndicates",
     "Kernel only sends a file where the disk indicates", 34),
    ("webserver", "AuthForwardedToDisk",
     "Authorized requests are forwarded to disk", 22),
)


@dataclass
class Figure6Row:
    benchmark: str
    property_name: str
    description: str
    paper_seconds: float
    our_seconds: float
    proved: bool
    is_noninterference: bool


@dataclass
class BenchmarkProfile:
    """Per-benchmark telemetry: counters plus per-stage seconds."""

    benchmark: str
    counters: Dict[str, int] = field(default_factory=dict)
    stage_seconds: Dict[str, float] = field(default_factory=dict)

    def skip_rate(self) -> float:
        """Fraction of trace-tactic exchanges discharged syntactically."""
        skipped = self.counters.get("tactic.exchange.skipped", 0)
        expanded = self.counters.get("tactic.exchange.expanded", 0)
        total = skipped + expanded
        return skipped / total if total else 0.0


def run_figure6_profiled(
    options: Optional[ProverOptions] = None,
) -> Tuple[List[Figure6Row], List[BenchmarkProfile]]:
    """Verify every Figure 6 property under a telemetry sink per
    benchmark; returns the paper rows plus per-benchmark per-stage
    breakdowns.

    Each benchmark's symbolic step is built under the sink before
    ``verify_all()``, so every row times its own proof only (the build
    would otherwise land on the first property) and the build still
    shows in the profile as ``step.build``."""
    rows: List[Figure6Row] = []
    profiles: List[BenchmarkProfile] = []
    reports: Dict[str, object] = {}
    for name, module in BENCHMARKS.items():
        with obs.use(obs.Telemetry()) as telemetry:
            verifier = Verifier(module.load(), options)
            verifier.generic_step()
            reports[name] = verifier.verify_all()
        profiles.append(BenchmarkProfile(
            name, dict(telemetry.counters), telemetry.stage_seconds()
        ))
    for benchmark, prop_name, description, paper_seconds in PAPER_FIGURE6:
        result = reports[benchmark].result_named(prop_name)
        rows.append(Figure6Row(
            benchmark=benchmark,
            property_name=prop_name,
            description=description,
            paper_seconds=paper_seconds,
            our_seconds=result.seconds,
            proved=result.proved,
            is_noninterference=isinstance(result.property, NonInterference),
        ))
    return rows, profiles


def run_figure6(options: Optional[ProverOptions] = None) -> List[Figure6Row]:
    """Verify every Figure 6 property; returns one row per paper row."""
    rows, _ = run_figure6_profiled(options)
    return rows


def render_profiles(profiles: List[BenchmarkProfile]) -> str:
    """Render the per-benchmark pipeline breakdown: plan/search/check
    seconds, solver calls, seval paths, and the syntactic-skip rate."""
    out = [
        "Figure 6 — per-benchmark pipeline breakdown",
        f"{'benchmark':10s} {'plan(s)':>9s} {'search(s)':>10s} "
        f"{'check(s)':>9s} {'implies':>9s} {'paths':>7s} {'skip%':>6s}",
    ]
    for profile in profiles:
        stages = profile.stage_seconds
        out.append(
            f"{profile.benchmark:10s} "
            f"{stages.get('plan', 0.0):9.4f} "
            f"{stages.get('search', 0.0):10.4f} "
            f"{stages.get('check', 0.0):9.4f} "
            f"{profile.counters.get('solver.implies', 0):9d} "
            f"{profile.counters.get('seval.paths', 0):7d} "
            f"{profile.skip_rate() * 100:5.1f}%"
        )
    return "\n".join(out)


def render_figure6(rows: List[Figure6Row]) -> str:
    """Render Figure 6 side by side with the paper's numbers."""
    out = [
        "Figure 6 — benchmark properties, all proved fully automatically",
        f"{'':10s} {'policy description':55s} "
        f"{'paper T(s)':>10s} {'ours T(s)':>10s}  ok",
    ]
    for row in rows:
        out.append(
            f"{row.benchmark:10s} {row.description:55s} "
            f"{row.paper_seconds:10.0f} {row.our_seconds:10.3f}  "
            f"{'✓' if row.proved else '✗'}"
        )
    proved = sum(1 for r in rows if r.proved)
    out.append(f"{proved}/{len(rows)} properties proved automatically "
               f"(paper: 41/41)")
    out.extend(shape_checks(rows))
    return "\n".join(out)


def shape_checks(rows: List[Figure6Row]) -> List[str]:
    """The qualitative claims the reproduction must preserve."""
    checks: List[str] = []
    all_proved = all(r.proved for r in rows)
    checks.append(f"[shape] all 41 properties automatic: "
                  f"{'PASS' if all_proved else 'FAIL'}")

    # NI rows are the slowest rows of their benchmark in the paper for the
    # browser variants (and dominate overall); check ours keep that shape.
    ni_shape = True
    for benchmark in ("browser", "browser2", "browser3"):
        bench_rows = [r for r in rows if r.benchmark == benchmark]
        slowest = max(bench_rows, key=lambda r: r.our_seconds)
        if not slowest.is_noninterference:
            ni_shape = False
    checks.append(f"[shape] non-interference is the slowest browser row: "
                  f"{'PASS' if ni_shape else 'FAIL'}")

    # Paper: >80% of properties verify in under two minutes (of a 532s
    # max).  Analogously: >80% of our rows fall under 2/8.9 of our max
    # (with a 5ms floor so sub-millisecond timer noise cannot flip the
    # verdict).
    our_max = max(r.our_seconds for r in rows)
    threshold = max(our_max * (120.0 / 532.0), 0.005)
    quick = sum(1 for r in rows if r.our_seconds <= threshold)
    checks.append(
        f"[shape] {quick}/{len(rows)} rows within the paper's "
        f"'80% under two minutes' band (threshold {threshold * 1000:.1f}ms):"
        f" {'PASS' if quick / len(rows) >= 0.8 else 'FAIL'}"
    )
    return checks


def main() -> None:  # pragma: no cover - CLI convenience
    print(render_figure6(run_figure6()))


if __name__ == "__main__":  # pragma: no cover
    main()
