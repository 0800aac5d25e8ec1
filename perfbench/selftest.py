#!/usr/bin/env python3
"""Self-test of the benchmark's inputs.

    python3 perfbench/selftest.py

From the root of a checkout, checks that the seven paper kernels prove
all 41 properties and the synthetic kernel every ``AuthFirst{g}``, and
that every entry of the edit catalogue gets the verdict it declares:
on a cold verify, and on the daemon's path (fragment-grained search
against a proof store holding the base kernels, under a telemetry
sink) with the cold verify's derivation keys.  Prints one line per
check; exits 0 when all hold, 1 otherwise.
"""

import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]
    from repro import obs
    from repro.frontend import parse_program
    from repro.prover import ProverOptions, Verifier

    from perfbench import edits, kernels
    from perfbench.common import ColdReference, disagreement, results_of

    failed = []

    def report(what, problem):
        print(f"{'FAIL' if problem else 'ok  '} {what}"
              + (f": {problem}" if problem else ""))
        if problem:
            failed.append(what)

    reference = ColdReference()
    names = kernels.PAPER_KERNELS + (kernels.SYNTHETIC,)
    sources = kernels.sources(names)
    base = {kernel: reference(sources[kernel]) for kernel in names}
    for kernel in names:
        report(f"{kernel}: every property proved",
               disagreement(base[kernel], base[kernel]))
    report("41 paper properties, AuthFirst0 to AuthFirst31",
           kernels.known_answer_problem(base))
    for kernel in kernels.PAPER_KERNELS:
        sites = [e for e in edits.CATALOGUE if e.kernel == kernel]
        breaking = sum(e.breaks is not None for e in sites)
        report(f"{kernel}: at least two edit sites, one breaking",
               None if len(sites) >= 2 and breaking else
               f"{len(sites)} sites, {breaking} breaking")

    store = ROOT / ".perfbench" / f"selftest-{os.getpid()}"
    options = ProverOptions(proof_store=str(store))

    def daemon_path(source):
        # As repro serve verifies: fragment-grained search against the
        # shared store, under a telemetry sink.
        with obs.use(obs.Telemetry(metrics=True, events=True)):
            verified = Verifier(parse_program(source), options).verify_all()
        return results_of(verified)

    try:
        for kernel in kernels.PAPER_KERNELS:
            report(f"{kernel}: store path agrees with a cold verify",
                   disagreement(daemon_path(sources[kernel]), base[kernel]))
        # The second round meets a store that already holds the
        # fragments every other edit searched, as the daemon's does.
        for round_, n in (("store path", 4242), ("after all edits", 4243)):
            for edit in edits.CATALOGUE:
                source = edit.apply(sources[edit.kernel], n)
                cold = reference(source)
                declared = (f"breaks {edit.breaks}" if edit.breaks
                            else "benign")
                what = f"{edit.kernel}/{edit.site} ({declared})"
                report(f"{what}: cold verify",
                       disagreement(cold, cold, edit.breaks))
                report(f"{what}: {round_}",
                       disagreement(daemon_path(source), cold, edit.breaks))
    finally:
        shutil.rmtree(store, ignore_errors=True)
    print(f"{len(failed)} check(s) failed" if failed else "all checks hold")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
