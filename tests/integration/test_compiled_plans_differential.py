"""Differential testing of compiled proof plans: executing a compiled
plan must be semantically invisible next to interpreting the symbolic
step from scratch.

For every builtin kernel, compile-on and ``--no-compile`` runs must
produce identical per-property verdicts, checker approvals, derivation
keys, and error text.  The derivation key pins the whole derivation,
and the obligation keys under it are content-addressed, so this asserts
bit-for-bit key stability across the compiled and interpreted paths,
not merely agreement on "proved".
"""

import pytest

from repro.prover import ProverOptions, Verifier
from repro.systems import BENCHMARKS


def signature(report):
    """What must be invariant across execution strategies."""
    return [
        (r.property.name, r.status, r.checked, r.derivation_key(), r.error)
        for r in report.results
    ]


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_compilation_is_semantically_invisible(name):
    spec = BENCHMARKS[name].load()

    interpreted = Verifier(
        spec, ProverOptions(compile_plans=False)
    ).verify_all()
    compiled = Verifier(
        spec, ProverOptions(compile_plans=True)
    ).verify_all()

    assert signature(compiled) == signature(interpreted)
    assert compiled.all_proved

