"""Differential testing of the symbolic caching layer: memoized
simplification and solver query caching must be semantically invisible.

For every builtin kernel, caches-on and caches-off runs must produce
identical per-property verdicts, checker approvals, derivation keys,
and error text.  The derivation key pins the
*whole derivation*, so this asserts the caches never change which proof
is found, not merely whether one is.
"""

import pytest

from repro import obs
from repro.prover import ProverOptions, Verifier
from repro.systems import BENCHMARKS


def signature(report):
    """What must be invariant across cache configurations."""
    return [
        (r.property.name, r.status, r.checked, r.derivation_key(), r.error)
        for r in report.results
    ]


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_caching_is_semantically_invisible(name):
    spec = BENCHMARKS[name].load()

    cached = Verifier(spec, ProverOptions(term_cache=True)).verify_all()
    uncached = Verifier(spec, ProverOptions(term_cache=False)).verify_all()

    expected = signature(uncached)
    assert signature(cached) == expected
    assert cached.all_proved


def _cache_counters(options):
    """The symbolic-cache counters of one verify of ssh2."""
    telemetry = obs.Telemetry()
    with obs.use(telemetry):
        assert Verifier(BENCHMARKS["ssh2"].load(),
                        options).verify_all().all_proved
    return {name: count for name, count in telemetry.counters.items()
            if name.startswith(("simplify.cache.", "dnf.cache.",
                                "solver.cache.", "solver.prefix."))}


def test_term_cache_is_the_one_memo_switch():
    """``term_cache`` switches all four memos, the prefix cache among
    them."""
    cached = _cache_counters(ProverOptions())
    assert cached.get("solver.prefix.hit", 0) \
        + cached.get("solver.prefix.miss", 0) > 0
    assert _cache_counters(ProverOptions(term_cache=False)) == {}
