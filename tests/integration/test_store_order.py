"""The proof store's answer for a source must not depend on what the
store served before.

Each order fills a fresh store with one variant of a paper kernel and
then verifies the other variant through that store; both orders are
run.  Every verdict, checker approval, derivation key and error text
must equal a cold verify's (no store).  The variants of a kernel are:

* every edit of the ``serve-edit`` edit catalogue
  (``perfbench/edits.py``), applied to the benchmark's frozen source;
* for webserver, a ``LoginOk`` edit that spawns a second ``Client``
  handler — it adds a trigger occurrence to a path, which no catalogue
  edit or mutant does;
* every single-point mutant of :mod:`repro.harness.mutation`, against
  the builtin kernel.
"""

import pytest

from perfbench.edits import CATALOGUE, Edit
from perfbench.kernels import PAPER_KERNELS, sources
from repro.frontend import parse_program
from repro.harness.mutation import mutants_of
from repro.prover import ProverOptions, Verifier
from repro.systems import BENCHMARKS

#: A second login for a user spawns another handler instead of doing
#: nothing: it breaks ClientsNeverDuplicated and adds a spawn to
#: ``AccessControl => LoginOk`` path 0.
LOGIN_SPAWN = Edit("webserver", "login-spawn", "skip;",
                   "nc <- spawn Client(user);",
                   breaks="ClientsNeverDuplicated")


def signature(report):
    """Per property: name, status, checker approval, derivation key and
    error text."""
    return [
        (r.property.name, r.status, r.checked, r.derivation_key(), r.error)
        for r in report.results
    ]


def edit_variants(kernel):
    """``(label, base spec, edited spec)`` for every catalogue edit of
    ``kernel`` (plus the LoginOk spawn edit for webserver)."""
    source = sources([kernel])[kernel]
    edits = [e for e in CATALOGUE if e.kernel == kernel]
    if kernel == LOGIN_SPAWN.kernel:
        edits.append(LOGIN_SPAWN)
    base = parse_program(source)
    return [(f"edit {e.site}", base, parse_program(e.apply(source, 7)))
            for e in edits]


def mutant_variants(kernel):
    """``(label, base spec, mutant spec)`` for every mutant of
    ``kernel``."""
    base = BENCHMARKS[kernel].load()
    return [(f"mutant {m.label}", base, m.spec) for m in mutants_of(kernel)]


def order_disagreements(variants, tmp_path):
    """The orders (and fresh-store fills) whose results differ from a
    cold verify's."""
    cold = {}

    def expected(spec):
        if id(spec) not in cold:
            cold[id(spec)] = signature(Verifier(spec).verify_all())
        return cold[id(spec)]

    found = []
    for n, (label, base, variant) in enumerate(variants):
        orders = (("variant, then base", variant, base),
                  ("base, then variant", base, variant))
        for order, (then, first, second) in enumerate(orders):
            options = ProverOptions(proof_store=str(tmp_path / f"{n}-{order}"))
            if signature(Verifier(first, options).verify_all()) \
                    != expected(first):
                found.append(f"{label}: fresh-store fill ({then})")
            if signature(Verifier(second, options).verify_all()) \
                    != expected(second):
                found.append(f"{label}: {then}")
    return found


def test_login_spawn_edit_then_base_matches_cold(tmp_path):
    """The edited kernel's fragments must not revalidate in the base
    kernel when the path they justify is shorter there."""
    source = BENCHMARKS["webserver"].SOURCE
    base = parse_program(source)
    edited = parse_program(LOGIN_SPAWN.apply(source, 0))
    options = ProverOptions(proof_store=str(tmp_path))
    filled = Verifier(edited, options).verify_all()
    assert not filled.result_named("ClientsNeverDuplicated").proved
    warm = Verifier(base, options).verify_all()
    cold = Verifier(base).verify_all()
    assert warm.result_named("FilesOnlyAfterLogin").derivation_key() \
        == cold.result_named("FilesOnlyAfterLogin").derivation_key()
    assert signature(warm) == signature(cold)


@pytest.mark.parametrize("kernel", PAPER_KERNELS)
def test_store_order_does_not_change_results(kernel, tmp_path):
    variants = edit_variants(kernel) + mutant_variants(kernel)
    assert variants
    assert order_disagreements(variants, tmp_path) == []
