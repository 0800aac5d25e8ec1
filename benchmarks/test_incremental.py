"""Incremental re-verification benchmark (§6.4's future-work item,
implemented through the proof store): the cost of re-verifying a kernel
after a benign one-handler edit, through a store filled by the base
kernel, against a verify with no store.

The edits are the benign entries of the ``serve-edit`` edit catalogue
(``perfbench/edits.py``), applied to the benchmark's frozen kernels.
Every timed round starts from reset symbolic state (``reset_interning``),
as a fresh ``repro verify --store`` process after the edit would, and
fills the edit's ``{n}`` with a fresh number.  The number re-keys the
edited handler's fragments, so only the base kernel's entries can
answer a round: the entries earlier rounds filed are for other numbers.

Before any timing, each edit is checked once: its verdicts and
derivation keys equal a cold verify's (no store), only the edited
handler's fragments and NI obligations are searched, and every stored
fragment looked up revalidates.  The table lands in
``benchmarks/results/incremental.txt``.
"""

import itertools
import statistics
import time
from contextlib import contextmanager

import pytest

from perfbench.edits import CATALOGUE
from perfbench.kernels import sources
from repro import obs
from repro.frontend import parse_program
from repro.prover import ProverOptions, Verifier, engine
from repro.prover.incremental import changed_parts, fragment_digests
from repro.symbolic.expr import reset_interning

#: Timed rounds per edit and configuration (the table reports medians).
ROUNDS = 5
BENIGN = tuple(e for e in CATALOGUE if e.breaks is None)
CAR_EDIT = next(e for e in BENIGN if e.site == "accelerate-volume")

#: The engine's search entry points, and whether each searches one
#: exchange (passed last) or a base case.
_SEARCHES = {
    "prove_trace_base": False,
    "prove_trace_exchange": True,
    "check_ni_base": False,
    "check_ni_exchange": True,
}


@contextmanager
def _searched_parts():
    """The parts the search stage runs on while the block runs: ``None``
    for a base case or NI base condition, else the exchange key."""
    parts = []
    saved = {name: getattr(engine, name) for name in _SEARCHES}

    def recording(real, per_exchange):
        def search(*args):
            parts.append(args[-1].key if per_exchange else None)
            return real(*args)
        return search

    for name, per_exchange in _SEARCHES.items():
        setattr(engine, name, recording(saved[name], per_exchange))
    try:
        yield parts
    finally:
        for name, real in saved.items():
            setattr(engine, name, real)


def _results(report):
    return [(r.property.name, r.status, r.derivation_key())
            for r in report.results]


class _Edit:
    """One catalogue edit: a store filled by its base kernel, and edited
    kernels with fresh numbers."""

    def __init__(self, edit, directory):
        self.edit = edit
        self.source = sources([edit.kernel])[edit.kernel]
        self.base = parse_program(self.source)
        self.options = ProverOptions(proof_store=str(directory))
        self._numbers = itertools.count(1)
        reset_interning()
        assert Verifier(self.base, self.options).verify_all().all_proved

    def edited(self):
        """The edited kernel with a number no earlier call used, parsed,
        and reset symbolic state."""
        spec = parse_program(self.edit.apply(self.source,
                                              next(self._numbers)))
        reset_interning()
        return spec

    def check(self):
        """Verdicts and keys equal a cold verify's, only the edited
        handler is searched, and every stored fragment revalidates."""
        edited = self.edited()
        cold = Verifier(edited).verify_all()
        assert cold.all_proved, self.edit.site
        reset_interning()
        with _searched_parts() as searched, \
                obs.use(obs.Telemetry()) as telemetry:
            report = Verifier(edited, self.options).verify_all()
        assert _results(report) == _results(cold), self.edit.site
        changed = changed_parts(fragment_digests(self.base.program),
                                fragment_digests(edited.program))
        assert set(searched) <= set(changed), (self.edit.site, searched)
        assert "trace.fragment.invalid" not in telemetry.counters


def _median_ms(verify, edit):
    """The median time of ``verify(edit.edited())`` over the rounds, the
    parse and the reset untimed."""
    times = []
    for _ in range(ROUNDS):
        spec = edit.edited()
        started = time.perf_counter()
        verify(spec)
        times.append(time.perf_counter() - started)
    return statistics.median(times) * 1000


@pytest.fixture(scope="module")
def car_edit(tmp_path_factory):
    edit = _Edit(CAR_EDIT, tmp_path_factory.mktemp("incremental-car"))
    edit.check()
    return edit


def test_full_reverification(benchmark, car_edit):
    """Baseline: re-verify the edited car kernel with no store."""
    report = benchmark.pedantic(
        lambda spec: Verifier(spec).verify_all(),
        setup=lambda: ((car_edit.edited(),), {}), rounds=ROUNDS,
    )
    assert report.all_proved


def test_incremental_reverification(benchmark, car_edit):
    """Re-verify the edited car kernel through the store its base
    kernel filled."""
    report = benchmark.pedantic(
        lambda spec: Verifier(spec, car_edit.options).verify_all(),
        setup=lambda: ((car_edit.edited(),), {}), rounds=ROUNDS,
    )
    assert report.all_proved


def test_catalogue_reuse_table(tmp_path, record_table):
    """Every benign catalogue edit, checked, then timed both ways."""
    lines = [
        f"incremental re-verification: benign catalogue edits, median of "
        f"{ROUNDS} rounds (ms),",
        "each from reset symbolic state; the store was filled by the base "
        "kernel",
        f"{'kernel':<10} {'edit':<22} {'no store':>9} {'store':>9} "
        f"{'ratio':>6}",
    ]
    totals = [0.0, 0.0]
    for n, catalogued in enumerate(BENIGN):
        edit = _Edit(catalogued, tmp_path / str(n))
        edit.check()
        plain = _median_ms(lambda spec: Verifier(spec).verify_all(), edit)
        stored = _median_ms(
            lambda spec: Verifier(spec, edit.options).verify_all(), edit)
        totals[0] += plain
        totals[1] += stored
        lines.append(f"{catalogued.kernel:<10} {catalogued.site:<22} "
                     f"{plain:>9.1f} {stored:>9.1f} {stored / plain:>6.2f}")
    lines.append(f"{'total':<33} {totals[0]:>9.1f} {totals[1]:>9.1f} "
                 f"{totals[1] / totals[0]:>6.2f}")
    record_table("incremental", "\n".join(lines))
