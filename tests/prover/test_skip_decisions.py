"""The §6.4 syntactic skip is decided by the search and again by the
checker, each with one lookup per property.

* The checker decides trace skips itself: a search that treats every
  exchange as silent (its imported ``live_exchanges`` replaced) gets
  its derivation rejected — by the whole-proof check without a store,
  and by the batched skip check with one, before any fragment of the
  property is filed.
* The skip counters keep their totals: ``tactic.exchange.skipped``,
  ``tactic.exchange.expanded``, ``invariant.exchange.skipped`` and
  ``invariant.case`` per kernel, with no store and through a cold and
  then a warm store.  Figure 6's ``skip%`` and the fragment sums of the
  incremental and serve tests read these counters.
"""

import pytest

from perfbench.kernels import PAPER_KERNELS, SYNTHETIC, sources
from repro import obs
from repro.frontend import parse_program
from repro.props import TraceProperty
from repro.prover import ProverOptions, Verifier, trace_tactics
from repro.prover.proofstore import ProofStore

KERNELS = PAPER_KERNELS + (SYNTHETIC,)

COUNTERS = ("tactic.exchange.skipped", "tactic.exchange.expanded",
            "invariant.exchange.skipped", "invariant.case")

#: Each kernel's totals of :data:`COUNTERS` for one verify with no
#: store, and for a cold and then a warm verify through one store.
TOTALS = {
    "car": {"none": (453, 9, 65, 1), "cold": (453, 9, 65, 1),
            "warm": (453, 0, 0, 0)},
    "browser": {"none": (100, 5, 0, 0), "cold": (100, 5, 0, 0),
                "warm": (100, 0, 0, 0)},
    "browser2": {"none": (156, 6, 0, 0), "cold": (156, 6, 0, 0),
                 "warm": (156, 0, 0, 0)},
    "browser3": {"none": (192, 6, 0, 0), "cold": (192, 6, 0, 0),
                 "warm": (192, 0, 0, 0)},
    "ssh": {"none": (100, 5, 100, 10), "cold": (100, 5, 100, 10),
            "warm": (100, 0, 0, 0)},
    "ssh2": {"none": (70, 2, 35, 1), "cold": (70, 2, 35, 1),
             "warm": (70, 0, 0, 0)},
    # A warm verify does not search the sender-chain lemmas, whose
    # searches skip 35 exchanges.
    "webserver": {"none": (245, 7, 0, 0), "cold": (245, 7, 0, 0),
                  "warm": (210, 0, 0, 0)},
    "scale32": {"none": (8224, 32, 8224, 32), "cold": (8224, 32, 8224, 32),
                "warm": (8224, 0, 0, 0)},
}


@pytest.fixture(scope="module")
def kernel_sources():
    return sources(KERNELS)


def counted(spec, options=None):
    with obs.use(obs.Telemetry()) as telemetry:
        report = Verifier(spec, options).verify_all()
    assert report.all_proved
    return tuple(telemetry.counters.get(name, 0) for name in COUNTERS)


@pytest.mark.parametrize("kernel", KERNELS)
def test_skip_counters_keep_their_totals(kernel, kernel_sources, tmp_path):
    src = kernel_sources[kernel]
    store = ProverOptions(proof_store=str(tmp_path / "store"))
    assert TOTALS[kernel] == {
        "none": counted(parse_program(src)),
        "cold": counted(parse_program(src), store),
        "warm": counted(parse_program(src), store),
    }


class TestTheCheckerDecidesTraceSkips:
    """Only the search is told that nothing is live."""

    @pytest.fixture(autouse=True)
    def search_sees_nothing_live(self, monkeypatch):
        monkeypatch.setattr(trace_tactics, "live_exchanges",
                            lambda program, pattern: frozenset())

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_rejected_without_a_store(self, kernel, kernel_sources):
        spec = parse_program(kernel_sources[kernel])
        report = Verifier(spec).verify_all()
        traces = [result for result in report.results
                  if isinstance(result.property, TraceProperty)]
        assert traces
        for result in traces:
            assert not result.proved
            assert "proof checker rejected the derivation" in result.error
            assert "invalid syntactic skip of " in result.error

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_rejected_with_a_store_before_any_fragment_is_filed(
            self, kernel, kernel_sources, tmp_path):
        spec = parse_program(kernel_sources[kernel])
        directory = str(tmp_path / "store")
        verifier = Verifier(spec, ProverOptions(proof_store=directory))
        report = verifier.verify_all()
        store = ProofStore(directory)
        parts = list(verifier.keys.slice_digests())
        traces = [result for result in report.results
                  if isinstance(result.property, TraceProperty)]
        assert traces
        for result in traces:
            assert not result.proved
            assert "invalid syntactic skip of " in result.error
            assert all(store.get(verifier.keys.fragment_key(
                result.property, part)) is None for part in parts)
