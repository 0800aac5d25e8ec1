"""Cache-governor tests: a long-lived process stays memory-bounded.

The regression being pinned down: before the governor existed, nothing
long-lived ever called ``reset_interning()``, so a
daemon verifying a stream of distinct kernels grew the intern table and
the memo caches without bound.  And — modeled on the PR 6
stale-generation regression — a collection must be *invisible* to every
later verification: slower for one round, never wrong.
"""

import queue

from repro import obs
from repro.prover import ProverOptions, Verifier
from repro.serve.housekeeping import CacheGovernor
from repro.serve.server import (
    ServeOptions,
    VerificationServer,
    _Submission,
)
from repro.symbolic.expr import intern_table_size
from repro.systems import browser, car


class TestGovernor:
    def test_under_budget_is_a_cheap_no_op(self):
        governor = CacheGovernor(max_intern_terms=10**9)
        assert not governor.maybe_collect()
        assert governor.generation == 0

    def test_over_budget_collects_and_bumps_generation(self):
        Verifier(car.load()).verify_all()  # populate the intern table
        populated = intern_table_size()
        governor = CacheGovernor(max_intern_terms=1)
        assert governor.over_budget()
        telemetry = obs.Telemetry()
        with obs.use(telemetry):
            assert governor.maybe_collect()
        assert governor.generation == 1
        # Down to the interpreter-lifetime singletons (true/false etc.).
        assert intern_table_size() < populated
        assert telemetry.counters["serve.generation.collected"] == 1

    def test_collection_is_invisible_to_later_verification(self, tmp_path):
        """The PR 6 stale-generation contract, at daemon scale: verify,
        collect, verify again — the second round must still prove
        everything, serving whole proofs from the persistent store
        (entries unpickle and re-intern into the new generation)."""
        opts = ProverOptions(proof_store=str(tmp_path))
        assert Verifier(car.load(), opts).verify_all().all_proved

        CacheGovernor(max_intern_terms=1).collect()

        report = Verifier(car.load(), opts).verify_all()
        assert report.all_proved
        assert all(r.source == "store" for r in report.results)

    def test_to_dict_reports_population(self):
        governor = CacheGovernor(max_intern_terms=123)
        state = governor.to_dict()
        assert state["max_intern_terms"] == 123
        assert state["generation"] == 0
        assert state["intern_terms"] >= 0


class TestDaemonMemoryBound:
    def test_batches_of_distinct_kernels_stay_bounded(self, tmp_path):
        """A daemon on a starvation budget collects between batches and
        keeps proving correctly across generations."""
        server = VerificationServer(ServeOptions(
            store=str(tmp_path / "ps"), max_intern_terms=1,
        ))

        def verify(source):
            sub = _Submission(session=server.sessions.create(),
                              source=source, replies=queue.Queue(),
                              stream=False)
            server._process_batch([sub])
            return sub.replies.get_nowait()

        first = verify(car.SOURCE)
        assert first["all_proved"]
        second = verify(browser.SOURCE)
        assert second["all_proved"]
        # The governor collected at the quiescent point after batch 1.
        assert second["generation"] >= 1
        assert server.governor.generation >= 1
        # Verdicts across a collection stay correct AND warm reuse
        # survives it: the same kernel re-proves from the store.
        third = verify(car.SOURCE)
        assert third["all_proved"]
        assert third["counters"].get("store.hit", 0) > 0
