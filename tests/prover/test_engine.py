"""Tests for the verification engine: options, caching, reports."""

from collections import Counter

import pytest

from repro import obs
from repro.props import (
    NonInterference, TraceProperty, comp_pat, msg_pat, recv_pat, send_pat,
    specify,
)
from repro.prover import ProverOptions, Verifier, engine, prove, verify
from repro.systems import BENCHMARKS


def props():
    return [
        TraceProperty(
            "AuthBeforeTerm", "Enables",
            recv_pat(comp_pat("Password"), msg_pat("Auth", "?u")),
            send_pat(comp_pat("Terminal"), msg_pat("ReqTerm", "?u")),
        ),
        TraceProperty(
            "Backwards", "Enables",
            send_pat(comp_pat("Terminal"), msg_pat("ReqTerm", "?u")),
            recv_pat(comp_pat("Password"), msg_pat("Auth", "?u")),
        ),
    ]


class TestReports:
    def test_mixed_report(self, ssh_info):
        report = verify(specify(ssh_info, *props()))
        assert not report.all_proved
        assert report.result_named("AuthBeforeTerm").proved
        assert not report.result_named("Backwards").proved
        assert report.total_seconds > 0
        assert "FAILURES" in str(report)

    def test_result_named_missing(self, ssh_info):
        report = verify(specify(ssh_info, props()[0]))
        with pytest.raises(KeyError):
            report.result_named("nope")

    def test_prove_single(self, ssh_info):
        result = prove(specify(ssh_info, *props()), "AuthBeforeTerm")
        assert result.proved

    def test_result_rendering(self, ssh_info):
        report = verify(specify(ssh_info, *props()))
        rendered = [str(r) for r in report.results]
        assert any(r.startswith("✓") for r in rendered)
        assert any(r.startswith("✗") for r in rendered)


class TestOptionConfigurations:
    @pytest.mark.parametrize("options", [
        ProverOptions(),
        ProverOptions(syntactic_skip=False),
        ProverOptions(memoize_step=False),
        ProverOptions(cache_subproofs=False),
        ProverOptions(syntactic_skip=False, memoize_step=False,
                      cache_subproofs=False),
    ])
    def test_verdicts_invariant_under_options(self, ssh_info, options):
        """Optimizations must never change what is provable."""
        report = verify(specify(ssh_info, *props()), options)
        assert report.result_named("AuthBeforeTerm").proved
        assert not report.result_named("Backwards").proved

    def test_step_memoization(self, ssh_info):
        verifier = Verifier(specify(ssh_info, *props()))
        assert verifier.generic_step() is verifier.generic_step()

    def test_step_recomputed_without_memo(self, ssh_info):
        verifier = Verifier(specify(ssh_info, *props()),
                            ProverOptions(memoize_step=False))
        assert verifier.generic_step() is not verifier.generic_step()

    def test_subproof_cache_populated(self, ssh_info):
        verifier = Verifier(specify(ssh_info, props()[0]))
        verifier.verify_all()
        assert verifier._invariant_cache  # the SSH invariant was cached

    def test_subproof_cache_disabled(self, ssh_info):
        verifier = Verifier(specify(ssh_info, props()[0]),
                            ProverOptions(cache_subproofs=False))
        verifier.verify_all()
        assert not verifier._invariant_cache


class TestObservedRunsTakeTheSamePath:
    """A telemetry sink changes what a run records, never what it runs:
    every ``verify_all()`` searches and builds its step afresh."""

    SEARCHES = ("prove_trace_property", "check_ni_base",
                "check_ni_exchange")

    def test_observed_and_unobserved_runs_make_the_same_calls(
            self, monkeypatch):
        calls = Counter()

        def counted(name, real):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return wrapper

        for name in self.SEARCHES:
            monkeypatch.setattr(engine, name,
                                counted(name, getattr(engine, name)))
        monkeypatch.setattr(engine, "generic_step",
                            counted("generic_step", engine.generic_step))
        spec = BENCHMARKS["browser"].load()

        def run():
            calls.clear()
            assert Verifier(spec).verify_all().all_proved
            return dict(calls)

        first = run()
        second = run()
        with obs.use(obs.Telemetry()):
            observed = run()
        assert set(first) == set(self.SEARCHES) | {"generic_step"}
        assert first["generic_step"] == 1
        assert second == first
        assert observed == first


class TestNIIntegration:
    def test_ni_through_engine(self, ssh_info):
        ni = NonInterference(
            "PasswordIsolated", high_patterns=(comp_pat("Password"),),
            high_vars=frozenset({"authorized"}),
        )
        report = verify(specify(ssh_info, ni))
        # The SSH kernel sends ReqAuth (containing low Connection data) to
        # the high Password component from a low handler: NIlo fails —
        # and that is the *correct* verdict for this labeling.
        assert not report.all_proved
        assert "NIlo" in report.results[0].error
