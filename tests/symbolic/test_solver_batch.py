"""Batched entailment is a pure optimization.

The prover's hot path discharges obligation groups through
:func:`repro.symbolic.solver.entail_batch` (one ``Facts`` state per
shared prefix) and :meth:`Facts.implies_all` instead of building a fresh
state per query.  These property tests pin the contract: over randomized
literal prefixes and query batches, the batched APIs are *element-wise
identical* to the one-at-a-time baseline — with the symbolic caches
(prefix cache included) on and off, warm and cold.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.symbolic import cache as symcache
from repro.symbolic.solver import Facts, entail_batch, extend_facts, facts_for
from tests.symbolic.test_solver import cubes, literals

queries = st.lists(literals, min_size=0, max_size=4)


def _one_at_a_time(prefix, batch):
    """The baseline: a fresh state folded per query, no sharing."""
    out = []
    for query in batch:
        facts = Facts()
        for literal in prefix:
            facts.assert_term(literal)
        out.append(facts.implies(query))
    return out


class TestBatchEquivalence:
    @settings(deadline=None)
    @given(cubes, queries, st.booleans())
    def test_entail_batch_matches_one_at_a_time(self, prefix, batch,
                                                prefix_cache):
        expected = _one_at_a_time(prefix, batch)
        with symcache.scope(prefix_cache):
            assert entail_batch(prefix, batch) == expected
            # A warm second round (same prefix now cached) must not
            # change a single verdict.
            assert entail_batch(prefix, batch) == expected

    @settings(deadline=None)
    @given(cubes, queries)
    def test_implies_all_matches_individual_implies(self, prefix, batch):
        facts = facts_for(prefix)
        assert facts.implies_all(batch) == [facts.implies(q) for q in batch]

    @settings(deadline=None)
    @given(cubes, queries)
    def test_stop_on_failure_is_a_prefix_of_the_full_run(self, prefix,
                                                         batch):
        full = entail_batch(prefix, batch)
        short = entail_batch(prefix, batch, stop_on_failure=True)
        assert short == full[:len(short)]
        # It stops exactly at the first failure (or runs to the end).
        assert all(short[:-1])
        if len(short) < len(full):
            assert short and not short[-1]


class TestPrefixCacheTransparency:
    @settings(deadline=None)
    @given(cubes, literals)
    def test_facts_for_matches_fresh_fold(self, prefix, query):
        baseline = Facts()
        for literal in prefix:
            baseline.assert_term(literal)
        for enabled in (False, True):
            with symcache.scope(enabled):
                assert facts_for(prefix).implies(query) \
                    == baseline.implies(query)

    @settings(deadline=None)
    @given(cubes, cubes, literals)
    def test_extend_facts_matches_concatenation(self, prefix, extra, query):
        whole = Facts()
        for literal in tuple(prefix) + tuple(extra):
            whole.assert_term(literal)
        for enabled in (False, True):
            with symcache.scope(enabled):
                assert extend_facts(prefix, extra).implies(query) \
                    == whole.implies(query)

    @settings(deadline=None)
    @given(cubes, literals, literals)
    def test_returned_state_is_private(self, prefix, extra, query):
        """Asserting into a served state must not corrupt the cache."""
        with symcache.scope(True):
            first = facts_for(prefix)
            first.assert_term(extra)
            served_again = facts_for(prefix)
            baseline = Facts()
            for literal in prefix:
                baseline.assert_term(literal)
            assert served_again.implies(query) == baseline.implies(query)


class TestTermCacheInteraction:
    @settings(deadline=None)
    @given(cubes, queries)
    def test_batch_identical_with_query_cache_off(self, prefix, batch):
        with symcache.scope(False):
            uncached = entail_batch(prefix, batch)
        with symcache.scope(True):
            assert entail_batch(prefix, batch) == uncached
