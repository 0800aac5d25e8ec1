"""Generation-aware eviction for a long-lived prover process.

The one-shot CLI never worried about unbounded growth: the intern table
and the simplify/DNF/solver memos die with the process.  A daemon
verifying thousands of *unrelated* kernels would grow them without
bound — ``reset_interning()`` exists but nothing long-lived ever called
it.

:class:`CacheGovernor` is that caller.  Between batches (never while a
verification is in flight — the caller guarantees quiescence) it checks
the intern-table population against a budget and, past it, starts a new
*generation*: the intern table is reset and the simplify/DNF/solver
memos are cleared with it.  Warm reuse survives collection through the
persistent proof store: entries unpickle into the fresh generation's
table, so a collected daemon gets slower for exactly one round per
kernel, never wrong.
"""

from __future__ import annotations

from .. import obs

#: Default ceiling on interned-term population before a collection
#: (``repro serve --max-intern-terms``).
DEFAULT_MAX_INTERN_TERMS = 1_000_000


class CacheGovernor:
    """Bounds a long-lived process's symbolic caches by generation.

    ``maybe_collect()`` is cheap when under budget (one ``len`` of the
    intern table) and must only be called at a quiescent point: no
    verification in flight, no live :class:`~repro.prover.engine.Verifier`
    expected to survive the call (a Verifier's ``_step_cache`` pins its
    generation's terms; the serve daemon builds a fresh one per
    submission precisely so collection is safe between batches).
    """

    def __init__(self,
                 max_intern_terms: int = DEFAULT_MAX_INTERN_TERMS) -> None:
        self.max_intern_terms = max(1, int(max_intern_terms))
        #: completed collections (the current generation number)
        self.generation = 0

    def over_budget(self) -> bool:
        """Whether the intern table has outgrown its budget."""
        from ..symbolic.expr import intern_table_size

        return intern_table_size() > self.max_intern_terms

    def collect(self) -> None:
        """Start a new generation unconditionally: reset the intern
        table and clear the simplify/DNF/solver memos."""
        from ..symbolic import cache as symcache
        from ..symbolic.expr import intern_table_size, reset_interning

        before = intern_table_size()
        reset_interning()
        symcache.clear_all()
        self.generation += 1
        obs.incr("serve.generation.collected")
        obs.event("serve.collection", generation=self.generation,
                  terms_before=before,
                  terms_after=intern_table_size())

    def maybe_collect(self) -> bool:
        """Collect if over budget; returns whether a collection ran."""
        if not self.over_budget():
            return False
        self.collect()
        return True

    def to_dict(self) -> dict:
        """JSON-ready governor state (for ``stats`` responses)."""
        from ..symbolic.expr import intern_table_size

        return {
            "generation": self.generation,
            "max_intern_terms": self.max_intern_terms,
            "intern_terms": intern_table_size(),
        }
