"""A small decision procedure for the path-condition fragment.

Path conditions produced by symbolic evaluation are conjunctions of
*literals*: equalities and disequalities over strings, booleans, numbers,
tuples-via-projections and component identities, plus linear integer
comparisons.  :class:`Facts` decides this fragment with:

* union-find congruence classes with downward congruence on component
  configurations (identical components have identical configurations),
* structural distinctness of component terms (Init components are pairwise
  distinct; fresh spawns are distinct from anything pre-existing),
* Gaussian elimination over exact fractions for linear integer equalities,
  with sound integer reasoning for the comparisons the benchmarks need.

Soundness contract (what the proofs rely on):

* :meth:`Facts.inconsistent` returning ``True`` is **sound** — the asserted
  literals really are unsatisfiable.  Returning ``False`` merely means "not
  refuted" (the procedure is incomplete).
* :meth:`Facts.implies` returning ``True`` is **sound** — the conclusion
  really follows.  ``False`` means "could not show it".

The prover only ever uses the sound directions: infeasible paths are pruned
only on ``inconsistent() == True`` and requirements are discharged only on
``implies(...) == True``, mirroring how the paper's tactics either close a
goal or fail (section 5.3: the automation is incomplete but never wrong).
"""

from __future__ import annotations

import time
from collections import OrderedDict
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .. import obs
from ..lang import types as ty
from ..lang.values import VNum
from . import cache as _cache
from .expr import S_FALSE, S_TRUE, SComp, SConst, SOp, Term, snot
from .simplify import (
    Cube,
    Linear,
    _comp_identity,
    dnf,
    linearize,
    simplify,
    term_type,
)

#: The process-wide solver query cache.  A :class:`Facts` is a
#: deterministic fold over its asserted-literal sequence, so every query
#: answer is a pure function of ``(kind, asserted sequence, query term)``
#: — that tuple (of *interned terms*, never raw hashes, so collisions
#: cannot produce unsound answers) is the cache key.  Bounded LRU;
#: :mod:`repro.symbolic.cache` owns the bound and the on/off switch.
_QUERY_CACHE: "OrderedDict[tuple, bool]" = OrderedDict()

#: The process-wide *prefix* cache: built :class:`Facts` states keyed on
#: the exact literal sequence asserted into them.  A :class:`Facts` is a
#: deterministic fold over its assertion log, so a cached state for a
#: prefix can be copied and extended instead of re-folding the whole
#: sequence — path feasibility, NI case analysis and occurrence facts
#: ask for the same prefixes thousands of times.  Entries are never
#: handed out directly: :func:`facts_for` returns copies, so cached
#: states stay frozen.  Bounded LRU under the same switch as the query
#: cache (:mod:`repro.symbolic.cache`).
_PREFIX_CACHE: "OrderedDict[Tuple[Term, ...], Facts]" = OrderedDict()


def clear_caches() -> None:
    """Empty the solver query cache and the prefix cache."""
    _QUERY_CACHE.clear()
    _PREFIX_CACHE.clear()


def cache_sizes() -> Dict[str, int]:
    """Current entry counts of the solver caches."""
    return {
        "solver.cache.size": len(_QUERY_CACHE),
        "solver.prefix.size": len(_PREFIX_CACHE),
    }


def _query_cache_get(key: tuple) -> Optional[bool]:
    hit = _QUERY_CACHE.get(key)
    if hit is None:
        obs.incr("solver.cache.miss")
        return None
    obs.incr("solver.cache.hit")
    _QUERY_CACHE.move_to_end(key)
    return hit


def _query_cache_put(key: tuple, result: bool) -> None:
    _QUERY_CACHE[key] = result
    limit = _cache.SOLVER_CACHE_SIZE
    while len(_QUERY_CACHE) > limit:
        _QUERY_CACHE.popitem(last=False)


class Facts:
    """A conjunction of literals with incremental consistency checking."""

    def __init__(self) -> None:
        self._parent: Dict[Term, Term] = {}
        self._diseqs: List[Tuple[Term, Term]] = []
        #: linear rows asserted equal to zero
        self._zero_rows: List[Linear] = []
        #: linear rows asserted >= 0 (integers; lt is folded into le via +1)
        self._nonneg_rows: List[Linear] = []
        self._contradiction = False
        #: the assertion log: every ``assert_term`` entry in order, which
        #: (by determinism of the fold) fully determines this state and
        #: therefore keys the process-wide query cache
        self._asserted: List[Term] = []

    # -- copying -------------------------------------------------------------

    def copy(self) -> "Facts":
        """An independent copy (used for entailment probes)."""
        c = Facts.__new__(Facts)
        c._parent = dict(self._parent)
        c._diseqs = list(self._diseqs)
        c._zero_rows = list(self._zero_rows)
        c._nonneg_rows = list(self._nonneg_rows)
        c._contradiction = self._contradiction
        c._asserted = list(self._asserted)
        return c

    # -- union-find ----------------------------------------------------------

    def _find(self, t: Term) -> Term:
        path = []
        while t in self._parent:
            path.append(t)
            t = self._parent[t]
        for p in path:
            self._parent[p] = t
        return t

    def _prefer_rep(self, a: Term, b: Term) -> Tuple[Term, Term]:
        """(new_rep, absorbed): constants make the best representatives."""
        if isinstance(b, SConst):
            return b, a
        return a, b

    def _merge(self, a: Term, b: Term) -> None:
        ra, rb = self._find(a), self._find(b)
        if ra == rb:
            return
        if isinstance(ra, SConst) and isinstance(rb, SConst):
            if ra.value != rb.value:
                self._contradiction = True
                return
        if isinstance(ra, SComp) and isinstance(rb, SComp):
            decided = _comp_identity(ra, rb)
            if decided is False:
                self._contradiction = True
                return
        rep, absorbed = self._prefer_rep(ra, rb)
        self._parent[absorbed] = rep
        # Downward congruence on component configurations.
        if isinstance(ra, SComp) and isinstance(rb, SComp):
            for x, y in zip(ra.config, rb.config):
                self._merge(simplify(x), simplify(y))
                if self._contradiction:
                    return
        # Numeric classes feed the linear engine.
        if _is_numeric(ra) or _is_numeric(rb):
            self._add_zero_row(linearize(SOp("sub", (ra, rb))))
        self._recheck_diseqs()

    def _recheck_diseqs(self) -> None:
        for a, b in self._diseqs:
            if self._find(a) == self._find(b):
                self._contradiction = True
                return

    # -- linear engine ---------------------------------------------------------

    def _add_zero_row(self, row: Linear) -> None:
        const, items = row
        if not items:
            if const != 0:
                self._contradiction = True
            return
        self._zero_rows.append(row)
        if self._reduce_all() is None:
            self._contradiction = True

    def _reduce_all(self) -> Optional[List[Linear]]:
        """Row-reduce the zero rows; ``None`` signals inconsistency."""
        reduced: List[Linear] = []
        for row in self._zero_rows:
            row = _reduce_row(row, reduced)
            const, items = row
            if not items:
                if const != 0:
                    return None
                continue
            reduced.append(_scale_leading(row))
        return reduced

    def _row_implied_zero(self, row: Linear) -> bool:
        reduced = self._reduce_all()
        if reduced is None:
            return True  # inconsistent facts imply everything
        for derived in self._bound_pair_equalities(reduced):
            derived = _reduce_row(derived, reduced)
            if derived[1]:
                reduced = reduced + [_scale_leading(derived)]
        const, items = _reduce_row(self._normalize_row(row), reduced)
        return not items and const == 0

    def _bound_pair_equalities(self, reduced: List[Linear]) -> List[Linear]:
        """Equalities forced by opposite inequality bounds: if both
        ``e >= 0`` and ``-e >= 0`` hold then ``e == 0`` (e.g. ``x < 1``
        over the naturals forces ``x == 0``)."""
        evaluated: List[Linear] = []
        for row in self._nonneg_rows + self._natural_rows():
            r = _reduce_row(self._normalize_row(row), reduced)
            if r[1]:
                evaluated.append(r)
        forced: List[Linear] = []
        for i, (c1, it1) in enumerate(evaluated):
            negated = tuple((a, -c) for a, c in it1)
            for c2, it2 in evaluated[i + 1:]:
                if it2 == negated and c1 + c2 == 0:
                    forced.append((c1, it1))
        return forced

    def _normalize_row(self, row: Linear) -> Linear:
        """Rewrite a row's atoms through the union-find (reps only)."""
        const, items = row
        out: Dict[Term, Fraction] = {}
        total = const
        for atom, coeff in items:
            rep = self._find(atom)
            if isinstance(rep, SConst) and isinstance(rep.value, VNum):
                total += coeff * rep.value.n
            else:
                out[rep] = out.get(rep, Fraction(0)) + coeff
        return total, tuple(sorted(
            ((a, c) for a, c in out.items() if c != 0),
            key=lambda item: repr(item[0]),
        ))

    def _natural_rows(self) -> List[Linear]:
        """Numbers are naturals: every numeric atom mentioned anywhere is
        itself >= 0.  These implicit rows are what make e.g.
        ``attempts + 1 == 0`` refutable."""
        atoms = set()
        for _, items in self._zero_rows + self._nonneg_rows:
            for atom, _coeff in items:
                atoms.add(atom)
        for a, b in self._diseqs:
            if _is_numeric(a) or _is_numeric(b):
                for term in (a, b):
                    for atom, _coeff in linearize(term)[1]:
                        atoms.add(atom)
        return [
            (Fraction(0), ((atom, Fraction(1)),)) for atom in atoms
        ]

    def _nonneg_violated(self) -> bool:
        """Check the >= 0 rows under the current equalities, using only the
        sound derivations we implement: substitute known values and check
        the sign of fully-determined rows, and pair opposite rows."""
        reduced = self._reduce_all()
        if reduced is None:
            return True
        evaluated: List[Linear] = []
        for row in self._nonneg_rows + self._natural_rows():
            const, items = _reduce_row(self._normalize_row(row), reduced)
            if not items:
                if const < 0:
                    return True
                continue
            evaluated.append((const, items))
        # a >= 0 and -a - k >= 0 with k > 0 is a contradiction; more
        # generally two rows with opposite atom parts and negative constant
        # sum cannot both be non-negative.
        for i, (c1, it1) in enumerate(evaluated):
            negated = tuple((a, -c) for a, c in it1)
            for c2, it2 in evaluated[i + 1:]:
                if it2 == negated and c1 + c2 < 0:
                    return True
        return False

    # -- public API -------------------------------------------------------------

    def assert_term(self, t: Term) -> None:
        """Assert a boolean term (conjunctions are split; anything else must
        be a literal as produced by :func:`repro.symbolic.simplify.dnf`)."""
        t = simplify(t)
        if t == S_TRUE:
            return
        self._asserted.append(t)
        if t == S_FALSE:
            self._contradiction = True
            return
        if isinstance(t, SOp) and t.op == "and":
            for a in t.args:
                self.assert_term(a)
            return
        if isinstance(t, SOp) and t.op == "not":
            self._assert_negated(t.args[0])
            return
        if isinstance(t, SOp) and t.op == "eq":
            self._merge(t.args[0], t.args[1])
            return
        if isinstance(t, SOp) and t.op in ("lt", "le"):
            self._assert_cmp(t.op, t.args[0], t.args[1])
            return
        # Bare boolean atom.
        self._merge(t, S_TRUE)

    def assume_cube(self, cube: Cube) -> None:
        for literal in cube:
            self.assert_term(literal)

    def _assert_negated(self, atom: Term) -> None:
        if isinstance(atom, SOp) and atom.op == "eq":
            a, b = atom.args
            self._assert_diseq(a, b)
            return
        if isinstance(atom, SOp) and atom.op == "lt":
            self._assert_cmp("le", atom.args[1], atom.args[0])
            return
        if isinstance(atom, SOp) and atom.op == "le":
            self._assert_cmp("lt", atom.args[1], atom.args[0])
            return
        self._merge(atom, S_FALSE)

    def _assert_diseq(self, a: Term, b: Term) -> None:
        a, b = simplify(a), simplify(b)
        if _is_numeric(a) or _is_numeric(b):
            # A numeric disequality contradicts an implied equality.
            row = linearize(SOp("sub", (a, b)))
            if self._row_implied_zero(row):
                self._contradiction = True
                return
        if self._find(a) == self._find(b):
            self._contradiction = True
            return
        self._diseqs.append((a, b))

    def _assert_cmp(self, op: str, a: Term, b: Term) -> None:
        # le(a,b): b - a >= 0;  lt(a,b): b - a - 1 >= 0 over the integers.
        const, items = linearize(SOp("sub", (b, a)))
        if op == "lt":
            const -= 1
        if not items:
            if const < 0:
                self._contradiction = True
            return
        self._nonneg_rows.append((const, items))
        if self._nonneg_violated():
            self._contradiction = True

    def inconsistent(self) -> bool:
        """Sound when ``True``: the asserted facts are unsatisfiable."""
        if self._contradiction:
            return True
        if _cache.enabled():
            key = ("incon", tuple(self._asserted))
            hit = _query_cache_get(key)
            if hit is not None:
                if hit:
                    self._contradiction = True
                return hit
            result = self._inconsistent_uncached()
            _query_cache_put(key, result)
            return result
        return self._inconsistent_uncached()

    def _inconsistent_uncached(self) -> bool:
        if self._reduce_all() is None:
            self._contradiction = True
            return True
        if self._nonneg_violated():
            self._contradiction = True
            return True
        # Numeric disequalities whose sides the equalities force together.
        for a, b in self._diseqs:
            if _is_numeric(a) or _is_numeric(b):
                if self._row_implied_zero(linearize(SOp("sub", (a, b)))):
                    self._contradiction = True
                    return True
        return False

    def implies(self, t: Term) -> bool:
        """Sound when ``True``: the facts entail ``t``.

        Decided by refutation: every cube of the DNF of ``¬t`` must be
        inconsistent with the current facts.
        """
        obs.incr("solver.implies")
        registry = obs.metrics_active()
        if registry is None:
            return self._implies_timed(t)
        started = time.perf_counter()
        try:
            return self._implies_timed(t)
        finally:
            registry.observe("solver.query.seconds",
                             time.perf_counter() - started)

    def _implies_timed(self, t: Term) -> bool:
        """The body of :meth:`implies` (split out so the latency
        histogram can wrap it without a second code path)."""
        query = simplify(t)
        if _cache.enabled():
            key = ("implies", tuple(self._asserted), query)
            hit = _query_cache_get(key)
            if hit is not None:
                return hit
            result = self._implies_uncached(query)
            _query_cache_put(key, result)
            return result
        return self._implies_uncached(query)

    def _implies_uncached(self, query: Term) -> bool:
        if self.inconsistent():
            return True
        for cube in dnf(snot(query)):
            probe = self.copy()
            probe.assume_cube(cube)
            if not probe.inconsistent():
                return False
        return True

    def implies_all(self, queries: Iterable[Term],
                    stop_on_failure: bool = False) -> List[bool]:
        """Entailment for a batch of queries against one built state.

        Element-wise identical to calling :meth:`implies` per query (the
        property tests assert exactly that).  With ``stop_on_failure``
        the remaining queries after the first ``False`` are skipped and
        the result list is truncated — the short-circuit the tactics use
        when only the conjunction of the batch matters.
        """
        results: List[bool] = []
        for query in queries:
            result = self.implies(query)
            results.append(result)
            if stop_on_failure and not result:
                break
        return results

    def equal(self, a: Term, b: Term) -> bool:
        """Sound when ``True``: facts entail ``a == b``."""
        return self.implies(SOp("eq", (simplify(a), simplify(b))))


# ---------------------------------------------------------------------------
# Prefix-batched entailment
# ---------------------------------------------------------------------------


def _prefix_cache_put(key: Tuple[Term, ...], facts: Facts) -> None:
    _PREFIX_CACHE[key] = facts
    limit = _cache.PREFIX_CACHE_SIZE
    while len(_PREFIX_CACHE) > limit:
        _PREFIX_CACHE.popitem(last=False)


def facts_for(literals: Sequence[Term]) -> Facts:
    """A :class:`Facts` state with ``literals`` asserted in order.

    Semantically identical to folding ``assert_term`` over the sequence
    on a fresh state.  With the symbolic caches enabled, the state is served
    from (or seeded into) the process-wide cache: an exact hit returns a
    copy of the cached state; otherwise the longest cached proper prefix
    is copied and only the suffix literals are discharged incrementally.
    The returned state is always a private copy — callers may assert
    further facts into it freely.
    """
    key = tuple(literals)
    if not _cache.enabled():
        facts = Facts()
        for literal in key:
            facts.assert_term(literal)
        return facts
    cached = _PREFIX_CACHE.get(key)
    if cached is not None:
        obs.incr("solver.prefix.hit")
        _PREFIX_CACHE.move_to_end(key)
        return cached.copy()
    obs.incr("solver.prefix.miss")
    facts = None
    suffix: Tuple[Term, ...] = key
    for cut in range(len(key) - 1, 0, -1):
        base = _PREFIX_CACHE.get(key[:cut])
        if base is not None:
            facts = base.copy()
            suffix = key[cut:]
            break
    if facts is None:
        facts = Facts()
    for literal in suffix:
        facts.assert_term(literal)
    _prefix_cache_put(key, facts.copy())
    return facts


def extend_facts(prefix: Sequence[Term], extra: Sequence[Term]) -> Facts:
    """``facts_for(prefix + extra)`` — the common "shared path condition
    plus a few local constraints" shape, spelled so call sites keep the
    prefix/suffix split visible."""
    return facts_for(tuple(prefix) + tuple(extra))


def entail_batch(prefix: Sequence[Term], queries: Sequence[Term],
                 stop_on_failure: bool = False) -> List[bool]:
    """Discharge a batch of entailment queries sharing an asserted prefix.

    The ``Facts`` state for ``prefix`` is built (or served from the
    prefix cache) once and every query is decided against it — results
    are element-wise identical to building a fresh state per query.
    """
    obs.incr("solver.batch")
    obs.incr("solver.batch.queries", len(queries))
    facts = facts_for(prefix)
    return facts.implies_all(queries, stop_on_failure=stop_on_failure)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _is_numeric(t: Term) -> bool:
    try:
        return term_type(t) == ty.NUM
    except Exception:
        return False


def _reduce_row(row: Linear, reduced: List[Linear]) -> Linear:
    const, items = row
    coeffs = dict(items)
    for r_const, r_items in reduced:
        lead_atom, lead_coeff = r_items[0]
        c = coeffs.get(lead_atom)
        if not c:
            continue
        factor = c / lead_coeff
        const -= factor * r_const
        for atom, coeff in r_items:
            coeffs[atom] = coeffs.get(atom, Fraction(0)) - factor * coeff
    return const, tuple(sorted(
        ((a, c) for a, c in coeffs.items() if c != 0),
        key=lambda item: repr(item[0]),
    ))


def _scale_leading(row: Linear) -> Linear:
    const, items = row
    lead = items[0][1]
    return const / lead, tuple((a, c / lead) for a, c in items)


def cube_inconsistent(cube: Cube) -> bool:
    """Convenience: is a standalone cube unsatisfiable?"""
    facts = Facts()
    facts.assume_cube(cube)
    return facts.inconsistent()


def cube_implies(cube: Cube, t: Term) -> bool:
    """Convenience: does a standalone cube entail ``t``?"""
    facts = Facts()
    facts.assume_cube(cube)
    return facts.implies(t)
