"""Term simplification and normalization.

The prover's entailment checks live or die by normalization: the same fact
must reach the solver in the same shape regardless of which handler produced
it.  This module provides:

* :func:`simplify` — bottom-up rewriting: constant folding, equality
  decomposition at tuple type, component-identity decisions that are purely
  structural (distinct Init components, freshly spawned components), boolean
  flattening and absorption, and linear normalization of numeric atoms.
* :func:`dnf` — disjunctive normal form over simplified terms.  Symbolic
  execution forks a branch per DNF disjunct, so downstream path conditions
  are always plain conjunctions of *literals* (atoms or negated atoms),
  which is the fragment the solver decides.
* :func:`term_type` — type reconstruction for terms.

Domain-specific reduction strategies were one of the paper's key
optimizations (section 6.4: 80× average speedup); :func:`simplify` is where
those strategies live in this reproduction.

Both :func:`simplify` and the DNF expansion walk terms with explicit
stacks — never native recursion over term structure — so pathologically
deep terms (long handler sequences compile to deep ``SOp`` chains) cannot
overflow the interpreter stack mid-proof.  Because terms are immutable
and interned (:mod:`repro.symbolic.expr`), both functions memoize their
results in bounded process-wide LRU caches; ``repro.symbolic.cache``
holds the switch and the size knobs, and the differential tests assert
the cached results are byte-identical to uncached ones.
"""

from __future__ import annotations

from collections import OrderedDict
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from ..obs import core as obs
from ..lang import types as ty
from ..lang.errors import SymbolicError
from ..lang.values import VBool, VNum, VStr, VTuple
from . import cache as _cache
from .expr import (
    S_FALSE,
    S_TRUE,
    SComp,
    SConst,
    SOp,
    SProj,
    STuple,
    SVar,
    Term,
    sand,
    term_children,
)

# ---------------------------------------------------------------------------
# Types of terms
# ---------------------------------------------------------------------------


def term_type(t: Term) -> ty.Type:
    """Reconstruct the REFLEX type of a term."""
    if isinstance(t, SConst):
        from ..lang.values import type_of

        return type_of(t.value)
    if isinstance(t, SVar):
        return t.type
    if isinstance(t, STuple):
        return ty.TupleType(tuple(term_type(e) for e in t.elems))
    if isinstance(t, SProj):
        base = term_type(t.base)
        if not isinstance(base, ty.TupleType):
            raise SymbolicError(f"projection of non-tuple term {t}")
        return base.elems[t.index]
    if isinstance(t, SComp):
        return ty.CompType(t.ctype)
    if isinstance(t, SOp):
        if t.op in ("eq", "not", "and", "or", "lt", "le"):
            return ty.BOOL
        if t.op in ("add", "sub"):
            return ty.NUM
        if t.op == "concat":
            return ty.STR
    raise SymbolicError(f"cannot type term {t!r}")


# ---------------------------------------------------------------------------
# Linear arithmetic normalization
# ---------------------------------------------------------------------------

#: A linear polynomial: constant + sum(coeff * atom); atoms are non-linear
#: numeric terms (variables, projections, ...).
Linear = Tuple[Fraction, Tuple[Tuple[Term, Fraction], ...]]


def linearize(t: Term) -> Linear:
    """Normalize a numeric term into ``constant + Σ coeff·atom`` form."""
    const, coeffs = _lin(t)
    items = tuple(sorted(
        ((a, c) for a, c in coeffs.items() if c != 0),
        key=lambda item: repr(item[0]),
    ))
    return const, items


def _lin(t: Term) -> Tuple[Fraction, Dict[Term, Fraction]]:
    const = Fraction(0)
    coeffs: Dict[Term, Fraction] = {}
    stack: List[Tuple[Term, int]] = [(t, 1)]
    while stack:
        current, sign = stack.pop()
        if isinstance(current, SConst) and isinstance(current.value, VNum):
            const += sign * current.value.n
        elif isinstance(current, SOp) and current.op in ("add", "sub"):
            stack.append((current.args[0], sign))
            stack.append((
                current.args[1],
                sign if current.op == "add" else -sign,
            ))
        else:
            # anything else is an opaque numeric atom
            coeffs[current] = coeffs.get(current, Fraction(0)) + sign
    return const, coeffs


def linear_to_term(lin: Linear) -> Term:
    """Rebuild a canonical term from a linear normal form."""
    const, items = lin
    parts: List[Term] = []
    for atom, coeff in items:
        if coeff == 1:
            parts.append(atom)
        else:
            # integer coefficients only arise from repeated addition of the
            # same atom; keep them as explicit sums for readability.
            reps = int(coeff)
            if Fraction(reps) != coeff or reps <= 0:
                raise SymbolicError(
                    f"non-integral linear coefficient {coeff} for {atom}"
                )
            parts.extend([atom] * reps)
    term: Optional[Term] = None
    for p in parts:
        term = p if term is None else SOp("add", (term, p))
    if term is None:
        return SConst(VNum(int(const)))
    if const != 0:
        if const == int(const):
            op = "add" if const > 0 else "sub"
            term = SOp(op, (term, SConst(VNum(abs(int(const))))))
        else:  # pragma: no cover - fractions never escape the solver
            raise SymbolicError(f"non-integral constant {const}")
    return term


# ---------------------------------------------------------------------------
# Simplification
# ---------------------------------------------------------------------------

#: The process-wide simplify memo (input term → simplified term), LRU
#: evicted at ``cache.SIMPLIFY_CACHE_SIZE``.  Sound to share across every
#: caller because terms are immutable and simplification is deterministic.
_SIMPLIFY_MEMO: "OrderedDict[Term, Term]" = OrderedDict()

#: The process-wide DNF memo (simplified term → tuple of cubes).
_DNF_MEMO: "OrderedDict[Term, Tuple[Cube, ...]]" = OrderedDict()

#: Reentrancy depth of :func:`simplify`/:func:`dnf`; evicting only at
#: depth zero keeps entries an in-flight outer call still relies on.
_DEPTH = 0


def clear_caches() -> None:
    """Empty the simplify and DNF memos."""
    _SIMPLIFY_MEMO.clear()
    _DNF_MEMO.clear()


def cache_sizes() -> Dict[str, int]:
    """Current entry counts of this module's memos."""
    return {
        "simplify.cache.size": len(_SIMPLIFY_MEMO),
        "dnf.cache.size": len(_DNF_MEMO),
    }


def simplify(t: Term) -> Term:
    """Bottom-up simplification; idempotent on its own output."""
    global _DEPTH
    if isinstance(t, (SConst, SVar)):
        return t
    if not _cache.enabled():
        return _simplify_into(t, {})
    memo = _SIMPLIFY_MEMO
    hit = memo.get(t)
    if hit is not None:
        obs.incr("simplify.cache.hit")
        memo.move_to_end(t)
        return hit
    obs.incr("simplify.cache.miss")
    _DEPTH += 1
    try:
        result = _simplify_into(t, memo)
    finally:
        _DEPTH -= 1
        if _DEPTH == 0:
            limit = _cache.SIMPLIFY_CACHE_SIZE
            while len(memo) > limit:
                memo.popitem(last=False)
    return result


def _resolved(t: Term, memo: Dict[Term, Term]) -> Term:
    """The simplified form of a child ``t`` (leaves simplify to themselves
    and are kept out of the memo)."""
    if isinstance(t, (SConst, SVar)):
        return t
    return memo[t]


def _simplify_into(t: Term, memo: Dict[Term, Term]) -> Term:
    """Iterative post-order simplification of ``t``, recording every
    visited (non-leaf) sub-term's simplified form in ``memo``."""
    stack: List[Term] = [t]
    while stack:
        current = stack[-1]
        if current in memo:
            stack.pop()
            continue
        pending = [
            c for c in term_children(current)
            if not isinstance(c, (SConst, SVar)) and c not in memo
        ]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        memo[current] = _simplify_node(current, memo)
    return memo[t]


def _simplify_node(t: Term, memo: Dict[Term, Term]) -> Term:
    """Rebuild one node from its already-simplified children."""
    if isinstance(t, STuple):
        return STuple(tuple(_resolved(e, memo) for e in t.elems))
    if isinstance(t, SComp):
        return SComp(
            t.label, t.ctype,
            tuple(_resolved(e, memo) for e in t.config),
            t.origin, t.seq,
        )
    if isinstance(t, SProj):
        base = _resolved(t.base, memo)
        if isinstance(base, STuple):
            return base.elems[t.index]
        if isinstance(base, SConst) and isinstance(base.value, VTuple):
            from .expr import lift_value

            return simplify(SProj(lift_value(base.value), t.index))
        return SProj(base, t.index)
    if isinstance(t, SOp):
        args = tuple(_resolved(a, memo) for a in t.args)
        return _simplify_op(t.op, args)
    raise SymbolicError(f"cannot simplify {t!r}")


def _simplify_op(op: str, args: Tuple[Term, ...]) -> Term:
    if op == "eq":
        return _simplify_eq(args[0], args[1])
    if op == "not":
        return _simplify_not(args[0])
    if op in ("and", "or"):
        return _simplify_bool(op, args)
    if op in ("add", "sub"):
        return linear_to_term(linearize(SOp(op, args)))
    if op in ("lt", "le"):
        return _simplify_cmp(op, args[0], args[1])
    if op == "concat":
        a, b = args
        if (isinstance(a, SConst) and isinstance(a.value, VStr)
                and isinstance(b, SConst) and isinstance(b.value, VStr)):
            return SConst(VStr(a.value.s + b.value.s))
        # "" is a unit for concatenation
        if isinstance(a, SConst) and isinstance(a.value, VStr) \
                and a.value.s == "":
            return b
        if isinstance(b, SConst) and isinstance(b.value, VStr) \
                and b.value.s == "":
            return a
        return SOp("concat", (a, b))
    raise SymbolicError(f"unknown operator {op}")


def _simplify_cmp(op: str, a: Term, b: Term) -> Term:
    """Comparisons: decide constant differences, normalize both sides."""
    const, items = linearize(SOp("sub", (b, a)))
    if not items:
        if op == "lt":
            return S_TRUE if const > 0 else S_FALSE
        return S_TRUE if const >= 0 else S_FALSE
    return SOp(op, (
        linear_to_term(linearize(a)),
        linear_to_term(linearize(b)),
    ))


def _simplify_eq(a: Term, b: Term) -> Term:
    if a == b:
        return S_TRUE
    # Expose concrete tuple structure before deciding anything.
    if isinstance(a, SConst) and isinstance(a.value, VTuple):
        from .expr import lift_value

        a = lift_value(a.value)
    if isinstance(b, SConst) and isinstance(b.value, VTuple):
        from .expr import lift_value

        b = lift_value(b.value)
    if isinstance(a, SConst) and isinstance(b, SConst):
        return S_TRUE if a.value == b.value else S_FALSE
    # Equality at tuple type decomposes element-wise whenever we can name
    # the elements on both sides (literally, or through projections).
    t = term_type(a)
    if isinstance(t, ty.TupleType) and (
        isinstance(a, STuple) or isinstance(b, STuple)
    ):
        elems_a = _tuple_elems(a, len(t.elems))
        elems_b = _tuple_elems(b, len(t.elems))
        return simplify(sand(*(
            SOp("eq", (x, y)) for x, y in zip(elems_a, elems_b)
        )))
    # Component identity that structure alone decides.
    if isinstance(a, SComp) and isinstance(b, SComp):
        decided = _comp_identity(a, b)
        if decided is not None:
            return S_TRUE if decided else S_FALSE
    # Booleans: eq(x, true) == x; eq(x, false) == not x.
    if isinstance(a, SConst) and isinstance(a.value, VBool):
        a, b = b, a
    if isinstance(b, SConst) and isinstance(b.value, VBool):
        return a if b.value.b else _simplify_not(a)
    # Numerics: normalize both sides linearly; a decided difference folds.
    if term_type(a) == ty.NUM:
        const, items = linearize(SOp("sub", (a, b)))
        if not items:
            return S_TRUE if const == 0 else S_FALSE
        return _canonical_num_eq(const, items)
    # Canonical argument order so that eq(x, y) and eq(y, x) coincide.
    if repr(a) > repr(b):
        a, b = b, a
    return SOp("eq", (a, b))


def _tuple_elems(t: Term, n: int) -> Tuple[Term, ...]:
    if isinstance(t, STuple):
        return t.elems
    return tuple(simplify(SProj(t, i)) for i in range(n))


def _canonical_num_eq(const: Fraction,
                      items: Tuple[Tuple[Term, Fraction], ...]) -> Term:
    """Canonical equality ``Σ coeff·atom + const == 0``: move the first atom
    to the left, the rest to the right."""
    head_atom, head_coeff = items[0]
    if head_coeff < 0:
        const, items = -const, tuple((a, -c) for a, c in items)
        head_atom, head_coeff = items[0]
    lhs = linear_to_term((Fraction(0), ((head_atom, head_coeff),)))
    rhs = linear_to_term((-const, tuple(
        (a, -c) for a, c in items[1:]
    )))
    return SOp("eq", (lhs, rhs))


def _comp_identity(a: SComp, b: SComp) -> Optional[bool]:
    """Decide component identity when structure alone suffices.

    Returns ``None`` when the solver must reason with context (e.g. whether
    the sender aliases an Init component).
    """
    if a.label == b.label:
        return True
    if a.ctype != b.ctype:
        return False
    if a.origin == "init" and b.origin == "init":
        return False  # Init spawns are pairwise distinct instances
    if a.origin == "fresh" or b.origin == "fresh":
        # A fresh spawn is distinct from every component that existed before
        # the handler ran, and from other fresh spawns (different moments).
        return False
    return None


def _simplify_not(a: Term) -> Term:
    if isinstance(a, SConst) and isinstance(a.value, VBool):
        return S_FALSE if a.value.b else S_TRUE
    if isinstance(a, SOp) and a.op == "not":
        return a.args[0]
    return SOp("not", (a,))


def _simplify_bool(op: str, args: Tuple[Term, ...]) -> Term:
    unit = S_TRUE if op == "and" else S_FALSE
    absorber = S_FALSE if op == "and" else S_TRUE
    flat: List[Term] = []
    for a in args:
        if isinstance(a, SOp) and a.op == op:
            flat.extend(a.args)
        else:
            flat.append(a)
    out: List[Term] = []
    seen = set()
    for a in flat:
        if a == absorber:
            return absorber
        if a == unit or a in seen:
            continue
        seen.add(a)
        out.append(a)
    # x ∧ ¬x → false;  x ∨ ¬x → true
    for a in out:
        if _simplify_not(a) in seen:
            return absorber
    if not out:
        return unit
    if len(out) == 1:
        return out[0]
    return SOp(op, tuple(out))


# ---------------------------------------------------------------------------
# Disjunctive normal form
# ---------------------------------------------------------------------------

#: A conjunction of literals (each an atom or its negation).
Cube = Tuple[Term, ...]


def dnf(t: Term) -> List[Cube]:
    """DNF of a *simplified* boolean term: a list of cubes; the term is
    equivalent to the disjunction of the cubes' conjunctions.  ``[]`` means
    false; ``[()]`` means true."""
    global _DEPTH
    t = simplify(t)
    if not _cache.enabled():
        return _dnf(t, positive=True)
    hit = _DNF_MEMO.get(t)
    if hit is not None:
        obs.incr("dnf.cache.hit")
        _DNF_MEMO.move_to_end(t)
        return list(hit)
    obs.incr("dnf.cache.miss")
    _DEPTH += 1
    try:
        result = _dnf(t, positive=True)
    finally:
        _DEPTH -= 1
    # The memo holds an immutable snapshot; callers get private lists.
    _DNF_MEMO[t] = tuple(result)
    if _DEPTH == 0:
        limit = _cache.DNF_CACHE_SIZE
        while len(_DNF_MEMO) > limit:
            _DNF_MEMO.popitem(last=False)
    return result


def _dnf(t: Term, positive: bool) -> List[Cube]:
    """Iterative DNF expansion (explicit stack, memoized per call on
    ``(sub-term, polarity)``) — deep alternations cannot overflow the
    interpreter stack."""
    memo: Dict[Tuple[Term, bool], List[Cube]] = {}
    stack: List[Tuple[Term, bool]] = [(t, positive)]
    while stack:
        current, pos = stack[-1]
        key = (current, pos)
        if key in memo:
            stack.pop()
            continue
        if current == S_TRUE:
            memo[key] = [()] if pos else []
            stack.pop()
            continue
        if current == S_FALSE:
            memo[key] = [] if pos else [()]
            stack.pop()
            continue
        if isinstance(current, SOp) and current.op == "not":
            inner = (current.args[0], not pos)
            if inner not in memo:
                stack.append(inner)
                continue
            memo[key] = memo[inner]
            stack.pop()
            continue
        if isinstance(current, SOp) and current.op in ("and", "or"):
            children = [(a, pos) for a in current.args]
            pending = [c for c in children if c not in memo]
            if pending:
                stack.extend(pending)
                continue
            branches = [memo[c] for c in children]
            if (current.op == "and") == pos:
                cubes: List[Cube] = [()]
                for branch in branches:
                    cubes = [c1 + c2 for c1 in cubes for c2 in branch]
                memo[key] = cubes
            else:
                merged: List[Cube] = []
                for branch in branches:
                    merged.extend(branch)
                memo[key] = merged
            stack.pop()
            continue
        literal = current if pos else _simplify_not(current)
        memo[key] = [(literal,)]
        stack.pop()
    return memo[(t, positive)]
