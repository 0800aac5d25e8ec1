"""Symbolic terms.

The behavioral abstraction (paper section 3.3) characterizes *arbitrary*
reachable states, so the symbolic evaluator manipulates terms over symbolic
variables rather than concrete values:

* :class:`SVar` — an unknown: a message payload field, an external call
  result, a configuration field of an arbitrary component, the value of a
  state variable at an arbitrary reachable state, or a universally
  quantified property/labeling parameter.  The ``origin`` tag records which,
  and drives the non-interference taint analysis.
* :class:`SComp` — a component *instance* term: the identity of a component
  the kernel holds a reference to.  Its ``origin`` encodes how the prover
  knows about it (spawned during Init, the current sender, found by
  ``lookup``, or freshly spawned by the current handler), which determines
  what distinctness facts the solver may use.
* :class:`SConst`, :class:`STuple`, :class:`SProj`, :class:`SOp` — the
  obvious congruence-closed structure over them.

Terms are immutable, hashable dataclasses; the simplifier
(:mod:`repro.symbolic.simplify`) and the solver (:mod:`repro.symbolic
.solver`) treat them purely structurally.

**Hash consing.**  Term constructors intern: structurally equal terms built
in the same process are the *same object*, so equality is usually a pointer
comparison and dictionary lookups (the simplify memo, the solver query
cache, union-find tables) hit the identity fast path.  Each term also
carries a stable 64-bit structural hash (``term_hash``), computed bottom-up
at construction from a keyed BLAKE2 digest — independent of
``PYTHONHASHSEED`` and of the process that built the term.

Correctness never *depends* on interning: ``__eq__`` falls back to a
structural comparison, so terms that predate :func:`reset_interning` (or
that crossed a process boundary) still compare equal to freshly interned
ones.  Pickled terms re-intern on load (``__reduce__`` routes through the
constructor), so derivations read back from the proof store join the
current table — including one started afresh by :func:`reset_interning`
(the serve daemon's cache governor does that between batches).
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Tuple, Union

from ..obs import core as obs
from ..lang import types as ty
from ..lang.errors import SymbolicError
from ..lang.values import Value, VBool, VNum, VStr, VTuple

# ---------------------------------------------------------------------------
# Interning machinery
# ---------------------------------------------------------------------------

#: The per-process intern table: ``(class, shallow field tuple) → term``.
_TABLE: Dict[tuple, "Term"] = {}


def _intern(cls, args: tuple):
    """Return the canonical instance of ``cls(*args)``, allocating (and
    remembering) one on first sight."""
    key = (cls, args)
    hit = _TABLE.get(key)
    if hit is not None:
        obs.incr("term.intern.hit")
        return hit
    obs.incr("term.intern.miss")
    obj = object.__new__(cls)
    _TABLE[key] = obj
    return obj


def intern_table_size() -> int:
    """Number of distinct terms currently interned in this process."""
    return len(_TABLE)


def reset_interning() -> None:
    """Drop the intern table (a new cache generation).

    Existing terms stay valid — equality degrades gracefully to the
    structural fallback — and the canonical booleans are re-seeded so the
    module singletons stay the canonical representatives.  The memo
    caches are dropped with the table: their entries hold pre-reset
    objects that would otherwise linger as equal-but-not-identical
    representatives.
    """
    from . import cache as _cache

    _TABLE.clear()
    for singleton in (S_TRUE, S_FALSE):
        _TABLE[(SConst, (singleton.value,))] = singleton
    _cache.clear_all()


def _feed_hash(h, value) -> None:
    """Mix one (possibly nested) constructor field into a hash state."""
    if isinstance(value, _Node):
        h.update(b"T")
        h.update(value._shash.to_bytes(8, "big"))
    elif isinstance(value, tuple):
        h.update(b"(%d:" % len(value))
        for element in value:
            _feed_hash(h, element)
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        h.update(b"s%d:" % len(raw))
        h.update(raw)
    elif isinstance(value, int):
        h.update(b"i")
        h.update(str(value).encode("ascii"))
    else:  # Value / Type leaves: reprs are canonical for frozen dataclasses
        raw = repr(value).encode("utf-8")
        h.update(b"r%d:" % len(raw))
        h.update(raw)


def _structural_eq(a, b) -> bool:
    """Field-by-field equality, iterative so arbitrarily deep terms never
    overflow the interpreter stack."""
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if x is y:
            continue
        if isinstance(x, _Node):
            if x.__class__ is not y.__class__ or x._shash != y._shash:
                return False
            for name in x.__dataclass_fields__:
                stack.append((getattr(x, name), getattr(y, name)))
        elif isinstance(x, tuple):
            if not isinstance(y, tuple) or len(x) != len(y):
                return False
            stack.extend(zip(x, y))
        elif x != y:
            return False
    return True


class _Node:
    """Shared term plumbing: stable hashing, fast equality, re-interning
    pickle support.  Subclasses are frozen dataclasses with ``eq=False``."""

    __slots__ = ()

    def __post_init__(self) -> None:
        """Compute the stable structural hash once, at first construction
        (an intern hit re-runs ``__init__`` but keeps the cached hash)."""
        if "_shash" not in self.__dict__:
            h = hashlib.blake2b(digest_size=8)
            h.update(self.__class__.__name__.encode("ascii"))
            for name in self.__dataclass_fields__:
                h.update(b"\x1f")
                _feed_hash(h, getattr(self, name))
            object.__setattr__(
                self, "_shash", int.from_bytes(h.digest(), "big")
            )

    @property
    def term_hash(self) -> int:
        """The stable 64-bit structural hash: equal for structurally equal
        terms in every process, regardless of ``PYTHONHASHSEED``."""
        return self._shash

    def __hash__(self) -> int:
        return self._shash

    def __eq__(self, other) -> bool:
        if self is other:  # interning makes this the common case
            return True
        if self.__class__ is not other.__class__:
            return NotImplemented
        if self._shash != other._shash:
            return False
        return _structural_eq(self, other)

    def __reduce__(self):
        # Route unpickling through the constructor so loaded terms intern
        # into the receiving process's table.
        return (self.__class__, tuple(
            getattr(self, name) for name in self.__dataclass_fields__
        ))


# ---------------------------------------------------------------------------
# Term constructors
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SConst(_Node):
    """A concrete value embedded in the term language."""

    value: Value

    def __new__(cls, value):
        return _intern(cls, (value,))

    def __str__(self) -> str:
        return str(self.value)


#: SVar origins, in the order the NI taint analysis cares about them.
SVAR_ORIGINS = (
    "payload",   # a payload field of the message being handled
    "call",      # the result of an external call (non-deterministic context)
    "config",    # a configuration field of an arbitrary component
    "state",     # a global variable's value at an arbitrary reachable state
    "param",     # a universally quantified property / labeling parameter
    "init_call", # a call result captured during Init
)


@dataclass(frozen=True, eq=False)
class SVar(_Node):
    """A symbolic variable.  Names are globally unique per obligation; the
    factory :class:`FreshNames` enforces this."""

    name: str
    type: ty.Type
    origin: str

    def __new__(cls, name, type, origin):  # noqa: A002 - field name
        return _intern(cls, (name, type, origin))

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, eq=False)
class STuple(_Node):
    """A literal tuple of terms."""

    elems: Tuple["Term", ...]

    def __new__(cls, elems):
        return _intern(cls, (elems,))

    def __str__(self) -> str:
        return "(" + ", ".join(str(e) for e in self.elems) + ")"


@dataclass(frozen=True, eq=False)
class SProj(_Node):
    """Projection out of a tuple-typed term that is not literally a tuple
    (e.g. the symbolic value of a tuple-typed state variable)."""

    base: "Term"
    index: int

    def __new__(cls, base, index):
        return _intern(cls, (base, index))

    def __str__(self) -> str:
        return f"{self.base}.{self.index}"


#: SComp origins.  Distinctness rules (enforced by the solver):
#: ``init`` components are pairwise distinct; a ``fresh`` component is
#: distinct from every component that existed before the current handler ran
#: (i.e. every non-``fresh`` component and earlier ``fresh`` ones); ``sender``
#: and ``lookup`` components are arbitrary members of the pre-state component
#: set and may alias ``init`` components or each other.
SCOMP_ORIGINS = ("init", "sender", "lookup", "fresh")


@dataclass(frozen=True, eq=False)
class SComp(_Node):
    """A component-instance term.

    ``label`` is unique per obligation (it names *how the prover refers* to
    the instance, not its runtime identity); ``config`` holds one term per
    configuration field.  ``seq`` orders ``fresh`` components so that later
    fresh spawns are provably distinct from earlier ones.
    """

    label: str
    ctype: str
    config: Tuple["Term", ...]
    origin: str
    seq: int = 0

    def __new__(cls, label, ctype, config, origin, seq=0):
        return _intern(cls, (label, ctype, config, origin, seq))

    def __str__(self) -> str:
        cfg = ", ".join(str(c) for c in self.config)
        return f"{self.label}:{self.ctype}({cfg})"


#: Operators of the term language.  ``eq`` is polymorphic; ``not``/``and``/
#: ``or`` boolean; ``add``/``sub``/``lt``/``le`` numeric; ``concat`` strings.
S_OPS = ("eq", "not", "and", "or", "add", "sub", "lt", "le", "concat")


@dataclass(frozen=True, eq=False)
class SOp(_Node):
    """An operator application over terms."""

    op: str
    args: Tuple["Term", ...]

    def __new__(cls, op, args):
        return _intern(cls, (op, args))

    def __str__(self) -> str:
        if self.op == "not":
            return f"!({self.args[0]})"
        if len(self.args) == 2:
            return f"({self.args[0]} {self.op} {self.args[1]})"
        inner = f" {self.op} ".join(str(a) for a in self.args)
        return f"({inner})"


Term = Union[SConst, SVar, STuple, SProj, SComp, SOp]

#: Canonical boolean constants.
S_TRUE = SConst(VBool(True))
S_FALSE = SConst(VBool(False))


def sconst(v: object) -> SConst:
    """Embed a Python value as a constant term."""
    from ..lang.values import from_python

    return SConst(from_python(v))


def snum(n: int) -> SConst:
    """A numeric constant term."""
    return SConst(VNum(n))


def sstr(s: str) -> SConst:
    """A string constant term."""
    return SConst(VStr(s))


def seq_(a: Term, b: Term) -> SOp:
    """The equality atom ``a == b``."""
    return SOp("eq", (a, b))


def sne(a: Term, b: Term) -> SOp:
    """The disequality literal ``a != b``."""
    return SOp("not", (SOp("eq", (a, b)),))


def snot(a: Term) -> SOp:
    """Boolean negation."""
    return SOp("not", (a,))


def sand(*args: Term) -> Term:
    """N-ary conjunction (empty = true, singleton = the term itself)."""
    if not args:
        return S_TRUE
    if len(args) == 1:
        return args[0]
    return SOp("and", tuple(args))


def sor(*args: Term) -> Term:
    """N-ary disjunction (empty = false, singleton = the term itself)."""
    if not args:
        return S_FALSE
    if len(args) == 1:
        return args[0]
    return SOp("or", tuple(args))


def sadd(a: Term, b: Term) -> SOp:
    """Numeric addition."""
    return SOp("add", (a, b))


def ssub(a: Term, b: Term) -> SOp:
    """Numeric subtraction."""
    return SOp("sub", (a, b))


# ---------------------------------------------------------------------------
# Traversal
# ---------------------------------------------------------------------------


def term_children(t: Term) -> Tuple[Term, ...]:
    """The direct sub-terms of ``t`` (empty for leaves)."""
    if isinstance(t, STuple):
        return t.elems
    if isinstance(t, SProj):
        return (t.base,)
    if isinstance(t, SComp):
        return t.config
    if isinstance(t, SOp):
        return t.args
    return ()


def sub_terms(t: Term) -> Iterator[Term]:
    """Yield ``t`` and all sub-terms, pre-order (iterative: safe on
    arbitrarily deep terms)."""
    stack = [t]
    while stack:
        current = stack.pop()
        yield current
        children = term_children(current)
        if children:
            stack.extend(reversed(children))


def free_vars(t: Term) -> FrozenSet[SVar]:
    """All symbolic variables occurring in ``t`` (including inside component
    configurations)."""
    return frozenset(x for x in sub_terms(t) if isinstance(x, SVar))


def comps_in(t: Term) -> FrozenSet[SComp]:
    """All component terms occurring in ``t``."""
    return frozenset(x for x in sub_terms(t) if isinstance(x, SComp))


def substitute(t: Term, mapping: Dict[Term, Term]) -> Term:
    """Capture-free substitution of whole sub-terms.

    Used by invariant generalization (replace payload terms by universal
    parameters) and by the checker when re-validating instantiations.
    Iterative post-order rebuild, so deep terms never overflow the stack.
    """
    memo: Dict[Term, Term] = {}
    stack: List[Term] = [t]
    while stack:
        current = stack[-1]
        if current in memo:
            stack.pop()
            continue
        hit = mapping.get(current)
        if hit is not None:
            memo[current] = hit
            stack.pop()
            continue
        children = term_children(current)
        pending = [c for c in children if c not in memo]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        if isinstance(current, STuple):
            memo[current] = STuple(
                tuple(memo[e] for e in current.elems)
            )
        elif isinstance(current, SProj):
            memo[current] = SProj(memo[current.base], current.index)
        elif isinstance(current, SComp):
            memo[current] = SComp(
                current.label,
                current.ctype,
                tuple(memo[e] for e in current.config),
                current.origin,
                current.seq,
            )
        elif isinstance(current, SOp):
            memo[current] = SOp(
                current.op, tuple(memo[a] for a in current.args)
            )
        else:
            memo[current] = current
    return memo[t]


# ---------------------------------------------------------------------------
# Fresh-name supply
# ---------------------------------------------------------------------------


class FreshNames:
    """A supply of unique variable and component labels.

    ``prefix`` namespaces the supply: the behavioral abstraction uses one
    supply per exchange (prefixed by the exchange key) so that editing one
    handler leaves every other exchange's terms byte-identical — which is
    what lets a proof-store fragment filed for one version of a kernel
    revalidate against the next version's re-built abstraction.  Distinct
    prefixes guarantee distinct names.
    """

    def __init__(self, prefix: str = "") -> None:
        self.prefix = prefix
        self._counters = itertools.count()

    def var(self, hint: str, type_: ty.Type, origin: str) -> SVar:
        """A fresh symbolic variable tagged with its ``origin``."""
        if origin not in SVAR_ORIGINS:
            raise SymbolicError(f"unknown SVar origin {origin}")
        return SVar(f"{self.prefix}{hint}${next(self._counters)}", type_,
                    origin)

    def comp_label(self, hint: str) -> str:
        """A fresh component label."""
        return f"{self.prefix}{hint}${next(self._counters)}"

    def seq(self) -> int:
        """A fresh sequence number (orders ``fresh`` spawns)."""
        return next(self._counters)


def lift_value(v: Value) -> Term:
    """Embed a concrete value as a term, exposing tuple structure so the
    simplifier can decompose equalities element-wise."""
    if isinstance(v, VTuple):
        return STuple(tuple(lift_value(e) for e in v.elems))
    return SConst(v)
