"""Abstract syntax of the REFLEX DSL.

This module defines the program side of the language from paper section 3:
expressions, commands, handlers, and whole programs.  The property language
lives in :mod:`repro.props`.

Design notes (following the paper's LAC decisions):

* Handler bodies are **loop free** — there is deliberately no loop node, so
  symbolic evaluation of a handler always terminates and enumerates a finite
  set of paths (section 3.3, 7).
* ``lookup`` rather than ``broadcast``: every command emits a statically
  bounded number of trace actions (section 7).
* Component configurations are **read only**: there is no assignment to a
  configuration field, which keeps the non-interference labeling θc stable
  over a component's lifetime (section 3.1).

All nodes are frozen dataclasses: immutable, hashable, comparable — the
validator, interpreter, symbolic evaluator and prover all share them freely.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Optional, Tuple

from . import types as ty
from .values import Value

# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expr:
    """Base class of REFLEX expressions."""


@dataclass(frozen=True)
class Lit(Expr):
    """A literal value: ``"root"``, ``42``, ``true``, ``("", false)``."""

    value: Value

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class Name(Expr):
    """A reference to a global state variable or a handler-scope binding
    (message payload parameter, or a name bound by ``lookup``/``call``/
    ``spawn``).  Local bindings shadow globals; the validator resolves and
    checks each occurrence."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Sender(Expr):
    """The component that sent the message being handled.

    Only valid inside a handler body.  This is how kernels reply to the
    requesting instance when several components share a type (e.g. browser
    tabs)."""

    def __str__(self) -> str:
        return "sender"


@dataclass(frozen=True)
class Field(Expr):
    """Read-only access to a configuration field of a component reference,
    e.g. ``sender.domain`` in the browser kernel."""

    comp: Expr
    field: str

    def __str__(self) -> str:
        return f"{self.comp}.{self.field}"


#: Binary operators.  ``eq``/``ne`` work at any (common) type; ``add`` and
#: the comparisons on numbers; ``and``/``or`` on booleans; ``concat`` on
#: strings.  Numbers are *naturals* (as in the paper's Coq ``num``); there
#: is deliberately no subtraction — counters only ever move forward, which
#: is also what makes counting properties provable by the automation.
BINOPS = ("eq", "ne", "add", "lt", "le", "and", "or", "concat")

_BINOP_SYMBOL = {
    "eq": "==",
    "ne": "!=",
    "add": "+",
    "lt": "<",
    "le": "<=",
    "and": "&&",
    "or": "||",
    "concat": "++",
}


@dataclass(frozen=True)
class BinOp(Expr):
    """A binary operation; ``op`` is one of :data:`BINOPS`."""

    op: str
    left: Expr
    right: Expr

    def __str__(self) -> str:
        return f"({self.left} {_BINOP_SYMBOL[self.op]} {self.right})"


@dataclass(frozen=True)
class Not(Expr):
    """Boolean negation."""

    arg: Expr

    def __str__(self) -> str:
        return f"!({self.arg})"


@dataclass(frozen=True)
class TupleExpr(Expr):
    """Tuple construction, e.g. ``(user, true)``."""

    elems: Tuple[Expr, ...]

    def __str__(self) -> str:
        return "(" + ", ".join(str(e) for e in self.elems) + ")"


@dataclass(frozen=True)
class Proj(Expr):
    """Projection of the ``index``-th element out of a tuple expression."""

    tuple_expr: Expr
    index: int

    def __str__(self) -> str:
        return f"{self.tuple_expr}.{self.index}"


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


class Cmd:
    """Base class of REFLEX commands (handler and Init bodies)."""


@dataclass(frozen=True)
class Nop(Cmd):
    """The empty command; unhandled messages behave as if their handler were
    ``Nop`` (paper section 2)."""

    def __str__(self) -> str:
        return "nop"


@dataclass(frozen=True)
class Assign(Cmd):
    """Assignment to a *global* state variable.

    In the ``Init`` section an assignment also *declares* the variable, fixing
    its type from the right-hand side; in handlers only existing globals may
    be assigned (paper Figure 4's ``Assign`` case)."""

    var: str
    expr: Expr

    def __str__(self) -> str:
        return f"{self.var} = {self.expr}"


@dataclass(frozen=True)
class Seq(Cmd):
    """Sequential composition of commands."""

    cmds: Tuple[Cmd, ...]

    def __str__(self) -> str:
        return "; ".join(str(c) for c in self.cmds)


@dataclass(frozen=True)
class If(Cmd):
    """Branching.  ``otherwise`` defaults to :class:`Nop`."""

    cond: Expr
    then: Cmd
    otherwise: Cmd = field(default_factory=Nop)

    def __str__(self) -> str:
        return f"if {self.cond} {{ {self.then} }} else {{ {self.otherwise} }}"


@dataclass(frozen=True)
class SendCmd(Cmd):
    """Send message ``msg(args...)`` to the component denoted by ``target``.

    Emits one ``Send`` trace action."""

    target: Expr
    msg: str
    args: Tuple[Expr, ...] = ()

    def __str__(self) -> str:
        a = ", ".join(str(x) for x in self.args)
        return f"send({self.target}, {self.msg}({a}))"


@dataclass(frozen=True)
class SpawnCmd(Cmd):
    """Spawn a new component of type ``ctype`` with the given configuration
    values and bind the fresh reference to ``bind``.

    In ``Init`` the binding declares a global (``C <= spawn(Connection)``);
    in a handler it introduces a handler-local name.  Emits one ``Spawn``
    trace action (paper Figure 4's ``Spawn`` case)."""

    ctype: str
    config: Tuple[Expr, ...] = ()
    bind: Optional[str] = None

    def __str__(self) -> str:
        cfg = ", ".join(str(e) for e in self.config)
        prefix = f"{self.bind} <= " if self.bind else ""
        return f"{prefix}spawn({self.ctype}({cfg}))"


@dataclass(frozen=True)
class CallCmd(Cmd):
    """Invoke an external function (the paper's "custom OCaml function
    returning a string") and bind its result.

    The result is a string produced **non-deterministically** by the outside
    world; calls are the source of the non-deterministic context trees used
    in the non-interference definition (paper section 4.2).  Emits one
    ``Call`` trace action recording the function, arguments and result."""

    func: str
    args: Tuple[Expr, ...]
    bind: str

    def __str__(self) -> str:
        a = ", ".join(str(x) for x in self.args)
        return f"{self.bind} <- call({self.func}, {a})"


@dataclass(frozen=True)
class LookupCmd(Cmd):
    """Search the current component set for an instance of ``ctype`` whose
    configuration satisfies ``pred`` (with ``bind`` naming the candidate);
    run ``found`` with ``bind`` in scope on success, else ``missing``.

    ``lookup`` replaced a ``broadcast`` primitive precisely because it keeps
    the number of emitted actions statically bounded (paper section 7), and
    its negative branch hands the prover a universally quantified
    "no matching component exists" fact used for uniqueness properties."""

    ctype: str
    bind: str
    pred: Expr
    found: Cmd
    missing: Cmd = field(default_factory=Nop)

    def __str__(self) -> str:
        return (
            f"lookup {self.bind} : {self.ctype} where {self.pred} "
            f"{{ {self.found} }} else {{ {self.missing} }}"
        )


# ---------------------------------------------------------------------------
# Handlers and programs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Handler:
    """A request/response rule: when a component of type ``ctype`` sends a
    ``msg`` message, bind its payload to ``params`` and run ``body``
    (paper section 2, ``Handlers`` section).

    Handlers are keyed on the *type* of the sender, not a particular
    instance; ``Sender()`` refers to the concrete instance at runtime."""

    ctype: str
    msg: str
    params: Tuple[str, ...]
    body: Cmd

    @property
    def key(self) -> Tuple[str, str]:
        """Dispatch key: (component type, message name)."""
        return (self.ctype, self.msg)

    @cached_property
    def effects(self) -> "Effects":
        """The body's :func:`effects_of`, computed on first use and kept
        on this handler object.  It is not a field, so equality,
        hashing and proof-store fingerprints ignore it."""
        return effects_of(self.body)

    def __str__(self) -> str:
        ps = ", ".join(self.params)
        return f"{self.ctype}=>{self.msg}({ps}): {self.body}"


@dataclass(frozen=True)
class Program:
    """A complete REFLEX program: the five sections of Figure 3 minus the
    ``Properties`` section, which lives in :mod:`repro.props.spec` and is
    bundled with the program by :class:`repro.props.spec.SpecifiedProgram`."""

    name: str
    components: Tuple[ty.ComponentDecl, ...]
    messages: Tuple[ty.MessageDecl, ...]
    init: Tuple[Cmd, ...]
    handlers: Tuple[Handler, ...]

    def component(self, name: str) -> ty.ComponentDecl:
        """The declaration of component type ``name`` (KeyError if absent)."""
        for c in self.components:
            if c.name == name:
                return c
        raise KeyError(name)

    def message(self, name: str) -> ty.MessageDecl:
        """The declaration of message type ``name`` (KeyError if absent)."""
        for m in self.messages:
            if m.name == name:
                return m
        raise KeyError(name)

    def handler_for(self, ctype: str, msg: str) -> Optional[Handler]:
        """The handler dispatched for (``ctype``, ``msg``), or ``None`` when
        the kernel ignores this message (implicit ``Nop`` handler)."""
        return self.effect_index.handlers.get((ctype, msg))

    @cached_property
    def effect_index(self) -> "EffectIndex":
        """The program's :class:`EffectIndex`, built on first use and
        kept on this program object.  It is not a field, so equality,
        hashing and proof-store fingerprints ignore it."""
        return EffectIndex.of(self)

    def exchange_keys(self) -> Tuple[Tuple[str, str], ...]:
        """Every (component type, message name) pair the kernel can receive —
        the full case split of the inductive step of BehAbs, *including*
        pairs with no declared handler (those behave as ``Nop``)."""
        return tuple(
            (c.name, m.name) for c in self.components for m in self.messages
        )


# ---------------------------------------------------------------------------
# Traversals
# ---------------------------------------------------------------------------


def sub_exprs(e: Expr):
    """Yield ``e`` and all of its sub-expressions, pre-order."""
    yield e
    if isinstance(e, BinOp):
        yield from sub_exprs(e.left)
        yield from sub_exprs(e.right)
    elif isinstance(e, Not):
        yield from sub_exprs(e.arg)
    elif isinstance(e, TupleExpr):
        for x in e.elems:
            yield from sub_exprs(x)
    elif isinstance(e, Proj):
        yield from sub_exprs(e.tuple_expr)
    elif isinstance(e, Field):
        yield from sub_exprs(e.comp)


def sub_cmds(c: Cmd):
    """Yield ``c`` and all of its sub-commands, pre-order."""
    yield c
    if isinstance(c, Seq):
        for x in c.cmds:
            yield from sub_cmds(x)
    elif isinstance(c, If):
        yield from sub_cmds(c.then)
        yield from sub_cmds(c.otherwise)
    elif isinstance(c, LookupCmd):
        yield from sub_cmds(c.found)
        yield from sub_cmds(c.missing)


def cmd_exprs(c: Cmd):
    """Yield every expression appearing directly in command ``c`` (not in
    sub-commands)."""
    if isinstance(c, Assign):
        yield c.expr
    elif isinstance(c, If):
        yield c.cond
    elif isinstance(c, SendCmd):
        yield c.target
        yield from c.args
    elif isinstance(c, SpawnCmd):
        yield from c.config
    elif isinstance(c, CallCmd):
        yield from c.args
    elif isinstance(c, LookupCmd):
        yield c.pred


def seq(*cmds: Cmd) -> Cmd:
    """Smart sequence constructor: flattens and drops ``Nop``s."""
    flat: list = []
    for c in cmds:
        if isinstance(c, Seq):
            flat.extend(c.cmds)
        elif not isinstance(c, Nop):
            flat.append(c)
    if not flat:
        return Nop()
    if len(flat) == 1:
        return flat[0]
    return Seq(tuple(flat))


@dataclass(frozen=True)
class Effects:
    """What a command can do, read off its syntax alone: the message
    names it can send, the component types it can spawn, the functions
    it can call and the globals it assigns, on any path — however deeply
    nested under ``if`` or ``lookup`` branches.

    The prover's syntactic skip (paper section 6.4: "skipping symbolic
    evaluation of handlers for which a simple syntactic check
    suffices") decides from these sets: a handler computes them once
    (:attr:`Handler.effects`), and a program files them by exchange in
    its :class:`EffectIndex`."""

    sends: frozenset
    spawns: frozenset
    calls: frozenset
    assigns: frozenset


def effects_of(c: Cmd) -> Effects:
    """The :class:`Effects` of ``c``, from one walk of its sub-commands."""
    sends, spawns, calls, assigns = set(), set(), set(), set()
    for x in sub_cmds(c):
        if isinstance(x, SendCmd):
            sends.add(x.msg)
        elif isinstance(x, SpawnCmd):
            spawns.add(x.ctype)
        elif isinstance(x, CallCmd):
            calls.add(x.func)
        elif isinstance(x, Assign):
            assigns.add(x.var)
    return Effects(frozenset(sends), frozenset(spawns), frozenset(calls),
                   frozenset(assigns))


@dataclass(frozen=True, eq=False)
class EffectIndex:
    """Which exchanges of a kernel can produce what, read off its
    handlers' :class:`Effects`: the table every §6.4 syntactic skip
    decision looks up, built once per program
    (:attr:`Program.effect_index`).

    Each of the last six tables maps a name to the frozenset of the
    exchange keys ``(ctype, msg)`` whose boundary or handler can
    produce it: a ``Select`` by a component type, a ``Recv`` of a
    (component type, message) pair, a sent message name, a spawned
    component type, a called function, an assigned global.  A name no
    exchange produces has no entry."""

    #: each handler key → the first handler with it (dispatch's pick)
    handlers: Dict[Tuple[str, str], Handler]
    #: each exchange key → its position in :meth:`Program.exchange_keys`
    positions: Dict[Tuple[str, str], int]
    selects: Dict[str, frozenset]
    recvs: Dict[Tuple[str, str], frozenset]
    sends: Dict[str, frozenset]
    spawns: Dict[str, frozenset]
    calls: Dict[str, frozenset]
    assigns: Dict[str, frozenset]

    @classmethod
    def of(cls, program: Program) -> "EffectIndex":
        """The index of ``program``, from one pass over its exchanges
        and the cached :attr:`Handler.effects` of their handlers."""
        handlers: Dict[Tuple[str, str], Handler] = {}
        for handler in program.handlers:
            handlers.setdefault(handler.key, handler)
        keys = program.exchange_keys()
        tables: Tuple[dict, ...] = tuple({} for _ in range(6))
        selects, recvs, sends, spawns, calls, assigns = tables
        for key in keys:
            selects.setdefault(key[0], []).append(key)
            recvs[key] = [key]
            handler = handlers.get(key)
            if handler is None:
                continue  # behaves as Nop: produces its boundary only
            effects = handler.effects
            for table, names in ((sends, effects.sends),
                                 (spawns, effects.spawns),
                                 (calls, effects.calls),
                                 (assigns, effects.assigns)):
                for name in names:
                    table.setdefault(name, []).append(key)
        return cls(
            handlers, {key: i for i, key in enumerate(keys)},
            *({name: frozenset(found) for name, found in table.items()}
              for table in tables),
        )
