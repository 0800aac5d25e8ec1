"""Proof obligations for trace properties.

Each of the five primitives reduces to a *trigger/required/mode* scheme
(the table in :mod:`repro.props.tracepreds`):

=============  =========  =========  ==============================
Primitive       Trigger    Required   Mode
=============  =========  =========  ==============================
``ImmBefore``   B          A          ``imm_before``
``ImmAfter``    A          B          ``imm_after``
``Enables``     B          A          ``before``  (∃ strictly earlier)
``Ensures``     A          B          ``after``   (∃ strictly later)
``Disables``    B          A          ``never_before`` (∄ earlier)
=============  =========  =========  ==============================

An *occurrence* is a conditional match of the trigger pattern against one
action template of one symbolic path (or of the Init trace).  The proof of
a property is a justification for every occurrence; this module enumerates
occurrences and provides the static possibility checks behind the paper's
"simple syntactic check suffices" optimization (section 6.4).  Those
checks decide from a handler's effect sets (:class:`~repro.lang.ast.Effects`:
the messages it can send, the component types it can spawn, the functions
it can call, the globals it assigns), computed once per handler object, so
no skip decision walks a handler body.  The sets hold exactly what a walk
of the body collects, so every decision is the walk's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..lang import ast
from ..lang.errors import ValidationError
from ..props.patterns import (
    ActionPattern,
    CallPat,
    RecvPat,
    SelectPat,
    SendPat,
    SpawnPat,
)
from ..props.spec import TraceProperty
from ..symbolic.behabs import Exchange
from ..symbolic.expr import Term
from ..symbolic.templates import Template
from ..symbolic.unify import SymMatch, match_template

#: The discharge modes, see module docstring.
MODES = ("imm_before", "imm_after", "before", "after", "never_before")


@dataclass(frozen=True)
class Scheme:
    """Trigger/required/mode decomposition of one property."""

    trigger: ActionPattern
    required: ActionPattern
    mode: str


def scheme_of(prop: TraceProperty) -> Scheme:
    """The trigger/required/mode scheme of a property's primitive."""
    if prop.primitive == "ImmBefore":
        return Scheme(prop.b, prop.a, "imm_before")
    if prop.primitive == "ImmAfter":
        return Scheme(prop.a, prop.b, "imm_after")
    if prop.primitive == "Enables":
        return Scheme(prop.b, prop.a, "before")
    if prop.primitive == "Ensures":
        return Scheme(prop.a, prop.b, "after")
    if prop.primitive == "Disables":
        return Scheme(prop.b, prop.a, "never_before")
    raise ValidationError(f"unknown primitive {prop.primitive}")


@dataclass(frozen=True)
class Occurrence:
    """A conditional trigger match at ``index`` within an action-template
    list."""

    index: int
    match: SymMatch

    def __str__(self) -> str:
        return f"trigger at action #{self.index}: {self.match}"


def occurrences(trigger: ActionPattern,
                templates: Sequence[Template]) -> List[Occurrence]:
    """All conditional matches of ``trigger`` in ``templates``."""
    found: List[Occurrence] = []
    for i, template in enumerate(templates):
        m = match_template(trigger, template)
        if m is not None:
            found.append(Occurrence(i, m))
    return found


@dataclass(frozen=True)
class InstPattern:
    """A pattern with some variables pre-bound to terms — the instantiated
    "required" pattern carried into history/absence invariants."""

    pattern: ActionPattern
    binding: Tuple[Tuple[str, Term], ...]

    def binding_dict(self) -> Dict[str, Term]:
        return dict(self.binding)

    def match(self, template: Template) -> Optional[SymMatch]:
        return match_template(self.pattern, template, self.binding_dict())

    def __str__(self) -> str:
        bs = ", ".join(f"{k}={v}" for k, v in self.binding)
        return f"{self.pattern} [{bs}]"


# ---------------------------------------------------------------------------
# Static possibility (the syntactic skip check)
# ---------------------------------------------------------------------------


def exchange_effects(ex: Exchange) -> ast.Effects:
    """The effects of exchange ``ex``'s handler: its cached
    :attr:`~repro.lang.ast.Handler.effects`, or none for an exchange
    with no handler (it behaves as ``Nop``)."""
    return ex.handler.effects if ex.handler is not None else ast.NO_EFFECTS


def handler_may_emit(pattern: ActionPattern, effects: ast.Effects) -> bool:
    """Could *any* path of a handler with these ``effects`` emit an
    action this pattern matches?

    Purely syntactic and conservative: ``True`` unless the handler's
    effects rule a match out by action kind, message name, or component
    type.  A send matches by message name alone: its target's type is
    not known without a typing context.  Recv/Select patterns never
    match handler-emitted actions (only the exchange boundary, which
    :func:`boundary_may_match` covers).
    """
    if isinstance(pattern, SendPat):
        return pattern.msg.name in effects.sends
    if isinstance(pattern, SpawnPat):
        return pattern.comp.ctype in effects.spawns
    if isinstance(pattern, CallPat):
        return pattern.func in effects.calls
    return False  # Recv / Select never appear inside a handler body


def boundary_may_match(pattern: ActionPattern, ctype: str,
                       msg: str) -> bool:
    """Could the Select/Recv boundary actions of a (``ctype``, ``msg``)
    exchange match ``pattern``?"""
    if isinstance(pattern, SelectPat):
        return pattern.comp.ctype == ctype
    if isinstance(pattern, RecvPat):
        return pattern.comp.ctype == ctype and pattern.msg.name == msg
    return False


def exchange_statically_silent(pattern: ActionPattern,
                               ex: Exchange) -> bool:
    """True when ``pattern`` cannot match anything exchange ``ex``
    produces — the exchange can then be skipped entirely for trigger
    enumeration.

    This is the reproduction of the paper's syntactic skip: sound because
    :func:`handler_may_emit` and :func:`boundary_may_match` are
    conservative.
    """
    return not (boundary_may_match(pattern, ex.ctype, ex.msg)
                or handler_may_emit(pattern, exchange_effects(ex)))
