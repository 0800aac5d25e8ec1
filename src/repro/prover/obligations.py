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
occurrences and provides the static possibility check behind the paper's
"simple syntactic check suffices" optimization (section 6.4):
:func:`live_exchanges`, the exchanges that can produce what a pattern
matches.  It is one lookup in the program's effect index
(:class:`~repro.lang.ast.EffectIndex`), built once per program from its
handlers' effect sets (the messages each can send, the component types
it can spawn, the functions it can call, the globals it assigns), so a
property's skips are decided with one lookup and no skip decision walks
a handler body.  The sets hold exactly what a walk of the body collects,
so every decision is the walk's.
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


def live_exchanges(program: ast.Program,
                   pattern: ActionPattern) -> frozenset:
    """The keys of the exchanges of ``program`` whose boundary or
    handler can produce an action ``pattern`` matches: one lookup in the
    program's :class:`~repro.lang.ast.EffectIndex`.  Every other
    exchange is statically silent for ``pattern``, and the syntactic
    skip may discharge it without symbolic evaluation.

    Purely syntactic and conservative: a Select or Recv pattern matches
    the boundary of the exchanges of its component type (and message);
    a send pattern matches a handler that can send its message name
    (its target's type is not known without a typing context); a spawn
    or call pattern matches a handler that can spawn its type or call
    its function.  No handler emits a Select or Recv.
    """
    index = program.effect_index
    if isinstance(pattern, SelectPat):
        table, name = index.selects, pattern.comp.ctype
    elif isinstance(pattern, RecvPat):
        table, name = index.recvs, (pattern.comp.ctype, pattern.msg.name)
    elif isinstance(pattern, SendPat):
        table, name = index.sends, pattern.msg.name
    elif isinstance(pattern, SpawnPat):
        table, name = index.spawns, pattern.comp.ctype
    elif isinstance(pattern, CallPat):
        table, name = index.calls, pattern.func
    else:
        return frozenset()
    return table.get(name, frozenset())
