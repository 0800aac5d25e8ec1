"""Matching action patterns against action templates.

The concrete matcher (:mod:`repro.props.patterns`) answers "does this
pattern match this action, and with which variable binding?".  Its symbolic
twin here answers the same question about a *template*, whose slots are
terms: the result is a *conditional match* — a set of equality constraints
under which the instantiated template matches, together with a binding of
pattern variables to terms.

Three-valued outcome:

* ``None`` — the pattern can never match any instance of the template
  (different action kind, message name, component type, or arity): a purely
  static refutation.
* ``SymMatch(constraints=(), ...)`` — matches unconditionally.
* ``SymMatch(constraints=(c1, ...), ...)`` — matches exactly when the
  constraints hold; the prover conjoins them with the path condition and
  asks the solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..props.patterns import (
    ActionPattern,
    CallPat,
    CompPat,
    FieldPattern,
    MsgPat,
    PLit,
    PWild,
    RecvPat,
    SelectPat,
    SendPat,
    SpawnPat,
)
from .expr import S_FALSE, S_TRUE, SComp, SOp, Term, lift_value
from .simplify import simplify
from .templates import (
    Template,
    TCall,
    TRecv,
    TSelect,
    TSend,
    TSpawn,
)

#: Pattern-variable bindings: property variable name → term.
SymBinding = Dict[str, Term]


@dataclass(frozen=True)
class SymMatch:
    """A conditional match: the template matches the pattern exactly when
    ``constraints`` hold, binding pattern variables per ``binding``."""

    constraints: Tuple[Term, ...]
    binding: Tuple[Tuple[str, Term], ...]

    def binding_dict(self) -> SymBinding:
        return dict(self.binding)

    def __str__(self) -> str:
        cs = " and ".join(str(c) for c in self.constraints) or "true"
        bs = ", ".join(f"{k}={v}" for k, v in self.binding)
        return f"match when [{cs}] binding [{bs}]"


def _match_field(pat: FieldPattern, term: Term, constraints: List[Term],
                 binding: SymBinding) -> bool:
    """Extend constraints/binding for one field; False = statically never."""
    if isinstance(pat, PWild):
        return True
    if isinstance(pat, PLit):
        c = simplify(SOp("eq", (term, lift_value(pat.value))))
        if c == S_FALSE:
            return False
        if c != S_TRUE:
            constraints.append(c)
        return True
    # PVar
    prior = binding.get(pat.name)
    if prior is None:
        binding[pat.name] = term
        return True
    if term is prior:  # interned terms: identical ⇒ equal, no constraint
        return True
    c = simplify(SOp("eq", (term, prior)))
    if c == S_FALSE:
        return False
    if c != S_TRUE:
        constraints.append(c)
    return True


def _match_comp(pat: CompPat, comp: SComp, constraints: List[Term],
                binding: SymBinding) -> bool:
    if pat.ctype != comp.ctype:
        return False
    if pat.config is None:
        return True
    if len(pat.config) != len(comp.config):
        return False
    for fp, term in zip(pat.config, comp.config):
        if not _match_field(fp, term, constraints, binding):
            return False
    return True


def _match_msg(pat: MsgPat, msg: str, payload: Tuple[Term, ...],
               constraints: List[Term], binding: SymBinding) -> bool:
    if pat.name != msg or len(pat.payload) != len(payload):
        return False
    for fp, term in zip(pat.payload, payload):
        if not _match_field(fp, term, constraints, binding):
            return False
    return True


def match_template(pattern: ActionPattern, template: Template,
                   binding: Optional[SymBinding] = None
                   ) -> Optional[SymMatch]:
    """Match ``pattern`` against ``template`` starting from ``binding``."""
    constraints: List[Term] = []
    env: SymBinding = dict(binding or {})

    if isinstance(pattern, SendPat) and isinstance(template, TSend):
        ok = (
            _match_comp(pattern.comp, template.comp, constraints, env)
            and _match_msg(pattern.msg, template.msg, template.payload,
                           constraints, env)
        )
    elif isinstance(pattern, RecvPat) and isinstance(template, TRecv):
        ok = (
            _match_comp(pattern.comp, template.comp, constraints, env)
            and _match_msg(pattern.msg, template.msg, template.payload,
                           constraints, env)
        )
    elif isinstance(pattern, SpawnPat) and isinstance(template, TSpawn):
        ok = _match_comp(pattern.comp, template.comp, constraints, env)
    elif isinstance(pattern, SelectPat) and isinstance(template, TSelect):
        ok = _match_comp(pattern.comp, template.comp, constraints, env)
    elif isinstance(pattern, CallPat) and isinstance(template, TCall):
        ok = pattern.func == template.func \
            and len(pattern.args) == len(template.args)
        if ok:
            for fp, term in zip(pattern.args, template.args):
                if not _match_field(fp, term, constraints, env):
                    ok = False
                    break
        if ok:
            ok = _match_field(pattern.result, template.result, constraints,
                              env)
    else:
        return None

    if not ok:
        return None
    return SymMatch(tuple(constraints), tuple(sorted(env.items())))


def match_comp_term(pat: CompPat, comp: SComp,
                    binding: Optional[SymBinding] = None
                    ) -> Optional[SymMatch]:
    """Match a bare component pattern against a component term (used by the
    non-interference labeling θc and by lookup-coverage reasoning)."""
    constraints: List[Term] = []
    env: SymBinding = dict(binding or {})
    if not _match_comp(pat, comp, constraints, env):
        return None
    return SymMatch(tuple(constraints), tuple(sorted(env.items())))
