"""Symbolic evaluation of handlers.

Handlers are loop free (a LAC design decision, paper sections 3.3 and 7),
so a handler body denotes a *finite* set of paths.  :func:`sym_exec`
enumerates them: each :class:`SymPath` carries the path condition (a
conjunction of literals), the final values of the global variables, the
chronological list of emitted action templates, the components spawned, and
the ``lookup`` facts collected along the way.

``lookup`` contributes structured facts rather than plain constraints:

* a *found* fact records that the bound component is an arbitrary member of
  the component set (of the right type) satisfying the predicate, and
* a *missing* fact records that **no** component of the type in the set at
  that moment satisfies the predicate,

both of which the prover later converts into trace facts through the
component-set/Spawn-action correspondence (see
:mod:`repro.symbolic.behabs`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..obs import core as obs
from ..lang import ast
from ..lang.errors import SymbolicError
from ..lang.validate import CALL_RESULT_TYPE, ProgramInfo
from .expr import (
    FreshNames,
    SComp,
    SOp,
    SProj,
    STuple,
    Term,
    lift_value,
)
from .simplify import dnf, simplify
from .solver import Facts, facts_for
from .templates import Template, TCall, TSend, TSpawn


@dataclass(frozen=True)
class FoundFact:
    """``lookup`` succeeded: ``comp`` is an arbitrary member of the
    component set of type ``ctype`` satisfying ``pred`` (evaluated with
    ``bind`` mapped to the candidate in ``env``)."""

    comp: SComp
    ctype: str
    bind: str
    pred: ast.Expr
    env: Tuple[Tuple[str, Term], ...]
    sender: Optional[SComp]
    known_before: Tuple[SComp, ...]
    #: position in the path's action list when the lookup ran; actions at
    #: indices >= at_index happened after the lookup.
    at_index: int = 0


@dataclass(frozen=True)
class MissingFact:
    """``lookup`` failed: no component of ``ctype`` in the set (at that
    moment: every Init component, every earlier handler spawn, and every
    component spawned by previous exchanges) satisfies ``pred``."""

    ctype: str
    bind: str
    pred: ast.Expr
    env: Tuple[Tuple[str, Term], ...]
    sender: Optional[SComp]
    known_before: Tuple[SComp, ...]
    at_index: int = 0


LookupFact = object  # FoundFact | MissingFact


@dataclass(frozen=True)
class SymPath:
    """One path through a handler (or through Init)."""

    cond: Tuple[Term, ...]
    env: Tuple[Tuple[str, Term], ...]
    actions: Tuple[Template, ...]
    new_comps: Tuple[SComp, ...]
    lookup_facts: Tuple[LookupFact, ...]

    def env_dict(self) -> Dict[str, Term]:
        return dict(self.env)

    def facts(self) -> Facts:
        """A solver context pre-loaded with this path's condition (served
        through the prefix cache; always a private copy)."""
        return facts_for(self.cond)

    def __str__(self) -> str:
        cond = " and ".join(str(c) for c in self.cond) or "true"
        acts = "; ".join(str(a) for a in self.actions) or "(no actions)"
        return f"path [{cond}] -> {acts}"


@dataclass
class _EvalState:
    """Mutable-by-replacement evaluation state threaded through a body."""

    env: Dict[str, Term]
    locals: Dict[str, Term]
    sender: Optional[SComp]
    cond: Tuple[Term, ...]
    actions: Tuple[Template, ...]
    new_comps: Tuple[SComp, ...]
    known_comps: Tuple[SComp, ...]
    lookup_facts: Tuple[LookupFact, ...]

    def fork(self) -> "_EvalState":
        return _EvalState(
            env=dict(self.env),
            locals=dict(self.locals),
            sender=self.sender,
            cond=self.cond,
            actions=self.actions,
            new_comps=self.new_comps,
            known_comps=self.known_comps,
            lookup_facts=self.lookup_facts,
        )

    def feasible(self) -> bool:
        return not facts_for(self.cond).inconsistent()


# ---------------------------------------------------------------------------
# Expression evaluation
# ---------------------------------------------------------------------------


def eval_sexpr(e: ast.Expr, env: Dict[str, Term], locals_: Dict[str, Term],
               sender: Optional[SComp], info: ProgramInfo) -> Term:
    """Evaluate a (pure) DSL expression to a simplified term."""
    return simplify(_eval(e, env, locals_, sender, info))


def _eval(e: ast.Expr, env: Dict[str, Term], locals_: Dict[str, Term],
          sender: Optional[SComp], info: ProgramInfo) -> Term:
    if isinstance(e, ast.Lit):
        return lift_value(e.value)
    if isinstance(e, ast.Name):
        if e.name in locals_:
            return locals_[e.name]
        if e.name in env:
            return env[e.name]
        raise SymbolicError(f"unbound name {e.name} in symbolic evaluation")
    if isinstance(e, ast.Sender):
        if sender is None:
            raise SymbolicError("'sender' outside a handler")
        return sender
    if isinstance(e, ast.Field):
        comp = _eval(e.comp, env, locals_, sender, info)
        comp = simplify(comp)
        if not isinstance(comp, SComp):
            raise SymbolicError(f"config access on non-component term {comp}")
        decl = info.comp_table[comp.ctype]
        return comp.config[decl.config_index(e.field)]
    if isinstance(e, ast.BinOp):
        left = _eval(e.left, env, locals_, sender, info)
        right = _eval(e.right, env, locals_, sender, info)
        if e.op == "ne":
            return SOp("not", (SOp("eq", (left, right)),))
        return SOp(e.op, (left, right))
    if isinstance(e, ast.Not):
        return SOp("not", (_eval(e.arg, env, locals_, sender, info),))
    if isinstance(e, ast.TupleExpr):
        return STuple(tuple(
            _eval(x, env, locals_, sender, info) for x in e.elems
        ))
    if isinstance(e, ast.Proj):
        return SProj(_eval(e.tuple_expr, env, locals_, sender, info),
                     e.index)
    raise SymbolicError(f"unknown expression form {e!r}")


# ---------------------------------------------------------------------------
# Command evaluation
# ---------------------------------------------------------------------------


def sym_exec(info: ProgramInfo, body: ast.Cmd, env: Dict[str, Term],
             params: Dict[str, Term], sender: Optional[SComp],
             known_comps: Tuple[SComp, ...], fresh: FreshNames,
             base_cond: Tuple[Term, ...] = (),
             base_actions: Tuple[Template, ...] = ()) -> List[SymPath]:
    """Enumerate the feasible paths of ``body``.

    ``env`` holds the pre-state global values, ``params`` the handler's
    payload bindings, ``known_comps`` the component terms known to exist
    before the handler runs (Init components); ``base_actions`` seeds the
    action list (the Select/Recv boundary actions of the exchange).
    """
    start = _EvalState(
        env=dict(env),
        locals=dict(params),
        sender=sender,
        cond=tuple(base_cond),
        actions=tuple(base_actions),
        new_comps=(),
        known_comps=tuple(known_comps),
        lookup_facts=(),
    )
    states = _exec(body, start, info, fresh)
    obs.incr("seval.paths", len(states))
    return [
        SymPath(
            cond=s.cond,
            env=tuple(sorted(s.env.items())),
            actions=s.actions,
            new_comps=s.new_comps,
            lookup_facts=s.lookup_facts,
        )
        for s in states
    ]


def _exec(cmd: ast.Cmd, state: _EvalState, info: ProgramInfo,
          fresh: FreshNames) -> List[_EvalState]:
    if isinstance(cmd, ast.Nop):
        return [state]
    if isinstance(cmd, ast.Assign):
        value = eval_sexpr(cmd.expr, state.env, state.locals, state.sender,
                           info)
        out = state.fork()
        out.env[cmd.var] = value
        return [out]
    if isinstance(cmd, ast.Seq):
        states = [state]
        for c in cmd.cmds:
            next_states: List[_EvalState] = []
            for s in states:
                next_states.extend(_exec(c, s, info, fresh))
            states = next_states
        return states
    if isinstance(cmd, ast.If):
        return _exec_if(cmd, state, info, fresh)
    if isinstance(cmd, ast.SendCmd):
        return [_exec_send(cmd, state, info)]
    if isinstance(cmd, ast.SpawnCmd):
        return [_exec_spawn(cmd, state, info, fresh)]
    if isinstance(cmd, ast.CallCmd):
        return [_exec_call(cmd, state, info, fresh)]
    if isinstance(cmd, ast.LookupCmd):
        return _exec_lookup(cmd, state, info, fresh)
    raise SymbolicError(f"unknown command form {cmd!r}")


def _exec_if(cmd: ast.If, state: _EvalState, info: ProgramInfo,
             fresh: FreshNames) -> List[_EvalState]:
    cond = eval_sexpr(cmd.cond, state.env, state.locals, state.sender, info)
    out: List[_EvalState] = []
    for cube in dnf(cond):
        branch = state.fork()
        branch.cond = branch.cond + cube
        if branch.feasible():
            out.extend(_exec(cmd.then, branch, info, fresh))
    for cube in dnf(SOp("not", (cond,))):
        branch = state.fork()
        branch.cond = branch.cond + cube
        if branch.feasible():
            out.extend(_exec(cmd.otherwise, branch, info, fresh))
    return out


def _exec_send(cmd: ast.SendCmd, state: _EvalState,
               info: ProgramInfo) -> _EvalState:
    target = eval_sexpr(cmd.target, state.env, state.locals, state.sender,
                        info)
    if not isinstance(target, SComp):
        raise SymbolicError(f"send target did not evaluate to a component "
                            f"term: {cmd} -> {target}")
    payload = tuple(
        eval_sexpr(a, state.env, state.locals, state.sender, info)
        for a in cmd.args
    )
    out = state.fork()
    out.actions = out.actions + (TSend(target, cmd.msg, payload),)
    return out


def _exec_spawn(cmd: ast.SpawnCmd, state: _EvalState, info: ProgramInfo,
                fresh: FreshNames) -> _EvalState:
    config = tuple(
        eval_sexpr(a, state.env, state.locals, state.sender, info)
        for a in cmd.config
    )
    comp = SComp(
        label=fresh.comp_label(cmd.bind or cmd.ctype.lower()),
        ctype=cmd.ctype,
        config=config,
        origin="fresh",
        seq=fresh.seq(),
    )
    out = state.fork()
    out.actions = out.actions + (TSpawn(comp),)
    out.new_comps = out.new_comps + (comp,)
    out.known_comps = out.known_comps + (comp,)
    if cmd.bind is not None:
        out.locals[cmd.bind] = comp
    return out


def _exec_call(cmd: ast.CallCmd, state: _EvalState, info: ProgramInfo,
               fresh: FreshNames) -> _EvalState:
    args = tuple(
        eval_sexpr(a, state.env, state.locals, state.sender, info)
        for a in cmd.args
    )
    result = fresh.var(f"call_{cmd.func}", CALL_RESULT_TYPE, "call")
    out = state.fork()
    out.actions = out.actions + (TCall(cmd.func, args, result),)
    out.locals[cmd.bind] = result
    return out


def _exec_lookup(cmd: ast.LookupCmd, state: _EvalState, info: ProgramInfo,
                 fresh: FreshNames) -> List[_EvalState]:
    decl = info.comp_table[cmd.ctype]
    candidate = SComp(
        label=fresh.comp_label(cmd.bind),
        ctype=cmd.ctype,
        config=tuple(
            fresh.var(f"{cmd.bind}_{f.name}", f.type, "config")
            for f in decl.config
        ),
        origin="lookup",
        seq=fresh.seq(),
    )
    env_snapshot = _snapshot_env(state)
    out: List[_EvalState] = []

    # Found branch: the candidate satisfies the predicate.
    pred_term = eval_sexpr(
        cmd.pred, state.env, {**state.locals, cmd.bind: candidate},
        state.sender, info,
    )
    for cube in dnf(pred_term):
        branch = state.fork()
        branch.cond = branch.cond + cube
        branch.locals[cmd.bind] = candidate
        branch.lookup_facts = branch.lookup_facts + (FoundFact(
            comp=candidate,
            ctype=cmd.ctype,
            bind=cmd.bind,
            pred=cmd.pred,
            env=env_snapshot,
            sender=state.sender,
            known_before=state.known_comps,
            at_index=len(state.actions),
        ),)
        if branch.feasible():
            out.extend(_exec(cmd.found, branch, info, fresh))

    # Missing branch: no component of the type satisfies the predicate.
    # Known components give *concrete* negative facts; the universal
    # residue about unknown components is carried by the MissingFact.
    #
    # Soundness note: the negation of the predicate may be a disjunction
    # (¬(a ∧ b) = ¬a ∨ ¬b).  Path conditions are conjunctions of literals,
    # so we may only record the negation when it is a single literal —
    # adding each disjunct as a separate literal would *strengthen* the
    # path condition and silently drop real executions from the case
    # analysis.  When the negation does not fit, we record nothing (the
    # path is merely less constrained, which is always sound).
    branch = state.fork()
    negative_literals: List[Term] = []
    for known in state.known_comps:
        if known.ctype != cmd.ctype:
            continue
        known_pred = eval_sexpr(
            cmd.pred, state.env, {**state.locals, cmd.bind: known},
            state.sender, info,
        )
        negation_cubes = dnf(SOp("not", (known_pred,)))
        if len(negation_cubes) == 1:
            negative_literals.extend(negation_cubes[0])
    branch.cond = branch.cond + tuple(negative_literals)
    branch.lookup_facts = branch.lookup_facts + (MissingFact(
        ctype=cmd.ctype,
        bind=cmd.bind,
        pred=cmd.pred,
        env=env_snapshot,
        sender=state.sender,
        known_before=state.known_comps,
        at_index=len(state.actions),
    ),)
    if branch.feasible():
        out.extend(_exec(cmd.missing, branch, info, fresh))
    return out


def _snapshot_env(state: _EvalState) -> Tuple[Tuple[str, Term], ...]:
    merged = dict(state.env)
    merged.update(state.locals)
    return tuple(sorted(merged.items()))
