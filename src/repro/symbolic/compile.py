"""Compiled symbolic plans: the closure-compiled step executor.

This module compiles each handler body into a *step program* — a tree
of closures with the per-node constant work (literal lifting,
field-index resolution, name routing, pattern tests) lowered at compile
time — and runs it in place of the AST-walking
:func:`repro.symbolic.seval.sym_exec`.  :class:`CompiledPlan` builds a
kernel's :class:`~repro.symbolic.behabs.GenericStep` with it; the
engine builds that step once per
:class:`~repro.prover.engine.Verifier` and keeps it there, so nothing
here outlives a verification.

Equivalence contract: for every program, the compiled executor produces
the *same terms in the same order* as :func:`repro.symbolic.seval.sym_exec`
— including the consumption order of the :class:`FreshNames` supply, the
``simplify``/``dnf`` call sequence and the feasibility pruning points —
so obligation keys, derivations and derivation keys are preserved
bit-for-bit.  The all-kernel compile-vs-interpret differential tests
are the net; ``--no-compile`` is the escape hatch.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..obs import core as obs
from ..lang import ast
from ..lang.errors import SymbolicError
from ..lang.validate import CALL_RESULT_TYPE, ProgramInfo
from .expr import FreshNames, SComp, SOp, SProj, STuple, Term, lift_value
from .seval import (
    FoundFact,
    MissingFact,
    SymPath,
    _EvalState,
    _snapshot_env,
)
from .simplify import dnf, simplify
from .templates import TCall, TSend, TSpawn

#: ``fn(env, locals_, sender) -> Term`` — a compiled (raw, unsimplified)
#: expression, mirroring ``seval._eval``.
_ExprFn = Callable[[dict, dict, Optional[SComp]], Term]
#: ``fn(state, fresh) -> List[_EvalState]`` — a compiled command,
#: mirroring ``seval._exec``.
_CmdFn = Callable[[_EvalState, FreshNames], List[_EvalState]]


class _Compiler:
    """Compiles expressions and commands of one program into closures.

    Memoized per AST node identity; the compiler keeps the nodes alive
    through its memo tables, so ``id``-keying is stable.
    """

    def __init__(self, info: ProgramInfo) -> None:
        self.info = info
        self._exprs: Dict[int, Tuple[object, _ExprFn]] = {}
        self._cmds: Dict[int, Tuple[object, _CmdFn]] = {}

    # -- expressions ---------------------------------------------------------

    def expr(self, e: ast.Expr) -> _ExprFn:
        hit = self._exprs.get(id(e))
        if hit is not None:
            return hit[1]
        fn = self._compile_expr(e)
        self._exprs[id(e)] = (e, fn)
        return fn

    def eval_expr(self, e: ast.Expr) -> _ExprFn:
        """The compiled form of ``seval.eval_sexpr`` (simplified result)."""
        raw = self.expr(e)

        def run(env: dict, locals_: dict, sender: Optional[SComp]) -> Term:
            return simplify(raw(env, locals_, sender))

        return run

    def _compile_expr(self, e: ast.Expr) -> _ExprFn:
        if isinstance(e, ast.Lit):
            value = lift_value(e.value)
            return lambda env, locals_, sender: value
        if isinstance(e, ast.Name):
            name = e.name

            def run_name(env, locals_, sender):
                if name in locals_:
                    return locals_[name]
                if name in env:
                    return env[name]
                raise SymbolicError(
                    f"unbound name {name} in symbolic evaluation"
                )

            return run_name
        if isinstance(e, ast.Sender):
            def run_sender(env, locals_, sender):
                if sender is None:
                    raise SymbolicError("'sender' outside a handler")
                return sender

            return run_sender
        if isinstance(e, ast.Field):
            base = self.expr(e.comp)
            fld = e.field
            info = self.info
            # Pre-lower the field index for every component type that has
            # the field; the rare miss falls back to the interpreter's
            # lookup (and its error).
            indices: Dict[str, int] = {}
            for cname, decl in info.comp_table.items():
                try:
                    indices[cname] = decl.config_index(fld)
                except Exception:
                    pass

            def run_field(env, locals_, sender):
                comp = simplify(base(env, locals_, sender))
                if not isinstance(comp, SComp):
                    raise SymbolicError(
                        f"config access on non-component term {comp}"
                    )
                index = indices.get(comp.ctype)
                if index is None:
                    index = info.comp_table[comp.ctype].config_index(fld)
                return comp.config[index]

            return run_field
        if isinstance(e, ast.BinOp):
            left = self.expr(e.left)
            right = self.expr(e.right)
            if e.op == "ne":
                return lambda env, locals_, sender: SOp("not", (SOp(
                    "eq",
                    (left(env, locals_, sender), right(env, locals_, sender)),
                ),))
            op = e.op
            return lambda env, locals_, sender: SOp(op, (
                left(env, locals_, sender), right(env, locals_, sender),
            ))
        if isinstance(e, ast.Not):
            arg = self.expr(e.arg)
            return lambda env, locals_, sender: SOp(
                "not", (arg(env, locals_, sender),)
            )
        if isinstance(e, ast.TupleExpr):
            elems = tuple(self.expr(x) for x in e.elems)
            return lambda env, locals_, sender: STuple(tuple(
                fn(env, locals_, sender) for fn in elems
            ))
        if isinstance(e, ast.Proj):
            base = self.expr(e.tuple_expr)
            index = e.index
            return lambda env, locals_, sender: SProj(
                base(env, locals_, sender), index
            )
        raise SymbolicError(f"unknown expression form {e!r}")

    # -- commands ------------------------------------------------------------

    def cmd(self, c: ast.Cmd) -> _CmdFn:
        hit = self._cmds.get(id(c))
        if hit is not None:
            return hit[1]
        fn = self._compile_cmd(c)
        self._cmds[id(c)] = (c, fn)
        return fn

    def _compile_cmd(self, c: ast.Cmd) -> _CmdFn:
        if isinstance(c, ast.Nop):
            return lambda state, fresh: [state]
        if isinstance(c, ast.Assign):
            value_fn = self.eval_expr(c.expr)
            var = c.var

            def run_assign(state, fresh):
                value = value_fn(state.env, state.locals, state.sender)
                out = state.fork()
                out.env[var] = value
                return [out]

            return run_assign
        if isinstance(c, ast.Seq):
            parts = tuple(self.cmd(x) for x in c.cmds)

            def run_seq(state, fresh):
                states = [state]
                for part in parts:
                    next_states: List[_EvalState] = []
                    for s in states:
                        next_states.extend(part(s, fresh))
                    states = next_states
                return states

            return run_seq
        if isinstance(c, ast.If):
            return self._compile_if(c)
        if isinstance(c, ast.SendCmd):
            return self._compile_send(c)
        if isinstance(c, ast.SpawnCmd):
            return self._compile_spawn(c)
        if isinstance(c, ast.CallCmd):
            return self._compile_call(c)
        if isinstance(c, ast.LookupCmd):
            return self._compile_lookup(c)
        raise SymbolicError(f"unknown command form {c!r}")

    def _compile_if(self, c: ast.If) -> _CmdFn:
        cond_fn = self.eval_expr(c.cond)
        then_fn = self.cmd(c.then)
        else_fn = self.cmd(c.otherwise)

        def run_if(state, fresh):
            cond = cond_fn(state.env, state.locals, state.sender)
            out: List[_EvalState] = []
            for cube in dnf(cond):
                branch = state.fork()
                branch.cond = branch.cond + cube
                if branch.feasible():
                    out.extend(then_fn(branch, fresh))
            for cube in dnf(SOp("not", (cond,))):
                branch = state.fork()
                branch.cond = branch.cond + cube
                if branch.feasible():
                    out.extend(else_fn(branch, fresh))
            return out

        return run_if

    def _compile_send(self, c: ast.SendCmd) -> _CmdFn:
        target_fn = self.eval_expr(c.target)
        arg_fns = tuple(self.eval_expr(a) for a in c.args)
        msg = c.msg

        def run_send(state, fresh):
            target = target_fn(state.env, state.locals, state.sender)
            if not isinstance(target, SComp):
                raise SymbolicError(
                    f"send target did not evaluate to a component "
                    f"term: {c} -> {target}"
                )
            payload = tuple(
                fn(state.env, state.locals, state.sender) for fn in arg_fns
            )
            out = state.fork()
            out.actions = out.actions + (TSend(target, msg, payload),)
            return [out]

        return run_send

    def _compile_spawn(self, c: ast.SpawnCmd) -> _CmdFn:
        config_fns = tuple(self.eval_expr(a) for a in c.config)
        label_base = c.bind or c.ctype.lower()
        ctype = c.ctype
        bind = c.bind

        def run_spawn(state, fresh):
            config = tuple(
                fn(state.env, state.locals, state.sender)
                for fn in config_fns
            )
            comp = SComp(
                label=fresh.comp_label(label_base),
                ctype=ctype,
                config=config,
                origin="fresh",
                seq=fresh.seq(),
            )
            out = state.fork()
            out.actions = out.actions + (TSpawn(comp),)
            out.new_comps = out.new_comps + (comp,)
            out.known_comps = out.known_comps + (comp,)
            if bind is not None:
                out.locals[bind] = comp
            return [out]

        return run_spawn

    def _compile_call(self, c: ast.CallCmd) -> _CmdFn:
        arg_fns = tuple(self.eval_expr(a) for a in c.args)
        func = c.func
        bind = c.bind
        result_name = f"call_{func}"

        def run_call(state, fresh):
            args = tuple(
                fn(state.env, state.locals, state.sender) for fn in arg_fns
            )
            result = fresh.var(result_name, CALL_RESULT_TYPE, "call")
            out = state.fork()
            out.actions = out.actions + (TCall(func, args, result),)
            out.locals[bind] = result
            return [out]

        return run_call

    def _compile_lookup(self, c: ast.LookupCmd) -> _CmdFn:
        decl = self.info.comp_table[c.ctype]
        config_specs = tuple(
            (f"{c.bind}_{f.name}", f.type) for f in decl.config
        )
        pred_fn = self.eval_expr(c.pred)
        found_fn = self.cmd(c.found)
        missing_fn = self.cmd(c.missing)
        ctype = c.ctype
        bind = c.bind
        pred = c.pred

        def run_lookup(state, fresh):
            candidate = SComp(
                label=fresh.comp_label(bind),
                ctype=ctype,
                config=tuple(
                    fresh.var(name, type_, "config")
                    for name, type_ in config_specs
                ),
                origin="lookup",
                seq=fresh.seq(),
            )
            env_snapshot = _snapshot_env(state)
            out: List[_EvalState] = []

            pred_term = pred_fn(
                state.env, {**state.locals, bind: candidate}, state.sender
            )
            for cube in dnf(pred_term):
                branch = state.fork()
                branch.cond = branch.cond + cube
                branch.locals[bind] = candidate
                branch.lookup_facts = branch.lookup_facts + (FoundFact(
                    comp=candidate,
                    ctype=ctype,
                    bind=bind,
                    pred=pred,
                    env=env_snapshot,
                    sender=state.sender,
                    known_before=state.known_comps,
                    at_index=len(state.actions),
                ),)
                if branch.feasible():
                    out.extend(found_fn(branch, fresh))

            # Missing branch — see the soundness note in seval: only a
            # single-literal negation may strengthen the path condition.
            branch = state.fork()
            negative_literals: List[Term] = []
            for known in state.known_comps:
                if known.ctype != ctype:
                    continue
                known_pred = pred_fn(
                    state.env, {**state.locals, bind: known}, state.sender
                )
                negation_cubes = dnf(SOp("not", (known_pred,)))
                if len(negation_cubes) == 1:
                    negative_literals.extend(negation_cubes[0])
            branch.cond = branch.cond + tuple(negative_literals)
            branch.lookup_facts = branch.lookup_facts + (MissingFact(
                ctype=ctype,
                bind=bind,
                pred=pred,
                env=env_snapshot,
                sender=state.sender,
                known_before=state.known_comps,
                at_index=len(state.actions),
            ),)
            if branch.feasible():
                out.extend(missing_fn(branch, fresh))
            return out

        return run_lookup


def compiled_executor(info: ProgramInfo) -> Callable:
    """An executor with the :func:`repro.symbolic.seval.sym_exec`
    signature that runs compiled step programs instead of walking ASTs.

    Suitable as the ``executor`` argument of
    :func:`repro.symbolic.behabs.build_exchange`.
    """
    compiler = _Compiler(info)

    def run(info_, body, env, params, sender, known_comps, fresh,
            base_cond=(), base_actions=()):
        body_fn = compiler.cmd(body)
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
        states = body_fn(start, fresh)
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

    return run


class CompiledPlan:
    """Builds one kernel's symbolic step with the compiled executor.

    Keeps no memo: the engine builds the step once per ``Verifier`` and
    holds it there (:meth:`repro.prover.engine.Verifier.generic_step`).
    """

    def step_for(self, info: ProgramInfo):
        """The :class:`~repro.symbolic.behabs.GenericStep` of ``info``'s
        program, built with :func:`compiled_executor`."""
        from .behabs import generic_step

        return generic_step(info, executor=compiled_executor(info))
