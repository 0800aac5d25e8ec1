"""The REFLEX interpreter (paper Figure 4).

The interpreter drives the event-processing loop of a validated program:

1. ``select`` a ready component,
2. ``recv`` its oldest message,
3. dispatch to the handler registered for (component type, message type) —
   or do nothing when no handler is declared,
4. run the handler command with :func:`run_cmd`, performing effects through
   the :class:`~repro.runtime.world.World` and recording every observable
   interaction in the ghost trace.

The expression evaluator (:func:`eval_expr`) and the per-command semantics
here are the *concrete* twin of :mod:`repro.symbolic.seval`; a differential
test keeps them aligned, which is our executable substitute for the paper's
once-and-for-all Coq soundness proof.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..lang import ast
from ..lang.errors import RuntimeFault, WorldError
from ..lang.validate import ProgramInfo
from ..lang.values import (
    ComponentInstance,
    Value,
    VBool,
    VComp,
    VNum,
    VStr,
    VTuple,
    type_of,
    vbool,
)
from .actions import ACall, ARecv, ASelect, ASend, ASpawn
from .trace import Trace
from .world import World


@dataclass
class KernelState:
    """The interpreter's program state (paper Figure 4): the live component
    list, the ghost trace, and the global-variable environment.

    ``comp_decls`` caches the component declaration table so that bare
    expression evaluation can resolve configuration-field slots without
    threading the whole :class:`ProgramInfo` through every call."""

    comps: List[ComponentInstance] = field(default_factory=list)
    trace: Trace = field(default_factory=Trace)
    env: Dict[str, Value] = field(default_factory=dict)
    comp_decls: Dict[str, object] = field(default_factory=dict)

    def lookup_components(self, ctype: str) -> List[ComponentInstance]:
        """Live components of the given type, in spawn order."""
        return [c for c in self.comps if c.ctype == ctype]


@dataclass(frozen=True)
class _Scope:
    """Evaluation scope inside one handler run: locals + the sender."""

    locals: Dict[str, Value]
    sender: Optional[ComponentInstance]

    def bind(self, name: str, value: Value) -> "_Scope":
        merged = dict(self.locals)
        merged[name] = value
        return _Scope(merged, self.sender)


# ---------------------------------------------------------------------------
# Expression evaluation
# ---------------------------------------------------------------------------


def eval_expr(e: ast.Expr, state: KernelState, scope: _Scope) -> Value:
    """Evaluate expression ``e``; validation guarantees this cannot fail on
    a validated program, so any error here is a :class:`RuntimeFault`."""
    if isinstance(e, ast.Lit):
        return e.value
    if isinstance(e, ast.Name):
        if e.name in scope.locals:
            return scope.locals[e.name]
        if e.name in state.env:
            return state.env[e.name]
        raise RuntimeFault(f"unbound name {e.name}")
    if isinstance(e, ast.Sender):
        if scope.sender is None:
            raise RuntimeFault("'sender' outside a handler")
        return VComp(scope.sender)
    if isinstance(e, ast.Field):
        comp_val = eval_expr(e.comp, state, scope)
        if not isinstance(comp_val, VComp):
            raise RuntimeFault(f"config access on non-component: {e}")
        # Validation proved the field exists; find its index by declaration.
        return _config_field(comp_val.comp, e.field, state)
    if isinstance(e, ast.BinOp):
        return _eval_binop(e, state, scope)
    if isinstance(e, ast.Not):
        arg = eval_expr(e.arg, state, scope)
        return vbool(not _as_bool(arg))
    if isinstance(e, ast.TupleExpr):
        return VTuple(tuple(eval_expr(x, state, scope) for x in e.elems))
    if isinstance(e, ast.Proj):
        base = eval_expr(e.tuple_expr, state, scope)
        if not isinstance(base, VTuple):
            raise RuntimeFault(f"projection of non-tuple: {e}")
        return base.elems[e.index]
    raise RuntimeFault(f"unknown expression form: {e!r}")


def _eval_binop(e: ast.BinOp, state: KernelState, scope: _Scope) -> Value:
    # 'and'/'or' short-circuit; everything else is strict.
    if e.op == "and":
        left = _as_bool(eval_expr(e.left, state, scope))
        if not left:
            return vbool(False)
        return vbool(_as_bool(eval_expr(e.right, state, scope)))
    if e.op == "or":
        left = _as_bool(eval_expr(e.left, state, scope))
        if left:
            return vbool(True)
        return vbool(_as_bool(eval_expr(e.right, state, scope)))

    left = eval_expr(e.left, state, scope)
    right = eval_expr(e.right, state, scope)
    if e.op == "eq":
        return vbool(left == right)
    if e.op == "ne":
        return vbool(left != right)
    if e.op == "add":
        return VNum(_as_num(left) + _as_num(right))
    if e.op == "lt":
        return vbool(_as_num(left) < _as_num(right))
    if e.op == "le":
        return vbool(_as_num(left) <= _as_num(right))
    if e.op == "concat":
        return VStr(_as_str(left) + _as_str(right))
    raise RuntimeFault(f"unknown operator {e.op}")


def _as_bool(v: Value) -> bool:
    if not isinstance(v, VBool):
        raise RuntimeFault(f"expected bool, got {v}")
    return v.b


def _as_num(v: Value) -> int:
    if not isinstance(v, VNum):
        raise RuntimeFault(f"expected num, got {v}")
    return v.n


def _as_str(v: Value) -> str:
    if not isinstance(v, VStr):
        raise RuntimeFault(f"expected string, got {v}")
    return v.s


def _has_negative_num(v: Value) -> bool:
    """Numbers are naturals; components may not smuggle negatives in."""
    if isinstance(v, VNum):
        return v.n < 0
    if isinstance(v, VTuple):
        return any(_has_negative_num(e) for e in v.elems)
    return False


def message_complaint(info: ProgramInfo, comp: ComponentInstance, msg: str,
                      payload: Tuple[Value, ...]) -> Optional[str]:
    """Why the message ``msg(payload)`` from ``comp`` does not fit a
    declared message type, or ``None`` when it fits: the type is declared,
    and every payload slot has its declared type and holds no negative
    number.

    This models the kernel's message parser: a real kernel reading a
    socket would fail to parse garbage and drop the connection.  The
    interpreter rejects such a message, and the trace replay
    (:mod:`repro.runtime.replay`) rejects a trace that receives one.
    """
    decl = info.msg_table.get(msg)
    if decl is None:
        return f"component {comp} sent undeclared message type {msg}"
    if len(payload) != decl.arity:
        return (f"component {comp} sent {msg} with {len(payload)} payload "
                f"items, expected {decl.arity}")
    for i, (v, t) in enumerate(zip(payload, decl.payload)):
        if type_of(v) != t:
            return (f"component {comp} sent {msg}: payload slot {i} has "
                    f"type {type_of(v)}, expected {t}")
        if _has_negative_num(v):
            return (f"component {comp} sent {msg}: payload slot {i} holds "
                    f"a negative number (num is a natural type)")
    return None


def _config_field(comp: ComponentInstance, field_name: str,
                  state: KernelState) -> Value:
    decl = state.comp_decls.get(comp.ctype)
    if decl is None:
        raise RuntimeFault(f"unknown component type {comp.ctype}")
    return comp.config[decl.config_index(field_name)]


# ---------------------------------------------------------------------------
# The interpreter
# ---------------------------------------------------------------------------


class Interpreter:
    """Runs a validated program against a world (paper Figure 4's ``step``).

    Usage::

        world = World(seed=7)
        interp = Interpreter(info, world)
        state = interp.run_init()
        interp.run(state, max_steps=100)
    """

    def __init__(self, info: ProgramInfo, world: World) -> None:
        self.info = info
        self.world = world

    # -- initialization ------------------------------------------------------

    def run_init(self) -> KernelState:
        """Execute the Init section, producing the initial kernel state."""
        state = KernelState(comp_decls=dict(self.info.comp_table))
        scope = _Scope({}, None)
        for cmd in self.info.program.init:
            self._run_flat_init_cmd(cmd, state, scope)
        return state

    def _run_flat_init_cmd(self, cmd: ast.Cmd, state: KernelState,
                           scope: _Scope) -> None:
        if isinstance(cmd, ast.Nop):
            return
        if isinstance(cmd, ast.Assign):
            state.env[cmd.var] = eval_expr(cmd.expr, state, scope)
            return
        if isinstance(cmd, ast.SpawnCmd):
            comp = self._do_spawn(cmd, state, scope)
            state.env[cmd.bind] = VComp(comp)
            return
        if isinstance(cmd, ast.CallCmd):
            result = self._do_call(cmd, state, scope)
            state.env[cmd.bind] = result
            return
        raise RuntimeFault(f"non-flat Init command survived validation: "
                           f"{cmd}")

    # -- the event loop ------------------------------------------------------

    def step(self, state: KernelState) -> bool:
        """One exchange: select, recv, dispatch, run handler.

        Returns ``False`` when no component is ready (the system is idle).
        """
        comp = self.world.select()
        if comp is None:
            return False
        state.trace.push(ASelect(comp))
        msg, payload = self.world.recv(comp)
        self._check_message_shape(comp, msg, payload)
        state.trace.push(ARecv(comp, msg, payload))

        handler = self.info.program.handler_for(comp.ctype, msg)
        if handler is not None:
            scope = _Scope(dict(zip(handler.params, payload)), comp)
            self.run_cmd(handler.body, state, scope)
        return True

    def run(self, state: KernelState, max_steps: int = 1000) -> int:
        """Run exchanges until idle or ``max_steps``; returns steps taken."""
        steps = 0
        while steps < max_steps and self.step(state):
            steps += 1
        return steps

    def _check_message_shape(self, comp: ComponentInstance, msg: str,
                             payload: Tuple[Value, ...]) -> None:
        """Reject messages that do not fit a declared message type (see
        :func:`message_complaint`)."""
        complaint = message_complaint(self.info, comp, msg, payload)
        if complaint is not None:
            raise WorldError(complaint)

    # -- command execution (paper's run_cmd) ----------------------------------

    def run_cmd(self, cmd: ast.Cmd, state: KernelState,
                scope: _Scope) -> _Scope:
        """Execute a handler command; returns the scope extended with any
        bindings the command introduced (for sequence threading)."""
        if isinstance(cmd, ast.Nop):
            return scope
        if isinstance(cmd, ast.Assign):
            state.env[cmd.var] = eval_expr(cmd.expr, state, scope)
            return scope
        if isinstance(cmd, ast.Seq):
            running = scope
            for c in cmd.cmds:
                running = self.run_cmd(c, state, running)
            return scope
        if isinstance(cmd, ast.If):
            cond = _as_bool(eval_expr(cmd.cond, state, scope))
            self.run_cmd(cmd.then if cond else cmd.otherwise, state, scope)
            return scope
        if isinstance(cmd, ast.SendCmd):
            target = eval_expr(cmd.target, state, scope)
            if not isinstance(target, VComp):
                raise RuntimeFault(f"send target is not a component: {cmd}")
            payload = tuple(eval_expr(a, state, scope) for a in cmd.args)
            self.world.send(target.comp, cmd.msg, payload)
            state.trace.push(ASend(target.comp, cmd.msg, payload))
            return scope
        if isinstance(cmd, ast.SpawnCmd):
            comp = self._do_spawn(cmd, state, scope)
            if cmd.bind is not None:
                return scope.bind(cmd.bind, VComp(comp))
            return scope
        if isinstance(cmd, ast.CallCmd):
            result = self._do_call(cmd, state, scope)
            return scope.bind(cmd.bind, result)
        if isinstance(cmd, ast.LookupCmd):
            return self._do_lookup(cmd, state, scope)
        raise RuntimeFault(f"unknown command form: {cmd!r}")

    def _do_spawn(self, cmd: ast.SpawnCmd, state: KernelState,
                  scope: _Scope) -> ComponentInstance:
        decl = self.info.comp_table[cmd.ctype]
        config = tuple(eval_expr(e, state, scope) for e in cmd.config)
        comp = self.world.spawn(decl, config)
        state.comps.append(comp)
        state.trace.push(ASpawn(comp))
        return comp

    def _do_call(self, cmd: ast.CallCmd, state: KernelState,
                 scope: _Scope) -> Value:
        args = tuple(eval_expr(a, state, scope) for a in cmd.args)
        result = self.world.call(cmd.func, args)
        state.trace.push(ACall(cmd.func, args, result))
        return result

    def _do_lookup(self, cmd: ast.LookupCmd, state: KernelState,
                   scope: _Scope) -> _Scope:
        """Search live components of ``cmd.ctype`` (spawn order) for one
        satisfying the predicate; run the matching branch."""
        for comp in state.lookup_components(cmd.ctype):
            candidate_scope = scope.bind(cmd.bind, VComp(comp))
            if _as_bool(eval_expr(cmd.pred, state, candidate_scope)):
                self.run_cmd(cmd.found, state, candidate_scope)
                return scope
        self.run_cmd(cmd.missing, state, scope)
        return scope


def run_program(info: ProgramInfo, world: World,
                max_steps: int = 1000) -> KernelState:
    """Convenience: init + run; returns the final kernel state."""
    interp = Interpreter(info, world)
    state = interp.run_init()
    interp.run(state, max_steps=max_steps)
    return state
