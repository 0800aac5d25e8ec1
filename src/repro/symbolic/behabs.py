"""The behavioral abstraction ``BehAbs`` (paper section 3.3).

``BehAbs`` characterizes every trace a program can produce, inductively:

* **base**: the state after running Init (a *single* concrete-shaped state,
  because Init is flat — see :mod:`repro.lang.validate`), summarized by
  :func:`init_summary`;
* **step**: from any reachable state, one *exchange* — the kernel receives
  some message ``m`` from some component ``c`` of some type and runs the
  corresponding handler (or nothing) — summarized once per (component type,
  message type) pair by :func:`generic_step`.

:class:`GenericStep` is the object every proof inducts over: for each
exchange it enumerates the handler's symbolic paths starting from an
*arbitrary* reachable pre-state (data globals are fresh symbolic variables;
component-reference globals are pinned to their Init components, which is
sound because validation makes them immutable after Init).

Component-set / trace correspondence (the once-and-for-all meta-theorem the
prover's lookup reasoning relies on, validated by the randomized soundness
oracle in the test suite):

1. every component in the kernel's set is either an Init component or has a
   ``Spawn`` action in the trace, and
2. every ``Spawn`` action's component is in the set — components are never
   removed.

This module also provides :class:`AbstractionChecker`, the executable form
of the paper's "sats" arrow (Figure 1): it replays a concrete trace against
the program's semantics and accepts iff the trace is one the abstraction
predicts.  The randomized soundness tests drive the real interpreter and
require every produced trace to be accepted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..lang import ast
from ..lang import types as ty
from ..lang.errors import SymbolicError
from ..lang.validate import CALL_RESULT_TYPE, ProgramInfo
from ..runtime.actions import ACall, ARecv, ASelect, ASend, ASpawn, Action
from ..runtime.interpreter import KernelState, eval_expr, _Scope
from ..runtime.trace import Trace
from ..lang.values import VBool, VComp, Value
from .expr import FreshNames, SComp, SVar, Term, lift_value
from .seval import SymPath, eval_sexpr, sym_exec
from .templates import TCall, TRecv, TSelect, TSpawn, Template

# ---------------------------------------------------------------------------
# Init summary
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InitSummary:
    """The (unique) post-Init symbolic state: environment, trace templates,
    and the Init components."""

    env: Tuple[Tuple[str, Term], ...]
    actions: Tuple[Template, ...]
    comps: Tuple[SComp, ...]

    def env_dict(self) -> Dict[str, Term]:
        return dict(self.env)


def init_summary(info: ProgramInfo, fresh: FreshNames) -> InitSummary:
    """Evaluate the Init section symbolically.

    Everything is concrete except external call results, which are fresh
    symbolic variables (``init_call``) — the world answers them
    non-deterministically.
    """
    env: Dict[str, Term] = {}
    actions: List[Template] = []
    comps: List[SComp] = []
    for cmd in info.program.init:
        if isinstance(cmd, ast.Nop):
            continue
        if isinstance(cmd, ast.Assign):
            env[cmd.var] = eval_sexpr(cmd.expr, env, {}, None, info)
        elif isinstance(cmd, ast.SpawnCmd):
            config = tuple(
                eval_sexpr(e, env, {}, None, info) for e in cmd.config
            )
            comp = SComp(
                label=f"init_{cmd.bind}",
                ctype=cmd.ctype,
                config=config,
                origin="init",
                seq=fresh.seq(),
            )
            comps.append(comp)
            actions.append(TSpawn(comp))
            env[cmd.bind] = comp
        elif isinstance(cmd, ast.CallCmd):
            args = tuple(
                eval_sexpr(e, env, {}, None, info) for e in cmd.args
            )
            result = fresh.var(f"init_call_{cmd.func}", CALL_RESULT_TYPE,
                               "init_call")
            actions.append(TCall(cmd.func, args, result))
            env[cmd.bind] = result
        else:  # pragma: no cover - validation forbids this
            raise SymbolicError(f"non-flat Init command {cmd}")
    return InitSummary(
        env=tuple(sorted(env.items())),
        actions=tuple(actions),
        comps=tuple(comps),
    )


# ---------------------------------------------------------------------------
# Generic inductive step
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Exchange:
    """All symbolic paths of one (component type, message type) exchange.

    ``sender`` is an arbitrary component of the type (fresh configuration
    variables); ``payload`` are fresh payload variables; every path's action
    list starts with the ``Select``/``Recv`` boundary templates.
    """

    ctype: str
    msg: str
    sender: SComp
    payload: Tuple[SVar, ...]
    handler: Optional[ast.Handler]
    paths: Tuple[SymPath, ...]

    @property
    def key(self) -> Tuple[str, str]:
        return (self.ctype, self.msg)

    def __str__(self) -> str:
        return f"{self.ctype}=>{self.msg} ({len(self.paths)} paths)"


@dataclass(frozen=True)
class GenericStep:
    """The full inductive step: the arbitrary pre-state and every exchange.

    ``pre_env`` maps each global to its pre-state term: a fresh ``state``
    variable for data globals, the Init component term for component
    globals (immutable after Init).
    """

    info: ProgramInfo
    init: InitSummary
    pre_env: Tuple[Tuple[str, Term], ...]
    exchanges: Tuple[Exchange, ...]

    def pre_env_dict(self) -> Dict[str, Term]:
        return dict(self.pre_env)

    def exchange(self, ctype: str, msg: str) -> Exchange:
        index = self.info.program.effect_index
        return self.exchanges[index.positions[(ctype, msg)]]


def arbitrary_pre_env(info: ProgramInfo, init: InitSummary,
                      fresh: FreshNames) -> Dict[str, Term]:
    """The environment of an arbitrary reachable state."""
    init_env = init.env_dict()
    env: Dict[str, Term] = {}
    for name_, type_ in info.global_types.items():
        if isinstance(type_, ty.CompType):
            env[name_] = init_env[name_]
        else:
            env[name_] = fresh.var(name_, type_, "state")
    return env


def generic_step(info: ProgramInfo,
                 fresh: Optional[FreshNames] = None,
                 executor=None) -> GenericStep:
    """Build the inductive step for ``info``.

    Deterministic, and *locally* so: the Init summary, the pre-state
    environment, and each exchange draw from their own prefixed name
    supplies, so editing one handler leaves every other exchange's terms
    unchanged — so a stored fragment of an unedited exchange still
    revalidates against the edited program's step.

    ``executor`` selects the symbolic evaluator for handler bodies
    (``sym_exec``-compatible); the default walks the AST, while
    :func:`repro.symbolic.compile.compiled_executor` runs pre-compiled
    step programs.  Both produce identical terms in identical order.
    """
    init = init_summary(info, fresh or FreshNames("init:"))
    pre_env = arbitrary_pre_env(info, init, FreshNames("pre:"))
    exchanges: List[Exchange] = []
    for ctype, msg in info.program.exchange_keys():
        exchanges.append(build_exchange(
            info, ctype, msg, pre_env, init.comps,
            FreshNames(f"{ctype}.{msg}:"),
            executor=executor,
        ))
    return GenericStep(
        info=info,
        init=init,
        pre_env=tuple(sorted(pre_env.items())),
        exchanges=tuple(exchanges),
    )


def build_exchange(info: ProgramInfo, ctype: str, msg: str,
                   pre_env: Dict[str, Term], known: Tuple[SComp, ...],
                   fresh: FreshNames, executor=None) -> Exchange:
    """Symbolically evaluate one (component type, message type) exchange."""
    decl = info.comp_table[ctype]
    msg_decl = info.msg_table[msg]
    sender = SComp(
        label=fresh.comp_label(f"sender_{ctype}"),
        ctype=ctype,
        config=tuple(
            fresh.var(f"{ctype}_{f.name}", f.type, "config")
            for f in decl.config
        ),
        origin="sender",
        seq=fresh.seq(),
    )
    handler = info.program.handler_for(ctype, msg)
    if handler is not None:
        payload = tuple(
            fresh.var(f"{msg}_{param}", type_, "payload")
            for param, type_ in zip(handler.params, msg_decl.payload)
        )
        params = dict(zip(handler.params, payload))
        body: ast.Cmd = handler.body
    else:
        payload = tuple(
            fresh.var(f"{msg}_{i}", type_, "payload")
            for i, type_ in enumerate(msg_decl.payload)
        )
        params = {}
        body = ast.Nop()
    boundary: Tuple[Template, ...] = (
        TSelect(sender),
        TRecv(sender, msg, payload),
    )
    run = executor if executor is not None else sym_exec
    paths = run(
        info, body, pre_env, params, sender, known, fresh,
        base_actions=boundary,
    )
    return Exchange(
        ctype=ctype,
        msg=msg,
        sender=sender,
        payload=payload,
        handler=handler,
        paths=tuple(paths),
    )


# ---------------------------------------------------------------------------
# The executable "sats" arrow: trace acceptance
# ---------------------------------------------------------------------------


class RejectedTrace(Exception):
    """Raised by :class:`AbstractionChecker` with the reason a trace is not
    one the abstraction predicts."""


class AbstractionChecker:
    """Replays a concrete trace against the program semantics.

    Independent of the :class:`~repro.runtime.world.World`: call results and
    spawned component identities are taken from the trace itself, so the
    checker accepts exactly the traces the abstraction allows.  The
    randomized soundness suite asserts ``interpreter traces ⊆ accepted``.
    """

    def __init__(self, info: ProgramInfo) -> None:
        self.info = info

    def accepts(self, trace: Trace) -> bool:
        try:
            self.check(trace)
            return True
        except RejectedTrace:
            return False

    def check(self, trace: Trace) -> None:
        """Raise :class:`RejectedTrace` unless the trace is predicted."""
        actions = list(trace.chronological())
        cursor = _Cursor(actions)
        state = KernelState(comp_decls=dict(self.info.comp_table))
        self._replay_init(cursor, state)
        while not cursor.done():
            self._replay_exchange(cursor, state)

    # -- init -----------------------------------------------------------------

    def _replay_init(self, cursor: "_Cursor", state: KernelState) -> None:
        scope = _Scope({}, None)
        for cmd in self.info.program.init:
            if isinstance(cmd, ast.Nop):
                continue
            if isinstance(cmd, ast.Assign):
                state.env[cmd.var] = eval_expr(cmd.expr, state, scope)
            elif isinstance(cmd, ast.SpawnCmd):
                comp = self._expect_spawn(cursor, state, scope, cmd)
                state.env[cmd.bind] = VComp(comp)
            elif isinstance(cmd, ast.CallCmd):
                state.env[cmd.bind] = self._expect_call(cursor, state,
                                                        scope, cmd)
            else:  # pragma: no cover - validation forbids this
                raise RejectedTrace(f"non-flat Init command {cmd}")

    # -- exchanges --------------------------------------------------------------

    def _replay_exchange(self, cursor: "_Cursor",
                         state: KernelState) -> None:
        select = cursor.next("a Select action")
        if not isinstance(select, ASelect):
            raise RejectedTrace(f"expected Select, found {select}")
        if select.comp not in state.comps:
            raise RejectedTrace(
                f"Select of unknown component {select.comp}"
            )
        recv = cursor.next("a Recv action")
        if not isinstance(recv, ARecv) or recv.comp != select.comp:
            raise RejectedTrace(
                f"expected Recv from {select.comp}, found {recv}"
            )
        decl = self.info.msg_table.get(recv.msg)
        if decl is None or len(recv.payload) != decl.arity:
            raise RejectedTrace(f"malformed message in {recv}")
        handler = self.info.program.handler_for(recv.comp.ctype, recv.msg)
        if handler is None:
            return
        scope = _Scope(dict(zip(handler.params, recv.payload)), recv.comp)
        self._replay_cmd(handler.body, cursor, state, scope)

    def _replay_cmd(self, cmd: ast.Cmd, cursor: "_Cursor",
                    state: KernelState, scope: _Scope) -> _Scope:
        if isinstance(cmd, ast.Nop):
            return scope
        if isinstance(cmd, ast.Assign):
            state.env[cmd.var] = eval_expr(cmd.expr, state, scope)
            return scope
        if isinstance(cmd, ast.Seq):
            running = scope
            for c in cmd.cmds:
                running = self._replay_cmd(c, cursor, state, running)
            return scope
        if isinstance(cmd, ast.If):
            cond = eval_expr(cmd.cond, state, scope)
            if not isinstance(cond, VBool):
                raise RejectedTrace(f"non-boolean branch condition {cmd}")
            branch = cmd.then if cond.b else cmd.otherwise
            self._replay_cmd(branch, cursor, state, scope)
            return scope
        if isinstance(cmd, ast.SendCmd):
            target = eval_expr(cmd.target, state, scope)
            payload = tuple(
                eval_expr(a, state, scope) for a in cmd.args
            )
            action = cursor.next(f"Send for {cmd}")
            if not isinstance(action, ASend):
                raise RejectedTrace(f"expected Send, found {action}")
            if not isinstance(target, VComp) or action.comp != target.comp \
                    or action.msg != cmd.msg or action.payload != payload:
                raise RejectedTrace(
                    f"Send mismatch: program prescribes "
                    f"send({target}, {cmd.msg}{payload}), trace has {action}"
                )
            return scope
        if isinstance(cmd, ast.SpawnCmd):
            comp = self._expect_spawn(cursor, state, scope, cmd)
            if cmd.bind is not None:
                return scope.bind(cmd.bind, VComp(comp))
            return scope
        if isinstance(cmd, ast.CallCmd):
            result = self._expect_call(cursor, state, scope, cmd)
            return scope.bind(cmd.bind, result)
        if isinstance(cmd, ast.LookupCmd):
            for comp in state.lookup_components(cmd.ctype):
                candidate = scope.bind(cmd.bind, VComp(comp))
                verdict = eval_expr(cmd.pred, state, candidate)
                if isinstance(verdict, VBool) and verdict.b:
                    self._replay_cmd(cmd.found, cursor, state, candidate)
                    return scope
            self._replay_cmd(cmd.missing, cursor, state, scope)
            return scope
        raise RejectedTrace(f"unknown command form {cmd!r}")

    # -- helpers ---------------------------------------------------------------

    def _expect_spawn(self, cursor: "_Cursor", state: KernelState,
                      scope: _Scope, cmd: ast.SpawnCmd):
        config = tuple(
            eval_expr(e, state, scope) for e in cmd.config
        )
        action = cursor.next(f"Spawn for {cmd}")
        if not isinstance(action, ASpawn):
            raise RejectedTrace(f"expected Spawn, found {action}")
        comp = action.comp
        if comp.ctype != cmd.ctype or comp.config != config:
            raise RejectedTrace(
                f"Spawn mismatch: program prescribes {cmd.ctype}{config}, "
                f"trace has {action}"
            )
        if any(existing.ident == comp.ident for existing in state.comps):
            raise RejectedTrace(f"re-spawn of existing component {comp}")
        state.comps.append(comp)
        return comp

    def _expect_call(self, cursor: "_Cursor", state: KernelState,
                     scope: _Scope, cmd: ast.CallCmd) -> Value:
        args = tuple(eval_expr(e, state, scope) for e in cmd.args)
        action = cursor.next(f"Call for {cmd}")
        if not isinstance(action, ACall):
            raise RejectedTrace(f"expected Call, found {action}")
        if action.func != cmd.func or action.args != args:
            raise RejectedTrace(
                f"Call mismatch: program prescribes {cmd.func}{args}, "
                f"trace has {action}"
            )
        return action.result


class _Cursor:
    """A consuming cursor over the chronological action list."""

    def __init__(self, actions: List[Action]) -> None:
        self._actions = actions
        self._pos = 0

    def next(self, expectation: str) -> Action:
        if self._pos >= len(self._actions):
            raise RejectedTrace(f"trace ended; expected {expectation}")
        action = self._actions[self._pos]
        self._pos += 1
        return action

    def done(self) -> bool:
        return self._pos >= len(self._actions)
