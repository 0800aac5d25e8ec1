"""The executable form of the paper's "sats" arrow (Figure 1).

:class:`AbstractionChecker` replays a concrete trace against the
program's semantics and accepts iff the trace is one the behavioral
abstraction ``BehAbs`` (:mod:`repro.symbolic.behabs`) predicts.  The
randomized soundness oracle (:mod:`repro.harness.soundness`) drives the
real interpreter and requires every produced trace to be accepted.

The replay is concrete code: it evaluates expressions with the
interpreter's :func:`~repro.runtime.interpreter.eval_expr` but walks
commands itself, so the oracle compares the interpreter against an
independent reference.  Nothing here imports the symbolic layer or the
prover.
"""

from __future__ import annotations

from typing import List

from ..lang import ast
from ..lang.validate import CALL_RESULT_TYPE, ProgramInfo
from ..lang.values import VBool, VComp, Value, type_of
from .actions import ACall, ARecv, ASelect, ASend, ASpawn, Action
from .interpreter import KernelState, _Scope, eval_expr, message_complaint
from .trace import Trace


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
        complaint = message_complaint(self.info, recv.comp, recv.msg,
                                      recv.payload)
        if complaint is not None:
            raise RejectedTrace(f"malformed message in {recv}: {complaint}")
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
        if type_of(action.result) != CALL_RESULT_TYPE:
            raise RejectedTrace(
                f"Call result of type {type_of(action.result)}, expected "
                f"{CALL_RESULT_TYPE}: {action}"
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
