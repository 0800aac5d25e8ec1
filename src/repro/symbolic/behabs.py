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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..lang import ast
from ..lang import types as ty
from ..lang.errors import SymbolicError
from ..lang.validate import CALL_RESULT_TYPE, ProgramInfo
from .expr import FreshNames, SComp, SVar, Term
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
                 fresh: Optional[FreshNames] = None) -> GenericStep:
    """Build the inductive step for ``info``.

    Deterministic, and *locally* so: the Init summary, the pre-state
    environment, and each exchange draw from their own prefixed name
    supplies, so editing one handler leaves every other exchange's terms
    unchanged — so a stored fragment of an unedited exchange still
    revalidates against the edited program's step.

    Every handler body is evaluated by :func:`repro.symbolic.seval.sym_exec`,
    inside the checker's import closure: the step the checker replays
    is built by trusted code alone.
    """
    init = init_summary(info, fresh or FreshNames("init:"))
    pre_env = arbitrary_pre_env(info, init, FreshNames("pre:"))
    exchanges: List[Exchange] = []
    for ctype, msg in info.program.exchange_keys():
        exchanges.append(build_exchange(
            info, ctype, msg, pre_env, init.comps,
            FreshNames(f"{ctype}.{msg}:"),
        ))
    return GenericStep(
        info=info,
        init=init,
        pre_env=tuple(sorted(pre_env.items())),
        exchanges=tuple(exchanges),
    )


def build_exchange(info: ProgramInfo, ctype: str, msg: str,
                   pre_env: Dict[str, Term], known: Tuple[SComp, ...],
                   fresh: FreshNames) -> Exchange:
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
    paths = sym_exec(
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
